"""Command-line interface.

Exit codes: 0 on success (verified / all-good / exact), 1 when the answer is
negative or unavailable (bad order, inconclusive search, failed verification,
no known construction, unknown value), 2 on usage errors (including an
unknown construction name, missing, extra or repeated parameters, a
parameter outside the builder's domain, a ``--param`` without
``--construction``, or a coloring order beyond ``MAX_COLORING_ORDER``) and
when stdout is closed before the output is written (a pipe into ``head``,
say), which ends the run without a traceback.  3 is an internal error: a
failed invariant (``TheoremViolation``, ``FormulaInconsistency``, an
embedding that fails re-verification) or any other unexpected exception,
reported as one ``internal error:`` line on stderr.  It is never a negative
answer.  ``selftest`` reports a failed invariant as a FAIL line and exits 1.

The argument parser is built once per process and shared by every ``main``
call, so a caller that runs many commands in one process (a test suite, the
benchmark) pays for it once.  When the first argument names a command, the
rest is parsed by that command's own parser alone, and leftover arguments
are reported by the top parser, in the bytes the full parse prints; any
other argument list goes through the full parser.  ``eval --c -1e-3`` is
read as ``--c=-1e-3``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import time

from gallai.canonical import canonical_form
from gallai.constructions import BUILDERS, build_named, construction_grid
from gallai.formulas import (
    KIND_BOUNDS,
    KIND_EXACT,
    KIND_UNKNOWN,
    ConstantOutOfRange,
    GrResult,
    evaluate,
)
from gallai.graphs import (
    ColoredComplete,
    TargetGraph,
    edge_count,
    load_json,
    parse_hspec,
    render_hspec,
    short_repr,
)
from gallai.search import (
    CertificateMismatch,
    InexactWitness,
    WitnessCertificate,
    WitnessFailure,
    check_n,
    compute_gr,
    lower_bound_witness,
    rainbow_p5free_classes,
    replay_certificate,
    verify_witness,
)
from gallai.structure import (
    TheoremViolation,
    classify_p4free,
    classify_p5free,
    enumerate_p5free,
    p5free_classes,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _report_json(report: dict, witness: WitnessCertificate | None) -> str:
    """``_dumps`` of the report with the witness's JSON, when there is one,
    as its last key."""
    text = _dumps(report)
    if witness is None:
        return text
    return f'{text[:-1]},"witness":{witness.to_json()}}}'


def format_value(result: GrResult) -> str:
    if result.kind == KIND_EXACT:
        return str(result.value)
    if result.kind == KIND_BOUNDS:
        hi = "?" if result.hi is None else str(result.hi)
        return f"[{result.lo},{hi}]"
    return "?"


def format_table_row(hspec: str, k: int, result: GrResult) -> str:
    prov = ",".join(result.provenance)
    return f"{hspec:<10} {k:>2}  {format_value(result):<9} {prov}"


def _parse_target(text: str) -> TargetGraph:
    try:
        return parse_hspec(text)
    except ValueError as exc:
        raise ValueError(f"bad target spec {short_repr(text)}: {exc}") from exc


def _read_json(path: str | None):
    if path is None or path == "-":
        return load_json(sys.stdin.read())
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from exc
    return load_json(text)


def _cmd_eval(args) -> int:
    H = _parse_target(args.H)
    try:
        result = evaluate(H, args.k, c=args.c)
    except ConstantOutOfRange as exc:
        raise ValueError(f"bad --c: {exc}") from None
    if args.mode == "table":
        print(format_table_row(render_hspec(H), args.k, result))
    else:
        print(_dumps(result.to_json_dict()))
    return EXIT_OK if result.kind != KIND_UNKNOWN else EXIT_NEGATIVE


def _cmd_witness(args) -> int:
    H = _parse_target(args.H)
    if args.param and args.construction is None:
        raise ValueError("--param needs --construction")
    if args.construction is not None:
        params = {}
        for item in args.param:
            key, _, value = item.partition("=")
            if not _:
                raise ValueError(f"bad --param {item!r}, expected key=value")
            if key in params:
                raise ValueError(f"duplicate --param {key}")
            try:
                params[key] = int(value)
            except ValueError:
                raise ValueError(f"bad --param {item!r}, expected an integer value") from None
        coloring = build_named(args.construction, params)
        try:
            cert = verify_witness(coloring, H, label=args.construction)
        except WitnessFailure as exc:
            print(f"verification failed: {exc}", file=sys.stderr)
            return EXIT_NEGATIVE
    else:
        cert = lower_bound_witness(H, args.k)
        if cert is None:
            print(
                f"no known construction for H={args.H}, k={args.k}", file=sys.stderr
            )
            return EXIT_NEGATIVE
    print(cert.to_json())
    return EXIT_OK


def _cmd_check(args) -> int:
    H = _parse_target(args.H)
    start = time.monotonic()
    outcome = check_n(H, args.k, args.n)
    elapsed_ms = int((time.monotonic() - start) * 1000)
    report = {
        "query": {"target": render_hspec(H), "k": args.k, "n": args.n},
        "status": outcome.status,
        "counts": {"examined": outcome.examined},
        "elapsed_ms": elapsed_ms,
    }
    print(_report_json(report, outcome.witness))
    return EXIT_OK if outcome.all_good else EXIT_NEGATIVE


def _cmd_search(args) -> int:
    H = _parse_target(args.H)
    start = time.monotonic()
    result = compute_gr(H, args.k, args.n_max)
    elapsed_ms = int((time.monotonic() - start) * 1000)
    report = {
        "query": {"target": render_hspec(H), "k": args.k, "n_max": args.n_max},
        "status": result.status,
        "value": result.value,
        "counts": {
            "orders_checked": len(result.outcomes),
            "examined": sum(o.examined for o in result.outcomes),
        },
        "elapsed_ms": elapsed_ms,
    }
    witness = next((o.witness for o in result.outcomes if o.witness is not None), None)
    print(_report_json(report, witness))
    return EXIT_OK if result.status == "exact" else EXIT_NEGATIVE


def _cmd_classify(args) -> int:
    coloring = ColoredComplete.from_json_dict(_read_json(args.file))
    if args.path_edges == 3:
        report = classify_p4free(coloring)
        out = {"case": report.case}
    else:
        report = classify_p5free(coloring)
        out = {"cases": sorted(report.cases)}
    out["rainbow"] = None if report.rainbow is None else report.rainbow.to_json_dict()
    print(_dumps(out))
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    reps = enumerate_p5free(args.n, args.k)
    for rep in reps:
        print(rep.to_json())
    return EXIT_OK


def _cmd_verify(args) -> int:
    data = _read_json(args.file)
    try:
        cert = replay_certificate(data)
    except (WitnessFailure, InexactWitness, CertificateMismatch) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    print(cert.to_json())
    return EXIT_OK


def _selftest_constructions() -> list[str]:
    failures = []
    for entry in construction_grid():
        name = entry["name"]
        params = entry["params"]
        H = parse_hspec(entry["target"])
        try:
            coloring = build_named(name, params)
            if coloring.n != entry["order"]:
                failures.append(
                    f"{name}{params}: order {coloring.n} != expected {entry['order']}"
                )
                continue
            verify_witness(coloring, H, label=name)
        except (ValueError, WitnessFailure) as exc:
            failures.append(f"{name}{params}: {exc}")
    return failures


def _selftest_enumeration() -> list[str]:
    failures = []
    for n, k in ((5, 4), (5, 5)):
        got = {canonical_form(c) for c in enumerate_p5free(n, k)}
        want = rainbow_p5free_classes(n, k)
        if got != want:
            failures.append(
                f"enumerate({n},{k}): {len(got)} classes, ground truth {len(want)}"
            )
    return failures


def _selftest_classifier() -> list[str]:
    """``classify_p5free`` cross-checks its cases against the rainbow
    detector and raises TheoremViolation when they disagree.  Few uniform
    colorings with four colors or more are rainbow-free, so every class of
    ``p5free_classes`` for n 5..7 and k 4..5, for n = 8 and k = 5, and for
    n = 9 and k = 4, is checked too, relabeled, and once more with one edge
    recolored: hosts on both sides of the boundary.  The classes at n = 8
    and k = 5 hold the smallest five-color hosts of case (b), a dominant
    color and four parts; those at n = 9 and k = 4 are the only ones built
    from five-vertex parts."""
    rng = random.Random(20240817)
    for _ in range(300):
        n = rng.randint(5, 8)
        k = rng.randint(2, 8)
        colors = tuple(rng.randint(1, k) for _ in range(edge_count(n)))
        classify_p5free(ColoredComplete(n, k, colors))
    for n, k in [(n, k) for n in range(5, 8) for k in (4, 5)] + [(8, 5), (9, 4)]:
        for c in p5free_classes(n, k):
            c = c.permuted(rng.sample(range(n), n), [0] + rng.sample(range(1, k + 1), k))
            classify_p5free(c)
            classify_p5free(c.recolored(*rng.sample(range(n), 2), rng.randint(1, k)))
    return []


def _cmd_selftest(args) -> int:
    suites = (
        ("constructions", _selftest_constructions),
        ("enumeration", _selftest_enumeration),
        ("classifier", _selftest_classifier),
    )
    ok = True
    for name, suite in suites:
        try:
            failures = suite()
        except TheoremViolation as exc:
            failures = [str(exc)]
        if failures:
            ok = False
            print(f"FAIL {name}")
            for line in failures:
                print(f"  {line}")
        else:
            print(f"PASS {name}")
    return EXIT_OK if ok else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` keeps no
    state between calls, so every ``main`` call shares it.  Callers must not
    change the parser it returns."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top parser and, by command name, each command's own parser."""
    parser = argparse.ArgumentParser(
        prog="gallai",
        description="Verification and search for rainbow-path Ramsey thresholds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="closed-form value or bounds for (H, k)")
    p.add_argument("--H", required=True, help="target graph, e.g. K5, S4^1, PA6,5, K6-M")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--c", type=float, default=None, help="constant for the two-color clique-book bound")
    p.add_argument("--mode", choices=("json", "table"), default="json")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("witness", help="build and verify a lower-bound coloring")
    p.add_argument("--H", required=True)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--k", type=int)
    which.add_argument("--construction", help=f"one of {', '.join(sorted(BUILDERS))}")
    p.add_argument("--param", action="append", default=[], help="key=value, repeatable")
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("check", help="scan all exact k-colorings at one order")
    p.add_argument("--H", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("search", help="pin the exact threshold by downward scan")
    p.add_argument("--H", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True, dest="n_max")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("classify", help="structure cases of a coloring (JSON on stdin)")
    p.add_argument("--file", default=None, help="coloring JSON path, - for stdin")
    p.add_argument("--path-edges", type=int, choices=(3, 4), default=4)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("enumerate", help="stream rainbow-path-free classes, one JSON per line")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("verify", help="replay a certificate JSON")
    p.add_argument("--file", default=None, help="certificate JSON path, - for stdin")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("selftest", help="run the built-in consistency suites")
    p.set_defaults(fn=_cmd_selftest)

    return parser, sub.choices


def _join_c_values(argv: list[str]) -> list[str]:
    """``--c VALUE`` as ``--c=VALUE`` whenever VALUE is a float.  argparse
    takes ``-1e-3`` or ``-inf`` after an option for an option name of its
    own; joined, every float reaches ``--c`` the same way."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--c" and _is_float(arg):
            out[-1] = f"--c={arg}"
        else:
            out.append(arg)
    return out


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """What ``build_parser().parse_args(argv)`` returns or prints.  When
    argv[0] names a command, the rest goes straight to that command's
    parser; the top parser then only reports leftover arguments, with the
    message ``parse_args`` gives them."""
    commands = _parsers()[1]
    if not argv or argv[0] not in commands:
        return build_parser().parse_args(argv)
    args, extra = commands[argv[0]].parse_known_args(argv[1:])
    if extra:
        build_parser().error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


def main(argv: list[str] | None = None) -> int:
    argv = _join_c_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Output still buffered would fail again when the interpreter
        # flushes stdout at exit; send it to the null device instead.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # TheoremViolation, FormulaInconsistency and the re-verification
        # errors are RuntimeErrors; anything else is caught here as well.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
