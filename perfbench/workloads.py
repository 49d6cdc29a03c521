"""Job lists for the three benchmark workloads, and the check of every output.

A job is one call into the program: ``gallai.cli.main(argv)`` or one public
function.  Jobs come in units that run back to back (a witness and the replay
of its certificate); the seed shuffles the units of every workload
and generates the colorings of ``classify``.  The program receives only the
generated inputs.

Every name the jobs call is looked up in this module's namespace at call
time, so the tracer can wrap it here as it wraps the program's own bindings.
The checks use the ``reference_*`` names, which the tracer never wraps and
which run only after a pass has been timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any, Callable

from gallai.cli import main
from gallai.constructions import build_named, construction_grid
from gallai.detectors import find_rainbow_path as reference_rainbow_path
from gallai.formulas import builtin_ramsey_table
from gallai.graphs import ColoredComplete, render_hspec
from gallai.search import replay_certificate
from gallai.search import replay_certificate as reference_replay
from gallai.structure import classify_p4free, classify_p5free

EXIT_OK = 0
EXIT_NEGATIVE = 1

C5 = '{"order":5,"edges":[[0,1],[1,2],[2,3],[3,4],[0,4]]}'

# Acceptance criterion 1 at n_max = 8: (target, k, value, orders checked, examined).
SEARCHES = (
    ("S4^1", 4, 6, 4, 68),
    ("S4^1", 5, 5, 5, 17),
    ("S4^1", 6, 5, 5, 8),
    ("S5^1", 4, 6, 4, 68),
    ("S5^1", 5, 6, 4, 15),
)

# check --n 9: (target, k, status, examined); one target per family, plus S4^1 at k = 5, 6.
CHECKS = (
    ("S5^1", 4, "all-good", 79),
    ("K5", 4, "bad", 79),
    ("PA6,5", 4, "bad", 79),
    ("K6-M", 4, "all-good", 79),
    (C5, 4, "all-good", 79),
    ("S4^1", 5, "all-good", 15),
    ("S4^1", 6, "all-good", 7),
)

# classify: random colorings as in acceptance criterion 4, per pass.
RANDOM_P5 = 9000  # n in 5..9, k in 2..8
RANDOM_P4 = 9000  # n in 4..8, k in 2..8
RELABELS_PER_BUILDER = 9

# Rainbow-path-free builder outputs of order 5..9 (F9 and F10 have order 4,
# below what classify_p5free accepts).
BUILDER_SPECS = (
    [("G3", {"t": t}) for t in range(5, 10)]
    + [
        ("G4", {"a": a, "t": t, "k": k})
        for a, t, ks in (
            (3, 4, (2, 3)), (3, 5, (2, 3)), (4, 3, (2, 3, 4)),
            (4, 4, (2, 3, 4)), (5, 3, (2, 3, 4, 5)),
        )
        for k in ks
    ]
    + [("G5", {"t": t, "k": k}) for t in range(5, 10) for k in range(2, t + 1)]
    + [
        ("G6", {"max_degree": d, "k": k})
        for d, k in ((4, 3), (5, 3), (5, 4), (6, 4), (7, 4), (7, 5), (8, 5))
    ]
    + [("F1", {"t": t}) for t in (6, 7, 8)]
    + [("F2", {"t": t}) for t in range(5, 10)]
    + [("F3", {}), ("F11", {}), ("TW-case-f", {})]
)


@dataclass(frozen=True)
class CliResult:
    code: int
    out: str
    err: str


def run_cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


@dataclass
class Job:
    """One call into the program.  ``call`` gets the previous job's output in
    the same unit; ``check`` returns None when the output is correct, else
    the reason it is not."""

    label: str
    call: Callable[[Any], Any]
    check: Callable[[Any], str | None]
    _verdicts: dict = field(default_factory=dict, repr=False)

    def verify(self, output) -> str | None:
        """The check's verdict, computed once per distinct output."""
        if output not in self._verdicts:
            try:
                self._verdicts[output] = self.check(output)
            except Exception as exc:  # a malformed output is a failed job
                self._verdicts[output] = f"check raised {exc!r}"
        return self._verdicts[output]


def cli_job(label: str, argv: list[str], expected_code: int, check_out) -> Job:
    """A job that runs ``main(argv)``; ``check_out(result)`` checks its output
    once the exit code is the expected one."""

    def check(result: CliResult) -> str | None:
        if "Traceback" in result.err:
            return "traceback on stderr"
        if result.code != expected_code:
            return f"exit {result.code}, expected {expected_code}: {result.err.strip()[:200]}"
        return check_out(result)

    return Job(label, lambda _prev: run_cli(argv), check)


def _json_out(result: CliResult) -> dict:
    return json.loads(result.out)


def check_certificate(cert: dict, target: str, order: int, label: str | None) -> str | None:
    """A certificate JSON for ``target`` at ``order`` that replays."""
    k = cert["colors"]
    if cert["target"] != target or cert["order"] != order or cert["label"] != label:
        return f"certificate {cert['label']}/{cert['target']}/{cert['order']}, expected {label}/{target}/{order}"
    if cert["rainbow_absent"] is not True or cert["mono_absent"] != list(range(1, k + 1)):
        return f"certificate claims rainbow_absent={cert['rainbow_absent']} mono_absent={cert['mono_absent']}"
    replayed = reference_replay(cert)
    if replayed.order != order or replayed.mono_absent != tuple(range(1, k + 1)):
        return "replayed certificate differs"
    return None


# --- search ---------------------------------------------------------------


def _search_jobs() -> list[list[Job]]:
    units = []
    for spec, k, value, orders, examined in SEARCHES:

        def check(result, spec=spec, k=k, value=value, orders=orders, examined=examined):
            out = _json_out(result)
            want = {"status": "exact", "value": value,
                    "counts": {"orders_checked": orders, "examined": examined}}
            got = {key: out[key] for key in want}
            if got != want:
                return f"got {got}, expected {want}"
            # The order just below the value is certified bad by a replayable witness.
            return check_certificate(out["witness"], spec, value - 1, None)

        argv = ["search", "--H", spec, "--k", str(k), "--n-max", "8"]
        units.append([cli_job(f"search {spec} k={k}", argv, EXIT_OK, check)])
    for spec, k, status, examined in CHECKS:

        def check(result, spec=spec, status=status, examined=examined):
            out = _json_out(result)
            got = (out["status"], out["counts"]["examined"])
            if got != (status, examined):
                return f"got {got}, expected {(status, examined)}"
            if status == "bad":
                return check_certificate(out["witness"], out["query"]["target"], 9, None)
            return None if "witness" not in out else "all-good answer carries a witness"

        argv = ["check", "--H", spec, "--k", str(k), "--n", "9"]
        code = EXIT_OK if status == "all-good" else EXIT_NEGATIVE
        units.append([cli_job(f"check {spec} k={k} n=9", argv, code, check)])
    return units


# --- certify --------------------------------------------------------------


def replay_job(label: str, target: str, order: int, source: Callable[[Any], dict]) -> Job:
    """Replay, through ``replay_certificate``, the certificate that
    ``source`` takes from the previous job's output."""

    def call(prev):
        return replay_certificate(source(prev))

    def check(cert) -> str | None:
        k = cert.coloring.k
        if cert.order != order or cert.mono_absent != tuple(range(1, k + 1)):
            return f"replayed order {cert.order}, mono_absent {cert.mono_absent}"
        if render_hspec(cert.H) != target:
            return f"replayed target {render_hspec(cert.H)}, expected {target}"
        return None

    return Job(label, call, check)


def grid_unit(row: dict) -> list[Job]:
    """``witness --construction`` for one grid row, then the replay of its
    certificate."""
    name, target, order = row["name"], row["target"], row["order"]
    argv = ["witness", "--H", target, "--construction", name]
    for key, value in row["params"].items():
        argv += ["--param", f"{key}={value}"]
    label = f"witness {name}{row['params']} {target}"
    build = cli_job(
        label, argv, EXIT_OK,
        lambda result: check_certificate(_json_out(result), target, order, name),
    )
    replay = replay_job(f"replay {name}{row['params']} {target}", target, order, _json_out)
    return [build, replay]


def _data_lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if line.strip() and not line.startswith("#")]


def _value_ceiling(golden_row: str) -> int | None:
    """The exact value or upper bound a golden table row states, if any."""
    value = golden_row.split()[2]
    if value.startswith("["):
        hi = value.strip("[]").split(",")[1]
        return None if hi == "?" else int(hi)
    return None if value == "?" else int(value)


def sweep_unit(spec: str, k: str, golden_row: str, expected: list[str]) -> list[Job]:
    """``eval --mode table`` for one sweep query, then the ``witness``
    dispatcher on the same query."""
    eval_code = EXIT_NEGATIVE if golden_row.split()[2] == "?" else EXIT_OK

    def check_eval(result: CliResult) -> str | None:
        if result.out != golden_row + "\n":
            return f"row {result.out!r} differs from golden {golden_row!r}"
        return None

    code, label, order = int(expected[0]), expected[1], expected[2]

    def check_witness(result: CliResult) -> str | None:
        if code == EXIT_NEGATIVE:
            return None if "no known construction" in result.err else f"stderr {result.err!r}"
        cert = _json_out(result)
        ceiling = _value_ceiling(golden_row)
        if ceiling is not None and cert["order"] >= ceiling:
            return f"witness of order {cert['order']} contradicts the value {ceiling}"
        return check_certificate(cert, spec, int(order), label)

    return [
        cli_job(f"eval {spec} k={k}", ["eval", "--H", spec, "--k", k, "--mode", "table"],
                eval_code, check_eval),
        cli_job(f"witness {spec} k={k}", ["witness", "--H", spec, "--k", k], code, check_witness),
    ]


def _certify_jobs() -> list[list[Job]]:
    units = [grid_unit(row) for row in construction_grid()]
    data = resources.files("gallai").joinpath("data")
    queries = _data_lines(data.joinpath("eval_sweep.txt").read_text())
    golden = _data_lines(data.joinpath("eval_golden.txt").read_text())
    expected = _data_lines((Path(__file__).parent / "witness_golden.txt").read_text())
    if not len(queries) == len(golden) == len(expected):
        raise ValueError("eval_sweep, eval_golden and witness_golden differ in length")
    for query, row, want in zip(queries, golden, expected):
        spec, k = query.split()
        want_spec, want_k, *outcome = want.split()
        if (want_spec, want_k) != (spec, k):
            raise ValueError(f"witness_golden row {want!r} does not match query {query!r}")
        units.append(sweep_unit(spec, k, row, outcome))
    return units


# --- classify -------------------------------------------------------------


def _random_coloring(rng: random.Random, n: int, k: int) -> ColoredComplete:
    return ColoredComplete(n, k, [rng.randint(1, k) for _ in range(n * (n - 1) // 2)])


def _relabeled(rng: random.Random, c: ColoredComplete) -> ColoredComplete:
    vperm = list(range(c.n))
    rng.shuffle(vperm)
    cperm = list(range(1, c.k + 1))
    rng.shuffle(cperm)
    return c.permuted(vperm, [0] + cperm)


def p5_job(label: str, c: ColoredComplete, always_free: bool) -> Job:
    """classify_p5free: cases non-empty exactly when there is no rainbow
    4-edge path, and always on a relabeled builder output."""
    def check(cases: frozenset) -> str | None:
        free = reference_rainbow_path(c, 4) is None
        if bool(cases) != free or (always_free and not free):
            return f"cases {sorted(cases)} but rainbow-path-free={free}"
        return None

    return Job(label, lambda _prev: classify_p5free(c).cases, check)


def p4_job(label: str, c: ColoredComplete) -> Job:
    def check(case: str | None) -> str | None:
        free = reference_rainbow_path(c, 3) is None
        if (case is not None) != free:
            return f"case {case} but rainbow-3-path-free={free}"
        return None

    return Job(label, lambda _prev: classify_p4free(c).case, check)


def _classify_jobs(rng: random.Random) -> list[list[Job]]:
    units = []
    for i in range(RANDOM_P5):
        c = _random_coloring(rng, rng.randint(5, 9), rng.randint(2, 8))
        units.append([p5_job(f"p5 random #{i} n={c.n} k={c.k}", c, False)])
    for i in range(RANDOM_P4):
        c = _random_coloring(rng, rng.randint(4, 8), rng.randint(2, 8))
        units.append([p4_job(f"p4 random #{i} n={c.n} k={c.k}", c)])
    for name, params in BUILDER_SPECS:
        base = build_named(name, params)
        for i in range(RELABELS_PER_BUILDER):
            units.append([p5_job(f"p5 {name}{params} relabel #{i}", _relabeled(rng, base), True)])
    return units


def setup(name: str, seed: int) -> list[list[Job]]:
    """Load the data tables and generate the workload's units of jobs:
    everything the first job needs."""
    construction_grid()
    builtin_ramsey_table()
    if name == "classify":
        return _classify_jobs(random.Random(seed))
    return {"search": _search_jobs, "certify": _certify_jobs}[name]()


