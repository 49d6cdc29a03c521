"""Spans around the calls into each layer, recorded from outside the program.

The tracer wraps public functions where their callers look them up: in the
namespace of each calling module (``gallai.search.enumerate_p5free`` is the
binding ``check_n`` calls) and in the benchmark's own ``workloads`` module.
``ColoredComplete.__init__`` is wrapped on the class, and
``ColoredComplete.color_of`` only counts its calls, because it runs millions
of times.  Nothing is patched outside ``Tracer.installed()``.

Each span is ``(id, parent id, layer name, start, end, info)``; ``info`` is
what the layer's result says about the work (a hit, a class count, the
examined count).  Each thread keeps its own stack of open spans; the work
``parallel_map`` hands to its pool is parented to the ``parallel_map`` span,
so pool work is attributed to its caller.  Spans stay in memory until the
pass ends, and every per-layer number is derived from them.

Self times are wall-clock: spans of two pool workers overlap while they
take turns on the interpreter lock, so on ``search`` the self times of the
layers under ``parallel_map`` can add up to more than the pass took.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from gallai.graphs import ColoredComplete

# How a layer's result is recorded in its span.
PLAIN = "plain"  # nothing
HIT = "hit"  # 1 when the search found something
SIZE = "size"  # the number of items returned
CHECK = "check"  # (k, n, examined) of a CheckOutcome
POOL = "pool"  # parallel_map: pool work is parented to this span
GENERATOR = "generator"  # one span per resumption, info 1 when it yielded

# (calling module, name bound there, layer name, how its result is recorded)
TARGETS = (
    ("workloads", "main", "cli.main", PLAIN),
    ("workloads", "replay_certificate", "search.replay_certificate", PLAIN),
    ("workloads", "classify_p5free", "structure.classify_p5free", PLAIN),
    ("workloads", "classify_p4free", "structure.classify_p4free", PLAIN),
    ("gallai.cli", "evaluate", "formulas.evaluate", PLAIN),
    ("gallai.cli", "build_named", "constructions.build_named", PLAIN),
    ("gallai.cli", "lower_bound_witness", "constructions.lower_bound_witness", PLAIN),
    ("gallai.cli", "verify_witness", "search.verify_witness", PLAIN),
    ("gallai.cli", "replay_certificate", "search.replay_certificate", PLAIN),
    ("gallai.cli", "check_n", "search.check_n", CHECK),
    ("gallai.cli", "compute_gr", "search.compute_gr", PLAIN),
    ("gallai.cli", "enumerate_p5free", "structure.enumerate_p5free", SIZE),
    ("gallai.cli", "classify_p5free", "structure.classify_p5free", PLAIN),
    ("gallai.cli", "classify_p4free", "structure.classify_p4free", PLAIN),
    ("gallai.search", "check_n", "search.check_n", CHECK),
    ("gallai.search", "verify_witness", "search.verify_witness", PLAIN),
    ("gallai.search", "brute_force_colorings", "search.brute_force_colorings", GENERATOR),
    ("gallai.search", "enumerate_p5free", "structure.enumerate_p5free", SIZE),
    ("gallai.search", "parallel_map", "structure.parallel_map", POOL),
    ("gallai.search", "canonical_form", "canonical.canonical_form", PLAIN),
    ("gallai.search", "coloring_from_key", "canonical.coloring_from_key", PLAIN),
    ("gallai.search", "find_rainbow_path", "detectors.find_rainbow_path", HIT),
    ("gallai.search", "find_mono_copy", "detectors.find_mono_copy", HIT),
    ("gallai.search", "find_mono_copy_in_color", "detectors.find_mono_copy_in_color", HIT),
    ("gallai.structure", "parallel_map", "structure.parallel_map", POOL),
    ("gallai.structure", "canonical_form", "canonical.canonical_form", PLAIN),
    ("gallai.structure", "coloring_from_key", "canonical.coloring_from_key", PLAIN),
    ("gallai.structure", "find_rainbow_path", "detectors.find_rainbow_path", HIT),
    ("gallai.constructions", "find_mono_copy_in_color", "detectors.find_mono_copy_in_color", HIT),
    ("gallai.detectors", "find_mono_copy_in_color", "detectors.find_mono_copy_in_color", HIT),
)

COLORED_COMPLETE = "graphs.ColoredComplete"
COLOR_OF = "graphs.color_of"

# Layers reported with .calls and .self_s (brute_force_colorings with
# .yielded instead of .calls, since a generator's spans are resumptions).
LAYERS = (
    (COLORED_COMPLETE,)
    + tuple(dict.fromkeys(layer for _, _, layer, _ in TARGETS))
)

# Per-layer metrics in output order: (name, unit, better).
METRICS = (
    tuple(
        (f"{layer}.{kind}", unit, "lower")
        for layer in LAYERS
        for kind, unit in (
            ("yielded" if layer == "search.brute_force_colorings" else "calls", "count"),
            ("self_s", "s"),
        )
    )
    + (
        (f"{COLOR_OF}.calls", "count", "lower"),
        ("detectors.find_rainbow_path.hits", "count", "higher"),
        ("detectors.find_mono_copy.hits", "count", "higher"),
        ("detectors.find_mono_copy_in_color.hits", "count", "higher"),
        ("structure.enumerate_p5free.classes", "count", "lower"),
        ("structure.enumerate_p5free.rainbow_calls", "count", "lower"),
        ("structure.enumerate_p5free.canonical_calls", "count", "lower"),
        ("structure.enumerate_p5free.kept_ratio", "ratio", "higher"),
        ("search.check_n.examined", "count", "lower"),
        ("search.check_n.repeat_share", "ratio", "higher"),
        ("constructions.lower_bound_witness.verified", "count/call", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    )
)


def _info(kind: str, result):
    if result is None:
        return 0 if kind == HIT else None
    if kind == HIT:
        return 1
    if kind == SIZE:
        return len(result)
    if kind == CHECK:
        return (result.k, result.n, result.examined)
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._color_of_calls = itertools.count()
        self.color_of_calls = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, layer: str, kind: str):
        spans, ids = self.spans, self._ids

        if kind == GENERATOR:

            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    stack = self._stack()
                    sid = next(ids)
                    parent = stack[-1] if stack else 0
                    stack.append(sid)
                    start = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        spans.append((sid, parent, layer, start, perf_counter(), 0))
                        return
                    finally:
                        stack.pop()
                    spans.append((sid, parent, layer, start, perf_counter(), 1))
                    yield item

            return traced_generator

        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            if kind == POOL:
                work, items, threads = args

                def attributed(item):
                    worker_stack = self._stack()
                    worker_stack.append(sid)
                    try:
                        return work(item)
                    finally:
                        worker_stack.pop()

                args = (attributed, items, threads)
            stack.append(sid)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, parent, layer, start, end, _info(kind, result)))

        return traced

    @contextlib.contextmanager
    def installed(self, workloads_module):
        """Wrap every target for the duration of the block."""
        undo = []
        try:
            for module_name, attr, layer, kind in TARGETS:
                if module_name == "workloads":
                    module = workloads_module
                else:
                    module = importlib.import_module(module_name)
                original = getattr(module, attr)
                undo.append((module, attr, original))
                setattr(module, attr, self._wrap(original, layer, kind))
            init, color_of = ColoredComplete.__init__, ColoredComplete.color_of
            undo += [(ColoredComplete, "__init__", init), (ColoredComplete, "color_of", color_of)]
            ColoredComplete.__init__ = self._wrap(init, COLORED_COMPLETE, PLAIN)
            count = self._color_of_calls

            def counted_color_of(c, i, j):
                next(count)
                return color_of(c, i, j)

            ColoredComplete.color_of = counted_color_of
            yield self
        finally:
            for target, attr, original in reversed(undo):
                setattr(target, attr, original)
            self.color_of_calls = next(self._color_of_calls)

    def write(self, path: Path) -> None:
        """Write the spans, one per line: id, parent, layer, start and end
        in microseconds from the first span, info."""
        origin = min((span[3] for span in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("id\tparent\tlayer\tstart_us\tend_us\tinfo\n")
            for sid, parent, layer, start, end, info in self.spans:
                fh.write(
                    f"{sid}\t{parent}\t{layer}\t{(start - origin) * 1e6:.1f}\t"
                    f"{(end - origin) * 1e6:.1f}\t{'' if info is None else info}\n"
                )

    def metrics(self) -> dict[str, float]:
        """Counts and self times per layer, derived from the spans.  A span's
        self time is its duration less the union of its children's
        intervals (pool children may overlap one another)."""
        children = defaultdict(list)
        by_id = {}
        for span in self.spans:
            children[span[1]].append((span[3], span[4]))
            by_id[span[0]] = span

        def covered(intervals, start, end):
            total, reach = 0.0, start
            for lo, hi in sorted(intervals):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    total += hi - lo
                    reach = hi
            return total

        def under(span, layer):
            parent = span[1]
            while parent:
                ancestor = by_id[parent]
                if ancestor[2] == layer:
                    return True
                parent = ancestor[1]
            return False

        calls = defaultdict(int)
        self_s = defaultdict(float)
        info_sum = defaultdict(int)
        for span in self.spans:
            sid, _, layer, start, end, info = span
            calls[layer] += 1
            self_s[layer] += (end - start) - covered(children.get(sid, ()), start, end)
            if isinstance(info, int):
                info_sum[layer] += info

        out: dict[str, float] = {}
        for layer in LAYERS:
            if layer == "search.brute_force_colorings":
                out[f"{layer}.yielded"] = info_sum[layer]
            else:
                out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        out[f"{COLOR_OF}.calls"] = self.color_of_calls
        for layer in ("find_rainbow_path", "find_mono_copy", "find_mono_copy_in_color"):
            out[f"detectors.{layer}.hits"] = info_sum[f"detectors.{layer}"]

        enum = "structure.enumerate_p5free"
        rainbow_under = sum(
            1 for s in self.spans if s[2] == "detectors.find_rainbow_path" and under(s, enum)
        )
        canonical_under = sum(
            1 for s in self.spans if s[2] == "canonical.canonical_form" and under(s, enum)
        )
        classes = info_sum[enum]
        out[f"{enum}.classes"] = classes
        out[f"{enum}.rainbow_calls"] = rainbow_under
        out[f"{enum}.canonical_calls"] = canonical_under
        out[f"{enum}.kept_ratio"] = classes / rainbow_under if rainbow_under else 0.0

        checks = [s[5] for s in self.spans if s[2] == "search.check_n" and s[5] is not None]
        out["search.check_n.examined"] = sum(examined for _, _, examined in checks)
        distinct = len({(k, n) for k, n, _ in checks})
        out["search.check_n.repeat_share"] = 1 - distinct / len(checks) if checks else 0.0

        lbw = "constructions.lower_bound_witness"
        verified = sum(
            1 for s in self.spans if s[2] == "search.verify_witness" and under(s, lbw)
        )
        out[f"{lbw}.verified"] = verified / calls[lbw] if calls[lbw] else 0.0
        return out
