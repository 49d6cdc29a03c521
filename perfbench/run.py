"""Benchmark of the gallai toolkit: one closed-loop client, in-process.

    python3 perfbench/run.py --workload {search,certify,classify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  The client issues one job at a time, the next only after the
previous one returns.  The worker count is the user default (``GALLAI_THREADS``
or the CPU count) and is printed.

Workloads (see ``workloads.py`` for the job lists):

* ``search``: threshold pinning by ``search`` and ``check`` at n <= 9.
  ``canonical``, ``structure.enumerate_p5free`` and the brute force at
  n <= 4 carry the load.
* ``certify``: every grid construction built, certified and replayed, and
  every value-table query answered by ``eval`` and the ``witness``
  dispatcher.  The detectors run exhaustively on rainbow-free colorings of
  order up to 25; ``canonical`` and ``structure`` are not called.
* ``classify``: seeded random colorings and relabeled builder outputs
  through ``classify_p5free`` / ``classify_p4free``.  Most inputs hold a
  rainbow path, so the rainbow detector exits early, the opposite of
  ``certify``.

A run issues the workload's fixed job list ``passes`` times (more passes for
a longer ``--seconds``; the count depends only on the workload and
``--seconds``, so ``job_ms.tail`` always reads the same percentile).  On a
host so slow that the next pass would take the passes past DEADLINE_FACTOR
times ``--seconds``, the run stops early, after at least MIN_PASSES passes,
and still reads the percentile set by the planned count.  Outputs are
checked after each pass, outside the timed region.  A job fails when it
raises, exits with another code than expected, or its output fails its
check; failures do not stop the run.

With ``--trace 0`` the last line reports the end-to-end metrics: ``wall_s``
(median pass), ``job_ms.p50``, ``job_ms.tail``, ``setup_s`` (median of
fresh-process set-ups: import, data tables, input generation) and
``peak_rss_mb``.  ``fail_ratio`` is ``failed / attempted`` on that line.
With more than 100 jobs in a pass, ``job_ms.p50`` and ``job_ms.tail`` are
taken over each job's median over the passes.

Times are reported at a fixed reference speed of the host.  On a shared
2-CPU host the speed of a core drifts by a third over tens of seconds, and
the same pass of ``certify`` took 4.1 to 8.2 s.  A fixed pure-Python loop,
``speed_probe``, is timed between units for about every PROBE_EVERY_S of
job time, and its mean over a pass tracked that pass's wall time (r = 0.9
over 50 passes).  A pass's wall time is multiplied by NOMINAL_PROBE_S over
the mean probe of the pass, each job's time by NOMINAL_PROBE_S over the mean
of the PROBE_WINDOW probes on either side of it, and each set-up by
NOMINAL_PROBE_S over the mean of the probes just before and after it.  A
change to the program moves the job times and not the probe, so it shows in
full.  The raw times and the scales are printed next to the scaled values.

With ``--trace 1`` two untraced passes are followed by one traced pass, whose
spans give the per-layer metrics (see ``tracer.py``) and are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# Seconds one pass takes on a 2-CPU x86-64 machine under Python 3.11.
NOMINAL_PASS_S = {"search": 2.8, "certify": 5.3, "classify": 2.3}
MIN_PASSES = 3
DEADLINE_FACTOR = 1.25
SETUP_PROBES = 5
TRACE_UNTRACED_PASSES = 2
TAIL_BEYOND = 10

PROBE_PERMUTATIONS = 360
PROBE_ITERS = 8000
# Mean seconds of one speed_probe on a 2-CPU x86-64 machine under Python 3.11,
# over half an hour of benchmark runs.
NOMINAL_PROBE_S = 2.8e-3
# A probe for about every this much job time; at most PROBE_BURST after one unit.
PROBE_EVERY_S = 0.05
PROBE_BURST = 8
SETUP_PROBE_BURST = 5
# Probes on either side of a job that scale its time.
PROBE_WINDOW = 6


def passes_for(workload: str, seconds: int) -> int:
    return max(MIN_PASSES, math.floor(seconds / NOMINAL_PASS_S[workload]))


def tail_pct(n: int) -> int:
    """The highest whole percentile with at least TAIL_BEYOND of n samples
    above its nearest rank; 100 when there are too few samples."""
    for pct in range(99, 0, -1):
        if n - math.ceil(pct * n / 100) >= TAIL_BEYOND:
            return pct
    return 100


def nearest_rank(samples: list[float], pct: int) -> float:
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(pct * len(ordered) / 100)) - 1]


def speed_probe() -> float:
    """Seconds one fixed pure-Python loop takes: how fast the host runs the
    interpreter right now.  It sorts, hashes and does arithmetic, as the
    program does, and calls nothing in the program.  The cyclic collector
    is paused meanwhile, so a collection the jobs' garbage is due is not
    charged to the probe."""
    gc.disable()
    began = time.perf_counter()
    table, total = {}, 0
    for perm in itertools.islice(itertools.permutations(range(6)), PROBE_PERMUTATIONS):
        key = tuple(sorted((p ^ i, i) for i, p in enumerate(perm)))
        table[key] = table.get(key, 0) + 1
    for i in range(PROBE_ITERS):
        key = i * 7919 % 1009
        table[key] = table.get(key, 0) + 1
        total += i * i % 7
    seconds = time.perf_counter() - began
    gc.enable()
    return seconds


def run_pass(units, rng: random.Random):
    """Issue every unit once, in a seeded order, with speed probes between
    units.  Returns the seconds spent outside the probes, per job
    (job, output, error, seconds), the probe times, and per job the number
    of probes taken before it ended."""
    order = list(units)
    rng.shuffle(order)
    results, probes, marks = [], [], []
    start = time.perf_counter()
    since_probe = 0.0
    for unit in order:
        output = None
        unit_began = time.perf_counter()
        for job in unit:
            began = time.perf_counter()
            try:
                output, error = job.call(output), None
            except Exception as exc:  # a raising job is a failed job, not the end of the run
                output, error = None, f"raised {type(exc).__name__}: {exc}"
            results.append((job, output, error, time.perf_counter() - began))
            marks.append(len(probes))
        since_probe += time.perf_counter() - unit_began
        due = min(PROBE_BURST, int(since_probe / PROBE_EVERY_S))
        if due:
            probes += [speed_probe() for _ in range(due)]
            since_probe = 0.0
    probes.append(speed_probe())
    return time.perf_counter() - start - sum(probes), results, probes, marks


def speed_scale(probes: list[float]) -> float:
    """The factor that takes times measured alongside these probes to the
    reference speed.  The mean, not the median: a wall time adds up every
    slow stretch of the pass, and the probes sample those stretches."""
    return NOMINAL_PROBE_S / statistics.fmean(probes)


def scaled_job_seconds(results, probes, marks, slot: dict[int, int]) -> array:
    """Each job's seconds at the reference speed, scaled by the PROBE_WINDOW
    probes on either side of it: the host's speed drifts within a pass.
    Job ``job`` is at ``slot[id(job)]``; a flat array keeps the memory a
    pass adds small, so ``peak_rss_mb`` hardly depends on the pass count."""
    scale_at = {
        mark: speed_scale(probes[max(0, mark - PROBE_WINDOW):mark + PROBE_WINDOW])
        for mark in set(marks)
    }
    times = array("d", bytes(8 * len(slot)))
    for (job, _, _, seconds), mark in zip(results, marks):
        times[slot[id(job)]] = seconds * scale_at[mark]
    return times


def failures_in(results) -> list[str]:
    """Check every output of a pass; run outside the timed and traced region."""
    failures = []
    for job, output, error, _ in results:
        reason = error or job.verify(output)
        if reason:
            failures.append(f"{job.label}: {reason}")
    return failures


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter until it could issue the
    first job, as measured and at the reference speed."""
    probes = [speed_probe() for _ in range(SETUP_PROBE_BURST)]
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    seconds = float(done.stdout.split()[-1]) - start
    probes += [speed_probe() for _ in range(SETUP_PROBE_BURST)]
    return seconds, seconds * speed_scale(probes)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("search", "certify", "classify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the monotonic clock and exit (used to time set-up)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "gallai").is_dir():
        print(f"error: no gallai package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import tracer
    import workloads
    from gallai.structure import resolve_threads

    units = workloads.setup(args.workload, args.seed)
    if args.setup_probe:
        print(time.monotonic())
        return 0

    passes = passes_for(args.workload, args.seconds)
    jobs_per_pass = sum(len(unit) for unit in units)
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "threads": resolve_threads(),
        "jobs_per_pass": jobs_per_pass,
        "passes": TRACE_UNTRACED_PASSES + 1 if args.trace else passes,
    }
    print("# env " + json.dumps(env), flush=True)

    rng = random.Random(f"schedule-{args.seed}")
    # Per pass: raw wall seconds, the speed scale of the pass, and each job's
    # seconds at the reference speed, in the order of ``slot``.
    slot = {id(job): i for i, job in enumerate(job for unit in units for job in unit)}
    walls, scales, pass_times, failures = [], [], [], []

    def record(wall, results, probes, marks):
        walls.append(wall)
        scales.append(speed_scale(probes))
        pass_times.append(scaled_job_seconds(results, probes, marks, slot))
        failures.extend(failures_in(results))

    untraced = TRACE_UNTRACED_PASSES if args.trace else passes
    spent = last = 0.0
    for done in range(untraced):
        if done >= MIN_PASSES and spent + last > DEADLINE_FACTOR * args.seconds:
            break
        began = time.perf_counter()
        record(*run_pass(units, rng))
        last = time.perf_counter() - began
        spent += last

    if args.trace:
        spans = tracer.Tracer()
        with spans.installed(workloads):
            traced = run_pass(units, rng)
        record(*traced)

    attempted = len(pass_times) * jobs_per_pass
    scaled_walls = [wall * scale for wall, scale in zip(walls, scales)]
    if args.trace:
        values = spans.metrics()
        values["trace.overhead_ratio"] = scaled_walls[-1] / scaled_walls[-2]
        spans.write(ROOT / "perfbench" / "out" / f"spans-{args.workload}-seed{args.seed}.tsv")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in tracer.METRICS}
        for name, metric in metrics.items():
            print(f"{name:<48} {metric['value']:>14.6g} {metric['unit']}")
    else:
        setups = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        if jobs_per_pass >= 10 * TAIL_BEYOND:
            # Each job's median over the passes, then the percentiles over
            # jobs: a job's time varies by a sixth from pass to pass, and
            # pooled order statistics of a fixed job mix land on the slowest
            # copy of one job or the fastest of the next.
            samples = [statistics.median(times[i] for times in pass_times) for i in range(jobs_per_pass)]
            p50 = statistics.median(samples)
            pct = tail_pct(len(samples))
            tail = nearest_rank(samples, pct)
            p50_note = f"median over {len(samples)} jobs of each job's median over {len(pass_times)} passes"
            tail_note = f"p{pct} of the same {len(samples)} per-job medians"
        else:
            # A pass of fewer than 100 jobs has no tail percentile of its
            # own (p90 or above), so its tail is taken over all passes.
            p50 = statistics.median(statistics.median(times) for times in pass_times)
            pct = tail_pct(passes * jobs_per_pass)
            tail = nearest_rank([t for times in pass_times for t in times], pct)
            p50_note = f"median of per-pass medians, {len(pass_times)} x {jobs_per_pass} samples"
            tail_note = f"p{pct} of all {attempted} samples"
        metrics = {
            "wall_s": {"value": statistics.median(scaled_walls), "unit": "s"},
            "job_ms.p50": {"value": p50 * 1000, "unit": "ms"},
            "job_ms.tail": {"value": tail * 1000, "unit": "ms"},
            "setup_s": {"value": statistics.median(scaled for _, scaled in setups), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
        notes = {
            "wall_s": "median of passes; raw " + " ".join(f"{wall:.3f}" for wall in walls)
                      + ", speed scale " + " ".join(f"{scale:.3f}" for scale in scales),
            "job_ms.p50": p50_note,
            "job_ms.tail": tail_note,
            "setup_s": f"median of {len(setups)} fresh processes; raw "
                       + " ".join(f"{raw:.3f}" for raw, _ in setups),
            "peak_rss_mb": "max resident set of this process",
        }
        for name, metric in metrics.items():
            print(f"{name:<12} {metric['value']:>12.4f} {metric['unit']:<3} ({notes[name]})")
        print(f"{'fail_ratio':<12} {len(failures) / attempted:>12.4f} ratio "
              f"({len(failures)} of {attempted} jobs)")

    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
