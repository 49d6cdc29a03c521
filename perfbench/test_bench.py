"""Smoke test of the benchmark itself, on a tiny job list.

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
import workloads
from workloads import cli_job, grid_unit, p4_job, p5_job, replay_job, sweep_unit

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _grid_row(name: str) -> dict:
    return next(row for row in workloads.construction_grid() if row["name"] == name)


def _tampered(row: dict) -> list:
    """G3 at t=5 with edge (0, 1) recolored 5: the path 1-0-4-2-3 becomes
    rainbow, so the replay must fail."""
    build, _ = grid_unit(row)

    def source(result):
        cert = json.loads(result.out)
        for edge in cert["coloring"]["edges"]:
            if edge[:2] == [0, 1]:
                edge[2] = 5
        return cert

    return [build, replay_job("replay tampered G3", row["target"], row["order"], source)]


def tiny_workload(tamper: bool) -> list:
    any_output = lambda result: None  # noqa: E731  (the smoke test checks mechanics, not values)
    units = [
        [cli_job("check S4^1 k=4 n=6", ["check", "--H", "S4^1", "--k", "4", "--n", "6"],
                 workloads.EXIT_OK, any_output)],
        [cli_job("search S5^1 k=5", ["search", "--H", "S5^1", "--k", "5", "--n-max", "6"],
                 workloads.EXIT_OK, any_output)],
        grid_unit(_grid_row("F3")),
        sweep_unit("S6^1", "4", "S6^1        4  7         th3-2,co3-1,th3-8,th3-9", ["0", "F1", "6"]),
        [p5_job("p5 C5-free", workloads.build_named("F2", {"t": 6}), True)],
        [p4_job("p4", workloads.ColoredComplete(4, 3, [1, 2, 3, 3, 2, 1]))],
    ]
    if tamper:
        units.append(_tampered(_grid_row("G3")))
    return units


def _run(monkeypatch, capsys, trace: int, tamper: bool):
    monkeypatch.setattr(workloads, "setup", lambda name, seed: tiny_workload(tamper))
    code = run.main(["--workload", "search", "--seed", "7", "--seconds", "1", "--trace", str(trace)])
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result, lines[:-1], captured.err


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(monkeypatch, capsys, trace, group):
    result, report, _ = _run(monkeypatch, capsys, trace, tamper=False)
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[group]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.split()[:1] == [name] and f" {unit}" in line for line in report), name
    if trace == 0:
        assert any(line.startswith("fail_ratio") for line in report)


def test_enumeration_funnel(monkeypatch, capsys):
    result, _, _ = _run(monkeypatch, capsys, 1, tamper=False)
    value = {name: m["value"] for name, m in result["metrics"].items()}
    enum = "structure.enumerate_p5free"
    assert 0 < value[f"{enum}.classes"] <= value[f"{enum}.canonical_calls"]
    assert value[f"{enum}.canonical_calls"] <= value[f"{enum}.rainbow_calls"]
    assert value[f"{enum}.canonical_calls"] <= value["canonical.canonical_form.calls"]
    assert value[f"{enum}.rainbow_calls"] <= value["detectors.find_rainbow_path.calls"]


def test_tampered_certificate_counts_as_failed(monkeypatch, capsys):
    result, _, err = _run(monkeypatch, capsys, 0, tamper=True)
    passes = run.passes_for("search", 1)
    assert result["attempted"] == passes * sum(map(len, tiny_workload(True)))
    assert result["failed"] == passes
    assert result["correct"] is False
    assert "replay tampered G3: raised WitnessFailure: rainbow 4-edge path" in err



def test_speed_scaling_and_tail_rank():
    job_a, job_b = object(), object()
    results = [(job_a, None, None, 0.5), (job_b, None, None, 0.2)]
    slot = {id(job_b): 0, id(job_a): 1}
    at_nominal = run.scaled_job_seconds(results, [run.NOMINAL_PROBE_S] * 4, [0, 2], slot)
    assert list(at_nominal) == [0.2, 0.5]
    twice_as_slow = run.scaled_job_seconds(results, [2 * run.NOMINAL_PROBE_S] * 4, [0, 2], slot)
    assert list(twice_as_slow) == [0.1, 0.25]
    assert run.tail_pct(204) == 95 and run.tail_pct(120) == 91 and run.tail_pct(9) == 100
    assert run.nearest_rank(list(range(1, 101)), 95) == 95
