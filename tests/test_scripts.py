"""The scripts under scripts/, loaded as files and driven in-process."""

from __future__ import annotations

import runpy
from importlib import resources
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_reproduce_values_matches_committed_golden():
    script = runpy.run_path(str(SCRIPTS / "reproduce_values.py"))
    golden = resources.files("gallai").joinpath("data/eval_golden.txt").read_bytes()
    assert script["golden_text"]().encode() == golden


def test_census_prints_one_row_per_pair(capsys):
    script = runpy.run_path(str(SCRIPTS / "census.py"))
    assert script["main"](["--n-max", "5", "--k-max", "4"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["n", "k", "classes", "seconds"]
    assert [row.split()[:3] for row in rows] == [["5", "4", "8"]]
