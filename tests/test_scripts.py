"""The census script, loaded as a file and driven in-process; criterion 5 of
``test_acceptance.py`` runs ``reproduce_values.py`` the same way."""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_census_prints_one_row_per_pair(capsys):
    script = runpy.run_path(str(SCRIPTS / "census.py"))
    assert script["main"](["--n-max", "5", "--k-max", "4"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["n", "k", "classes", "seconds"]
    assert [row.split()[:3] for row in rows] == [["5", "4", "8"]]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n-min", "10", "--n-max", "10"], "n <= 9, got 10"),
        (["--n-min", "4", "--n-max", "4"], "n >= 5, got n=4"),
        (["--n-max", "5", "--k-min", "3"], "k >= 4"),
    ],
    ids=["n-above-limit", "n-below-limit", "k-below-limit"],
)
def test_census_refuses_pairs_outside_the_limits(capsys, argv, message):
    script = runpy.run_path(str(SCRIPTS / "census.py"))
    assert script["main"](argv) == 2
    out, err = capsys.readouterr()
    assert out.splitlines()[1:] == []
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
