"""The golden-row helper: what a mismatch names, and that every golden file
is read by one test."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

import golden
from golden import assert_rows

ROWS = [(f"q{i}", f"a{i}") for i in range(8)]


@pytest.fixture
def golden_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(golden, "GOLDEN_DIR", tmp_path)
    return tmp_path


def _report(rows) -> str:
    """What a failing assert_rows names, below the line naming the file."""
    with pytest.raises(AssertionError) as info:
        assert_rows("sample", rows)
    return str(info.value).partition("\n")[2]


def test_missing_file_is_written_and_fails(golden_dir):
    with pytest.raises(AssertionError, match="was missing"):
        assert_rows("sample", ROWS)
    assert (golden_dir / "sample.txt").read_text() == "".join(f"{k}\t{a}\n" for k, a in ROWS)
    assert_rows("sample", iter(ROWS))


@pytest.mark.parametrize(
    "rows, report",
    [
        (ROWS[:3] + [("q3", "A3")] + ROWS[4:], "1 changed, first:\n  q3\tA3"),
        (ROWS + [("q8", "a8")], "1 added, first:\n  q8\ta8"),
        (ROWS[:-1], "1 removed, first:\n  q7\ta7"),
        (
            ROWS[:2] + [ROWS[5]] + ROWS[3:5] + [ROWS[2]] + ROWS[6:],
            "2 out of recorded order, first:\n  q5\ta5\n  q2\ta2",
        ),
    ],
    ids=["changed", "added", "removed", "reordered"],
)
def test_mismatch_names_exactly_the_rows_that_moved(golden_dir, rows, report):
    (golden_dir / "sample.txt").write_text("".join(f"{k}\t{a}\n" for k, a in ROWS))
    assert _report(rows) == report


@pytest.mark.parametrize(
    "rows",
    [[("q0", "a0"), ("q0", "a1")], [("q\t0", "a0")], [("q0", "a\n0")]],
    ids=["duplicate-key", "tab-in-key", "two-line-answer"],
)
def test_malformed_rows_are_refused(golden_dir, rows):
    with pytest.raises(ValueError):
        assert_rows("sample", rows)
    assert not any(golden_dir.iterdir())


def test_hashed_rows_still_name_the_key(golden_dir):
    """Past the size cap each answer is kept as 16 hex digits, and a changed
    answer is still named by its key, with the new answer in full."""
    rows = [(f"q{i}", f"{i:04d}" + "x" * 1000) for i in range(250)]
    with pytest.raises(AssertionError, match="was missing"):
        assert_rows("sample", rows)
    stored = [line.split("\t") for line in (golden_dir / "sample.txt").read_text().splitlines()]
    assert [(key, len(answer)) for key, answer in stored] == [(key, 16) for key, _ in rows]
    rows[7] = ("q7", "changed")
    assert _report(rows) == "1 changed, first:\n  q7\tchanged"


def test_every_golden_is_read_by_exactly_one_call():
    """Each golden file is named by one literal ``assert_rows`` call in the
    tests, so a renamed or deleted test leaves no file that nothing reads;
    and no golden file passes 256 KB."""
    names: Counter = Counter()
    for path in Path(__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == "assert_rows"
                and node.args
                and isinstance(node.args[0], ast.Constant)
            ):
                names[node.args[0].value] += 1
    files = sorted(golden.GOLDEN_DIR.glob("*.txt"))
    assert files
    assert {path.stem: names[path.stem] for path in files} == {path.stem: 1 for path in files}
    assert [path.name for path in files if path.stat().st_size > 256 * 1024] == []
