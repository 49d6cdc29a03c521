"""The README's examples: every ``$ gallai ...`` line run through main(argv),
and the facts its Library snippet states."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from gallai import compute_gr, evaluate, lower_bound_witness, parse_hspec
from gallai.cli import EXIT_OK, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
_ELAPSED = re.compile(r'"elapsed_ms":\d+')


def _code_blocks(lang: str) -> list[str]:
    """The fenced blocks opened by ```lang, in README order."""
    blocks: list[str] = []
    fence: str | None = None
    for line in README.splitlines(keepends=True):
        if line.startswith("```"):
            if fence is None:
                fence = line[3:].strip()
                body = []
            else:
                if fence == lang:
                    blocks.append("".join(body))
                fence = None
        elif fence is not None:
            body.append(line)
    return blocks


def _shell_examples() -> list[tuple[str, str | None]]:
    """(command line, printed line or None) for every ``$ gallai`` line."""
    examples = []
    for block in _code_blocks(""):
        lines = block.splitlines()
        for i, line in enumerate(lines):
            if line.startswith("$ gallai "):
                shown = lines[i + 1] if i + 1 < len(lines) and lines[i + 1] else None
                examples.append((line[len("$ gallai "):], shown))
    return examples


def _pattern(shown: str) -> re.Pattern:
    """``shown`` as a full-line pattern: ``{...}`` and ``...`` match
    anything, and the elapsed time is masked."""
    parts = re.split(r"\{\.\.\.\}|\.\.\.", _ELAPSED.sub('"elapsed_ms":#', shown))
    return re.compile(".*".join(re.escape(part) for part in parts))


def test_readme_has_shell_examples():
    assert len(_shell_examples()) == 6


@pytest.mark.parametrize("command, shown", _shell_examples())
def test_shell_example(capsys, command, shown):
    code = main(shlex.split(command))
    out = capsys.readouterr().out
    assert code == EXIT_OK
    if shown is not None:
        printed = _ELAPSED.sub('"elapsed_ms":#', out.rstrip("\n"))
        assert _pattern(shown).fullmatch(printed), (command, out)


def test_library_snippet():
    """The snippet runs, and its comments state what it returns."""
    (snippet,) = _code_blocks("python")
    exec(snippet, {})
    H = parse_hspec("S4^1")
    res = evaluate(H, 5)
    assert (res.value, res.provenance) == (5, ("th2-2-1", "coro2-4", "th3-6"))
    assert '# 5, provenance ("th2-2-1", "coro2-4", "th3-6")' in snippet
    assert compute_gr(H, 5, n_max=8).value == 5
    witness = lower_bound_witness(H, 3)
    assert (witness.label, witness.order) == ("F7", 15)
    assert '# 15-vertex certificate, label "F7"' in snippet
