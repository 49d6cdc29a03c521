"""Golden rows: a recorded output kept as one ``key<TAB>answer`` line per row
in ``tests/golden/<name>.txt``, so that a failure names the rows that moved.
To re-record one, delete its file, re-run its test (which writes the file and
fails), and read ``git diff tests/golden/``."""

from __future__ import annotations

import hashlib
from collections import Counter
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent / "golden"
# Past this much text a golden keeps a 64-bit hash of each answer instead, so
# that no file grows past about 256 KB.
MAX_TEXT_BYTES = 200 * 1024


def _table(text: str) -> dict[str, str]:
    return dict(line.partition("\t")[::2] for line in text.splitlines())


def assert_rows(name: str, rows) -> None:
    """Compare ``rows``, (key, answer) pairs of one-line strings without a
    tab and with unique keys, with the golden ``name``.  A missing golden is
    written, and the call fails."""
    rows = list(rows)
    repeated = [key for key, count in Counter(key for key, _ in rows).items() if count > 1]
    if repeated or not all(key.isprintable() and answer.isprintable() for key, answer in rows):
        raise ValueError(f"golden rows need one-line strings and unique keys; {repeated} repeat")
    text = "".join(f"{key}\t{answer}\n" for key, answer in rows)
    if len(text.encode()) > MAX_TEXT_BYTES:
        text = "".join(
            f"{key}\t{hashlib.blake2b(answer.encode(), digest_size=8).digest().hex()}\n"
            for key, answer in rows
        )
    path = GOLDEN_DIR / f"{name}.txt"
    if not path.exists():
        path.parent.mkdir(exist_ok=True)
        path.write_text(text, encoding="utf-8")
        raise AssertionError(f"{path} was missing; recorded {len(rows)} rows, re-run the test")
    recorded = path.read_text(encoding="utf-8")
    if recorded == text:
        return
    old, new = _table(recorded), _table(text)
    shown = {**old, **dict(rows)}  # new rows in full; a removed one as recorded
    moved = {
        "changed": [key for key in new if old.get(key, new[key]) != new[key]],
        "added": [key for key in new if key not in old],
        "removed": [key for key in old if key not in new],
        "out of recorded order": [
            now for was, now in zip([k for k in old if k in new], [k for k in new if k in old])
            if was != now
        ],
    }
    report = [f"{path} does not hold these rows:"]
    for label, keys in moved.items():
        if keys:
            report += [f"{len(keys)} {label}, first:"] + [f"  {k}\t{shown[k]}" for k in keys[:5]]
    raise AssertionError("\n".join(report))
