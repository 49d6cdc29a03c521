#!/usr/bin/env python3
"""Census of rainbow-path-free exact coloring classes.

For each (n, k) in the requested ranges, print how many isomorphism classes
the structure-guided enumerator finds and how long the scan took.  A pair
outside the enumerator's limits ends the table with one ``error:`` line on
stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import sys
import time

from gallai.structure import enumerate_p5free


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-min", type=int, default=5)
    parser.add_argument("--n-max", type=int, default=7)
    parser.add_argument("--k-min", type=int, default=4)
    parser.add_argument("--k-max", type=int, default=6)
    args = parser.parse_args(argv)

    print(f"{'n':>3} {'k':>3} {'classes':>9} {'seconds':>9}")
    for n in range(args.n_min, args.n_max + 1):
        for k in range(args.k_min, args.k_max + 1):
            start = time.monotonic()
            try:
                reps = enumerate_p5free(n, k)
            except ValueError as exc:  # (n, k) outside the enumerator's limits
                print(f"error: {exc}", file=sys.stderr)
                return 2
            elapsed = time.monotonic() - start
            print(f"{n:>3} {k:>3} {len(reps):>9} {elapsed:>9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
