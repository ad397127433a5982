#!/usr/bin/env python
"""Fail when a committed BENCH report's keys drift from a fresh run's.

Compares the key sets of two JSON reports, at the top level and inside
every nested object both reports share (such as each entry of
``modes``).  Values are not compared: timings differ from run to run.
A committed report that lacks a key its script now writes, or keeps one
the script dropped, is stale and must be regenerated.

Usage::

    python benchmarks/check_bench_keys.py FRESH.json COMMITTED.json
"""

from __future__ import annotations

import json
import sys
from typing import List, Optional


def key_drift(fresh: dict, committed: dict, where: str = "") -> List[str]:
    """One line per key present in only one of the two reports."""
    problems = [f"committed report lacks {where}{key}"
                for key in sorted(set(fresh) - set(committed))]
    problems += [f"committed report has stale {where}{key}"
                 for key in sorted(set(committed) - set(fresh))]
    for key in sorted(set(fresh) & set(committed)):
        if isinstance(fresh[key], dict) and isinstance(committed[key], dict):
            problems += key_drift(fresh[key], committed[key],
                                  f"{where}{key}.")
    return problems


def main(argv: Optional[list] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: check_bench_keys.py FRESH.json COMMITTED.json",
              file=sys.stderr)
        return 2
    with open(args[0]) as fresh, open(args[1]) as committed:
        problems = key_drift(json.load(fresh), json.load(committed))
    for problem in problems:
        print(f"ERROR: {args[1]}: {problem}", file=sys.stderr)
    if problems:
        print(f"regenerate {args[1]} with the command that wrote {args[0]}",
              file=sys.stderr)
        return 1
    print(f"{args[1]}: keys match {args[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
