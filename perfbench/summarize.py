#!/usr/bin/env python3
"""Medians and quartiles of benchmark results across runs.

    python3 perfbench/summarize.py parent.jsonl child.jsonl

Each input line is the JSON object a run of ``perfbench/run.py`` prints
last; one file holds one set of runs (one workload on one commit, say).
For every metric of every file this prints the number of runs, the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
interquartile distance as a share of the median.  Each run's value is
taken whole, never mixed with another run's.  Runs that were not
correct are counted and left out.
"""

from __future__ import annotations

import argparse
import json

import benchstats


def load(path: str) -> tuple[list[dict], int]:
    """The correct runs in ``path`` and the number of failed ones."""
    runs, failed = [], 0
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            run = json.loads(line)
            if run["correct"]:
                runs.append(run)
            else:
                failed += 1
    return runs, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+")
    args = parser.parse_args(argv)
    for path in args.files:
        runs, failed = load(path)
        print(f"{path}: {len(runs)} correct run(s), {failed} failed")
        if len(runs) < 2:
            continue
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            q1, median, q3 = benchstats.quartiles(values)
            spread = benchstats.relative_spread(values) if median else float("nan")
            print(
                f"  {name:<36} n={len(values):<3} median {median:<12.6g} "
                f"Q1 {q1:<12.6g} Q3 {q3:<12.6g} spread {spread:.3f} {first['unit']}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
