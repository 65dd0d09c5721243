#!/usr/bin/env python3
"""Summarize one results file, or compare a parent's results with a change's.

    python3 bench/compare.py PARENT.json [CHANGE.json]

A results file is what `bench/run.py --out FILE` appends to: one record per
run.  For each workload and end-to-end metric of BENCHMARK.json this prints
the median and quartiles over runs, and the spread (q3 - q1) / median.
Given a second file it also pairs runs by seed and prints per-pair wins and
a verdict:

- unresolved: a side's spread exceeds the metric's bound, and not every
  run of the change beats every run of the parent;
- regression: the change's median is worse than the parent's by more
  than the bound;
- gain: the change wins at least nine tenths of the pairs and the medians
  differ by more than the parent's quartile distance;
- same: none of these.

It also reports whether both files measured identical inputs (by digest).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def runs_by_workload(path: Path) -> dict[str, dict[int, dict]]:
    """Untraced runs per workload, keyed by seed (a later run of a seed wins)."""
    out: dict[str, dict[int, dict]] = {}
    for run in json.loads(path.read_text())["runs"]:
        if not run["trace"]:
            out.setdefault(run["workload"], {})[run["seed"]] = run
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], new: list[float], pairs: list[tuple[float, float]],
            bound: float, lower_is_better: bool) -> tuple[str, int]:
    sign = 1.0 if lower_is_better else -1.0
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    wins = sum(1 for b, n in pairs if sign * (b - n) > 0)
    if sign * (nm - bm) > bound * bm:
        return "regression", wins
    if (b3 - b1) > bound * bm or (n3 - n1) > bound * nm:
        beats_all = (max(new) < min(base)) if lower_is_better else (min(new) > max(base))
        if not beats_all:
            return "unresolved", wins
    if pairs and wins >= 0.9 * len(pairs) and abs(nm - bm) > (b3 - b1):
        return "gain", wins
    return "same", wins


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    sides = [runs_by_workload(Path(p)) for p in argv]
    for workload in sorted(set().union(*sides)):
        base = sides[0].get(workload, {})
        new = sides[1].get(workload, {}) if len(sides) == 2 else {}
        print(f"{workload}: {len(base)} run(s)" + (f" vs {len(new)}" if len(sides) == 2 else ""))
        common = sorted(base.keys() & new.keys())
        if common:
            same = all(base[s].get("inputs") == new[s].get("inputs") for s in common)
            print(f"  inputs identical on {len(common)} shared seed(s): {'yes' if same else 'NO'}")
        for name, m in metrics.items():
            rows = []
            for runs in ([base, new] if new else [base]):
                values = [r["metrics"][name]["value"] for r in runs.values()
                          if name in r["metrics"]]
                if not values:
                    continue
                q1, med, q3 = quartiles(values)
                rows.append(values)
                print(f"  {name:<12s} median {med:10.6g} {m['unit']:<3s} "
                      f"q1 {q1:10.6g} q3 {q3:10.6g} spread {(q3 - q1) / med:6.3f} "
                      f"(bound {m['bound']}, n={len(values)})")
            if len(rows) == 2:
                pairs = [(base[s]["metrics"][name]["value"], new[s]["metrics"][name]["value"])
                         for s in common
                         if name in base[s]["metrics"] and name in new[s]["metrics"]]
                word, wins = verdict(rows[0], rows[1], pairs, m["bound"], m["better"] == "lower")
                print(f"  {name:<12s} change wins {wins}/{len(pairs)} pairs: {word}")
        fails = [r["fail_ratio"] for runs in (base, new) for r in runs.values()]
        print(f"  fail_ratio max {max(fails):g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
