#!/usr/bin/env python3
"""Compare a parent and a change: ``compare.py A.json B.json``.

A holds the parent commit's runs, B the change's, both appended by
``run.py --out``.  Alternate the two sides run by run, so that run i of
A and run i of B form a pair measured under the same host load.

For every workload and end-to-end metric the tool prints each side's
median and quartiles, the share of pairs the change wins (ties count
for neither side) and a verdict against the bound in ``BENCHMARK.json``:

* ``unresolved`` -- either side's quartile spread exceeds the bound, and
  not every run of B beats every run of A;
* ``regressed`` -- B's median is worse than A's by more than the bound;
* ``improved`` -- B wins at least 9 of 10 pairs and the medians differ
  by more than A's quartile spread;
* ``no change`` -- otherwise.

It also reports ``ops_failed/ops_total`` per side and any disagreement
on ``decisions_digest`` between runs of one workload and seed.  The
exit status is 1 when a metric regressed, an operation failed or a
digest disagrees.
"""

from __future__ import annotations

import argparse
import json
from collections import defaultdict
from pathlib import Path

from run import ROOT, quartiles

#: Share of pairs the change must win to claim a gain.
WIN_SHARE = 0.9


def verdict(a: list[float], b: list[float], better: str, bound: float):
    """(verdict, share of pairs B wins) for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) < 0 for x, y in pairs) / len(pairs)
    spread = max((a_q3 - a_q1) / abs(a_med), (b_q3 - b_q1) / abs(b_med))
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    worse = sign * (b_med - a_med) / abs(a_med)
    if spread > bound and not all_better:
        return "unresolved", wins
    if worse > bound:
        return "regressed", wins
    if wins >= WIN_SHARE and worse < 0 and abs(b_med - a_med) > a_q3 - a_q1:
        return "improved", wins
    return "no change", wins


def load(path: Path) -> list[dict]:
    return json.loads(path.read_text())["runs"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="runs of the parent (A)")
    parser.add_argument("change", type=Path, help="runs of the change (B)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"A": load(args.parent), "B": load(args.change)}

    bad = False
    untraced = {side: defaultdict(list) for side in sides}
    for side, runs in sides.items():
        for rec in runs:
            if not rec["trace"]:
                untraced[side][rec["workload"]].append(rec)
    for workload in sorted(set(untraced["A"]) | set(untraced["B"])):
        a_runs, b_runs = untraced["A"][workload], untraced["B"][workload]
        print(f"== {workload}: {len(a_runs)} parent runs, "
              f"{len(b_runs)} change runs")
        if not a_runs or not b_runs:
            print("  (one side has no untraced runs)")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name] for r in a_runs if name in r["metrics"]]
            b = [r["metrics"][name] for r in b_runs if name in r["metrics"]]
            if not a or not b:
                print(f"  {name:<14} missing")
                bad = True
                continue
            result, wins = verdict(a, b, metric["better"], metric["bound"])
            bad |= result == "regressed"
            a_q1, a_med, a_q3 = quartiles(a)
            b_q1, b_med, b_q3 = quartiles(b)
            print(
                f"  {name:<14} A {a_med:10.5g} [{a_q1:.5g}, {a_q3:.5g}]  "
                f"B {b_med:10.5g} [{b_q1:.5g}, {b_q3:.5g}] {metric['unit']:<9}"
                f" B wins {wins:4.0%}  bound {metric['bound']:.0%}  {result}"
            )
        for side, runs in (("A", a_runs), ("B", b_runs)):
            failed = sum(r["ops_failed"] for r in runs)
            total = sum(r["ops_total"] for r in runs)
            bad |= failed > 0
            print(f"  ops_failed/ops_total {side}: {failed}/{total}")

    digests = defaultdict(set)
    for runs in sides.values():
        for rec in runs:
            key = (rec["workload"], rec["seed"])
            digests[key].add(rec["decisions_digest"])
    for (workload, seed), ds in sorted(digests.items()):
        if len(ds) > 1:
            bad = True
            print(f"decisions_digest MISMATCH: {workload} seed {seed}: "
                  f"{sorted(map(str, ds))}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
