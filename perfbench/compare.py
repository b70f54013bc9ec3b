#!/usr/bin/env python3
"""Compare benchmark results from two commits.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records perfbench/run.py --out appends, one per
run. Runs are grouped by workload and trace mode and paired in the
order they were recorded (run the two commits alternately, parent
first in odd pairs and change first in even ones). For every
workload x metric the tool prints each side's median and quartiles
over its runs, the fraction of pairs the change won (ties count for
neither side), and a verdict:

  improved    the change won at least 9 of 10 pairs (10 pairs or
              more), its median is better by more than the parent's
              own quartile distance, and it failed no more checks;
  regressed   its median is worse than the parent's by more than the
              metric's bound in BENCHMARK.json;
  unresolved  the parent's own spread (quartile distance over median)
              is wider than the bound, and not every change run beats
              every parent run;
  unchanged   otherwise.

Per-layer metrics have no bound; for them only "improved" and
"regressed" (the mirror of the improved rule) are decided, and
anything else is "unchanged".
"""

import json
import sys

from run import SPEC, quartiles

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path):
    groups = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                groups.setdefault((rec["workload"], rec["trace"]),
                                  []).append(rec)
    return groups


def better(a, b, higher):
    """True if value a is better than b."""
    return a > b if higher else a < b


def verdict(parent, change, higher, bound, change_failed_more):
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(better(c, p, higher) for p, c in pairs)
    losses = sum(better(p, c, higher) for p, c in pairs)
    spread = pq3 - pq1
    win_share = wins / len(pairs) if pairs else 0.0
    if (len(pairs) >= MIN_PAIRS and win_share >= WIN_SHARE
            and abs(cmed - pmed) > spread and better(cmed, pmed, higher)
            and not change_failed_more):
        return win_share, "improved"
    if bound is None:
        if (len(pairs) >= MIN_PAIRS and losses / len(pairs) >= WIN_SHARE
                and abs(cmed - pmed) > spread):
            return win_share, "regressed"
        return win_share, "unchanged"
    worse_by = (pmed - cmed if higher else cmed - pmed) / abs(pmed)
    if worse_by > bound:
        return win_share, "regressed"
    all_better = all(better(c, p, higher) for c in change for p in parent)
    if spread / abs(pmed) > bound and not all_better:
        return win_share, "unresolved"
    return win_share, "unchanged"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    metrics = {m["name"]: (m["better"] == "higher", m.get("bound"))
               for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    parent, change = load(argv[1]), load(argv[2])
    print(f"{'workload':16} {'metric':32} {'parent median [q1, q3]':>35} "
          f"{'change median [q1, q3]':>35} {'delta':>8} {'won':>5} "
          "verdict")
    for key in sorted(set(parent) & set(change)):
        precs, crecs = parent[key], change[key]
        pfailed = sum(r["failed"] for r in precs)
        cfailed = sum(r["failed"] for r in crecs)
        for name, (higher, bound) in metrics.items():
            if name not in precs[0]["metrics"]:
                continue
            pv = [r["metrics"][name] for r in precs]
            cv = [r["metrics"][name] for r in crecs]
            pq1, pmed, pq3 = quartiles(pv)
            cq1, cmed, cq3 = quartiles(cv)
            share, v = verdict(pv, cv, higher, bound, cfailed > pfailed)
            delta = (cmed - pmed) / abs(pmed) if pmed else 0.0
            print(f"{key[0]:16} {name:32} "
                  f"{pmed:12.5g} [{pq1:9.5g}, {pq3:9.5g}] "
                  f"{cmed:12.5g} [{cq1:9.5g}, {cq3:9.5g}] "
                  f"{delta:+8.1%} {share:5.2f} {v}")
        print(f"{key[0]:16} runs {len(precs)} vs {len(crecs)}, "
              f"failed checks {pfailed} vs {cfailed}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
