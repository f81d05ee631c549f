"""Compare two files of benchmark records (``run.py --record``), parent first.

For every end-to-end metric and workload it prints the ratio of medians
(change / parent), the parent's quartile spread as a share of its median,
and a verdict against the bound in BENCHMARK.json:

* regressed  - the change's median is worse than the parent's by more than the bound;
* unresolved - the parent's own spread exceeds the bound and not every change
  run beats every parent run;
* improved   - better by more than the parent's spread, with the change's run
  better in at least nine tenths of all (parent, change) pairs of runs, or,
  when the parent's spread exceeds the bound, every change run better than
  every parent run;
* unchanged  - otherwise;
* incorrect  - some run of the change on that workload was incorrect.

Then, per workload, it lists operations failed over operations attempted
in each file and flags the change when any of its runs is incorrect (an
operation failed other than in the known way) or it fails a larger share of
its operations than the parent.  Per-layer metrics from traced records are
listed as ratios only.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def _records(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _load(records):
    runs = defaultdict(lambda: defaultdict(list))  # (trace, workload) -> metric -> values
    for rec in records:
        for name, m in rec["metrics"].items():
            runs[(rec["trace"], rec["workload"])][name].append(m["value"])
    return runs


def _failures(records):
    """workload -> [failed, attempted, incorrect runs, runs] summed over the records."""
    out = defaultdict(lambda: [0, 0, 0, 0])
    for rec in records:
        tally = out[rec["workload"]]
        tally[0] += rec["failed"]
        tally[1] += rec["attempted"]
        tally[2] += not rec["correct"]
        tally[3] += 1
    return out


def _spread(values):
    """Interquartile distance as a share of the median (0 for fewer than two runs)."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(parent, change, bound, higher_is_better):
    """Classify the change's runs against the parent's runs."""
    pm, cm = statistics.median(parent), statistics.median(change)
    sign = -1.0 if higher_is_better else 1.0
    worse = sign * (cm - pm) / abs(pm) if pm else 0.0
    spread = _spread(parent)
    better = (lambda c, p: c > p) if higher_is_better else (lambda c, p: c < p)
    wins = sum(better(c, p) for c in change for p in parent) / (len(change) * len(parent))
    if worse > bound:
        return "regressed"
    if spread > bound:
        return "improved" if wins == 1.0 else "unresolved"
    if -worse > spread and wins >= 0.9:
        return "improved"
    return "unchanged"


def main(parent_path, change_path, spec_path) -> int:
    spec = json.loads(open(spec_path).read())
    parent_recs, change_recs = _records(parent_path), _records(change_path)
    parent, change = _load(parent_recs), _load(change_recs)
    pf, cf = _failures(parent_recs), _failures(change_recs)
    print(f"{'workload':14s} {'metric':14s} {'parent':>12s} {'change':>12s} "
          f"{'ratio':>8s} {'spread':>7s} {'bound':>6s}  verdict (runs)")
    for (trace, workload) in sorted(k for k in parent if k[0] == 0):
        for m in spec["end_to_end"]:
            p = parent[(0, workload)].get(m["name"])
            c = change.get((0, workload), {}).get(m["name"])
            if not p or not c:
                continue
            pm, cm = statistics.median(p), statistics.median(c)
            # a time saved by failing is no gain: no verdict for incorrect changes
            v = "incorrect" if cf[workload][2] else verdict(p, c, m["bound"],
                                                            m["better"] == "higher")
            print(f"{workload:14s} {m['name']:14s} {pm:12.6g} {cm:12.6g} {cm / pm:8.4f} "
                  f"{_spread(p):7.3f} {m['bound']:6.2f}  {v} ({len(p)}/{len(c)})")
    print(f"\n{'workload':14s} {'parent failed':>16s} {'change failed':>16s}  verdict")
    for workload in sorted(pf):
        if workload not in cf:
            continue
        (p_fail, p_att, _, _), (c_fail, c_att, c_bad, c_runs) = pf[workload], cf[workload]
        if c_bad:
            v = f"INCORRECT in {c_bad} of {c_runs} runs"
        elif c_fail / c_att > p_fail / p_att:
            v = "more failures"
        elif c_fail / c_att < p_fail / p_att:
            v = "fewer failures"
        else:
            v = "same"
        print(f"{workload:14s} {f'{p_fail}/{p_att}':>16s} {f'{c_fail}/{c_att}':>16s}  {v}")
    for (trace, workload) in sorted(k for k in parent if k[0] == 1):
        if (1, workload) not in change:
            continue
        print(f"\nper-layer, {workload} (median change / median parent)")
        for m in spec["per_layer"]:
            p = parent[(1, workload)].get(m["name"])
            c = change[(1, workload)].get(m["name"])
            if not p or not c:
                continue
            pm, cm = statistics.median(p), statistics.median(c)
            ratio = f"{cm / pm:8.4f}" if pm else "     n/a"
            print(f"  {m['name']:38s} {pm:14.6g} {cm:14.6g} {ratio} {m['unit']}")
    return 0
