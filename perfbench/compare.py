#!/usr/bin/env python3
"""Summarise and compare perf benchmark records (written by run.py --record).

    python3 perfbench/compare.py runs.jsonl               # spread per metric
    python3 perfbench/compare.py new.jsonl base.jsonl     # medians vs base

Per workload and metric it prints the run count, median, quartiles and the
spread: (Q3 - Q1) / median with statistics.quantiles(values, n=4). A spread
above its metric's bound in BENCHMARK.json is marked OVER (setup_s is
exempt); against a base, a median worse than the base's by more than the
bound is marked WORSE. Exits 1 when anything is marked. Refuses to compare
records from different hosts or builds.
"""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Provenance that must match for two results to be comparable at all.
HOST_KEYS = ("cpu_model", "nproc", "pool_size", "dust_threads", "build_type",
             "compiler")


def spread(values):
    """Interquartile range as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def host_of(record):
    return tuple(record["provenance"].get(k) for k in HOST_KEYS)


def check_one_host(records):
    hosts = {host_of(r) for r in records}
    if len(hosts) > 1:
        raise SystemExit("refusing to compare across hosts/builds:\n" +
                         "\n".join(str(dict(zip(HOST_KEYS, h))) for h in hosts))


def group(records):
    """{(workload, metric): (unit, [values...])} from untraced and traced runs."""
    out = {}
    for r in records:
        workload = r["provenance"]["workload"]
        for name, m in r["result"]["metrics"].items():
            out.setdefault((workload, name), (m["unit"], []))[1].append(m["value"])
    return out


def bounds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def worse_by(new, base, better):
    """Relative change in the bad direction (positive = worse)."""
    if base == 0:
        return 0.0
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def main(argv):
    if len(argv) not in (2, 3):
        raise SystemExit(__doc__)
    records = load(argv[1])
    base = load(argv[2]) if len(argv) == 3 else []
    check_one_host(records + base)
    limits = bounds()
    new_groups, base_groups = group(records), group(base)
    flagged = False
    print(f"{'workload':16} {'metric':34} {'n':>3} {'median':>14} {'spread':>7} "
          f"{'bound':>6}  {'vs base':>8}")
    for (workload, name), (unit, values) in sorted(new_groups.items()):
        bound, better = limits.get(name, (None, None))
        s = spread(values) if len(values) >= 2 else 0.0
        mark = ""
        if bound is not None and name != "setup_s" and s > bound:
            mark, flagged = " OVER", True
        versus = ""
        if (workload, name) in base_groups and bound is not None:
            change = worse_by(statistics.median(values),
                              statistics.median(base_groups[(workload, name)][1]), better)
            versus = f"{change:+8.3f}"
            if change > bound:
                mark, flagged = mark + " WORSE", True
        print(f"{workload:16} {name:34} {len(values):3} {statistics.median(values):14.6g} "
              f"{s:7.3f} {'' if bound is None else bound:>6}  {versus:>8} {unit}{mark}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
