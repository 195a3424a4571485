#!/usr/bin/env python3
"""Diff two dust-bench-v1 JSON reports and fail on timing regressions.

Usage:
    bench_compare.py <baseline.json> <candidate.json> [--threshold 0.10]
    bench_compare.py --self-test

Every record whose metric name contains "ms_per_cycle" or "failover" with
an "_ms" suffix is treated as a lower-is-better timing (except the
per-stage splits of the steady cycle, see STAGE_SPLITS); a candidate more
than --threshold (default 10%) slower than the baseline on the same
(metric, config) key fails the compare (exit 1). Records that declare an absolute budget in their config string
("budget=5" — the obs overhead gate, instrumented and scrape-path) fail the
compare when the candidate value meets or exceeds the budget, regardless of
how the baseline did. Other metrics are reported informationally.

Rates that are higher-is-neutral telemetry (delegation_rate,
delegated_share, cache_hit_rate, ...) are reported informationally and never
fail the compare — a fleet that delegates more is not slower, just shaped
differently.

Scale safety: reports carry a top-level "topology" object and per-record
nodes=/edges= config fields. A compare across different topology sizes is
refused outright (exit 2) — a k=16 baseline says nothing about a k=32 run.

Host safety: reports carry a top-level "host" object (cpu_model, cores,
dust_threads, build_type, git_sha). A compare across hosts or builds — any
field but git_sha differing, or one report lacking the object — is refused
the same way (exit 2): a baseline from another machine or a Debug build
cannot tell a code change from a machine change.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        report = json.load(f)
    if report.get("schema") != "dust-bench-v1":
        raise SystemExit(f"{path}: not a dust-bench-v1 report")
    return report


HOST_FIELDS = ("cpu_model", "cores", "dust_threads", "build_type")


class Refused(Exception):
    """The two reports are not comparable; main() exits 2."""


def host_of(report):
    host = report.get("host")
    return None if host is None else {f: host.get(f) for f in HOST_FIELDS}


def record_key(record):
    return (record.get("metric", ""), record.get("config", ""))


# Stage splits of the steady cycle (bench_sys_solver_scale) are reported
# informationally: each is a slice of steady_ms_per_cycle, which gates the
# whole cycle, and a one-millisecond stage moves past 10% on host noise.
STAGE_SPLITS = ("steady_sync_ms_per_cycle", "steady_build_ms_per_cycle")


def is_timing(metric):
    """Lower-is-better wall/sim-clock metrics the compare gates on.

    "ms_per_cycle" covers the steady-state benches; "failover...*_ms"
    covers the federation takeover timings (failover_detect_ms,
    failover_ms), which must not quietly drift past the silence timeout
    they are supposed to track.
    """
    if metric in STAGE_SPLITS:
        return False
    return "ms_per_cycle" in metric or (
        "failover" in metric and metric.endswith("_ms"))


def declared_budget(record):
    """The record's self-declared absolute ceiling, or None.

    A config field "budget=5" means "this value must stay under 5 in
    whatever units the record uses" — the bench binary enforces it at run
    time, and the compare re-enforces it on committed baselines so a stale
    JSON can't hide a blown budget.
    """
    for field in record.get("config", "").split(","):
        if field.startswith("budget="):
            try:
                return float(field[len("budget="):])
            except ValueError:
                return None
    return None


def compare(baseline, candidate, threshold):
    """Return (failures, lines): regressions and a human-readable log."""
    base_topo = baseline.get("topology")
    cand_topo = candidate.get("topology")
    if base_topo != cand_topo:
        raise Refused(
            f"refusing cross-scale compare: baseline topology {base_topo} "
            f"!= candidate {cand_topo}"
        )
    base_host = host_of(baseline)
    cand_host = host_of(candidate)
    if base_host != cand_host:
        raise Refused(
            f"refusing cross-host compare: baseline host {base_host} "
            f"!= candidate {cand_host}"
        )

    base = {record_key(r): r for r in baseline.get("records", [])}
    failures = []
    lines = []
    for record in candidate.get("records", []):
        key = record_key(record)
        budget = declared_budget(record)
        if budget is not None and record["value"] >= budget:
            failures.append(
                f"{key[0]} [{key[1]}]: {record['value']:g} blows its "
                f"declared budget of {budget:g}"
            )
            lines.append(
                f"  BUDGET   {key[0]} [{key[1]}]: "
                f"{record['value']:g} >= {budget:g}"
            )
            continue
        if key not in base:
            lines.append(f"  new      {key[0]} [{key[1]}]")
            continue
        old = base[key]["value"]
        new = record["value"]
        if not is_timing(key[0]):
            lines.append(f"  info     {key[0]} [{key[1]}]: {old:g} -> {new:g}")
            continue
        if old <= 0:
            lines.append(f"  skip     {key[0]} [{key[1]}]: baseline {old:g}")
            continue
        ratio = new / old
        verdict = "ok"
        if ratio > 1.0 + threshold:
            verdict = "REGRESSED"
            failures.append(
                f"{key[0]} [{key[1]}]: {old:g} ms -> {new:g} ms "
                f"(+{(ratio - 1.0) * 100:.1f}% > {threshold * 100:.0f}%)"
            )
        lines.append(
            f"  {verdict:8s} {key[0]} [{key[1]}]: "
            f"{old:g} -> {new:g} ms ({(ratio - 1.0) * 100:+.1f}%)"
        )
    return failures, lines


def expect_refused(baseline, candidate, what):
    try:
        compare(baseline, candidate, 0.10)
    except Refused:
        return
    raise AssertionError(f"{what} compare must be refused")


def self_test():
    topo = {"nodes": 320, "edges": 2048}
    host = {"cpu_model": "Xeon", "cores": 4, "dust_threads": "",
            "build_type": "Release", "git_sha": "a" * 40}
    base = {
        "schema": "dust-bench-v1",
        "topology": topo,
        "host": host,
        "records": [
            {"metric": "steady_ms_per_cycle", "config": "a", "value": 10.0},
            {"metric": "cache_hit_rate", "config": "a", "value": 0.5},
        ],
    }
    ok = dict(base)
    ok["records"] = [
        {"metric": "steady_ms_per_cycle", "config": "a", "value": 10.5},
        {"metric": "cache_hit_rate", "config": "a", "value": 0.4},
    ]
    failures, _ = compare(base, ok, 0.10)
    assert not failures, f"5% slowdown must pass a 10% threshold: {failures}"

    bad = dict(base)
    bad["records"] = [
        {"metric": "steady_ms_per_cycle", "config": "a", "value": 11.5}
    ]
    failures, _ = compare(base, bad, 0.10)
    assert failures, "15% slowdown must fail a 10% threshold"

    split_base = dict(base)
    split_base["records"] = [
        {"metric": "steady_sync_ms_per_cycle", "config": "a", "value": 1.0},
    ]
    split_slow = dict(base)
    split_slow["records"] = [
        {"metric": "steady_sync_ms_per_cycle", "config": "a", "value": 1.5},
    ]
    failures, _ = compare(split_base, split_slow, 0.10)
    assert not failures, f"a stage split is informational: {failures}"

    cross = dict(base)
    cross["topology"] = {"nodes": 1280, "edges": 16384}
    expect_refused(base, cross, "cross-scale")

    other_sha = dict(ok)
    other_sha["host"] = dict(host, git_sha="b" * 40)
    failures, _ = compare(base, other_sha, 0.10)
    assert not failures, f"a new commit on the same host must compare: {failures}"
    for field, value in (("cpu_model", "EPYC"), ("cores", 8),
                         ("dust_threads", "2"), ("build_type", "Debug")):
        moved = dict(ok)
        moved["host"] = dict(host, **{field: value})
        expect_refused(base, moved, f"cross-host ({field})")
    hostless = {k: v for k, v in ok.items() if k != "host"}
    expect_refused(base, hostless, "host-less")

    fed_base = dict(base)
    fed_base["records"] = [
        {"metric": "failover_ms", "config": "standby=1", "value": 5000.0},
        {"metric": "delegation_rate", "config": "standby=1", "value": 1.0},
    ]
    fed_ok = dict(fed_base)
    fed_ok["records"] = [
        {"metric": "failover_ms", "config": "standby=1", "value": 5200.0},
        {"metric": "delegation_rate", "config": "standby=1", "value": 0.2},
    ]
    failures, _ = compare(fed_base, fed_ok, 0.10)
    assert not failures, (
        f"4% failover slowdown + any delegation-rate change must pass: "
        f"{failures}")
    fed_bad = dict(fed_base)
    fed_bad["records"] = [
        {"metric": "failover_ms", "config": "standby=1", "value": 6000.0},
    ]
    failures, _ = compare(fed_base, fed_bad, 0.10)
    assert failures, "20% failover slowdown must fail a 10% threshold"

    budgeted = dict(base)
    budgeted["records"] = [
        {"metric": "overhead", "config": "budget=5,path=scrape", "value": 4.2},
    ]
    failures, _ = compare(base, budgeted, 0.10)
    assert not failures, f"4.2 must pass a declared budget of 5: {failures}"
    blown = dict(base)
    blown["records"] = [
        {"metric": "overhead", "config": "budget=5,path=scrape", "value": 5.4},
    ]
    failures, _ = compare(base, blown, 0.10)
    assert failures, "5.4 must fail a declared budget of 5"
    print("bench_compare self-test: PASS")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("candidate", nargs="?")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="max allowed relative slowdown (default 0.10)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in assertions and exit")
    args = parser.parse_args()

    if args.self_test:
        self_test()
        return 0
    if not args.baseline or not args.candidate:
        parser.error("baseline and candidate files are required")

    baseline = load(args.baseline)
    candidate = load(args.candidate)
    try:
        failures, lines = compare(baseline, candidate, args.threshold)
    except Refused as refusal:
        print(f"bench_compare: {refusal}", file=sys.stderr)
        return 2

    print(f"bench_compare: {args.baseline} vs {args.candidate} "
          f"(threshold {args.threshold * 100:.0f}%)")
    for line in lines:
        print(line)
    if failures:
        print(f"\nFAIL: {len(failures)} timing regression(s)")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("\nPASS: no timing regression beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
