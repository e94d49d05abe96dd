#!/usr/bin/env python3
"""Per-layer diff between two traced benchmark runs.

    python3 bench/diff.py BASE.json NEW.json

Inputs are trace records written by `bench/run.py --trace 1` into
.bench_build/traces/. For each run the report prints the tracing overhead
(median step time with spans recorded vs without, measured in the same run),
then every per-layer metric side by side, then the self time of every span
name — a span's duration minus the part of it its child spans cover — so a
claimed saving can be located in the layer where it lands. The replay's
priming iteration (iter 0) is left out of the self times.
"""

import json
import sys
from collections import defaultdict


def load(path):
    with open(path) as f:
        rec = json.load(f)
    if "spans" not in rec:
        sys.exit("%s: not a trace record (run bench/run.py with --trace 1)" % path)
    return rec


def union_length(intervals):
    total, end = 0, None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def self_times(spans):
    """Seconds of self time per span name."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"]:
            children[s["parent"]].append(s)
    out = defaultdict(float)
    for s in spans:
        if s["iter"] == 0:
            continue
        start, end = s["start_ns"], s["end_ns"]
        covered = union_length([(max(c["start_ns"], start), min(c["end_ns"], end))
                                for c in children[s["id"]]
                                if c["end_ns"] > start and c["start_ns"] < end])
        out[s["name"]] += (end - start - covered) * 1e-9
    return out


def pct(base, new):
    if base == 0:
        return "n/a"
    return "%+.1f%%" % (100.0 * (new - base) / abs(base))


def overhead(rec):
    info = rec.get("info", {})
    traced, untraced = info.get("step_s_traced"), info.get("step_s_untraced")
    if not traced or not untraced:
        return "n/a"
    return "step_s traced %.6g s vs untraced %.6g s (x%.3f)" % (traced, untraced,
                                                                traced / untraced)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    for label, rec in (("base", base), ("new", new)):
        host = rec.get("host", {})
        print("%-4s %s seed=%s commit=%s src=%s" % (
            label, rec["workload"], rec["seed"], host.get("git_commit", "?")[:12],
            host.get("src_sha256", "?")[:12]))
        print("     tracing overhead: " + overhead(rec))
    if base["workload"] != new["workload"]:
        print("warning: the two runs are of different workloads")

    print("\nper-layer metrics")
    print("  %-30s %14s %14s %9s  %s" % ("metric", "base", "new", "change", "unit"))
    for name, m in base["metrics"].items():
        if name not in new["metrics"]:
            continue
        b, n = m["value"], new["metrics"][name]["value"]
        print("  %-30s %14.6g %14.6g %9s  %s" % (name, b, n, pct(b, n), m["unit"]))

    sb, sn = self_times(base["spans"]), self_times(new["spans"])
    names = sorted(set(sb) | set(sn), key=lambda k: -abs(sn.get(k, 0.0) - sb.get(k, 0.0)))
    print("\nself time by span (seconds summed over the measured calls)")
    print("  %-30s %12s %12s %12s" % ("span", "base", "new", "new-base"))
    for k in names:
        b, n = sb.get(k, 0.0), sn.get(k, 0.0)
        print("  %-30s %12.6f %12.6f %+12.6f" % (k, b, n, n - b))
    print("  %-30s %12.6f %12.6f %+12.6f" % ("total", sum(sb.values()), sum(sn.values()),
                                             sum(sn.values()) - sum(sb.values())))


if __name__ == "__main__":
    main()
