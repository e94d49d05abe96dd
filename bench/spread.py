#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload NAME [--seeds 1-10] [--json OUT.json]

Runs `bench/run.py` once per seed and prints, for every end-to-end metric,
the median, the quartiles (statistics.quantiles(values, n=4)) and the
quartile distance as a share of the median next to the metric's bound from
BENCHMARK.json. A spread above the bound means the metric cannot resolve a
change of that size; the benchmark aims for a third of the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--json", help="write the per-seed values and summary here")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    runs = []
    for seed in seeds(args.seeds):
        out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                              "--workload", args.workload, "--seed", str(seed), "--trace", "0"],
                             cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit("seed %d failed:\n%s" % (seed, out.stderr[-2000:]))
        result = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())), flush=True)

    summary = {}
    print("\n%-18s %12s %12s %12s %8s %8s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                              "bound": m["bound"], "unit": m["unit"]}
        flag = "" if spread <= m["bound"] / 3 else ("  > bound/3" if spread <= m["bound"]
                                                   else "  > BOUND")
        print("%-18s %12.6g %12.6g %12.6g %8.4f %8.3f%s" % (m["name"], med, q1, q3, spread,
                                                          m["bound"], flag))
    correct = all(r["correct"] and r["failed"] == 0 for r in runs)
    print("all runs correct with no failed operation: %s" % correct)
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "runs": runs, "summary": summary}, f, indent=1)


if __name__ == "__main__":
    main()
