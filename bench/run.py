#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Builds the benchmark (bench/CMakeLists.txt, which builds the repository's
library with the repository's own build file) into .bench_build/, runs the
workload, checks its outputs and prints every metric of BENCHMARK.json by
name and unit. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones from the traced replay, whose spans are kept in
.bench_build/traces/ for bench/diff.py. Every result is stored with the host
fingerprint in .bench_build/results/.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import platform
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "cmake")
RUN_TIMEOUT_S = 165

ISA_FLAGS = ("sse4_2", "avx", "avx2", "fma", "avx512f", "avx512dq", "avx512bw",
             "avx512vl", "avx512_fp16", "avx512_bf16", "amx_tile")


def log(msg):
    print("bench: " + msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure once and build the benchmark targets; serialised by a lock."""
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(WORK, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for attempt in range(2):
            ok = True
            if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
                ok = subprocess.call(
                    ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                    stdout=sys.stderr, stderr=sys.stderr) == 0
            if ok:
                ok = subprocess.call(
                    ["cmake", "--build", BUILD, "-j", jobs,
                     "--target", "bonsai_benchmark", "bench_ic_test"],
                    stdout=sys.stderr, stderr=sys.stderr) == 0
            if ok:
                return True
            if attempt == 0:
                # A stale cache (e.g. a moved checkout) cannot be reused.
                log("build failed; retrying from a clean build directory")
                subprocess.call(["rm", "-rf", BUILD])
                os.makedirs(BUILD, exist_ok=True)
    return False


def cpu_info():
    model, flags = "unknown", []
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = value.strip()
                elif key == "flags" and not flags:
                    have = set(value.split())
                    flags = [x for x in ISA_FLAGS if x in have]
    except OSError:
        pass
    return model, flags


def source_digest():
    """sha256 over the repository's build file and sources (a commit stand-in
    when the checkout is not a git repository)."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        paths += [os.path.join(base, f) for f in sorted(files)]
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, env=env, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unavailable"
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env, timeout=10)
        return head.stdout.strip() if head.returncode == 0 else "unavailable"
    except (OSError, subprocess.SubprocessError):
        return "unavailable"


def fingerprint():
    model, flags = cpu_info()
    info = {"cpu_model": model, "isa_flags": flags, "nproc": os.cpu_count(),
            "platform": platform.platform(), "git_commit": git_commit(),
            "src_sha256": source_digest()}
    try:
        with open(os.path.join(BUILD, "build_info.json")) as f:
            info.update(json.load(f))
    except (OSError, ValueError):
        pass
    return info


def run_binary(args, result_path, spans_path):
    cmd = [os.path.join(BUILD, "bonsai_benchmark"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", os.path.join(WORK, "out"),
           "--out", result_path]
    if args.trace:
        cmd += ["--spans", spans_path]
    if args.tiny:
        cmd.append("--tiny")
    # Own process group, so a timeout also takes down spawned socket workers.
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        return -1


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = p.parse_args()

    if not (os.path.isdir(os.path.join(ROOT, "src")) and
            os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))):
        log("the repository sources (src/, CMakeLists.txt) are missing; nothing to run")
        return 2
    t0 = time.time()
    if not build():
        log("build failed")
        return 2
    log("build ready in %.1f s" % (time.time() - t0))

    for sub in ("out", "results", "traces"):
        os.makedirs(os.path.join(WORK, sub), exist_ok=True)
    tag = "%s-seed%d-trace%d%s" % (args.workload, args.seed, args.trace,
                                   "-tiny" if args.tiny else "")
    result_path = os.path.join(WORK, "out", tag + ".json")
    spans_path = os.path.join(WORK, "out", tag + "-spans.json")
    for path in (result_path, spans_path):
        if os.path.exists(path):
            os.remove(path)
    rc = run_binary(args, result_path, spans_path)
    if rc != 0:
        log("benchmark binary exited with %d" % rc)
        return 1
    with open(result_path) as f:
        raw = json.load(f)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics, missing = {}, []
    for m in declared:
        v = raw["metrics"].get(m["name"])
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            missing.append(m["name"])
        else:
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    if missing:
        log("metrics not produced: " + ", ".join(missing))
        return 1
    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    correct = bool(raw["correct"]) and attempted >= 1 and failed == 0
    host = fingerprint()

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "tiny": args.tiny, "host": host,
              "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics, "info": raw.get("info", {}), "errors": raw.get("errors", [])}
    with open(os.path.join(WORK, "results", tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    if args.trace:
        with open(spans_path) as f:
            spans = json.load(f)
        record["spans"] = spans
        with open(os.path.join(WORK, "traces", tag + ".json"), "w") as f:
            json.dump(record, f)

    print("host: " + json.dumps(host, sort_keys=True))
    print("%s seed=%d trace=%d: correct=%s attempted=%d failed=%d failed_ratio=%.6g"
          % (args.workload, args.seed, args.trace, correct, attempted, failed,
             failed / attempted if attempted else 1.0))
    for name, m in metrics.items():
        print("  %-30s %.6g %s" % (name, m["value"], m["unit"]))
    for e in record["errors"]:
        print("  error: " + e)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
