#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 benchmark/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1] [--runs N] [--smoke]
                             [--inject-wrong-answer] [--out PATH]

Run from anywhere; paths are resolved against the repository root (the
parent of this directory). The first call configures and builds the
benchmark binary (stb_bench) into .bench_build/ (CMake, Release); later calls rebuild only what
changed. Each workload runs in its own stb_bench process. Without
--workload all four run in turn.

Prints `workload metric value unit` for every metric and detail, writes
one result JSON (default .bench_build/results/), and ends standard output
with one JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1 (metric names carry a "workload/" prefix when more
than one workload ran). Exits non-zero if the build fails, a run fails,
or any correctness check fails.
"""

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "stb_bench"
WORKLOADS = ["ingest_stream", "query_cold", "query_hot", "live_mixed"]
RUN_TIMEOUT_S = 170
SMOKE_SECONDS = 0.5


def log(message):
    print(message, file=sys.stderr, flush=True)


def child_env():
    """Environment for the build and for stb_bench: temporary files (the
    compiler's, the library's spill directories) stay inside the build
    directory."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build():
    """Configures (once) and builds stb_bench; returns False on failure."""
    if not (ROOT / "src" / "core" / "engine.h").is_file():
        log(f"run.py: no library sources under {ROOT / 'src'}")
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4",
                  "--target", "stb_bench"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=child_env())
        if done.returncode != 0:
            log(f"run.py: build step failed: {' '.join(step)}")
            return False
    return BINARY.is_file()


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
                    wanted = {"sse4_1", "sse4_2", "avx", "avx2", "avx512f",
                              "bmi2", "popcnt", "fma"}
                    flags = sorted(set(value.split()) & wanted)
    except OSError:
        pass
    return model, flags


def machine():
    """Where the numbers came from: hardware, compiler, build, commit."""
    cache = {}
    try:
        with open(BUILD / "CMakeCache.txt") as f:
            for line in f:
                name, _, value = line.strip().partition("=")
                cache[name.split(":")[0]] = value
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    try:
        version = subprocess.run([compiler, "--version"],
                                 capture_output=True, text=True, timeout=10)
        compiler = version.stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        pass
    try:
        git = ["git", "-C", str(ROOT)]
        commit = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip()
        dirty = subprocess.run(git + ["status", "--porcelain"],
                               capture_output=True, text=True,
                               timeout=10).stdout.strip()
        commit = (commit + ("-dirty" if dirty else "")) or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    model, flags = cpu_info()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "cpu_flags": flags,
        "kernel": platform.release(),
        "compiler": compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "commit": commit,
    }


def run_workload(workload, args):
    """Runs one workload in an stb_bench process; returns its result record."""
    scratch = BUILD / "scratch" / f"{workload}-{args.seed}-{os.getpid()}"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--scratch", str(scratch)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{args.seed}.json")]
    if args.smoke:
        cmd.append("--smoke")
    if args.inject_wrong_answer:
        cmd.append("--inject-wrong-answer")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=child_env())
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s and was killed")
        return None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"run.py: {workload} exited {done.returncode} without a result")
        return None
    if done.returncode not in (0, 1):
        log(f"run.py: {workload} exited {done.returncode}")
        return None
    return record


def expected_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="runs of each workload (same seed)")
    parser.add_argument("--smoke", action="store_true",
                        help=f"tiny sizes, {SMOKE_SECONDS} s per workload, "
                             "every check on")
    parser.add_argument("--inject-wrong-answer", action="store_true",
                        help="corrupt one answer; the run must then fail")
    parser.add_argument("--out", help="result JSON path")
    args = parser.parse_args()
    if args.smoke:
        args.seconds = SMOKE_SECONDS
    if args.seconds <= 0 or args.runs < 1:
        parser.error("--seconds and --runs must be positive")

    if not build():
        return 2
    wanted = expected_metrics(args.trace)
    workloads = [args.workload] if args.workload else WORKLOADS
    records = []
    ok = True
    for _ in range(args.runs):
        for workload in workloads:
            record = run_workload(workload, args)
            if record is None:
                return 1
            records.append(record)
            missing = [m for m in wanted if m not in record["metrics"] or
                       not math.isfinite(record["metrics"][m]["value"])]
            if missing:
                log(f"run.py: {workload} did not report {missing}")
                return 1
            for section in ("metrics", "details"):
                for name, m in record[section].items():
                    print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
            for name, passed in record["checks"].items():
                print(f"{workload} check {name} {'pass' if passed else 'FAIL'}")
            ok &= record["correct"]

    out = Path(args.out) if args.out else (
        BUILD / "results" / time.strftime("run-%Y%m%d-%H%M%S.json"))
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        json.dump({"machine": machine(), "runs": records}, f, indent=1)
        f.write("\n")
    log(f"run.py: results written to {out}")

    multi = len(records) > 1
    summary = {
        "correct": ok,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            (f"{r['workload']}/{name}" if multi else name): r["metrics"][name]
            for r in records for name in wanted
        },
    }
    print(json.dumps(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
