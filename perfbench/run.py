#!/usr/bin/env python3
"""Repository benchmark: socket-level latency, throughput and recall of
cafe_serve on fixed workloads, plus a per-layer traced replay.

Usage (from the repository root):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Builds perfbench/ (the repository's libraries, cafe_serve and the
cafe_perfbench program) into $CARGO_TARGET_DIR or .bench_build, then runs
one workload. --trace 0 measures the end-to-end metrics; --trace 1 runs
the traced replay, writes its Chrome-trace JSON to
.bench_work/trace_<workload>.json and validates it with
tools/tracecheck.py. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Exits 0 only when
every served answer matched the in-process reference. See
perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["interactive_4m", "bulk_48m_chain", "serve_open_4m"]
TRACE_SPANS = ["index.decode", "replay.query", "coarse.rank", "search.chain",
               "search.fine", "seqstore.fetch", "align.dp", "fine.topk"]
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures and builds the benchmark; False on failure."""
    steps = [["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j4", "--target",
              "cafe_perfbench", "cafe_serve"]]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=880)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"perfbench: {' '.join(cmd)}: {e}")
            return False
        if done.returncode != 0:
            log(f"perfbench: {' '.join(cmd)} exited {done.returncode}")
            return False
    return True


def run_workload(root, build_dir, workload, seed, seconds, trace):
    """Runs one workload; returns (result dict or None, report lines)."""
    work_dir = os.path.join(root, ".bench_work", f"{workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    trace_out = os.path.join(root, ".bench_work", f"trace_{workload}.json")
    if os.path.exists(trace_out):
        os.remove(trace_out)  # never validate a stale trace
    cmd = [os.path.join(build_dir, "cafe_perfbench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--serve-bin", os.path.join(build_dir, "cafe_serve"),
           "--work-dir", work_dir, "--trace-out", trace_out]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
        return None, []
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        log(f"perfbench: {workload} exited {done.returncode}")
        return None, lines
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"perfbench: {workload} printed no result line")
        return None, lines
    if trace:
        check = subprocess.run(
            [sys.executable, os.path.join(root, "tools", "tracecheck.py")] +
            [arg for name in TRACE_SPANS for arg in ("--require", name)] +
            [trace_out], stdout=sys.stderr, stderr=sys.stderr)
        if check.returncode != 0:
            log(f"perfbench: {trace_out} fails tools/tracecheck.py")
            result["correct"] = False
    return result, lines[:-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.getcwd()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(root, ".bench_build"))
    if not build(root, build_dir):
        return 2

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        result, report = run_workload(root, build_dir, workload, args.seed,
                                      args.seconds, args.trace)
        print("\n".join(report), flush=True)
        if result is None:
            return 2
        results[workload] = result

    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
