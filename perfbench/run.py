#!/usr/bin/env python3
"""Builds and runs the RABIT end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --test

Run from the repository root. The first run configures and builds the
benchmark and the RABIT libraries it links (Release) under .bench_build/;
later runs rebuild incrementally. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.getcwd(), ".bench_build", "perfbench")
WORKLOADS = ("campaign_sharded", "campaign_contended", "session_motion")
SET_UPS = 3


def jobs():
    return str(max(1, min(4, os.cpu_count() or 1)))


def build(target):
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", target, "-j", jobs()],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def check_layers(result, trace):
    """The binary must print exactly the metrics ledger.json declares."""
    with open(os.path.join(HERE, "ledger.json")) as f:
        ledger = json.load(f)
    declared = {m["name"] for m in ledger["per_layer" if trace else "end_to_end"]}
    printed = set(result["metrics"])
    if printed != declared:
        sys.exit("perfbench: metrics %s differ from ledger.json %s"
                 % (sorted(printed ^ declared), "per_layer" if trace else "end_to_end"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true", help="build and run the benchmark's tests")
    args = parser.parse_args()

    if args.test:
        build("perfbench_test")
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_test")]).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    build("perfbench")
    binary = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
              "--seed", str(args.seed)]
    # setup_s is the median over SET_UPS cold starts: each process's first
    # pass over its inputs. The benchmark process is one of them.
    setups = []
    if not args.trace:
        for _ in range(SET_UPS - 1):
            proc = subprocess.run(binary + ["--setup-only", "1"], stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.exit(proc.returncode)
            setups.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    cmd = binary + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        # One file per workload, overwritten by the next traced run of it.
        cmd += ["--trace-out", os.path.join(traces, args.workload + ".jsonl")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.exit(proc.returncode)
    result = json.loads(lines[-1])
    check_layers(result, args.trace)
    if setups:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        lines[-1:] = ["  setup_s is the median of %d cold starts: %s s"
                      % (len(setups), ", ".join("%.4f" % s for s in setups)),
                      json.dumps(result)]
    print("\n".join(lines))


if __name__ == "__main__":
    main()
