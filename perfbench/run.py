#!/usr/bin/env python3
"""Simulator benchmark: build, run one workload, print one result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload system_mix --seed 1 \
        --seconds 12 --trace 0

The first run configures and builds perfbench/ (an optimised build of
the simulator sources plus the `simbench` driver) into .bench_build/;
later runs only rebuild what changed. Each run executes one workload
in one `simbench` process with one worker thread, in a scratch
directory under .bench_work/ that is removed afterwards (a traced run
keeps its span files in .bench_work/spans-<workload>/).

The last line of stdout is the JSON result: `correct`, `attempted`,
`failed` and `metrics` (the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1). Anything that keeps
the benchmark from producing a complete result exits non-zero without
printing one. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("system_mix", "attack_stream", "serve_fleet")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, timeout):
    """Run a build step with its output on stderr; die if it fails."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        die(f"timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        die(f"failed ({done.returncode}): {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no simulator sources at src/ next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_logged(["cmake", "-S", HERE, "-B", BUILD, *generator,
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", BUILD, "--target", "simbench",
                "-j", jobs], BUILD_TIMEOUT_S)
    return os.path.join(BUILD, "simbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    """The result line, parsed, if it has exactly the promised shape."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        die(f"last line is not JSON: {line!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die(f"result has keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        die("`correct` is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            die(f"`{key}` is not a whole number")
    if result["attempted"] < 1:
        die("nothing was attempted")
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got)
                       if want[n] != got[n])
        die(f"metrics differ from BENCHMARK.json: missing {missing}, "
            f"extra {extra}, wrong unit {wrong}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            die(f"metric {name} has no numeric value")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: tiny spans, same metrics")
    args = parser.parse_args()

    simbench = build()
    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    cmd = [simbench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work]
    if args.tiny:
        cmd.append("--tiny")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work, ignore_errors=True)
        die(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    if args.trace:
        spans = os.path.join(WORK, f"spans-{args.workload}")
        shutil.rmtree(spans, ignore_errors=True)
        os.makedirs(spans)
        for name in os.listdir(work) if os.path.isdir(work) else []:
            if name.startswith("spans."):
                shutil.move(os.path.join(work, name), spans)
    shutil.rmtree(work, ignore_errors=True)

    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        die(f"simbench exited {done.returncode}")
    result = check_result(lines[-1], args.trace)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
