#!/usr/bin/env python3
"""Perf gate: the working tree against a base commit, both measured here.

Usage, from anywhere inside the repository:

    tools/perf_gate.py BASE_REF

Checks BASE_REF out into a temporary `git worktree` (removed on exit,
also on failure) and measures both trees on this machine in
alternating pairs, the order flipping on each pair, so no
machine-specific number is committed anywhere:

- the micro_table_update google-benchmark, MICRO_PAIRS pairs of short
  runs: the per-ACT cost of every protection scheme behind
  mem::ProtectedRank and of the counter table's hit, spill and replace
  paths. A slowdown confined to one scheme is too small a share of
  either perfbench workload to move it past its bound, but not of
  these;
- perfbench/run.py, PAIRS pairs of untraced runs at BENCHMARK.json's
  `run_seconds`, one seed per pair, for every workload that both
  trees' BENCHMARK.json list, judged on the end-to-end metrics that
  both list.

The gate fails when a run exits non-zero, when a perfbench run of the
change reports `correct: false`, when the change's failed/attempted
share is higher than the base's, or when a metric is worse than the
base by more than its relative bound:
- an end-to-end metric (bound: its own in BENCHMARK.json) when its
  change median is worse than the base median, the gap is larger
  than the base runs' interquartile range, and that range is within
  the bound. Worse than the bound but inside the base spread, or with
  a base spread wider than the bound, prints UNRESOLVED: the runs
  cannot tell it from noise, and it does not fail;
- a per-ACT cost (bound: MICRO_BOUND) when the change's fastest run
  is slower than the base's fastest run. Interference from other
  processes only ever adds time, so the fastest run is the estimate;
  many short runs give both sides the same quiet moments.
A workload, metric or benchmark that only the change has is listed as
new, with no verdict.

The full report (both sides' values and every run's, plus a machine
note) goes to build/perf_gate_report.json. Exit status: 0 pass,
1 fail, 2 usage or setup error (a ref that is not a commit, a base
without perfbench, a failed worktree, build or warm-up run).
"""

import datetime
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPORT = os.path.join(ROOT, "build", "perf_gate_report.json")
SEEDS = (1, 2, 3, 4, 5)  # one per pair of perfbench runs
PAIRS = len(SEEDS)
MICRO_PAIRS = 15
MICRO_ARGS = ("--benchmark_repetitions=3", "--benchmark_min_time=0.05")
MICRO_BOUND = 0.25  # allowed rise of a fastest per-ACT cost
NS_PER = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


class GateError(Exception):
    """A measured run failed or gave a result the gate cannot use."""


class SetupError(Exception):
    """The gate could not get as far as measuring."""


def parse_result_line(line):
    """The JSON result line of one perfbench run, parsed."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        raise GateError(f"result line is not JSON: {line!r}") from e
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in result:
            raise GateError(f"result line has no `{key}`: {line!r}")
    return result


def micro_costs(report):
    """One micro_table_update run's per-ACT costs, shaped like a
    perfbench result.

    `report` is the run's google-benchmark JSON. Each benchmark's
    value is its fastest repetition in ns: interference from other
    processes only ever adds time. A benchmark with a label (the
    scheme name) is named by it in place of its argument.
    """
    try:
        benchmarks = json.loads(report)["benchmarks"]
    except (json.JSONDecodeError, KeyError, TypeError) as e:
        raise GateError("micro_table_update printed no benchmark "
                        "report") from e
    metrics = {}
    for bench in benchmarks:
        if bench.get("run_type", "iteration") != "iteration":
            continue
        name = bench["run_name"].removeprefix("BM_")
        if bench.get("label"):
            name = name.split("/")[0] + "/" + bench["label"]
        ns = float(bench["real_time"]) * NS_PER[bench["time_unit"]]
        if name not in metrics or ns < metrics[name]["value"]:
            metrics[name] = {"value": ns}
    if not metrics:
        raise GateError("micro_table_update reported no benchmark")
    return {"metrics": metrics}


def shared(change_items, base_items):
    """Split `change_items` by whether `base_items` name them too.

    Returns (the items both name, the names only the change has).
    """
    base_names = {item["name"] for item in base_items}
    return ([item for item in change_items if item["name"] in base_names],
            [item["name"] for item in change_items
             if item["name"] not in base_names])


def metric_values(results, name, side):
    """`name`'s value in every run of `results`; a gap is an error."""
    values = []
    for i, result in enumerate(results):
        metric = result["metrics"].get(name)
        if metric is None or not isinstance(metric.get("value"),
                                            (int, float)):
            raise GateError(f"{side} run {i + 1} reports no {name}")
        values.append(float(metric["value"]))
    return values


def iqr(values):
    """Interquartile range (inclusive quartiles); 0 for one value."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def failed_share(results):
    return (sum(r["failed"] for r in results) /
            sum(r["attempted"] for r in results))


def judge(specs, base, change, best_of=False):
    """Judge each metric of `specs` (name, better, bound) on the runs.

    `base` and `change` are results with a `metrics` map. Each side's
    value is the median of its runs, or with `best_of` its best run; a
    best-of comparison has no spread. Worse than the bound fails only
    when the gap is past the base IQR and the IQR is within the bound;
    otherwise the runs cannot tell it from noise. Returns (failures,
    rows): failure messages, and one row per metric with both values,
    the base IQR, the relative change for the worse (positive = worse)
    and the verdict "ok", "UNRESOLVED" or "FAIL".
    """
    failures, rows = [], []
    for spec in specs:
        name, bound = spec["name"], float(spec["bound"])
        higher = spec["better"] == "higher"
        base_values = metric_values(base, name, "base")
        change_values = metric_values(change, name, "change")
        pick = ((max if higher else min) if best_of
                else statistics.median)
        base_value, change_value = pick(base_values), pick(change_values)
        gap = change_value - base_value
        if higher:
            gap = -gap
        if base_value:
            worse = gap / abs(base_value)
        else:
            worse = float("inf") if gap > 0 else 0.0
        spread = 0.0 if best_of else iqr(base_values)
        if worse <= bound:
            verdict = "ok"
        elif gap > spread and spread <= bound * abs(base_value):
            verdict = "FAIL"
            failures.append(f"{name} worse by {worse:+.1%} "
                            f"(bound {bound:.1%}" +
                            ("" if best_of else
                             f", base IQR {spread:.4g}") + ")")
        else:
            verdict = "UNRESOLVED"
        rows.append({"name": name, "unit": spec.get("unit", ""),
                     "better": spec["better"], "bound": bound,
                     "estimate": "best" if best_of else "median",
                     "base": base_value, "change": change_value,
                     "base_iqr": None if best_of else spread,
                     "worse_by": worse,
                     "verdict": verdict,
                     "base_runs": base_values,
                     "change_runs": change_values})
    return failures, rows


def compare(end_to_end, base, change):
    """Judge one workload's perfbench runs: `judge` on `end_to_end`
    (BENCHMARK.json's metric list), plus the change's `correct` flags
    and its failed share against the base's."""
    failures = []
    for i, result in enumerate(change):
        if result["correct"] is not True:
            failures.append(f"change run {i + 1} reports correct: false")
    base_share, change_share = failed_share(base), failed_share(change)
    if change_share > base_share:
        failures.append(f"failed share {change_share:.4f} > base "
                        f"{base_share:.4f}")
    judged, rows = judge(end_to_end, base, change)
    return failures + judged, rows


# ---- running the benches -------------------------------------------

def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def run(cmd, cwd, error=GateError):
    """Run `cmd`; its stdout, or `error` if it exits non-zero."""
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          check=False)
    if done.returncode != 0:
        raise error(f"{' '.join(cmd)} in {cwd} exited "
                    f"{done.returncode}:\n{done.stderr[-2000:]}")
    return done.stdout


def run_bench(tree, workload, seed, seconds, tiny=False):
    """One untraced perfbench run in `tree`: (digest, parsed result)."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    if tiny:
        cmd.append("--tiny")
    lines = run(cmd, tree, SetupError if tiny else GateError) \
        .strip().splitlines()
    if not lines:
        raise GateError(f"{' '.join(cmd[1:])} printed no result")
    digest = next((l.split()[-1] for l in lines
                   if l.startswith(f"digest {workload} ")), None)
    return digest, parse_result_line(lines[-1])


def run_micro(tree):
    """One micro_table_update run of `tree`'s build: its costs."""
    return micro_costs(run([os.path.join(tree, "build", "bench",
                                         "micro_table_update"),
                            "--benchmark_format=json", *MICRO_ARGS],
                           tree))


def machine_note():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "date": datetime.datetime.now(datetime.timezone.utc)
            .isoformat(timespec="seconds")}


def fmt(value):
    return "-" if value is None else f"{value:.4g}"


def print_verdicts(failures, rows, new):
    print(f"  {'metric':26} {'base':>11} {'change':>11} {'worse':>8} "
          f"{'bound':>6} {'base IQR':>9}  verdict")
    for r in rows:
        print(f"  {r['name']:26} {fmt(r['base']):>11} "
              f"{fmt(r['change']):>11} {r['worse_by']:>+8.1%} "
              f"{r['bound']:>6.1%} {fmt(r['base_iqr']):>9}  "
              f"{r['verdict']}")
    for name in new:
        print(f"  {name:26} new, no base")
    for message in failures:
        print(f"  FAIL: {message}")


def alternate(trees, measure, pairs=PAIRS):
    """`pairs` pairs of `measure(pair, side)`, the order flipping."""
    runs = {side: [] for side in trees}
    for pair in range(pairs):
        order = list(trees) if pair % 2 == 0 else list(trees)[::-1]
        for side in order:
            runs[side].append(measure(pair, side))
    return runs


def gate_workload(spec, end_to_end, new_metrics, workload, trees):
    """Run and judge one perfbench workload; its report entry."""
    print(f"\n== {workload}", flush=True)
    for tree in trees.values():
        run_bench(tree, workload, 1, 1, tiny=True)  # build + warm up

    def measure(pair, side):
        digest, result = run_bench(trees[side], workload, SEEDS[pair],
                                   spec["run_seconds"])
        wall = result["metrics"].get("wall_s", {}).get("value")
        print(f"  pair {pair + 1} seed {SEEDS[pair]} {side:6} "
              f"wall_s {fmt(wall)}", flush=True)
        return digest, result

    measured = alternate(trees, measure)
    runs = {side: [r for _, r in m] for side, m in measured.items()}
    digests = {side: [d for d, _ in m] for side, m in measured.items()}
    failures, rows = compare(end_to_end, runs["base"], runs["change"])
    print_verdicts(failures, rows, new_metrics)
    same_digest = digests["base"] == digests["change"]
    print(f"  digest: {'same as base' if same_digest else 'differs'}")
    return {"verdict": "FAIL" if failures else "ok",
            "failures": failures,
            "failed_share": {side: failed_share(r)
                             for side, r in runs.items()},
            "digests": digests, "end_to_end": rows,
            "new_metrics": new_metrics}


def gate_micro(trees):
    """Build, run and judge micro_table_update; its report entry."""
    print("\n== per-ACT cost: micro_table_update, fastest run, ns",
          flush=True)
    for tree in trees.values():
        run(["cmake", "--preset", "default"], tree, SetupError)
        run(["cmake", "--build", "--preset", "default", "-j",
             str(os.cpu_count() or 1), "--target", "micro_table_update"],
            tree, SetupError)
    runs = alternate(trees, lambda pair, side: run_micro(trees[side]),
                     MICRO_PAIRS)
    specs = [{"name": name, "unit": "ns", "better": "lower",
              "bound": MICRO_BOUND}
             for name in runs["change"][0]["metrics"]]
    specs, new = shared(specs, [{"name": name}
                                for name in runs["base"][0]["metrics"]])
    failures, rows = judge(specs, runs["base"], runs["change"],
                           best_of=True)
    print_verdicts(failures, rows, new)
    return {"verdict": "FAIL" if failures else "ok",
            "failures": failures, "rows": rows, "new": new}


def measure_all(spec, base_spec, trees, report):
    """Gate the per-ACT costs and every shared workload; the
    failures."""
    entry = gate_micro(trees)
    report["per_act"] = entry
    failures = [f"per-ACT cost: {m}" for m in entry["failures"]]
    end_to_end, new_metrics = shared(spec["end_to_end"],
                                     base_spec["end_to_end"])
    workloads, new_workloads = shared(spec["workloads"],
                                      base_spec["workloads"])
    report["new_workloads"] = new_workloads
    for name in new_workloads:
        print(f"\n== {name}: new, no base")
    for workload in workloads:
        name = workload["name"]
        entry = gate_workload(spec, end_to_end, new_metrics, name, trees)
        report["workloads"][name] = entry
        failures += [f"{name}: {m}" for m in entry["failures"]]
    return failures


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    base_ref = sys.argv[1]
    try:
        base_commit = git("rev-parse", "--verify", base_ref + "^{commit}")
    except subprocess.CalledProcessError:
        print(f"perf_gate: not a commit: {base_ref}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    # A cancelled CI job sends SIGTERM: unwind so the worktree goes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp = tempfile.mkdtemp(prefix="perf_gate-")
    base_tree = os.path.join(tmp, "base")
    report = {"base_ref": base_ref, "base_commit": base_commit,
              "change_commit": git("rev-parse", "HEAD"),
              "change_dirty": bool(git("status", "--porcelain")),
              "machine": machine_note(), "pairs": PAIRS,
              "seeds": list(SEEDS), "run_seconds": spec["run_seconds"],
              "micro_pairs": MICRO_PAIRS, "micro_args": list(MICRO_ARGS),
              "micro_bound": MICRO_BOUND, "workloads": {}}
    status = 0
    try:
        run(["git", "worktree", "add", "--detach", base_tree,
             base_commit], ROOT, SetupError)
        try:
            with open(os.path.join(base_tree, "BENCHMARK.json")) as f:
                base_spec = json.load(f)
        except (OSError, ValueError) as e:
            raise SetupError(f"{base_ref} has no usable BENCHMARK.json: "
                             f"{e}") from e
        if not os.path.isfile(os.path.join(base_tree, "perfbench",
                                           "run.py")):
            raise SetupError(f"{base_ref} has no perfbench/run.py")
        trees = {"base": base_tree, "change": ROOT}
        for message in measure_all(spec, base_spec, trees, report):
            print(f"perf_gate: FAIL {message}", file=sys.stderr)
            status = 1
    except GateError as e:
        report["error"] = str(e)
        status = 1
    except SetupError as e:
        report["error"] = str(e)
        status = 2
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", base_tree],
                       cwd=ROOT, capture_output=True, check=False)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT,
                       capture_output=True, check=False)

    if "error" in report:
        print(f"perf_gate: {report['error']}", file=sys.stderr)
    report["verdict"] = ("pass", "fail", "error")[status]
    os.makedirs(os.path.dirname(REPORT), exist_ok=True)
    with open(REPORT, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    print(f"\nperf_gate: {report['verdict']} (report: "
          f"{os.path.relpath(REPORT, ROOT)})")
    return status


if __name__ == "__main__":
    sys.exit(main())
