#!/usr/bin/env python3
"""Offline checks of the perf gate's comparison (tools/perf_gate.py).

Feeds synthetic perfbench result lines and google-benchmark reports to
the gate's pure functions and checks each verdict rule. Builds and runs
nothing.

Run from anywhere:  python3 tests/perf_gate_test.py
"""

import contextlib
import importlib.util
import io
import json
import os
import sys
import unittest

sys.dont_write_bytecode = True  # leave no __pycache__ in tools/
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "perf_gate", os.path.join(ROOT, "tools", "perf_gate.py"))
perf_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_gate)

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
RATE = {"name": "acts_per_s", "unit": "ACT/s", "better": "higher",
        "bound": 0.25}


def line(wall=10.0, rate=1e6, correct=True, attempted=20, failed=0,
         drop=None):
    metrics = {"wall_s": {"value": wall, "unit": "s"},
               "acts_per_s": {"value": rate, "unit": "ACT/s"}}
    if drop:
        del metrics[drop]
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def runs(*lines):
    return [perf_gate.parse_result_line(l) for l in lines]


def verdicts(rows):
    return {r["name"]: r["verdict"] for r in rows}


TIGHT_BASE = runs(*(line(wall=w) for w in (9.9, 10.0, 10.0, 10.1, 10.0)))


class Compare(unittest.TestCase):
    def test_within_bound_passes(self):
        change = runs(*(line(wall=w) for w in (11, 12, 12, 12, 13)))
        failures, rows = perf_gate.compare([WALL, RATE], TIGHT_BASE,
                                           change)
        self.assertEqual(failures, [])
        self.assertEqual(verdicts(rows), {"wall_s": "ok",
                                          "acts_per_s": "ok"})

    def test_worse_than_bound_outside_iqr_fails(self):
        change = runs(*(line(wall=14.0) for _ in range(5)))
        failures, rows = perf_gate.compare([WALL], TIGHT_BASE, change)
        self.assertEqual(verdicts(rows), {"wall_s": "FAIL"})
        self.assertEqual(len(failures), 1)
        self.assertIn("wall_s", failures[0])

    def test_worse_than_bound_inside_iqr_is_unresolved(self):
        base = runs(*(line(wall=w) for w in (4, 6, 10, 14, 16)))
        change = runs(*(line(wall=13.0) for _ in range(5)))
        failures, rows = perf_gate.compare([WALL], base, change)
        self.assertEqual(verdicts(rows), {"wall_s": "UNRESOLVED"})
        self.assertEqual(failures, [])

    def test_base_spread_wider_than_bound_is_unresolved(self):
        # A microsecond-scale setup time: the base runs alone spread by
        # ~45 % of their median, so a +54 % gap is not told from noise.
        base = runs(*(line(wall=w) for w in (2.2e-6, 3.5e-6, 3.6e-6,
                                             5.2e-6, 5.5e-6)))
        change = runs(*(line(wall=5.5e-6) for _ in range(5)))
        failures, rows = perf_gate.compare([WALL], base, change)
        self.assertEqual(verdicts(rows), {"wall_s": "UNRESOLVED"})
        self.assertEqual(failures, [])

    def test_higher_is_better_is_judged_upwards(self):
        base = runs(*(line(rate=1e6) for _ in range(5)))
        faster = runs(*(line(rate=2e6) for _ in range(5)))
        slower = runs(*(line(rate=5e5) for _ in range(5)))
        self.assertEqual(
            verdicts(perf_gate.compare([RATE], base, faster)[1]),
            {"acts_per_s": "ok"})
        failures, rows = perf_gate.compare([RATE], base, slower)
        self.assertEqual(verdicts(rows), {"acts_per_s": "FAIL"})
        self.assertAlmostEqual(rows[0]["worse_by"], 0.5)
        self.assertIn("acts_per_s", failures[0])

    def test_incorrect_run_fails(self):
        change = runs(line(), line(correct=False), line(), line(), line())
        failures, rows = perf_gate.compare([WALL], TIGHT_BASE, change)
        self.assertEqual(verdicts(rows), {"wall_s": "ok"})
        self.assertEqual(len(failures), 1)
        self.assertIn("correct: false", failures[0])

    def test_higher_failed_share_fails(self):
        change = runs(line(failed=1), line(), line(), line(), line())
        failures, _ = perf_gate.compare([WALL], TIGHT_BASE, change)
        self.assertEqual(len(failures), 1)
        self.assertIn("failed share", failures[0])

    def test_missing_metric_is_an_error(self):
        change = runs(line(), line(), line(drop="wall_s"), line(), line())
        with self.assertRaisesRegex(perf_gate.GateError,
                                    "change run 3 reports no wall_s"):
            perf_gate.compare([WALL], TIGHT_BASE, change)

    def test_malformed_result_line_is_an_error(self):
        with self.assertRaises(perf_gate.GateError):
            perf_gate.parse_result_line("rep 0 wall_s 0.1")
        with self.assertRaises(perf_gate.GateError):
            perf_gate.parse_result_line('{"correct": true}')

    def test_only_metrics_and_workloads_both_trees_list_are_gated(self):
        change_spec = {"workloads": [{"name": "system_mix"},
                                     {"name": "new_workload"}],
                       "end_to_end": [WALL, RATE]}
        base_spec = {"workloads": [{"name": "system_mix"}],
                     "end_to_end": [WALL]}
        workloads, new_workloads = perf_gate.shared(
            change_spec["workloads"], base_spec["workloads"])
        self.assertEqual([w["name"] for w in workloads], ["system_mix"])
        self.assertEqual(new_workloads, ["new_workload"])
        metrics, new_metrics = perf_gate.shared(change_spec["end_to_end"],
                                                base_spec["end_to_end"])
        self.assertEqual(metrics, [WALL])
        self.assertEqual(new_metrics, ["acts_per_s"])
        # The base tree's runs do not report the new metric.
        base = runs(*(line(wall=10.0, drop="acts_per_s")
                      for _ in range(5)))
        failures, rows = perf_gate.compare(metrics, base,
                                           runs(*(line() for _ in range(5))))
        self.assertEqual(failures, [])
        self.assertEqual(verdicts(rows), {"wall_s": "ok"})


def micro(graphene=250.0, hit=80.0, unit="ns"):
    """A micro_table_update report: two repetitions of each benchmark,
    plus the aggregate rows google-benchmark adds."""
    rows = []
    for slow in (1.5, 1.0):
        rows.append({"run_name": "BM_CounterTableHit",
                     "run_type": "iteration", "real_time": hit * slow,
                     "time_unit": unit})
        rows.append({"run_name": "BM_SchemeOnActivate/1",
                     "run_type": "iteration", "label": "Graphene",
                     "real_time": graphene * slow, "time_unit": unit})
    rows.append({"run_name": "BM_CounterTableHit",
                 "run_type": "aggregate", "aggregate_name": "mean",
                 "real_time": 1.0, "time_unit": unit})
    return json.dumps({"context": {}, "benchmarks": rows})


def cost(name):
    return {"name": name, "unit": "ns", "better": "lower",
            "bound": perf_gate.MICRO_BOUND}


COSTS = [cost("CounterTableHit"), cost("SchemeOnActivate/Graphene")]


class PerActCost(unittest.TestCase):
    def test_fastest_repetition_named_by_label(self):
        metrics = perf_gate.micro_costs(micro())["metrics"]
        self.assertEqual(metrics, {
            "CounterTableHit": {"value": 80.0},
            "SchemeOnActivate/Graphene": {"value": 250.0}})
        in_us = perf_gate.micro_costs(micro(graphene=0.25, hit=0.08,
                                            unit="us"))["metrics"]
        self.assertAlmostEqual(in_us["CounterTableHit"]["value"], 80.0)

    def test_fastest_run_is_judged_not_the_median(self):
        # Three of five base runs land on a loaded core; the change is
        # identical code, so its fastest run matches the base's.
        base = [perf_gate.micro_costs(micro(graphene=g, hit=h))
                for g, h in ((250, 80), (500, 160), (500, 160),
                             (250, 80), (500, 160))]
        change = [perf_gate.micro_costs(micro(graphene=g, hit=h))
                  for g, h in ((500, 160), (260, 82), (500, 160),
                               (500, 160), (500, 160))]
        failures, rows = perf_gate.judge(COSTS, base, change,
                                         best_of=True)
        self.assertEqual(failures, [])
        self.assertEqual(verdicts(rows), {"CounterTableHit": "ok",
                                          "SchemeOnActivate/Graphene": "ok"})

    def test_slower_scheme_fails_on_its_own(self):
        base = [perf_gate.micro_costs(micro())] * 5
        change = [perf_gate.micro_costs(micro(graphene=350.0))] * 5
        failures, rows = perf_gate.judge(COSTS, base, change,
                                         best_of=True)
        self.assertEqual(verdicts(rows), {"CounterTableHit": "ok",
                                          "SchemeOnActivate/Graphene": "FAIL"})
        self.assertEqual(len(failures), 1)
        self.assertIn("SchemeOnActivate/Graphene", failures[0])

    def test_unreadable_report_is_an_error(self):
        with self.assertRaises(perf_gate.GateError):
            perf_gate.micro_costs("not json")
        with self.assertRaises(perf_gate.GateError):
            perf_gate.micro_costs(json.dumps({"benchmarks": []}))


class ExitStatus(unittest.TestCase):
    def gate(self, *args):
        saved = sys.argv
        sys.argv = ["perf_gate.py", *args]
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                return perf_gate.main()
        finally:
            sys.argv = saved

    def test_usage_and_unknown_ref_are_setup_errors(self):
        self.assertEqual(self.gate(), 2)
        self.assertEqual(self.gate("--help"), 2)
        self.assertEqual(self.gate("no-such-ref-anywhere"), 2)


if __name__ == "__main__":
    unittest.main()
