#!/usr/bin/env python3
"""Unit tests for jigbench's runner (run.py) on synthetic results.

    python3 bench/e2e/test_run.py
"""

import io
import json
import re
import statistics
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

BENCH = run.load_benchmark()


def result(workload, scale=1.0, failed=0, late=None):
    """One bench_e2e repetition: every end-to-end and per-layer metric."""
    metrics = {m["name"]: {"value": 100.0 * scale, "unit": m["unit"]}
               for m in BENCH["end_to_end"]}
    layers = {m["name"]: {"value": 1.0, "unit": m["unit"]}
              for m in BENCH["per_layer"]}
    if late is not None:
        layers["gen.late_p99_ms"] = {"value": late, "unit": "ms"}
    problems = ["main: 0 missing, 0 extra, 3 digest-mismatched jframes"] \
        if failed else []
    return {"workload": workload, "metrics": metrics, "layers": layers,
            "check": {"attempted": 1000, "failed": failed,
                      "problems": problems}}


def results_file(values_by_workload, seed=1, cpu="cpu A"):
    runs = []
    for w, values in values_by_workload.items():
        for rep, v in enumerate(values):
            r = result(w, scale=v / 100.0)
            runs.append({**r, "rep": rep, "traced": False})
    return {"descriptor": {"nproc": 4, "cpu_model": cpu, "kernel": "k",
                           "build_type": "Release", "git_sha": "abc",
                           "seed": seed},
            "seed": seed, "seconds": 20, "reps": 5,
            "workloads": list(values_by_workload), "runs": runs}


class StatisticsTest(unittest.TestCase):
    def test_summary_uses_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(run.summarize(values),
                         {"median": med, "q1": q1, "q3": q3, "n": 5})
        self.assertEqual(run.summarize([7.0])["median"], 7.0)
        self.assertIsNone(run.summarize([]))

    def test_relative_spread_is_iqr_over_median(self):
        values = [90.0, 95.0, 100.0, 105.0, 110.0]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(run.relative_spread(values), (q3 - q1) / med)


class JudgeTest(unittest.TestCase):
    def test_unchanged_within_bound(self):
        verdict, worse, _ = run.judge([100, 101, 99, 100, 100],
                                      [101, 100, 99, 100, 102], 0.1, "lower")
        self.assertEqual(verdict, "unchanged")
        self.assertAlmostEqual(worse, 0.0)

    def test_regressed_beyond_bound(self):
        verdict, worse, _ = run.judge([100, 101, 99, 100, 100],
                                      [80, 79, 81, 80, 80], 0.1, "higher")
        self.assertEqual(verdict, "regressed")
        self.assertAlmostEqual(worse, 0.2)

    def test_wide_spread_is_unresolved_not_unchanged(self):
        verdict, _, spread = run.judge([60, 100, 140, 80, 120],
                                       [100, 70, 130, 90, 110], 0.1, "lower")
        self.assertGreater(spread, 0.1)
        self.assertEqual(verdict, "unresolved")

    def test_every_change_run_better_is_better(self):
        verdict, _, _ = run.judge([60, 100, 140], [50, 55, 58], 0.1, "lower")
        self.assertEqual(verdict, "better")


class PairsTest(unittest.TestCase):
    def test_gain_needs_nine_tenths_and_more_than_iqr(self):
        base = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]
        change = [b * 0.8 for b in base]
        s = run.pair_stats(base, change, "lower")
        self.assertEqual(s["wins"], 10)
        self.assertTrue(s["gain"])

    def test_eight_wins_is_no_gain(self):
        base = [100.0] * 10
        change = [80.0] * 8 + [120.0] * 2
        s = run.pair_stats(base, change, "lower")
        self.assertEqual(s["wins"], 8)
        self.assertFalse(s["gain"])

    def test_ties_count_for_neither_side(self):
        s = run.pair_stats([1.0, 2.0], [1.0, 1.0], "lower")
        self.assertEqual((s["wins"], s["losses"]), (1, 0))

    def run_pairs(self, change_failed):
        """pairs over offline: the change reads twice as good on every
        metric, and fails `change_failed` outputs per repetition."""
        def fake(binary, w, cache, seconds, trace=None):
            if binary.name == "base":
                return result(w)
            r = result(w, failed=change_failed)
            for m in BENCH["end_to_end"]:
                r["metrics"][m["name"]]["value"] *= (
                    0.5 if m["better"] == "lower" else 2.0)
            return r
        with mock.patch.object(run, "gen", return_value=Path("cache")), \
                mock.patch.object(run, "run_once", side_effect=fake):
            args = run.parse(["pairs", "--base", "base", "--change", "change",
                              "--workloads", "offline"])[1]
            out = io.StringIO()
            code = run.pairs_mode(args, out=out)
        return code, out.getvalue()

    def test_faster_and_correct_change_is_a_gain(self):
        code, text = self.run_pairs(change_failed=0)
        self.assertEqual(code, 0)
        self.assertIn("GAIN", text)

    def test_faster_but_wrong_change_is_no_gain_and_exits_1(self):
        code, text = self.run_pairs(change_failed=3)
        self.assertEqual(code, 1)
        self.assertNotIn("GAIN", text)
        self.assertIn("digest-mismatched", text)


class CompareTest(unittest.TestCase):
    def compare(self, a, b):
        with tempfile.TemporaryDirectory() as d:
            pa, pb = Path(d) / "a.json", Path(d) / "b.json"
            pa.write_text(json.dumps(a))
            pb.write_text(json.dumps(b))
            out = io.StringIO()
            args = mock.Mock(base=str(pa), change=str(pb))
            code = run.compare_mode(args, out=out)
            return code, out.getvalue()

    def test_same_numbers_unchanged(self):
        a = results_file({"offline": [100, 101, 99, 100, 100]})
        code, text = self.compare(a, a)
        self.assertEqual(code, 0)
        self.assertIn("unchanged", text)
        self.assertNotIn("WARNING", text)

    def test_descriptor_difference_warns(self):
        a = results_file({"offline": [100] * 5})
        b = results_file({"offline": [100] * 5}, cpu="cpu B")
        _, text = self.compare(a, b)
        self.assertIn("WARNING: descriptors differ in cpu_model", text)

    def test_regression_exits_1(self):
        a = results_file({"offline": [100, 101, 99, 100, 100]})
        b = results_file({"offline": [150, 151, 149, 150, 150]})
        code, text = self.compare(a, b)
        self.assertEqual(code, 1)
        self.assertIn("regressed", text)


class RunnerTest(unittest.TestCase):
    """report and single-repetition modes with bench_e2e replaced by fakes."""

    def run_report(self, fake_run):
        with tempfile.TemporaryDirectory() as d, \
                mock.patch.object(run, "build", return_value=Path("bin")), \
                mock.patch.object(run, "gen", return_value=Path(d)), \
                mock.patch.object(run, "run_once", side_effect=fake_run):
            args = run.parse(["--reps", "2", "--out",
                              str(Path(d) / "r.json")])[1]
            out = io.StringIO()
            with redirect_stdout(out):
                code = run.report_mode(args)
            saved = json.loads((Path(d) / "r.json").read_text())
        return code, out.getvalue(), saved

    def test_clean_runs_exit_0(self):
        code, text, saved = self.run_report(
            lambda binary, w, cache, seconds, trace=None: result(w, late=2.0))
        self.assertEqual(code, 0)
        self.assertEqual(len(saved["runs"]), 2 * 4 + 4)
        for w in run.WORKLOADS:
            self.assertIn(f"== {w}", text)
        self.assertIn("events_per_s", text)
        self.assertIn("== per-layer", text)
        self.assertIn("tracing overhead", text)
        self.assertIn("(all within the schedule)", text)

    def test_digest_mismatch_exits_1(self):
        def fake(binary, w, cache, seconds, trace=None):
            return result(w, failed=3 if w == "distributed" else 0)
        code, text, _ = self.run_report(fake)
        self.assertEqual(code, 1)
        self.assertIn("digest-mismatched", text)

    def test_thrown_run_counts_as_failure(self):
        def fake(binary, w, cache, seconds, trace=None):
            if w == "fleet":
                raise run.BenchError("bench_e2e run fleet exited 3")
            return result(w)
        code, text, _ = self.run_report(fake)
        self.assertEqual(code, 1)
        self.assertIn("run failed", text)

    def test_late_generator_is_flagged(self):
        code, text, _ = self.run_report(
            lambda binary, w, cache, seconds, trace=None: result(w, late=25.0))
        self.assertEqual(code, 0)
        self.assertIn("FLAG >10 ms", text)

    def single(self, fake_result, trace):
        with mock.patch.object(run, "build", return_value=Path("bin")), \
                mock.patch.object(run, "gen", return_value=Path("cache")), \
                mock.patch.object(run, "run_once", return_value=fake_result):
            args = run.parse(["--workload", "live", "--seed", "3",
                              "--seconds", "1", "--trace", str(trace)])[1]
            out = io.StringIO()
            with redirect_stdout(out):
                code = run.single_run(args)
        return code, json.loads(out.getvalue().strip().splitlines()[-1])

    def test_single_line_has_every_metric(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, line = self.single(result("live"), trace)
            self.assertEqual(code, 0)
            self.assertEqual(sorted(line),
                             ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(line["correct"])
            self.assertEqual(sorted(line["metrics"]),
                             sorted(m["name"] for m in BENCH[section]))

    def test_single_reports_mismatch_as_incorrect(self):
        code, line = self.single(result("live", failed=3), 0)
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], 3)

    def test_single_refuses_missing_metric(self):
        r = result("live")
        del r["metrics"]["setup_s"]
        with mock.patch.object(run, "build", return_value=Path("bin")), \
                mock.patch.object(run, "gen", return_value=Path("cache")), \
                mock.patch.object(run, "run_once", return_value=r):
            args = run.parse(["--workload", "live"])[1]
            with self.assertRaises(run.BenchError):
                run.single_run(args)


class BenchmarkFileTest(unittest.TestCase):
    def test_names_and_workloads(self):
        names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertIn("setup_s", names)
        self.assertEqual([w["name"] for w in BENCH["workloads"]],
                         run.WORKLOADS)

    def test_readme_states_the_bounds(self):
        """README.md's end-to-end table gives each metric the bound that
        BENCHMARK.json gates it with."""
        stated = {}
        readme = (Path(run.HERE) / "README.md").read_text()
        for line in readme.splitlines():
            cells = [c.strip() for c in line.split("|")]
            if (len(cells) > 5 and cells[3] in ("lower", "higher")
                    and cells[4].endswith("%")):
                for name in re.findall(r"`([^`]+)`", cells[1]):
                    stated[name] = float(cells[4][:-1]) / 100
        for m in BENCH["end_to_end"]:
            self.assertAlmostEqual(stated.get(m["name"]), m["bound"],
                                   msg=m["name"])


if __name__ == "__main__":
    unittest.main()
