"""Smoke self-test of the benchmark.

Usage: python3 perfbench/selftest.py   (about a minute on two cores)

Runs every workload at a tiny size in both modes and asserts that every
metric named in BENCHMARK.json prints with its unit and that no row fails;
then shows that the output checks catch a corrupted row.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
import unittest
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@contextlib.contextmanager
def tiny_inputs():
    """2-point u-grids and 256-path Monte Carlo runs."""
    saved = (workloads.GRID_POINTS, workloads.McLyapD2.paths, workloads.McGeneralD3.paths)
    workloads.GRID_POINTS = 2
    workloads.McLyapD2.paths = workloads.McGeneralD3.paths = 256
    try:
        yield
    finally:
        (workloads.GRID_POINTS, workloads.McLyapD2.paths,
         workloads.McGeneralD3.paths) = saved


def bench(workload, trace):
    out = io.StringIO()
    with tiny_inputs(), contextlib.redirect_stdout(out):
        rc = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.1",
                       "--trace", str(trace)])
    return rc, out.getvalue().splitlines()


class TinyRuns(unittest.TestCase):
    def check_run(self, trace, spec):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                rc, lines = bench(w["name"], trace)
                self.assertEqual(rc, 0)
                result = json.loads(lines[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertTrue(any("error_rate=0.000000 (fraction)" in ln for ln in lines))
                for m in spec:
                    self.assertIn(m["name"], result["metrics"])
                    self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
                self.assertEqual(set(result["metrics"]), {m["name"] for m in spec})

    def test_end_to_end_metrics(self):
        self.check_run(0, SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        self.check_run(1, SPEC["per_layer"])


class Checks(unittest.TestCase):
    def setUp(self):
        run.WORK.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=run.WORK))
        self.addCleanup(shutil.rmtree, self.tmp)

    def command_and_result(self, wl_class, slot):
        with tiny_inputs():
            cmd = wl_class(self.tmp, 3).round(0)[slot]
        stdout = checks.run_cli(cmd.argv)
        self.assertIsNotNone(stdout)
        return asdict(cmd), {"rc": 0, "stdout": stdout}

    def test_corrupted_transform_row_fails(self):
        cmd, res = self.command_and_result(workloads.ClosedGrid, 0)
        ref = checks.run_cli(checks.reference_argv(cmd["argv"], cmd["extra"]["reference"]))
        self.assertEqual(checks.count_failed(cmd, res, ref), 0)
        rows = json.loads(res["stdout"])
        rows[1]["value_re"] += 1e-4  # off the ODE, still a valid transform value
        bad = dict(res, stdout=json.dumps(rows))
        self.assertEqual(checks.count_failed(cmd, bad, ref), 1)
        rows = json.loads(res["stdout"])[1:]  # a row gone missing
        self.assertEqual(checks.count_failed(cmd, dict(res, stdout=json.dumps(rows)), ref), 1)

    def test_unreferenced_row_must_be_a_transform_value(self):
        cmd, res = self.command_and_result(workloads.OdeGrid, 0)
        self.assertEqual(checks.count_failed(cmd, res), 0)
        rows = json.loads(res["stdout"])
        rows[0]["value_re"] = 1.5
        self.assertEqual(checks.count_failed(cmd, dict(res, stdout=json.dumps(rows))), 1)

    def test_corrupted_compare_row_fails(self):
        cmd, res = self.command_and_result(workloads.McLyapD2, 0)
        self.assertEqual(checks.count_failed(cmd, res), 0)
        rows = json.loads(res["stdout"])
        rows[0]["mc_re"] += 0.5
        self.assertEqual(checks.count_failed(cmd, dict(res, stdout=json.dumps(rows))), 1)

    def test_failed_command_fails_all_rows(self):
        cmd, res = self.command_and_result(workloads.McLyapD2, 0)
        self.assertEqual(checks.count_failed(cmd, dict(res, rc=1)), cmd["rows"])
        self.assertEqual(checks.count_failed(cmd, dict(res, stdout="oops")), cmd["rows"])


if __name__ == "__main__":
    unittest.main()
