"""Self-tests of the benchmark, run at a tiny size.

    python3 perfbench/selftest.py

They take well under a minute on two cores and write only under
perfbench/work/.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
from tracing import self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = bench.load_json(os.path.join(bench.ROOT, "BENCHMARK.json"))

EXACT_COUNTS = (
    "enumeration.canonicalizations",
    "enumeration.enumerate_codes.calls",
    "packing.max_packing_exact.calls",
    "packing.nodes",
    "packing.copies",
    "trace.spans",
)


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def tiny(workload: str, trace: bool, reference: dict | None = None) -> dict:
    return bench.run(workload, 0, 1, trace, "tiny", reference)["summary"]


class BenchmarkSelfTest(unittest.TestCase):
    def test_benchmark_json_lists_the_runner_s_workloads(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(WORKLOADS))

    def test_one_command_prints_every_metric_with_its_unit(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "pipeline49",
                    "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            done = subprocess.run(argv, cwd=bench.ROOT, capture_output=True, text=True, timeout=170)
            self.assertEqual(done.returncode, 0, done.stderr)
            lines = done.stdout.strip().splitlines()
            summary = json.loads(lines[-1])
            self.assertEqual(set(summary), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(summary["correct"], done.stderr)
            units = {m["name"]: m["unit"] for m in BENCHMARK[section]}
            self.assertEqual({k: v["unit"] for k, v in summary["metrics"].items()}, units)
            printed = {(line.split()[0], line.split()[-1]) for line in lines[1:-1]}
            self.assertEqual(printed, set(units.items()))

    def test_every_workload_passes_its_checks(self):
        for name in WORKLOADS:
            for trace in (False, True):
                with self.subTest(workload=name, trace=trace):
                    summary = tiny(name, trace)
                    self.assertTrue(summary["correct"])
                    self.assertEqual(summary["failed"], 0)
                    self.assertGreaterEqual(summary["attempted"], 1)

    def test_planted_wrong_reference_raises_the_fail_ratio(self):
        for name, plant in (
            ("enumerate-cold", lambda ref: ref["enumerate"]["6"].update(sha256="0" * 64)),
            ("solve", lambda ref: ref["solve"].update({"blowup2-qr7-k4": 8})),
        ):
            with self.subTest(workload=name):
                reference = bench.load_reference()
                plant(reference)
                summary = tiny(name, False, reference)
                self.assertFalse(summary["correct"])
                self.assertGreater(summary["failed"], 0)
                self.assertLess(summary["metrics"]["success_ratio"]["value"], 1.0)

    def test_exact_counts_repeat_across_runs(self):
        for name, nonzero in (("enumerate-cold", "enumeration.canonicalizations"), ("sweep", "packing.nodes")):
            with self.subTest(workload=name):
                first, second = (tiny(name, True)["metrics"] for _ in range(2))
                self.assertGreater(first[nonzero]["value"], 0)
                for key in EXACT_COUNTS:
                    self.assertEqual(first[key]["value"], second[key]["value"], key)
                with open(os.path.join(bench.WORK, "traces", f"{name}-seed0.jsonl"), encoding="utf-8") as fh:
                    spans = [json.loads(line) for line in fh]
                self.assertEqual(len(spans), first["trace.spans"]["value"])
                for key in ("name", "start", "end", "span", "parent", "command"):
                    self.assertIn(key, spans[0])

    def test_self_time_subtracts_the_time_children_cover(self):
        spans = [
            {"name": "a", "start": 0.0, "end": 10.0, "span": 1, "parent": 0},
            {"name": "b", "start": 1.0, "end": 3.0, "span": 2, "parent": 1},
            {"name": "c", "start": 2.0, "end": 2.5, "span": 3, "parent": 2},
            {"name": "b", "start": 5.0, "end": 6.0, "span": 4, "parent": 1},
        ]
        self.assertEqual(self_times(spans), {1: 7.0, 2: 1.5, 3: 0.5, 4: 1.0})

    def test_a_worker_outliving_its_interval_stops_sampling_cleanly(self):
        worker = multiprocessing.get_context("fork").Process(target=_busy, args=(0.5,))
        clock = bench.Clock()
        clock.measure(lambda: (worker.start(), _busy(0.2)))
        worker.join(timeout=10)
        self.assertFalse(worker.is_alive())
        self.assertEqual(worker.exitcode, 0)
        self.assertAlmostEqual(clock.scaled[0], clock.raw[0] * bench.PROBE_REFERENCE_S / clock.probe[0])

    def test_exits_nonzero_without_the_program(self):
        os.makedirs(bench.WORK, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=bench.WORK)
        try:
            shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("work", "__pycache__"))
            argv = [sys.executable, "perfbench/run.py", "--workload", "solve", "--seed", "0", "--seconds", "1", "--trace", "0"]
            done = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
