"""Tests of the benchmark itself, on the tiny size of each workload.

Run from the root of a checkout:

    python3 -m pytest perfbench
    python3 -m unittest discover -s perfbench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    script = cwd / HERE.name / "run.py"
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def tiny(workload: str, trace: int) -> tuple[dict, str]:
    proc = bench("--workload", workload, "--size", "tiny", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


class TestTinyRuns(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for workload in SPEC["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    result, table = tiny(workload["name"], trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, unit in want.items():
                        self.assertRegex(table, rf"(?m)^{name} +{unit} +\d+ ")
                    if trace == 0:
                        self.assertRegex(table, r"(?m)^failed_frac +ratio +1 +0 ")
                    else:
                        self.assertRegex(table, r"(?m)^share op\.run +engine\.run +0\.\d{3}$")
                        self.assertRegex(table, r"(?m)^share op\.check +verify\.extract_H +0\.\d{3}$")

    def test_exact_counts_repeat_across_traced_runs(self):
        counted = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]
        first, _ = tiny("churn-wide", 1)
        second, _ = tiny("churn-wide", 1)
        for name in counted:
            self.assertEqual(first["metrics"][name]["value"], second["metrics"][name]["value"], name)
        self.assertEqual(first["metrics"]["verify.extract_H_calls"]["value"], 4)


class TestCorrectnessGate(unittest.TestCase):
    def test_wrong_pinned_digest_is_a_failure(self):
        key = ("churn-wide", "tiny")
        pins = {key: dict(workloads.PINS[key], trace="0" * 64)}
        result = run.measure("churn-wide", workloads.DEFAULT_SEED, 0, False, "tiny", pins)
        self.assertFalse(result.correct)
        failed_frac = next(row for row in result.table if row[0] == "failed_frac")[3]
        self.assertGreater(failed_frac, 0)

    def test_pins_hold_at_the_default_seed(self):
        result = run.measure("static-long", workloads.DEFAULT_SEED, 0, False, "tiny")
        self.assertTrue(result.correct)
        self.assertEqual(result.failed, 0)

    def test_without_the_program_it_exits_non_zero_and_prints_no_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "churn-wide", "--seconds", "1", "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
