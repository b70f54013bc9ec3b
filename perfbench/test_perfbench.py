#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Builds the driver (as run.py does) and makes a few short runs of the
shortest workload, under a minute in all.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SPEC = run.SPEC
SCRATCH = ROOT / ".bench_build" / "test"


def bench(*extra, seed=1, trace=0, cwd=ROOT):
    """Run the benchmark once; returns (exit code, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "security_audit",
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def result(lines):
    return json.loads(lines[-1])


class MetricNames(unittest.TestCase):
    def test_printed_metrics_match_benchmark_json(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = bench(trace=trace)
            self.assertEqual(code, 0)
            res = result(lines)
            self.assertEqual(set(res), {"correct", "attempted", "failed",
                                        "metrics"})
            self.assertTrue(res["correct"])
            self.assertEqual(res["failed"], 0)
            self.assertEqual(
                {n: m["unit"] for n, m in res["metrics"].items()},
                {m["name"]: m["unit"] for m in SPEC[section]})


class HostScale(unittest.TestCase):
    def test_scales_host_times_and_rates_only(self):
        ref = run.PROBE_REFERENCE_MS
        # The median over every probe of the run, so one outlier is
        # ignored: the host here runs at half the reference speed.
        reps = [{"probe_ms": [2 * ref] * 3}, {"probe_ms": [2 * ref, 1e6]}]
        k = run.host_scale(reps)
        self.assertEqual(k, 0.5)
        self.assertEqual(run.scaled(4.0, "s", k), 2.0)
        self.assertEqual(run.scaled(4.0, "ns", k), 2.0)
        self.assertEqual(run.scaled(4.0, "Mcycles/s", k), 8.0)
        for unit in ("MiB", "count", "ratio", "cycles"):
            self.assertEqual(run.scaled(4.0, unit, k), 4.0)


class FailureCounting(unittest.TestCase):
    def test_injected_fault_raises_failed(self):
        code, lines = bench("--inject-fault", "queue-overflow", seed=2)
        self.assertEqual(code, 0)
        res = result(lines)
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)
        self.assertTrue(any("queue full" in line for line in lines))

    def test_tampered_digest_is_a_failure(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        digests = json.loads((HERE / "digests.json").read_text())
        good = digests["digests"]["security_audit"]
        digests["digests"]["security_audit"] = "0123456789abcdef"
        tampered = SCRATCH / "digests.json"
        tampered.write_text(json.dumps(digests))
        reps = [{"attempted": 5, "failures": [], "digest": good,
                 "traced": traced} for traced in (False, True)]
        args = SimpleNamespace(workload="security_audit",
                               seed=run.DEFAULT_SEED)
        self.assertEqual(run.check_reps(reps, args, HERE / "digests.json"),
                         (12, []))
        attempted, failures = run.check_reps(reps, args, tampered)
        self.assertEqual(attempted, 12)
        self.assertEqual(len(failures), 1)
        self.assertIn("recorded 0123456789abcdef", failures[0])

    def test_without_sources_exits_nonzero_and_prints_no_result(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = bench(cwd=bare)
        self.assertNotEqual(code, 0)
        self.assertFalse(any(line.startswith("{") for line in lines))
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
