"""Tests of the benchmark itself: each correctness gate flags a perturbed
value, the reference generator reproduces its recorded values, and quick
runs print a well-formed result.

    python3 bench/selftest.py          # about a minute

Kept out of the package's test suite on purpose: it runs the benchmark.
Scratch files go to ``.bench_out/selftest`` in the checkout.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_out" / "selftest"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from mpmath import mp  # noqa: E402

import compare  # noqa: E402
import reference  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from capheat import EigenvalueChannel, compute_table  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class GateTests(unittest.TestCase):
    def test_cli_gate_flags_one_changed_byte(self):
        name = "omega-order3-tex"
        child = workloads.run_child(["-m", "capheat.cli", *workloads.CLI_COMMANDS[name]])
        expected = json.loads(reference.CLI_FILE.read_text())[name]
        self.assertIsNone(workloads.stdout_mismatch(child, expected))
        flipped = bytearray(child.stdout)
        flipped[len(flipped) // 2] ^= 1
        changed = dataclasses.replace(child, stdout=bytes(flipped))
        self.assertIsNotNone(workloads.stdout_mismatch(changed, expected))
        self.assertIsNotNone(
            workloads.stdout_mismatch(dataclasses.replace(child, returncode=3), expected)
        )

    def test_roots_gate_flags_a_root_moved_by_1e_8(self):
        recorded = json.loads(reference.ROOTS_FILE.read_text())["channels"]
        channels = [
            EigenvalueChannel(ch["mu"], 1, tuple(float(r) for r in ch["roots"]))
            for ch in recorded
        ]
        self.assertIsNone(workloads.roots_mismatch(channels, recorded))
        roots = list(channels[5].roots)
        roots[1] += 1e-8
        moved = list(channels)
        moved[5] = dataclasses.replace(channels[5], roots=tuple(roots))
        self.assertIsNotNone(workloads.roots_mismatch(moved, recorded))
        self.assertIsNotNone(workloads.roots_mismatch(channels[:-1], recorded))

    def test_table_gate_flags_an_entry_moved_by_1e_6(self):
        name = "D5-theta1-user-m0.5"
        point = next(p for p in reference.grid() if p["name"] == name)
        expected = workloads.load_assembly_reference()["tables"][name]
        table = compute_table(reference.make_config(point))
        ok, checked, _ = workloads.check_table(table, expected)
        self.assertEqual(ok, checked)
        entries = list(table.entries)
        entries[2] = dataclasses.replace(entries[2], cal_A=entries[2].cal_A * (1 + 1e-6))
        moved = dataclasses.replace(table, entries=tuple(entries))
        ok, checked, worst = workloads.check_table(moved, expected)
        self.assertEqual(ok, checked - 1)
        self.assertGreater(worst, 0.9e-6)

    def test_reference_reproduces_recorded_values(self):
        name = "D6-theta2-user-m0.5"
        point = next(p for p in reference.grid() if p["name"] == name)
        recorded = json.loads(reference.ASSEMBLY_FILE.read_text())["tables"][name]
        fresh = reference.reference_table(point)
        with mp.workdps(reference.DIGITS):
            for key in ("script_A", "cal_A"):
                for value, text in zip(fresh[key], recorded[key], strict=True):
                    self.assertLess(abs(value - mp.mpf(text)), 1e-22 * abs(value))

    def test_compare_refuses_different_backends(self):
        for side, backend in (("base", "python"), ("head", "gmpy")):
            directory = SCRATCH / side
            directory.mkdir(parents=True, exist_ok=True)
            record = {
                "workload": "verify-cap",
                "fingerprint": {"mpmath_backend": backend},
                "result": {"metrics": {"setup_s": {"value": 1.0, "unit": "s"}}},
            }
            (directory / "verify-cap-seed1-trace0.json").write_text(json.dumps(record))
        self.assertEqual(compare.main([str(SCRATCH / "base"), str(SCRATCH / "head")]), 2)


class SpeedTests(unittest.TestCase):
    def test_scale_is_reference_over_mean_chunk(self):
        meter = speed.Speedometer(workloads.VerifyCap.round_seconds, False)
        ref = speed.REFERENCE_S
        meter.groups = [[ref, ref], [2 * ref, 2 * ref], [4 * ref]]
        self.assertAlmostEqual(meter.scale(), 1 / 2)
        for fresh_interpreter in (False, True):
            meter = speed.Speedometer(workloads.CliReadme.round_seconds, fresh_interpreter)
            meter.sample()
            self.assertEqual(len(meter.groups[0]), meter.per_round)
            self.assertTrue(all(c > 0 for c in meter.groups[0]))


class SmokeTests(unittest.TestCase):
    def test_quick_runs_print_every_metric(self):
        known = json.loads(reference.ASSEMBLY_FILE.read_text())["known_defects"]
        expected_failed = {"verify-cap": 0, "cli-readme": 0, "assembly-sweep": len(known)}
        for workload, trace in (("assembly-sweep", 0), ("cli-readme", 1), ("verify-cap", 0)):
            with self.subTest(workload=workload, trace=trace):
                proc = run_bench("--workload", workload, "--seed", "7",
                                 "--seconds", "1", "--trace", str(trace))
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                if trace == 0:
                    self.assertEqual(result["failed"], expected_failed[workload])
                spec = SPEC["per_layer" if trace else "end_to_end"]
                self.assertEqual(set(result["metrics"]), {m["name"] for m in spec})
                for m in spec:
                    self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
                    self.assertIsInstance(result["metrics"][m["name"]]["value"], (int, float))

    def test_refuses_to_run_without_the_package_sources(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("--workload", "cli-readme", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
