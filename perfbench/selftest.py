"""Self-tests of the benchmark: answer checks, calibration, smoke mode, refusal without sources.

    python3 perfbench/selftest.py

Runs on tiny inputs in a few seconds; everything it writes goes under
.perfbench_work/ in the checkout and is removed afterwards.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
import workloads

sys.path.insert(0, str(run.SRC))
import skelcube as sk  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


class ScratchDir(unittest.TestCase):
    def setUp(self):
        run.WORK.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass


class AnswerChecks(ScratchDir):
    def test_each_check_fails_on_a_wrong_expected_value_or_exit_code(self):
        for name in workloads.NAMES:
            with self.subTest(workload=name):
                prep = workloads.prepare(sk, name, 7, self.dir, smoke=True)
                sample, stdout = run.run_child([sys.executable, "-m", "skelcube.cli", *prep.argv], self.dir)
                output = Path(prep.output_path).read_text() if prep.output_path else None
                self.assertIsNone(workloads.check(prep, sample.exit_code, stdout, output))

                self.assertIsNotNone(workloads.check(prep, sample.exit_code + 1, stdout, output))
                wrong_code = dataclasses.replace(prep, exit_code=prep.exit_code + 1)
                self.assertIsNotNone(workloads.check(wrong_code, sample.exit_code, stdout, output))
                for i, line in enumerate(prep.required_lines):
                    lines = list(prep.required_lines)
                    lines[i] = line + "0"
                    wrong = dataclasses.replace(prep, required_lines=tuple(lines))
                    self.assertIsNotNone(workloads.check(wrong, sample.exit_code, stdout, output), line)
                if prep.output_path:
                    self.assertIsNotNone(workloads.check(prep, sample.exit_code, stdout, output + "**\n"))
                for prefix in prep.forbidden_prefixes:
                    self.assertIsNotNone(workloads.check(prep, sample.exit_code, stdout + prefix + " 0 1\n", output))

    def test_seed_changes_labels_not_the_space(self):
        a = workloads.prepare(sk, "homology-int", 1, self.dir, smoke=True)
        text_a = Path(a.argv[1]).read_text()
        workloads.prepare(sk, "homology-int", 2, self.dir, smoke=True)
        text_b = Path(a.argv[1]).read_text()
        workloads.prepare(sk, "homology-int", 1, self.dir, smoke=True)
        self.assertEqual(Path(a.argv[1]).read_text(), text_a)
        self.assertNotEqual(text_a, text_b)
        ca, _ = sk.parse_complex(text_a)
        cb, _ = sk.parse_complex(text_b)
        self.assertEqual(ca.f_vector(), cb.f_vector())


class Calibration(ScratchDir):
    def test_reference_time_follows_the_work_of_the_child(self):
        run.pin_to_one_cpu()

        def ref_s(n: int) -> float:
            cmd = [sys.executable, "-c", f"for _ in range({n}): sum(range(1000))"]
            sample, _ = run.run_child(cmd, self.dir)
            self.assertEqual(sample.exit_code, 0)
            return sample.ref_s

        small, large = ref_s(20000), ref_s(60000)
        self.assertGreater(large / small, 2.0)
        self.assertLess(large / small, 4.0)


class Smoke(unittest.TestCase):
    def result(self, trace: str) -> dict:
        proc = bench("--workload", "all", "--smoke", "--seconds", "0", "--trace", trace)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_untraced_smoke_reports_every_end_to_end_metric(self):
        names = {m["name"] for m in BENCHMARK["end_to_end"]}
        for workload, r in self.result("0").items():
            with self.subTest(workload=workload):
                self.assertTrue(r["correct"], r["errors"])
                self.assertEqual(set(r["metrics"]), names)
                self.assertTrue(all(m["value"] > 0 for m in r["metrics"].values()))

    def test_traced_smoke_reaches_each_layer(self):
        names = {m["name"] for m in BENCHMARK["per_layer"]}
        busy = {
            "reconstruct": ("reconstruct.candidates", "complex.delete_faces", "homology.profile_calls"),
            "manifold-check": ("manifold.faces_scanned", "homology.integer_rank_entries"),
            "homology-int": ("homology.snf_entries",),
            "embed-refute": ("embedding.search_s",),
        }
        for workload, r in self.result("1").items():
            with self.subTest(workload=workload):
                self.assertTrue(r["correct"], r["errors"])
                self.assertEqual(set(r["metrics"]), names)
                for metric in busy[workload]:
                    self.assertGreater(r["metrics"][metric]["value"], 0, metric)


class WithoutSources(ScratchDir):
    def test_refuses_in_a_directory_with_only_the_benchmark(self):
        shutil.copy(run.ROOT / "BENCHMARK.json", self.dir)
        for path in BENCHMARK["paths"]:
            shutil.copytree(run.ROOT / path, self.dir / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "reconstruct", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=self.dir)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
