"""Tests of the benchmark's own checks. From the repository root:

    python3 -m unittest discover -s perfbench/tests

The first test run builds the benchmark into .bench_build/ like run.py.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

TESTS = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(TESTS)
ROOT = os.path.dirname(PERFBENCH)
sys.dont_write_bytecode = True
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402  (perfbench/run.py)


def setUpModule():
    run.build()


def run_bench(work, digests, workload="ilp-gcc"):
    """One round of `workload` at the default seed; returns the report."""
    report = os.path.join(work, "report.json")
    subprocess.run([run.BINARY, "--workload=" + workload, "--seed=0",
                    "--seconds=0", "--digests=" + digests,
                    "--work-dir=" + work, "--report=" + report],
                   check=True, stdout=subprocess.DEVNULL)
    with open(report) as f:
        return json.load(f)


class DigestCheck(unittest.TestCase):
    def test_pinned_digests_pass_and_one_perturbed_digest_fails(self):
        with open(os.path.join(PERFBENCH, "digests.txt")) as f:
            lines = f.read().splitlines()
        with tempfile.TemporaryDirectory(dir=run.BUILD) as work:
            report = run_bench(work, os.path.join(PERFBENCH, "digests.txt"))
            self.assertEqual(report["failed"], 0, report["problems"])
            self.assertEqual(report["metrics"]["failed_frac"]["value"], 0.0)

            index = next(i for i, line in enumerate(lines)
                         if line.startswith("ilp-gcc "))
            name, cell, value = lines[index].split()
            flipped = "%016x" % (int(value, 16) ^ 1)
            lines[index] = " ".join((name, cell, flipped))
            perturbed = os.path.join(work, "digests.txt")
            with open(perturbed, "w") as f:
                f.write("\n".join(lines) + "\n")
            report = run_bench(work, perturbed)
            self.assertEqual(report["failed"], 1)
            self.assertGreater(report["metrics"]["failed_frac"]["value"], 0.0)
            self.assertTrue(any(cell in p for p in report["problems"]))


class Compare(unittest.TestCase):
    def write(self, directory, name, cpu_model="cpu A", seed=1, failed=0,
              **values):
        doc = {"workload": "ilp-gcc", "trace": 0, "seed": seed,
               "failed": failed,
               "fingerprint": {"cpu_model": cpu_model, "nproc": 4,
                               "compiler": "GNU 12.2.0",
                               "build_type": "RelWithDebInfo"},
               "metrics": {"unrecoverable_loads": {"value": 0,
                                                   "unit": "count"}}}
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            for entry in json.load(f)["end_to_end"]:
                doc["metrics"][entry["name"]] = {"value": 1.0,
                                                 "unit": entry["unit"]}
        for metric, value in values.items():
            doc["metrics"][metric]["value"] = value
        path = os.path.join(directory, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def compare(self, base, head):
        return subprocess.run([sys.executable,
                               os.path.join(PERFBENCH, "compare.py"),
                               "--base", base, "--head", head],
                              capture_output=True, text=True)

    def test_same_documents_pass_and_cross_host_is_flagged_not_gated(self):
        with tempfile.TemporaryDirectory(dir=run.BUILD) as d:
            base = self.write(d, "base.json")
            out = self.compare(base, self.write(d, "head.json"))
            self.assertEqual(out.returncode, 0, out.stdout)
            out = self.compare(base, self.write(d, "other.json", "cpu B"))
            self.assertEqual(out.returncode, 3)
            self.assertIn("HOST FINGERPRINTS DIFFER", out.stdout)

    def test_regressions_changed_answers_and_failed_checks_fail(self):
        with tempfile.TemporaryDirectory(dir=run.BUILD) as d:
            base = self.write(d, "base.json")
            out = self.compare(base, self.write(d, "slow.json", sim_mips=0.5))
            self.assertEqual(out.returncode, 1)
            self.assertIn("REGRESSION", out.stdout)
            # Far inside the 0.1 bound, but the model's answer changed.
            out = self.compare(base, self.write(d, "cycles.json",
                                                sim_cycles=1.001))
            self.assertEqual(out.returncode, 1)
            self.assertIn("CHANGED", out.stdout)
            out = self.compare(base, self.write(d, "failed.json", failed=1))
            self.assertEqual(out.returncode, 1)
            self.assertIn("output checks failed", out.stdout)

    def test_different_seed_sets_are_not_compared(self):
        with tempfile.TemporaryDirectory(dir=run.BUILD) as d:
            out = self.compare(self.write(d, "base.json"),
                               self.write(d, "head.json", seed=2))
            self.assertEqual(out.returncode, 2)


class Packaging(unittest.TestCase):
    def test_fails_without_the_simulator_sources(self):
        with tempfile.TemporaryDirectory(dir=run.BUILD) as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(PERFBENCH, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run([sys.executable, "perfbench/run.py",
                                  "--workload", "ilp-gcc", "--seed", "1",
                                  "--seconds", "1", "--trace", "0"],
                                 cwd=d, capture_output=True, text=True,
                                 timeout=60)
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
