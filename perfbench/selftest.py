"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Every metric named in BENCHMARK.json must be produced, every verdict must
match its known answer, and the result digest must agree between two calls
and between the traced and the untraced pass.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / BENCH_DIR.name / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


class TinyRuns(unittest.TestCase):
    def bench(self, workload, trace):
        proc = run_bench(
            ROOT, "--workload", workload, "--seed", "1", "--trace", str(trace), "--tiny",
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        facts, result = proc.stdout.strip().splitlines()[-2:]
        return json.loads(facts)["facts"], json.loads(result)

    def test_metrics_known_answers_and_digests(self):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                facts0, result0 = self.bench(workload["name"], 0)
                facts1, result1 = self.bench(workload["name"], 1)
                for result in (result0, result1):
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 100)
                self.assertEqual(
                    list(result0["metrics"]), [m["name"] for m in SPEC["end_to_end"]]
                )
                self.assertEqual(
                    list(result1["metrics"]), [m["name"] for m in SPEC["per_layer"]]
                )
                for metric in result0["metrics"].values():
                    self.assertGreater(metric["value"], 0)
                self.assertEqual(facts0["digest"], facts1["digest"])
                self.assertEqual(facts1["traced_digest"], facts1["digest"])
                self.assertEqual(facts0["failed_share"], 0.0)

    def test_refuses_without_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(
                BENCH_DIR, Path(tmp) / BENCH_DIR.name,
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            proc = run_bench(tmp, "--workload", "gluing", "--seed", "1", "--tiny")
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class TracerWrapping(unittest.TestCase):
    def test_wrappers_replace_every_reference(self):
        sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
        import tracing
        from tqps import circle_hopf, multipullback, tensor_gluing

        tracer = tracing.Tracer()
        tracer.install()
        self.assertIs(multipullback.psi_ij, tensor_gluing.psi_ij)
        self.assertIs(circle_hopf.Scalar.__radd__, circle_hopf.Scalar.__add__)
        self.assertIsNot(tensor_gluing.psi_ij.__wrapped__, tensor_gluing.psi_ij)

        x = tensor_gluing.TensorElement.pure([("T", 1), ("E", 0, 1), ("u", 2)], circle_slot=3)
        tensor_gluing.psi_ij(tensor_gluing.chi(x, 1), 0, 2)
        calls = {name: entry[0] for name, entry in tracer.stats.items()}
        for name in ("psi_ij", "chi_inv", "psi"):
            self.assertEqual(calls["tensor_gluing." + name], 1)
        self.assertEqual(calls["tensor_gluing.chi"], 2)
        self.assertGreater(calls["tensor_gluing.TensorElement.init"], 0)
        # Every tensor built here holds exactly one term.
        self.assertEqual(tracer.terms_built, calls["tensor_gluing.TensorElement.init"])
        for name, (_, self_s) in tracer.stats.items():
            self.assertGreaterEqual(self_s, 0.0, name)


class DefectScreen(unittest.TestCase):
    def test_screen_rejects_exactly_the_seeds_verify_freeness_raises_on(self):
        sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
        import workloads
        from tqps import multipullback

        # 250339240 is drawn by the freeness workload at seed 2 and met the
        # witness defect when this test was written; 5 never did.
        for k in (250339240, 5):
            with self.subTest(k=k):
                try:
                    multipullback.verify_freeness(2, seed=k, samples=1)
                    raised = False
                except ValueError:
                    raised = True
                self.assertEqual(workloads.witnesses_build(2, k), not raised)


if __name__ == "__main__":
    unittest.main()
