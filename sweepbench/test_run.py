"""Tests of the sweep benchmark harness.

Run from the repository root (builds `experiments` and `sweep-replay` first
if needed):

    python3 -m unittest discover -s sweepbench -v
"""

import json
import os
import resource
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class SummaryTest(unittest.TestCase):
    def test_odd_count(self):
        s = run.summarize([9, 1, 8, 2, 7, 3, 6, 4, 5])
        self.assertEqual((s["median"], s["q1"], s["q3"]), (5, 2.5, 7.5))
        self.assertEqual((s["min"], s["max"], s["n"]), (1, 9, 9))

    def test_even_count(self):
        s = run.summarize([4.0, 1.0, 3.0, 2.0])
        self.assertEqual((s["median"], s["q1"], s["q3"]), (2.5, 1.25, 3.75))

    def test_single_sample(self):
        s = run.summarize([0.5])
        self.assertEqual((s["median"], s["q1"], s["q3"], s["n"]), (0.5, 0.5, 0.5, 1))

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            run.summarize([])


class ChildEnvTest(unittest.TestCase):
    def test_scrubs_and_pins_dirs(self):
        saved = dict(os.environ)
        try:
            os.environ.update(LSQCA_NO_STORE="1", LSQCA_THREADS="1", LSQCA_POISON_KEY="x")
            env = run.child_env("/c", "/s")
        finally:
            os.environ.clear()
            os.environ.update(saved)
        for name in ("LSQCA_NO_STORE", "LSQCA_THREADS", "LSQCA_POISON_KEY"):
            self.assertNotIn(name, env)
        self.assertEqual((env["LSQCA_CACHE_DIR"], env["LSQCA_STORE_DIR"]), ("/c", "/s"))


class BuiltTest(unittest.TestCase):
    """Tests that need the release binaries."""

    @classmethod
    def setUpClass(cls):
        cls.target = run.target_dir()
        run.build(cls.target)
        cls.replay = cls.target / "release" / "sweep-replay"
        work = run.ROOT / ".bench_work"
        cls.kept = set(work.iterdir()) if work.is_dir() else set()
        cls.scratch = work / f"test-{os.getpid()}"
        cls.scratch.mkdir(parents=True, exist_ok=True)

    @classmethod
    def tearDownClass(cls):
        # Runs keep their state; remove what this test class created.
        for path in set((run.ROOT / ".bench_work").iterdir()) - cls.kept:
            shutil.rmtree(path, ignore_errors=True)

    def measure(self, code):
        return run.measure(
            self.replay,
            [sys.executable, "-c", code],
            dict(os.environ),
            self.scratch / "out",
            self.scratch / "err",
        )

    def test_captures_child_cpu_and_peak_rss(self):
        r = self.measure(
            "import time\n"
            "block = bytearray(200 * 1024 * 1024)\n"
            "for i in range(0, len(block), 4096): block[i] = 1\n"
            "t = time.process_time()\n"
            "while time.process_time() - t < 0.3: pass\n"
        )
        self.assertEqual(r["exit_code"], 0)
        self.assertGreaterEqual(r["maxrss_kb"] * 1024 / 1e6, 200)
        self.assertGreaterEqual(r["user_s"] + r["sys_s"], 0.3)
        self.assertGreaterEqual(r["wall_s"], r["user_s"] * 0.5)

    def test_peak_rss_is_not_the_launchers(self):
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        small = run.measure(
            self.replay, ["true"], dict(os.environ), self.scratch / "out", self.scratch / "err"
        )
        self.assertLess(small["maxrss_kb"], own_kb)

    def test_reports_child_exit_code(self):
        self.assertEqual(self.measure("raise SystemExit(3)")["exit_code"], 3)

    def test_calibration_reports_its_time(self):
        first = run.last_json(run.run_checked([self.replay, "calibrate"]))
        target = self.scratch / "calibration"
        second = run.last_json(
            run.run_checked([self.replay, "calibrate", "--publish-into", target])
        )
        self.assertGreater(first["wall_s"], 0)
        self.assertGreater(first["cpu_s"], 0)
        self.assertEqual(first["publish_s"], 0)
        self.assertGreaterEqual(first["threads"], 1)
        self.assertEqual(first["digest"], second["digest"], "the calibration work is fixed")
        self.assertGreater(second["publish_s"], 0)
        self.assertEqual(len(list(target.glob("*.json"))), 96)
        self.assertEqual(list(target.glob("*.tmp")), [])

    def test_replay_unit_tests(self):
        """The `unattributed_s` residual and layer sums (Rust unit tests)."""
        env = dict(os.environ, CARGO_TARGET_DIR=str(self.target))
        manifest = run.HERE / "replay" / "Cargo.toml"
        done = subprocess.run(
            ["cargo", "test", "--release", "--offline", "-q", "--manifest-path", str(manifest)],
            cwd=run.ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)

    def test_quick_smoke_of_every_workload(self):
        names = {w["name"] for w in BENCHMARK["workloads"]}
        self.assertEqual(names, set(run.WORKLOADS))
        for workload in sorted(names):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    done = subprocess.run(
                        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                         "--seed", "7", "--seconds", "0.5", "--trace", str(trace)],
                        cwd=run.ROOT,
                        capture_output=True,
                        text=True,
                        timeout=180,
                    )
                    self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                    result = json.loads(done.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], done.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)

    def test_refuses_without_sources(self):
        bare = self.scratch / "bare"
        shutil.copytree(run.HERE, bare / "sweepbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, "sweepbench/run.py", "--workload", "hybrid-tradeoff-cold",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=180,
        )
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
