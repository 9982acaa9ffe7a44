#!/usr/bin/env python3
"""Self-tests of the msgsim host benchmark.

    python3 perfbench/test_perfbench.py

Builds msgbench through run.py (into the same build directory) and
runs each workload for one second at a time.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed=1, trace=0, violate="none", record=None, cwd=ROOT,
        runner=None):
    cmd = (runner or RUN) + ["--workload", workload, "--seed", str(seed),
                             "--seconds", "1", "--trace", str(trace),
                             "--violate", violate]
    if record:
        cmd += ["--record", record]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def report(proc):
    """(digest, result) of a finished run."""
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    digest = next(json.loads(line[len("perfbench digest "):])
                  for line in lines if line.startswith("perfbench digest "))
    return digest, json.loads(lines[-1])


class Seeds(unittest.TestCase):
    def test_other_seed_gives_other_inputs_and_digest(self):
        for wl in SPEC["workloads"]:
            d1, r1 = report(run(wl["name"], seed=1))
            d2, r2 = report(run(wl["name"], seed=2))
            self.assertTrue(r1["correct"] and r2["correct"])
            self.assertNotEqual(d1["inputs"], d2["inputs"], wl["name"])
            self.assertNotEqual(d1["hash"], d2["hash"], wl["name"])

    def test_same_seed_repeats_digest(self):
        d1, _ = report(run("bulk", seed=7))
        d2, _ = report(run("bulk", seed=7))
        self.assertEqual(d1, d2)


class Tracing(unittest.TestCase):
    def test_traced_and_untraced_digests_match(self):
        for wl in SPEC["workloads"]:
            d0, r0 = report(run(wl["name"], seed=3, trace=0))
            d1, r1 = report(run(wl["name"], seed=3, trace=1))
            self.assertEqual(d0, d1, wl["name"])
            self.assertTrue(r0["correct"] and r1["correct"])

    def test_spans_written_and_self_times_add_up(self):
        proc = run("fabric", seed=4, trace=1)
        _, result = report(proc)
        self.assertIn("self-time sum equals job time", proc.stdout)
        build = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        spans = json.loads((build / "spans" / "fabric-4.json").read_text())
        names = {s[0] for s in spans["spans"]}
        for layer in ("protocols.stack_build", "traffic.run",
                      "model.predict", "sim.counters", "net.counters",
                      "machine.counters"):
            self.assertIn(layer, names)
        self.assertIn("trace.overhead_frac", result["metrics"])


class Failures(unittest.TestCase):
    def test_violated_oracle_is_a_failed_operation(self):
        for wl in SPEC["workloads"]:
            _, r = report(run(wl["name"], violate="oracle"))
            self.assertFalse(r["correct"], wl["name"])
            self.assertGreaterEqual(r["failed"], 1)
            self.assertLess(r["failed"], r["attempted"])

    def test_fatal_inside_msgsim_is_a_failed_operation(self):
        for wl in SPEC["workloads"]:
            proc = run(wl["name"], violate="fatal")
            _, r = report(proc)
            self.assertFalse(r["correct"], wl["name"])
            self.assertGreaterEqual(r["failed"], 1)
            self.assertIn("fatal", proc.stdout)

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench")
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "fabric",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, env=env,
                timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


class Metrics(unittest.TestCase):
    def check(self, trace, declared):
        for wl in SPEC["workloads"]:
            _, r = report(run(wl["name"], seed=5, trace=trace))
            got = r["metrics"]
            self.assertEqual(set(got), {m["name"] for m in declared})
            for m in declared:
                self.assertEqual(got[m["name"]]["unit"], m["unit"])
                self.assertIsInstance(got[m["name"]]["value"], (int, float))

    def test_end_to_end_metrics_printed_with_units(self):
        self.check(0, SPEC["end_to_end"])
        for wl in SPEC["workloads"]:
            _, r = report(run(wl["name"], seed=5))
            for m in SPEC["end_to_end"]:
                self.assertGreater(r["metrics"][m["name"]]["value"], 0)

    def test_per_layer_metrics_printed_with_units(self):
        self.check(1, SPEC["per_layer"])


class Compare(unittest.TestCase):
    def test_compare_same_code_and_digest_mismatch(self):
        with tempfile.TemporaryDirectory() as tmp:
            a, b = Path(tmp) / "a.jsonl", Path(tmp) / "b.jsonl"
            for seed in (1, 2):
                report(run("explore", seed=seed, record=str(a)))
                report(run("explore", seed=seed, record=str(b)))
            cmp = [sys.executable, str(ROOT / "perfbench" / "compare.py")]
            ok = subprocess.run(cmp + [str(a), str(b)], capture_output=True,
                                text=True)
            self.assertEqual(ok.returncode, 0, ok.stdout + ok.stderr)
            self.assertIn("packets_per_s", ok.stdout)
            recs = [json.loads(line) for line in b.read_text().splitlines()]
            recs[0]["digest"]["hash"] = "0" * 16
            b.write_text("".join(json.dumps(r) + "\n" for r in recs))
            bad = subprocess.run(cmp + [str(a), str(b)], capture_output=True,
                                 text=True)
            self.assertEqual(bad.returncode, 1)
            self.assertIn("digest differs", bad.stdout)


if __name__ == "__main__":
    unittest.main()
