#!/usr/bin/env python3
"""Self-tests of the benchmark: smoke runs and fault injection.

    python3 perfbench/selftest.py

Smoke runs execute every workload for one cycle, traced and untraced, as
the benchmark's own command would, and check the printed metrics against
BENCHMARK.json and the traced self-time shares against the design. Fault
injection breaks a stored codeword, a claimed distance or the tracer's
span accounting and checks that the affected operations are counted as
failed.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sets the thread pins and the ledc source path)
from tracer import Tracer  # noqa: E402
from workloads import Op, WORKLOADS  # noqa: E402

sys.path.insert(0, str(run.SRC))
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# The function with the largest self time in a traced run of each workload.
BUSIEST = {
    "design": "linalg.rank",
    "sweep": "code.min_distance_exhaustive",
    "bound": "locality.dmax_witness",
}


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class Smoke(unittest.TestCase):
    def test_every_workload_prints_every_metric(self):
        names = [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(sorted(names), sorted(WORKLOADS))
        for name in names:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    proc = bench("--workload", name, "--seed", "7", "--seconds", "0.1", "--trace", str(trace))
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertIn("failed_ratio 0.0 ratio", lines)
                    expected = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for metric, unit in expected.items():
                        self.assertTrue(any(line.startswith(f"{metric} ") and line.endswith(f" {unit}")
                                            for line in lines), metric)
                    if trace == 0:
                        self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))
                    elif name in BUSIEST:
                        top = lines[lines.index("top self time:") + 1].split()[0]
                        self.assertEqual(top, BUSIEST[name])
                    else:
                        self.assertEqual(result["metrics"]["linalg.rank.calls"]["value"], 0)

    def test_exits_nonzero_without_sources(self):
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            bare = Path(tmp)
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "bound", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


class FaultInjection(unittest.TestCase):
    def setUp(self):
        run.OUT.mkdir(exist_ok=True)
        self.tmp = tempfile.TemporaryDirectory(dir=run.OUT)
        self.lib = run.load_ledc()

    def tearDown(self):
        self.tmp.cleanup()

    def test_corrupted_symbol_fails_read_and_repair(self):
        wl = WORKLOADS["storage"](self.lib, 1, Path(self.tmp.name))
        code = wl.codes[0]
        word = wl.store[0, 0][1]
        word[0] = (word[0] + 1) % code.field.q  # position 1 belongs to group 1
        g1 = code.structure.N[0]
        ops = [
            Op("read", (0, 0, frozenset({code.structure.n - 1}))),
            Op("repair", (0, 0, (1, tuple(g1[: len(code.structure.K[0])])))),
            Op("read", (0, 0, frozenset({0}))),  # the corrupted symbol is erased: still correct
        ]
        runner = run.OpRunner(wl)
        for op in ops:
            runner.run(op)
        self.assertEqual((runner.attempted, runner.failed), (3, 2))

    def test_wrong_claimed_distance_fails_design(self):
        wl = WORKLOADS["design"](self.lib, 1, Path(self.tmp.name))
        op = wl.cycle(0)[0]
        runner = run.OpRunner(wl)
        runner.run(op)
        self.assertEqual(runner.failed, 0, runner.reasons)
        original = self.lib.cli.code_to_dict

        def overclaim(cf):
            d = original(cf)
            d["claimed_distance"] += 1
            return d

        self.lib.cli.code_to_dict = overclaim
        runner.run(op)
        self.assertEqual(runner.failed, 1)
        self.assertIn("exited 4", runner.reasons[0])

    def traced_storage(self, tracer_cls):
        """Failed counts of one storage cycle run untraced, then traced by tracer_cls."""
        wl = WORKLOADS["storage"](self.lib, 1, Path(self.tmp.name))
        _, runner, _ = run.trace_run(wl, self.lib, 1e-9, tracer_cls(self.lib.package))
        return len(wl.cycle(0)), runner

    def test_sound_tracer_passes_accounting(self):
        ops, runner = self.traced_storage(Tracer)
        self.assertEqual((runner.attempted, runner.failed), (2 * ops, 0), runner.reasons)

    def test_uncharged_child_span_fails_accounting(self):
        class SkipsParentCharge(Tracer):
            def _close(self, nid, sid, parent, t0, t1, child_s):
                super()._close(nid, sid, list(parent), t0, t1, child_s)  # the parent never sees the time

        ops, runner = self.traced_storage(SkipsParentCharge)
        self.assertEqual((runner.attempted, runner.failed), (2 * ops, ops))
        self.assertIn("span self times", runner.reasons[0])

    def test_span_left_open_fails_accounting(self):
        class LeavesFrameOpen(Tracer):
            def _close(self, nid, sid, parent, t0, t1, child_s):
                super()._close(nid, sid, parent, t0, t1, child_s)
                if parent[1] == "bench":
                    self.stack.append([0.0, "leaked", -1])

        ops, runner = self.traced_storage(LeavesFrameOpen)
        self.assertEqual((runner.attempted, runner.failed), (2 * ops, ops))
        self.assertIn("spans left open", runner.reasons[0])


if __name__ == "__main__":
    unittest.main(verbosity=2)
