"""Tests of the benchmark itself (not of mjlstab).

Usage (from the repository root): python3 perfbench/selftest.py

Kept out of the repository's pytest suite on purpose: it needs refs.json and
runs the CLI in subprocesses.
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

import check
import gen
import run
import spans
import workloads


def _call(work: Path, command: str, argv: list[str], traced: bool = False):
    """Run one CLI call; returns (exit code, stdout text, artifact path, spans)."""
    out = work / f"out.{'csv' if command == 'simulate' else 'json'}"
    stdout = work / "stdout.txt"
    span_path = work / "spans.json"
    prog = ([sys.executable, str(run.HERE / "traced_cli.py"), str(span_path)]
            if traced else [sys.executable, *run.CLI])
    _, code, _ = run.run_process(prog + [command, *argv, "--out", str(out)],
                                 run.child_env(), work, stdout, 60)
    found = json.loads(span_path.read_text()) if traced else None
    return code, stdout.read_text(), out, found


def _write_artifact(out: Path, command: str, doc: dict) -> str:
    text = json.dumps(doc, indent=2)
    out.write_text(text + "\n")
    Path(f"{out}.manifest.json").write_text(json.dumps(
        {"command": command, "result_digest": check.sha256((text + "\n").encode())}))
    return text


class GeneratorTests(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        makers = {**workloads.INPUTS, **workloads.RECORD_INPUTS}
        for name, make in makers.items():
            with self.subTest(name=name):
                self.assertEqual(gen.to_json(make(3)), gen.to_json(make(3)))
        for make in (gen.ladder_model, gen.grid_model, gen.contractive_family):
            with self.subTest(make=make.__name__):
                args = (128,) if make is gen.contractive_family else ()
                self.assertNotEqual(gen.to_json(make(0, *args)), gen.to_json(make(1, *args)))

    def test_families_are_feasible(self):
        for modes in (128, 256):
            doc = gen.contractive_family(5, modes)
            mats, p = (json.loads(json.dumps(doc[k])) for k in ("matrices", "P"))
            alpha = [max(sum(abs(v) for v in row) for row in w) ** 2 for w in mats]
            self.assertTrue(all(0.2 - 1e-12 <= a <= 0.9 + 1e-12 for a in alpha))
            beta = [1 - sum(p[r][s] * alpha[r] for r in range(modes)) for s in range(modes)]
            self.assertGreater(min(beta), 0)


class CheckerTests(unittest.TestCase):
    def setUp(self):
        self.refs = json.loads((run.HERE / "refs.json").read_text())
        self.tmp = tempfile.TemporaryDirectory(dir=run.HERE)
        self.work = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def _analyze_doc(self, ref: dict) -> dict:
        return {
            "command": "analyze",
            "nominal": {"rho": ref["nominal"], "stable": ref["nominal"] < 1},
            "overall": ref["overall"],
            "scopes": [{"scope": k, "rho": v, "stable": v < 1, "verdict": check.verdict(v)}
                       for k, v in ref["scopes"].items()],
        }

    def test_perturbed_radius(self):
        ref = self.refs["analyze --pendulum 200 --dedup"]
        out = self.work / "a.json"
        doc = self._analyze_doc(ref)
        self.assertEqual(check.check_call("analyze", ref, 0, _write_artifact(out, "analyze", doc), out), ([], 0))
        doc["scopes"][0]["rho"] += 3 * check.BAND
        self.assertEqual(check.check_call("analyze", ref, 0, _write_artifact(out, "analyze", doc), out), ([], 1))
        doc["scopes"][0]["rho"] += 10 * check.GROSS
        problems, off = check.check_call("analyze", ref, 0, _write_artifact(out, "analyze", doc), out)
        self.assertTrue(problems)
        self.assertEqual(off, 1)
        problems, _ = check.check_call("analyze", ref, 2, _write_artifact(out, "analyze", self._analyze_doc(ref)), out)
        self.assertTrue(problems)

    def test_perturbed_csv(self):
        template = "--model {ladder} --steps 200 --trials 20 --seed {seed}"
        ref = self.refs[workloads.ref_key("simulate", template, 1)]
        paths = workloads.write_inputs(self.work, 1)
        code, stdout, out, _ = _call(self.work, "simulate", workloads.expand(template, paths, 1))
        self.assertEqual(check.check_call("simulate", ref, code, stdout, out), ([], 0))
        data = bytearray(out.read_bytes())
        last = max(i for i, b in enumerate(data) if chr(b).isdigit())
        data[last] = ord("0") + (data[last] - ord("0") + 1) % 10
        out.write_bytes(bytes(data))
        problems, _ = check.check_call("simulate", ref, code, stdout, out)
        self.assertIn("manifest does not match the artifact", problems)
        self.assertIn("simulate CSV differs from the reference", problems)


class TraceTests(unittest.TestCase):
    def test_every_layer_metric_is_emitted(self):
        with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
            work = Path(tmp)
            family = work / "family.json"
            family.write_text(gen.to_json(gen.contractive_family(0, 8)))
            calls = [
                ("analyze", ["--pendulum", "4"]),
                ("inspect", ["--pendulum", "4"]),
                ("robust", ["--family", str(family)]),
                ("simulate", ["--pendulum", "4", "--steps", "10", "--trials", "2"]),
                ("simulate", ["--pendulum", "4", "--steps", "10"]),
            ]
            traced = []
            for command, argv in calls:
                code, _, _, found = _call(work, command, argv, traced=True)
                self.assertEqual(code, 0)
                traced.append(found)
        metrics = spans.layer_metrics(traced)
        self.assertEqual(set(metrics), set(spans.LAYER_METRICS))
        for name in ("lp.lp_solve.calls", "stability.scopes_tested", "sim.trial_steps",
                     "linalg.spectral_radius.nominal_s", "linalg.spectral_radius.scope_s",
                     "parallel.parallel_map.items", "cli.main.self_s"):
            self.assertGreater(metrics[name], 0, name)
        self.assertEqual(metrics["stability.scopes_tested"], 4)
        self.assertEqual(metrics["sim.trial_steps"], 30)
        # spans from pool threads reach the call's root span through their parents
        analyze = {s["id"]: s for s in traced[0]}
        for s in analyze.values():
            while s["parent"] is not None:
                s = analyze[s["parent"]]
            self.assertEqual(s["name"], "cli.main")

    def test_benchmark_json_names(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         dict(spans.LAYER_METRICS, **{"trace.overhead_s": "s"}))
        self.assertEqual({w["name"] for w in bench["workloads"]}, set(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
