"""Self-tests of the benchmark's own arithmetic, seeding and tracing.

Run from the root of a repository checkout:

    python3 perfbench/selftest.py

It takes about half a minute: the count-repeat test runs a few cheap ops
of every workload twice under tracing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
import tracing
import workloads

# counts that must repeat exactly between two traced runs of one seed
EXACT_COUNTS = ("fft.calls", "numlin.minres.iters", "solvers.outer_steps",
                "nbody.hess_U.calls", "boussinesq.rk4_steps")

# cheap ops that between them feed every count above
CHEAP_OPS = {"ring": ("ring-newton-n16", "ring-newton-n32", "ring-sweep-m0-10",
                      "ring-orbit-n64", "ring-spectrum-n64"),
             "wave-newton": ("recenter-gauss-n512",),
             "wave-validate": ("propagate-n512-t100",)}

_cli = None


def setUpModule():
    global _cli
    run._pin_blas_threads()
    _cli = run.load_program()


def _traced_counts(ops, workdir, hooks_kwargs=None):
    tracer = tracing.Tracer()
    with tracing.Hooks(tracer, **(hooks_kwargs or {})) as hooks:
        records, wall = run.run_pass(tracer.wrap("cli.main", _cli.main), ops, workdir, tracer)
    profile = tracing.Profile(tracer, wall, wall, 0)
    return records, tracing.layer_metrics(profile, hooks.present, tracer.broken)


class SelfTime(unittest.TestCase):
    def test_nested_overlapping_and_clipped_children(self):
        spans = [(0.0, 10.0, None),  # root
                 (1.0, 4.0, 0),      # child, overlaps the next one on [3, 4]
                 (3.0, 6.0, 0),
                 (2.0, 3.0, 1),      # grandchild
                 (9.0, 12.0, 0)]     # child running past its parent's end
        self.assertEqual(tracing.self_times(spans), [4.0, 2.0, 3.0, 1.0, 3.0])

    def test_wrapped_calls_partition_the_outer_span(self):
        tracer = tracing.Tracer()
        inner = tracer.wrap("inner", lambda: sum(range(20000)))
        outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
        outer()
        selfs = tracing.self_times([(s.start, s.end, s.parent) for s in tracer.spans])
        root = tracer.spans[0]
        self.assertEqual([s.name for s in tracer.spans], ["outer"] + ["inner"] * 3)
        self.assertAlmostEqual(sum(selfs), root.end - root.start, places=12)
        self.assertTrue(all(x >= 0.0 for x in selfs))


class Seeding(unittest.TestCase):
    def _argv(self, seed):
        return {name: [workloads.argv_list(workloads.pass_ops(w, seed, k, 4)) for k in range(4)]
                for name, w in workloads.WORKLOADS.items()}

    def test_same_seed_same_argv(self):
        self.assertEqual(self._argv(11), self._argv(11))
        self.assertNotEqual(self._argv(11), self._argv(12))

    def test_same_argv_in_a_fresh_interpreter(self):
        code = ("import json, workloads; print(json.dumps({n: workloads.argv_list("
                "workloads.pass_ops(w, 11, 0, 4)) for n, w in workloads.WORKLOADS.items()}))")
        env = dict(os.environ, PYTHONHASHSEED="12345")
        out = subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).parent, env=env,
                             capture_output=True, text=True, check=True).stdout
        self.assertEqual(json.loads(out), {n: argv[0] for n, argv in self._argv(11).items()})

    def test_passes_take_one_draw_from_each_stratum(self):
        passes = 7
        for w in workloads.WORKLOADS.values():
            values = [workloads.draws(w, 3, k, passes) for k in range(passes)]
            for name, low, high in w.dims:
                strata = sorted(int((v[name] - low) / (high - low) * passes) for v in values)
                self.assertEqual(strata, list(range(passes)), (w.name, name))

    def test_pass_count_depends_on_the_arguments_only(self):
        for w in workloads.WORKLOADS.values():
            self.assertEqual(workloads.pass_count(w, 36), workloads.pass_count(w, 36))
            self.assertGreaterEqual(workloads.pass_count(w, 1), 2)


class TracedCounts(unittest.TestCase):
    def test_counts_repeat_exactly_for_one_seed(self):
        with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
            for name, keep in CHEAP_OPS.items():
                ops = [op for op in workloads.pass_ops(workloads.WORKLOADS[name], 5, 0, 2)
                       if op.name in keep]
                self.assertEqual(len(ops), len(keep))
                first, second = (_traced_counts(ops, Path(tmp))[1] for _ in range(2))
                for count in EXACT_COUNTS:
                    self.assertIsNotNone(first[count], count)
                    self.assertEqual(first[count], second[count], (name, count))
                if name == "ring":
                    self.assertGreater(first["nbody.hess_U.calls"], 0)
                    self.assertEqual(first["fft.calls"], 0)
                if name == "wave-validate":
                    self.assertEqual(first["boussinesq.rk4_steps"], 10000)
                    self.assertEqual(first["fft.per_rk4_step"], 20)
                if name == "wave-newton":
                    self.assertEqual(first["fft.per_matvec"], 4)
                    self.assertGreater(first["numlin.minres.iters"], 0)


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(w["name"], w["why"]) for w in doc["workloads"]],
                         [(w.name, w.why) for w in workloads.WORKLOADS.values()])
        self.assertEqual([(m["name"], m["unit"]) for m in doc["end_to_end"]],
                         [(name, unit) for name, unit, _ in run.END_TO_END])
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]],
                         [(m.name, m.unit, m.better) for m in tracing.LAYER_METRICS])
        self.assertEqual(doc["run_seconds"], run._parser().get_default("seconds"))


class MissingHooks(unittest.TestCase):
    def test_missing_or_broken_hooks_read_missing_not_zero(self):
        span_hooks = tuple(h for h in tracing.SPAN_HOOKS if h[2] != "numlin.pcg") + (
            ("orbitfix.solvers", "no_such_solver", "numlin.pcg", None, None),)

        class Plain:
            """An operator that is not a dataclass, so the hook cannot copy it."""

            def __init__(self, op):
                self.op = op

            def apply(self, v):
                return self.op.apply(v)

        def plain_operator(tracer, factory):
            return tracing._wrap_operator_factory(
                tracer, lambda *args, **kwargs: Plain(factory(*args, **kwargs)))

        factory_hooks = (tracing.FACTORY_HOOKS[0],
                         ("orbitfix.boussinesq", "precond_operator",
                          ("boussinesq.precond_apply",), plain_operator))
        ops = [op for op in workloads.pass_ops(workloads.WORKLOADS["wave-newton"], 5, 0, 2)
               if op.name == "recenter-gauss-n512"]
        with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
            records, metrics = _traced_counts(
                ops, Path(tmp), {"span_hooks": span_hooks, "factory_hooks": factory_hooks})
        self.assertTrue(records[0]["ok"], records[0]["detail"])
        for name in ("numlin.pcg.calls", "numlin.pcg.self_s", "numlin.pcg.useful_ratio",
                     "boussinesq.precond_apply.calls"):
            self.assertIsNone(metrics[name], name)
        self.assertGreater(metrics["numlin.minres.iters"], 0)
        self.assertEqual(set(metrics), {m.name for m in tracing.LAYER_METRICS})

    def test_hooks_restore_the_originals(self):
        import numpy.fft
        import orbitfix.solvers
        before = (orbitfix.solvers.minres, numpy.fft.fft)
        with tracing.Hooks(tracing.Tracer()):
            self.assertIsNot(orbitfix.solvers.minres, before[0])
        self.assertEqual((orbitfix.solvers.minres, numpy.fft.fft), before)


if __name__ == "__main__":
    unittest.main()
