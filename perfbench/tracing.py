"""Spans and counters recorded from outside the program.

The traced run wraps the public callables orbitfix looks up at call time
(module attributes, the callables inside returned ProblemSpec and
LinearOperator objects, and the numpy.fft transforms) and restores them
afterwards, so nothing under src/ changes. Each wrapped call records a span:
name, start, end, parent span and op id. Spans stay in memory; layer
metrics are computed from them when the pass ends. FFT transforms are only
counted, and each count is attributed to the innermost open span.

A hook whose target no longer exists is recorded as missing; every metric
fed only by missing hooks is then reported as None (missing), never as 0.
"""

from __future__ import annotations

import importlib
import inspect
from collections import defaultdict
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple


class Span:
    """One wrapped call; parent is the index of the enclosing span, or None."""

    __slots__ = ("name", "start", "end", "parent", "op", "tag", "fft_calls", "fft_points")

    def __init__(self, name, start, parent, op, tag=None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.tag = tag
        self.fft_calls = 0
        self.fft_points = 0


def self_times(spans: Sequence[Tuple[float, float, Optional[int]]]) -> List[float]:
    """Duration minus the part of the interval covered by child spans.

    spans holds (start, end, parent index) triples; children may overlap
    each other and are clipped to their parent.
    """
    children = defaultdict(list)
    for idx, (_, _, parent) in enumerate(spans):
        if parent is not None:
            children[parent].append(idx)
    out = []
    for idx, (start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children[idx], key=lambda i: spans[i][0]):
            lo = max(spans[c][0], reach)
            hi = min(spans[c][1], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


class Tracer:
    """Span recorder; `op` is set by the caller before each operation."""

    def __init__(self):
        self.spans: List[Span] = []
        self.stack: List[int] = []  # indices of the open spans
        self.op = None
        self.counters: Dict[str, float] = defaultdict(float)
        self.loose_fft = Span("<none>", 0.0, None, None)
        self.broken: set = set()  # spans whose hook met an interface it cannot read

    def wrap(self, name: str, fn: Callable, on_return: Optional[Callable] = None,
             tag: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            label = None
            if tag is not None:
                try:
                    label = tag(args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.broken.add(name)
            span = Span(name, perf_counter(), stack[-1] if stack else None, self.op, label)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if on_return is not None:
                try:
                    on_return(self.counters, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.broken.add(name)
            return result

        return traced

    def count_fft(self, fn: Callable) -> Callable:
        spans, stack, loose = self.spans, self.stack, self.loose_fft

        def counted(a, n=None, *args, **kwargs):
            target = spans[stack[-1]] if stack else loose
            target.fft_calls += 1
            target.fft_points += n if n is not None else _size(a)
            return fn(a, n, *args, **kwargs)

        return counted


def _size(a) -> int:
    shape = getattr(a, "shape", None)
    return int(shape[-1]) if shape else len(a)


# ---------------- hooks ----------------

def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _count_minres(fn):
    def on_return(counters, args, kwargs, result):
        stats = result[1]
        counters["numlin.minres.iters"] += stats.iterations
        if stats.iterations >= _bound(fn, args, kwargs)["maxit"]:
            counters["numlin.minres.budget_hits"] += 1
    return on_return


def _count_pcg(fn):
    def on_return(counters, args, kwargs, result):
        if not result[1].breakdown:
            counters["numlin.pcg.useful"] += 1
    return on_return


def _count_outer(fn):
    def on_return(counters, args, kwargs, result):
        counters["solvers.outer_steps"] += result.iterations
    return on_return


def _count_rk4(fn):
    def on_return(counters, args, kwargs, result):
        bound = _bound(fn, args, kwargs)
        if result.completed:
            counters["boussinesq.rk4_steps"] += max(1, int(round(bound["t_end"] / bound["dt"])))
    return on_return


def _ring_size(args, kwargs):
    return args[0].n if args else kwargs["config"].n


# (module, attribute, span name, on_return factory, tag)
SPAN_HOOKS = (
    ("orbitfix.cli", "newton_solve", "solvers.newton_solve", _count_outer, None),
    ("orbitfix.cli", "petviashvili_solve", "solvers.petviashvili_solve", _count_outer, None),
    ("orbitfix.cli", "dense_eigenvalues", "numlin.dense_eigenvalues", None, None),
    ("orbitfix.cli", "iteration_matrix_spectrum", "solvers.iteration_matrix_spectrum",
     None, None),
    ("orbitfix.cli", "align_to_orbit", "symmetry.align_to_orbit", None, None),
    ("orbitfix.cli", "predict_limit", "symmetry.predict_limit", None, None),
    ("orbitfix.cli", "materialize", "numlin.materialize", None, None),
    ("orbitfix.solvers", "minres", "numlin.minres", _count_minres, None),
    ("orbitfix.solvers", "pcg", "numlin.pcg", _count_pcg, None),
    ("orbitfix.solvers", "materialize", "numlin.materialize", None, None),
    ("orbitfix.solvers", "dense_eigenvalues", "numlin.dense_eigenvalues", None, None),
    ("orbitfix.numlin", "materialize", "numlin.materialize", None, None),
    ("orbitfix.nbody", "grad_U", "nbody.grad_U", None, _ring_size),
    ("orbitfix.nbody", "hess_U", "nbody.hess_U", None, _ring_size),
    ("orbitfix.boussinesq", "propagate", "boussinesq.propagate", _count_rk4, None),
)

FFT_FUNCS = ("fft", "ifft", "rfft", "irfft")


def _wrap_problem_factory(tracer, factory):
    """build_bs_problem: trace F and every Jacobian's apply."""

    def build(*args, **kwargs):
        spec = factory(*args, **kwargs)
        jacobian_at = getattr(spec, "jacobian_at", None)
        if not callable(jacobian_at) or not callable(getattr(spec, "F", None)):
            tracer.broken.update(("boussinesq.F", "boussinesq.jac_matvec"))
            return spec

        def traced_jacobian_at(w0):
            op = jacobian_at(w0)
            return _replace(tracer, op, "boussinesq.jac_matvec", apply=op.apply)

        return _replace(tracer, spec, "boussinesq.F", F=spec.F, jacobian_at=traced_jacobian_at)

    return build


def _wrap_operator_factory(tracer, factory):
    """precond_operator: trace the returned operator's apply."""

    def build(*args, **kwargs):
        op = factory(*args, **kwargs)
        if not callable(getattr(op, "apply", None)):
            tracer.broken.add("boussinesq.precond_apply")
            return op
        return _replace(tracer, op, "boussinesq.precond_apply", apply=op.apply)

    return build


def _replace(tracer, obj, span, **fields):
    """Copy obj with its first field traced as span; obj itself if it has no such fields."""
    first = next(iter(fields))
    fields[first] = tracer.wrap(span, fields[first])
    try:
        return replace(obj, **fields)
    except (TypeError, ValueError):
        tracer.broken.add(span)
        return obj


# (module, attribute, span names it feeds, wrapper factory)
FACTORY_HOOKS = (
    ("orbitfix.boussinesq", "build_bs_problem", ("boussinesq.F", "boussinesq.jac_matvec"),
     _wrap_problem_factory),
    ("orbitfix.boussinesq", "precond_operator", ("boussinesq.precond_apply",),
     _wrap_operator_factory),
)


class Hooks:
    """Install every hook that resolves; restore all originals on exit."""

    def __init__(self, tracer: Tracer, span_hooks=SPAN_HOOKS, factory_hooks=FACTORY_HOOKS):
        self.tracer = tracer
        self.span_hooks = span_hooks
        self.factory_hooks = factory_hooks
        self.installed: List[Tuple[object, str, object]] = []
        self.present: Dict[str, bool] = {}
        self.missing: List[str] = []

    def _target(self, module_name, attr):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return None, None
        fn = getattr(module, attr, None)
        return (module, fn) if callable(fn) else (None, None)

    def _patch(self, module, attr, new):
        self.installed.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def _note(self, feeds, where, ok):
        for name in feeds:
            self.present[name] = self.present.get(name, False) or ok
        if not ok:
            self.missing.append(where)

    def __enter__(self):
        t = self.tracer
        for module_name, attr, span, on_return, tag in self.span_hooks:
            module, fn = self._target(module_name, attr)
            self._note((span,), f"{module_name}.{attr}", fn is not None)
            if fn is not None:
                self._patch(module, attr, t.wrap(span, fn, on_return and on_return(fn), tag))
        for module_name, attr, feeds, factory in self.factory_hooks:
            module, fn = self._target(module_name, attr)
            self._note(feeds, f"{module_name}.{attr}", fn is not None)
            if fn is not None:
                self._patch(module, attr, factory(t, fn))
        for attr in FFT_FUNCS:
            module, fn = self._target("numpy.fft", attr)
            self._note(("fft",), f"numpy.fft.{attr}", fn is not None)
            if fn is not None:
                self._patch(module, attr, t.count_fft(fn))
        return self

    def __exit__(self, *exc):
        while self.installed:
            module, attr, original = self.installed.pop()
            setattr(module, attr, original)
        return False


# ---------------- layer metrics ----------------

class Profile:
    """Aggregates of one traced pass, plus what the pass loop measured."""

    def __init__(self, tracer: Tracer, wall_s: float, untraced_wall_s: float,
                 bytes_written: int):
        spans = tracer.spans
        selfs = self_times([(s.start, s.end, s.parent) for s in spans])
        self.wall_s = wall_s
        self.untraced_wall_s = untraced_wall_s
        self.bytes_written = bytes_written
        self.counters = dict(tracer.counters)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.fft_calls = defaultdict(int)
        self.tagged_calls = defaultdict(int)
        self.tagged_s = defaultdict(float)
        for span, own in zip(spans, selfs):
            self.calls[span.name] += 1
            self.self_s[span.name] += own
            self.total_s[span.name] += span.end - span.start
            self.fft_calls[span.name] += span.fft_calls
            if span.tag is not None:
                self.tagged_calls[(span.name, span.tag)] += 1
                self.tagged_s[(span.name, span.tag)] += span.end - span.start
        self.fft_total = tracer.loose_fft.fft_calls + sum(s.fft_calls for s in spans)
        self.fft_points = tracer.loose_fft.fft_points + sum(s.fft_points for s in spans)

    def counter(self, name):
        return self.counters.get(name, 0)


def _ratio(num, den):
    """Ratios read 0 when their base count is 0 on the workload."""
    return num / den if den else 0.0


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    needs: Tuple[str, ...]  # span names whose hooks feed the value
    value: Callable[[Profile], float]
    better: str = "lower"


def _calls(span):
    return LayerMetric(span + ".calls", "count", (span,), lambda p: p.calls[span])


def _self(span):
    return LayerMetric(span + ".self_s", "s", (span,), lambda p: p.self_s[span])


def _per_call(span, n):
    return LayerMetric(f"{span}.per_call_s.n{n}", "s", (span,),
                       lambda p: _ratio(p.tagged_s[(span, n)], p.tagged_calls[(span, n)]))


def _counter(name, needs, unit="count"):
    return LayerMetric(name, unit, needs, lambda p: p.counter(name))


_MV, _PROP = "boussinesq.jac_matvec", "boussinesq.propagate"
_OUTER = ("solvers.newton_solve", "solvers.petviashvili_solve")

# (what each group is predicted to move, its metrics)
LAYER_GROUPS = (
    ("wall_ref_s and op_p95_s on ring; zero calls on both wave workloads",
     [_calls("nbody.grad_U"), _self("nbody.grad_U"), _calls("nbody.hess_U"),
      _self("nbody.hess_U")]
     + [_per_call(s, n) for s in ("nbody.grad_U", "nbody.hess_U") for n in (16, 32, 64, 128)]),
    ("wall_ref_s on wave-newton strongly, wave-validate slightly (through materialize), "
     "not ring",
     [_calls(_MV), _self(_MV),
      LayerMetric(_MV + ".us_per_call", "us", (_MV,),
                  lambda p: 1e6 * _ratio(p.total_s[_MV], p.calls[_MV])),
      LayerMetric("fft.per_matvec", "count", (_MV, "fft"),
                  lambda p: _ratio(p.fft_calls[_MV], p.calls[_MV])),
      _calls("boussinesq.F"), _self("boussinesq.F"),
      _calls("boussinesq.precond_apply"), _self("boussinesq.precond_apply")]),
    ("wall_ref_s and op_p95_s on wave-newton, slightly ring, not wave-validate",
     [_calls("numlin.minres"), _self("numlin.minres"),
      _counter("numlin.minres.iters", ("numlin.minres",)),
      _counter("numlin.minres.budget_hits", ("numlin.minres",)),
      _calls("numlin.pcg"), _self("numlin.pcg"),
      LayerMetric("numlin.pcg.useful_ratio", "ratio", ("numlin.pcg",),
                  lambda p: _ratio(p.counter("numlin.pcg.useful"), p.calls["numlin.pcg"]),
                  "higher"),
      _counter("solvers.outer_steps", _OUTER)]),
    ("wall_ref_s on wave-validate only",
     [_self(_PROP), _counter("boussinesq.rk4_steps", (_PROP,)),
      LayerMetric("fft.per_rk4_step", "count", (_PROP, "fft"),
                  lambda p: _ratio(p.fft_calls[_PROP], p.counter("boussinesq.rk4_steps")))]),
    ("wall_ref_s and peak_rss_mb on wave-validate, slightly ring",
     [_calls("numlin.materialize"), _self("numlin.materialize"),
      _self("numlin.dense_eigenvalues")]),
    ("small today; kept so that outer-loop changes show",
     [_self("solvers.newton_solve"), _self("solvers.petviashvili_solve"),
      _self("solvers.iteration_matrix_spectrum")]),
    ("under 0.1% today; kept so per-iterate orbit tracing shows its cost on wave-newton",
     [_calls("symmetry.align_to_orbit"), _self("symmetry.align_to_orbit"),
      _self("symmetry.predict_limit")]),
    ("setup_s and wall_ref_s everywhere (parsing, seeding, CSV/JSON artifacts)",
     [LayerMetric("cli.main.self_s", "s", (), lambda p: p.self_s["cli.main"]),
      LayerMetric("cli.bytes_written", "B", (), lambda p: p.bytes_written)]),
    ("totals",
     [LayerMetric("fft.calls", "count", ("fft",), lambda p: p.fft_total),
      LayerMetric("fft.points", "count", ("fft",), lambda p: p.fft_points),
      LayerMetric("trace.overhead_frac", "ratio", (),
                  lambda p: p.wall_s / p.untraced_wall_s - 1.0),
      LayerMetric("trace.coverage_frac", "ratio", (),
                  lambda p: 1.0 - _ratio(p.self_s["cli.main"], p.wall_s), "higher")]),
)

LAYER_METRICS = tuple(m for _, group in LAYER_GROUPS for m in group)


def layer_metrics(profile: Profile, present: Dict[str, bool],
                  broken=()) -> Dict[str, Optional[float]]:
    """Every per-layer metric; None where a feeding hook is missing or broken."""
    def available(name):
        return present.get(name, False) and name not in broken

    return {m.name: (float(m.value(profile)) if all(available(n) for n in m.needs) else None)
            for m in LAYER_METRICS}
