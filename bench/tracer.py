"""Spans and counters recorded around tbctrl's layers, from outside the library.

Coarse calls (a solve, one integration pass, a cost quadrature, a
verification, one CLI command) get spans: name, start, end and the index of
the enclosing span. Per-call functions (model right-hand sides, the
Hamiltonian, scenario loading) get a call count plus summed time, and
``ParameterSet.value`` gets a bare count, because timing 10^7 calls would
cost more than the lookups themselves.

``Tracer.installed()`` swaps the wrappers in and puts every original back on
exit. ``snapshot()`` and ``check_untraced()`` let the untraced runs prove that
no wrapper is left behind.
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys
import time
from collections import defaultdict

# name -> (module, attribute) of the coarse calls that get spans. Every tbctrl
# module attribute bound to the same function object is rebound (tbctrl.cli,
# for one, imports solve_fbs and integrate_forward by name).
SPANNED = {
    "solve_fbs": ("tbctrl.solver", "solve_fbs"),
    "integrate_forward": ("tbctrl.solver", "integrate_forward"),
    "integrate_adjoint_backward": ("tbctrl.solver", "integrate_adjoint_backward"),
    "total_cost": ("tbctrl.costs", "total_cost"),
    "solve_direct": ("tbctrl.oracle", "solve_direct"),
    "verify_adjoint_consistency": ("tbctrl.pmp", "verify_adjoint_consistency"),
    "verify_control_stationarity": ("tbctrl.pmp", "verify_control_stationarity"),
    "cli.main": ("tbctrl.cli", "main"),
}

# name -> (module, attribute) of per-call functions that get count + summed time.
COUNTED = {
    "dynamics": ("tbctrl.models", "dynamics"),
    "hamiltonian": ("tbctrl.pmp", "hamiltonian"),
    "load_scenario": ("tbctrl.scenario", "load_scenario"),
}

# ModelDefinition fields wrapped with count + summed time, per model.
MODEL_FIELDS = ("rhs", "adjoint", "characterize")


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = dataclasses.field(default_factory=dict)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the summed durations of its direct children.

    Every traced call runs in one thread, so child spans nest inside their
    parent and never overlap.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def _tbctrl_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "tbctrl" or name.startswith("tbctrl."))]


def _binding_sites(original):
    """Every (module, attribute) in tbctrl that is bound to ``original``."""
    sites = []
    for mod in _tbctrl_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                sites.append((mod, attr))
    return sites


def snapshot() -> dict:
    """Every object the tracer may replace, keyed by where it is bound."""
    from tbctrl import models
    from tbctrl.core import ParameterSet

    sites = {"ParameterSet.value": ParameterSet.__dict__["value"]}
    sites.update({f"MODELS[{mid.value}]": defn for mid, defn in models.MODELS.items()})
    for module_name, attr in (*SPANNED.values(), *COUNTED.values()):
        for mod, site in _binding_sites(getattr(sys.modules[module_name], attr)):
            sites[f"{mod.__name__}.{site}"] = getattr(mod, site)
    return sites


def check_untraced(snap: dict) -> None:
    """Raise if any site recorded in an untraced ``snap`` now holds another object."""
    now = snapshot()
    changed = sorted(key for key, original in snap.items() if now.get(key) is not original)
    if changed:
        raise RuntimeError("tracer wrappers left installed at: " + ", ".join(changed))


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.calls: dict[str, list] = defaultdict(lambda: [0, 0.0])  # name -> [count, seconds]
        self.param_lookups = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), 0.0, parent)
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def _spanned(self, name, fn):
        annotate = _ANNOTATE.get(name)

        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                before = self.calls["rhs"][0]
                result = fn(*args, **kwargs)
                if annotate is not None:
                    annotate(rec, args, kwargs, result, self.calls["rhs"][0] - before)
                return result
        return wrapper

    def _counted(self, name, fn):
        stat = self.calls[name]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                stat[1] += clock() - t0
                stat[0] += 1
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper; restore all originals on exit, even on error."""
        from tbctrl import models
        from tbctrl.core import ParameterSet

        restore = []
        original_value = ParameterSet.__dict__["value"]
        original_models = dict(models.MODELS)
        try:
            for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
                for name, (module_name, attr) in table.items():
                    original = getattr(sys.modules[module_name], attr)
                    wrapper = make(name, original)
                    for mod, site in _binding_sites(original):
                        restore.append((mod, site, original))
                        setattr(mod, site, wrapper)
            for mid, defn in original_models.items():
                wrapped = {f: self._counted(f, getattr(defn, f)) for f in MODEL_FIELDS
                           if getattr(defn, f) is not None}
                models.MODELS[mid] = dataclasses.replace(defn, **wrapped)
            tracer = self

            def value(self, name, t=0.0):
                tracer.param_lookups += 1
                return original_value(self, name, t)
            ParameterSet.value = value
            yield self
        finally:
            ParameterSet.value = original_value
            models.MODELS.update(original_models)
            for mod, site, original in reversed(restore):
                setattr(mod, site, original)

    # -- summaries ---------------------------------------------------------

    def total(self, name: str) -> float:
        return sum((s.end - s.start for s in self.spans if s.name == name), 0.0)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_total(self, name: str) -> float:
        return sum((st for s, st in zip(self.spans, self_times(self.spans)) if s.name == name), 0.0)

    def attr_sum(self, name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in self.spans if s.name == name)

    def mean_span(self, name: str) -> float:
        n = self.count(name)
        return self.total(name) / n if n else 0.0

    def mean_call(self, name: str) -> float:
        n, secs = self.calls.get(name, (0, 0.0))
        return secs / n if n else 0.0


def _annotate_fbs(rec, args, kwargs, result, rhs_calls):
    rec.attrs["iterations"] = result.report.iterations


def _annotate_direct(rec, args, kwargs, result, rhs_calls):
    scenario = args[0] if args else kwargs["scenario"]
    rec.attrs["iterations"] = result.report.iterations
    # forward RK4 passes' worth of right-hand-side evaluations (4 per step)
    rec.attrs["fwd_pass_equiv"] = rhs_calls / (4 * scenario.grid.n_steps)


_ANNOTATE = {"solve_fbs": _annotate_fbs, "solve_direct": _annotate_direct}
