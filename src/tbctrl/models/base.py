"""Registry plumbing for the TB model catalog."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import reduce
from operator import add
from typing import Callable, Sequence

import numpy as np

from ..core import CostKind, CostWeights, ParameterSet, TimeTable, ValidationError


class ModelId(str, Enum):
    """Identifiers for the catalog of controlled TB transmission models."""

    SEIRS = "seirs"
    TWO_STRAIN = "two-strain"
    REINFECTION = "reinfection"
    ISOLATION_IMMIGRATION = "isolation-immigration"
    KOREA = "korea"
    BOWONG = "bowong"
    POST_EXPOSURE = "post-exposure"


# States, costates and controls are sequences of floats (lists in the RK4
# kernel, arrays through the public wrappers); the parameter argument is the
# tuple of the model's PARAMS values, as ParameterSet.values returns it.
Vec = Sequence[float]
Params = tuple[float, ...]
RhsFn = Callable[[float, Vec, Vec, Params], Vec]
JacFn = Callable[[float, Vec, Vec, Params], np.ndarray]
AdjointFn = Callable[[float, Vec, Vec, Vec, Params, CostWeights], Vec]
CharFn = Callable[[float, Vec, Vec, Params, CostWeights], Vec]
CostateFn = Callable[[float, Vec, Vec, Vec, Params], Vec]  # (t, lam, x, u, q), as the kernel calls it


@dataclass(frozen=True)
class ModelDefinition:
    """Uniform interface to one model: dimensions, dynamics, adjoint, control law.

    ``infectious``/``latent``/``isolated`` are per-compartment weight patterns
    multiplied by the cost weights a1/a2/a_isolated to form the linear state
    cost. ``adjoint`` is the explicit costate right-hand side when one is
    spelled out; otherwise it is assembled from the analytic Jacobian ``jac``.

    ``rhs``, ``jac``, ``adjoint`` and ``characterize`` take the model's
    parameters as one tuple in ``required_params`` order (the module's
    ``PARAMS``), which the caller resolves with ``ParameterSet.values``: once
    per RK4 pass, or at each evaluation time when the set holds a time table.
    They return index-mutable sequences (lists; ``jac`` an array).
    """

    id: ModelId
    description: str
    state_labels: tuple[str, ...]
    control_labels: tuple[str, ...]
    cost_kind: CostKind
    required_params: tuple[str, ...]
    rhs: RhsFn
    characterize: CharFn
    infectious: tuple[float, ...]
    latent: tuple[float, ...]
    isolated: tuple[float, ...] | None = None
    jac: JacFn | None = None
    adjoint: AdjointFn | None = None
    nonnegative_params: tuple[str, ...] = ()
    unit_interval_params: tuple[str, ...] = ()
    open_unit_params: tuple[str, ...] = ()
    positive_params: tuple[str, ...] = ()
    time_dependent_ok: tuple[str, ...] = ()
    sum_constraints: tuple[tuple[str, str], ...] = ()  # pairs whose sum must stay <= 1
    separable_controls: bool = True  # Hamiltonian additively separable across controls

    @property
    def state_dim(self) -> int:
        return len(self.state_labels)

    @property
    def control_dim(self) -> int:
        return len(self.control_labels)


def clamp(v: float, lo: float, hi: float) -> float:
    return min(max(lo, v), hi)


def _param_range(p: ParameterSet, name: str, t_dep_ok: bool) -> tuple[float, float] | str:
    """Value range of a parameter entry, or an error string."""
    v = p.raw(name)
    if isinstance(v, TimeTable):
        if not t_dep_ok:
            return f"parameter {name!r} may not be time-dependent for this model"
        return (v.min_value, v.max_value)
    return (v, v)


def validate_against(defn: ModelDefinition, p: ParameterSet) -> list[str]:
    """Collect every range/constraint violation; an empty list means valid."""
    violations: list[str] = []
    for name in defn.required_params:
        if name not in p:
            violations.append(f"missing parameter {name!r}")
    present = [n for n in defn.required_params if n in p]

    ranges: dict[str, tuple[float, float]] = {}
    for name in present:
        r = _param_range(p, name, name in defn.time_dependent_ok)
        if isinstance(r, str):
            violations.append(r)
        else:
            ranges[name] = r

    def check(name: str, lo: float | None, hi: float | None, strict_lo=False, strict_hi=False):
        if name not in ranges:
            return
        vmin, vmax = ranges[name]
        if not np.isfinite(vmin) or not np.isfinite(vmax):
            violations.append(f"parameter {name!r} must be finite")
            return
        if lo is not None and (vmin < lo or (strict_lo and vmin <= lo)):
            op = ">" if strict_lo else ">="
            violations.append(f"parameter {name!r} must be {op} {lo}, got {vmin}")
        if hi is not None and (vmax > hi or (strict_hi and vmax >= hi)):
            op = "<" if strict_hi else "<="
            violations.append(f"parameter {name!r} must be {op} {hi}, got {vmax}")

    for name in defn.nonnegative_params:
        check(name, 0.0, None)
    for name in defn.positive_params:
        check(name, 0.0, None, strict_lo=True)
    for name in defn.unit_interval_params:
        check(name, 0.0, 1.0)
    for name in defn.open_unit_params:
        check(name, 0.0, 1.0, strict_lo=True, strict_hi=True)
    for a, b in defn.sum_constraints:
        if a in ranges and b in ranges:
            total = ranges[a][1] + ranges[b][1]
            if total > 1.0:
                violations.append(f"parameters must satisfy {a} + {b} <= 1, got {total}")
    return violations


def live_population(x: Vec) -> float:
    # left to right, as np.sum adds so few terms; builtin sum() is compensated from Python 3.12
    n = reduce(add, x)
    if n <= 0.0:
        raise ValidationError(f"degenerate population: N(t) = {n}")
    return n
