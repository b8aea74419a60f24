"""Registry plumbing for the TB model catalog."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import reduce
from operator import add
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from ..core import CostWeights, ParameterSet, TimeTable, ValidationError


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
# kernel, arrays through the public wrappers). rhs, adjoint and characterize
# also take numpy arrays that broadcast together: (B,) columns of an RK4 batch,
# (P,) stage points of the costate pass against (n+1, 1) costates, or the
# verifiers' (k, 1) columns per sample against (k, n) complex-stepped states or
# (k, P) stencil controls. Outside an RK4 batch the time is then a column too,
# and so is each time-table parameter. On columns, entry j of each output is
# what the float call at entry j gives, bitwise.
# The parameter argument is the tuple of the model's PARAMS values, as
# ParameterSet.values returns it.
Vec = Sequence[float]
Params = tuple[float, ...]
RhsFn = Callable[[float, Vec, Vec, Params], Vec]
AdjointFn = Callable[[float, Vec, Vec, Vec, Params, CostWeights], Vec]
CharFn = Callable[[float, Vec, Vec, Params, CostWeights], Vec]


class Domain(NamedTuple):
    """Admissible range of a parameter: lo <= v <= hi, or lo < v < hi when ``open``."""

    lo: float
    hi: float
    open: bool = False


NONNEGATIVE = Domain(0.0, float("inf"))
POSITIVE = Domain(0.0, float("inf"), open=True)
UNIT = Domain(0.0, 1.0)
OPEN_UNIT = Domain(0.0, 1.0, open=True)


@dataclass(frozen=True)
class ModelDefinition:
    """Uniform interface to one model: dimensions, dynamics, adjoint, control law.

    ``infectious``/``latent``/``isolated`` are per-compartment weight patterns
    multiplied by the cost weights a1/a2/a_isolated to form the linear state
    cost. ``adjoint`` is the hand-derived costate right-hand side,
    lam' = -dH/dx = -(J^T lam) - g, with the state-cost terms g spelled out
    on those patterns' compartments; it is linear in lam.

    ``rhs``, ``adjoint`` and ``characterize`` take the model's parameters as
    one tuple in ``required_params`` order (the module's ``PARAMS``), which
    the caller resolves with ``ParameterSet.values``: once per pass, or at
    each evaluation time when the set holds a time table. The set is one the
    argument gate ``models._point`` accepted, so they check nothing but the
    state (``live_population``). They return index-mutable sequences (lists).
    All three take floats or numpy columns (see the comment on ``Vec``); a
    control law's clamps go through ``clamp``, which does both. ``rhs`` also
    takes complex columns and must be analytic in x and u, as H's derivatives
    are read by the complex step: no ``.real``, no ``abs`` and no branch on a
    value, except ``live_population``'s refusal of N <= 0.

    ``domains`` maps a parameter to its admissible range and lists only the
    exceptions: every parameter it does not name must be finite and >= 0
    (``NONNEGATIVE``). Time tables are allowed only for the names in
    ``time_dependent_ok``; every table value must be finite, and the table's
    minimum and maximum must lie in the domain.
    """

    id: ModelId
    description: str
    state_labels: tuple[str, ...]
    control_labels: tuple[str, ...]
    required_params: tuple[str, ...]
    rhs: RhsFn
    adjoint: AdjointFn
    characterize: CharFn
    infectious: tuple[float, ...]
    latent: tuple[float, ...]
    isolated: tuple[float, ...] | None = None
    domains: Mapping[str, Domain] = field(default_factory=dict)
    time_dependent_ok: tuple[str, ...] = ()
    sum_constraints: tuple[tuple[str, str], ...] = ()  # pairs whose sum must stay <= 1
    separable_controls: bool = True  # Hamiltonian additively separable across controls

    @property
    def state_dim(self) -> int:
        return len(self.state_labels)

    @property
    def control_dim(self) -> int:
        return len(self.control_labels)


def clamp(v, lo: float, hi: float):
    """min(max(lo, v), hi) for a float v, entry by entry for numpy columns; NaN gives lo."""
    try:  # costs the float path nothing
        return min(max(lo, v), hi)
    except ValueError:  # columns have no single truth value
        v = np.where(v > lo, v, lo)  # max(lo, v) keeps lo unless v > lo
        return np.where(hi < v, hi, v)  # min(v, hi) keeps v unless hi < v


def validate_against(defn: ModelDefinition, p: ParameterSet) -> list[str]:
    """Collect every range/constraint violation; an empty list means valid."""
    violations: list[str] = []
    maxima: dict[str, float] = {}
    data = p.as_dict()
    for name in defn.required_params:
        if name not in data:
            violations.append(f"missing parameter {name!r}")
            continue
        v = data[name]
        if isinstance(v, TimeTable):
            if name not in defn.time_dependent_ok:
                violations.append(f"parameter {name!r} may not be time-dependent for this model")
                continue
            values = v.values
        else:
            values = (v,)
        vmin, vmax = min(values), max(values)
        maxima[name] = vmax
        if not all(map(math.isfinite, values)):  # min/max skip a NaN past the first entry
            violations.append(f"parameter {name!r} must be finite")
            continue
        lo, hi, strict = defn.domains.get(name, NONNEGATIVE)
        if vmin < lo or (strict and vmin <= lo):
            violations.append(f"parameter {name!r} must be {'>' if strict else '>='} {lo}, got {vmin}")
        if vmax > hi or (strict and vmax >= hi):
            violations.append(f"parameter {name!r} must be {'<' if strict else '<='} {hi}, got {vmax}")
    for a, b in defn.sum_constraints:
        if a in maxima and b in maxima:
            total = maxima[a] + maxima[b]
            if total > 1.0:
                violations.append(f"parameters must satisfy {a} + {b} <= 1, got {total}")
    return violations


def live_population(x: Vec) -> float:
    """N, the sum of x's entries, which are floats or numpy columns of any one shape.

    N <= 0 is refused; for columns, the message names the lowest N.
    """
    # left to right, as np.sum adds so few terms; builtin sum() is compensated from Python 3.12
    n = reduce(add, x)
    try:  # costs the float path nothing
        if not n.real <= 0.0:  # a complex step's N by its real part, not by complex order
            return n
    except ValueError:  # columns have no single truth value
        # fmin skips NaN as `<=` does; .any() would page in numpy code (peak RSS)
        if not np.fmin.reduce(n.real, axis=None) <= 0.0:
            return n
    raise ValidationError(f"degenerate population: N(t) = {np.min(n.real)}")
