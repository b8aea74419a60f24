"""Shared domain types: time grids, trajectories, parameter sets, cost weights."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

import numpy as np

__all__ = [
    "ValidationError",
    "NonFiniteError",
    "CostKind",
    "check_kind_weights",
    "TimeGrid",
    "make_time_grid",
    "Trajectory",
    "interpolate_state",
    "TimeTable",
    "ParameterSet",
    "CostWeights",
]


class ValidationError(ValueError):
    """A parameter set, scenario, weight set, or argument violates its contract."""


class NonFiniteError(RuntimeError):
    """An integration produced NaN or Inf."""

    def __init__(self, message: str, step: int | None = None, time: float | None = None):
        super().__init__(message)
        self.step = step
        self.time = time


class CostKind(str, Enum):
    """Shape of the objective integrand.

    C1 penalizes infectious and latent burden, C2 infectious only,
    C3 latent only; all three add quadratic control effort.
    """

    C1 = "C1"
    C2 = "C2"
    C3 = "C3"


def check_kind_weights(kind: CostKind, w: CostWeights) -> None:
    """Reject weight sets inconsistent with the declared functional shape."""
    kind = CostKind(kind)
    if kind is CostKind.C2 and w.a2 != 0.0:
        raise ValidationError("cost kind C2 has no latent term; a2 must be 0")
    if kind is CostKind.C3 and w.a1 != 0.0:
        raise ValidationError("cost kind C3 has no infectious term; a1 must be 0")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of n_steps+1 nodes spanning [t0, tf]."""

    t0: float
    tf: float
    n_steps: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not np.isfinite(self.t0) or not np.isfinite(self.tf):
            raise ValidationError("time grid endpoints must be finite")
        if not self.tf > self.t0:
            raise ValidationError(f"horizon must be positive, got [{self.t0}, {self.tf}]")
        if self.n_steps < 2:
            raise ValidationError(f"n_steps must be at least 2, got {self.n_steps}")
        nodes = np.linspace(self.t0, self.tf, self.n_steps + 1)
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)

    @property
    def h(self) -> float:
        return (self.tf - self.t0) / self.n_steps

    @property
    def n_nodes(self) -> int:
        return self.n_steps + 1


def make_time_grid(t0: float, tf: float, n_steps: int) -> TimeGrid:
    """Build a uniform time grid; rejects degenerate horizons and n_steps < 2."""
    if not isinstance(n_steps, numbers.Integral):
        raise ValidationError(f"n_steps must be an integer, got {n_steps!r}")
    return TimeGrid(float(t0), float(tf), int(n_steps))


@dataclass
class Trajectory:
    """Per-node state, control, and (optionally) adjoint samples on a grid.

    Arrays are laid out (n_nodes, dim). ``state_nonnegative`` is filled in by
    integration routines and records whether all compartments stayed above a
    small negative tolerance.
    """

    grid: TimeGrid
    state: np.ndarray
    control: np.ndarray | None = None
    adjoint: np.ndarray | None = None
    state_nonnegative: bool | None = None

    def __post_init__(self):
        n = self.grid.n_nodes
        self.state = np.asarray(self.state, dtype=float)
        if self.state.ndim != 2 or self.state.shape[0] != n:
            raise ValidationError(f"state must have shape ({n}, state_dim), got {self.state.shape}")
        for name in ("control", "adjoint"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr, dtype=float)
            if arr.ndim != 2 or arr.shape[0] != n:
                raise ValidationError(f"{name} must have shape ({n}, dim), got {arr.shape}")
            setattr(self, name, arr)

    @property
    def state_dim(self) -> int:
        return self.state.shape[1]


def interpolate_state(traj: Trajectory, t: float) -> np.ndarray:
    """Linearly interpolate the stored state at time t; exact at grid nodes."""
    g = traj.grid
    if t < g.t0 or t > g.tf:
        raise ValidationError(f"t={t} outside grid [{g.t0}, {g.tf}]")
    pos = (t - g.t0) / g.h
    nearest = int(round(pos))
    if 0 <= nearest <= g.n_steps and t == g.nodes[nearest]:
        return traj.state[nearest].copy()
    i = min(int(pos), g.n_steps - 1)
    w = pos - i
    return (1.0 - w) * traj.state[i] + w * traj.state[i + 1]


@dataclass(frozen=True)
class TimeTable:
    """Piecewise-linear time profile with constant extrapolation outside the table."""

    times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.times) == 0 or len(self.times) != len(self.values):
            raise ValidationError("time table needs equally many times and values (at least one)")
        if not all(map(math.isfinite, self.times)):
            raise ValidationError("time table times must be finite")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValidationError("time table times must be strictly increasing")

    def __call__(self, t: float | np.ndarray) -> float | np.ndarray:
        """The value at t: a float for one time, an array of the same shape for an array of times."""
        v = np.interp(t, self.times, self.values)
        return float(v) if v.ndim == 0 else v


class ParameterSet:
    """Named scalar parameters; individual entries may be time profiles.

    Immutable after construction: updates go through :meth:`with_updates`,
    which returns a new set.
    """

    __slots__ = ("_data", "_timed")

    def __init__(self, values: Mapping[str, float | TimeTable]):
        data: dict[str, float | TimeTable] = {}
        for name, v in values.items():
            if isinstance(v, TimeTable):
                data[name] = v
            elif isinstance(v, numbers.Real):
                data[name] = float(v)
            else:
                raise ValidationError(f"parameter {name!r}: expected a number or TimeTable, got {type(v).__name__}")
        self._data = data
        self._timed = any(isinstance(v, TimeTable) for v in data.values())

    def value(self, name: str, t: float = 0.0) -> float:
        try:
            v = self._data[name]
        except KeyError:
            raise ValidationError(f"missing parameter {name!r}") from None
        return v(t) if isinstance(v, TimeTable) else v

    def values(self, names: tuple[str, ...], t: float | np.ndarray = 0.0) -> tuple:
        """The named entries in order, time tables evaluated at t.

        For an array of times t, a time table's entry is an array of t's shape.
        """
        try:
            # via a list: tuple() of a bare map guesses 10 slots and resizes,
            # which raised the peak RSS of `tbctrl verify all` by 1.4 MiB on CPython 3.11
            vals = tuple([*map(self._data.__getitem__, names)])
        except KeyError as exc:
            raise ValidationError(f"missing parameter {exc.args[0]!r}") from None
        if self._timed:
            return tuple(v(t) if isinstance(v, TimeTable) else v for v in vals)
        return vals

    def raw(self, name: str) -> float | TimeTable:
        try:
            return self._data[name]
        except KeyError:
            raise ValidationError(f"missing parameter {name!r}") from None

    def as_dict(self) -> dict[str, float | TimeTable]:
        return dict(self._data)

    def with_updates(self, updates: Mapping[str, float | TimeTable]) -> "ParameterSet":
        merged = dict(self._data)
        merged.update(updates)
        return ParameterSet(merged)

    def __contains__(self, name: str) -> bool:
        return name in self._data

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParameterSet):
            return NotImplemented
        return self._data == other._data

    def __repr__(self) -> str:
        return f"ParameterSet({self._data!r})"


@dataclass(frozen=True)
class CostWeights:
    """Balancing factors of the objective plus admissible control bounds.

    ``a1`` weighs the infectious aggregate, ``a2`` the latent aggregate, and
    ``a_isolated`` the isolated compartment (used only by the
    isolation/immigration model, zero elsewhere). ``b`` holds one quadratic
    effort weight per control; every entry must be positive because the
    control laws divide by it.
    """

    a1: float = 0.0
    a2: float = 0.0
    b: tuple[float, ...] = (1.0,)
    a_isolated: float = 0.0
    lower: float = 0.0
    upper: float = 1.0

    def __post_init__(self):
        b = self.b
        if isinstance(b, numbers.Real):
            b = (float(b),)
        else:
            b = tuple(float(v) for v in b)
        object.__setattr__(self, "b", b)
        for name in ("a1", "a2", "a_isolated"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValidationError(f"weight {name} must be finite and >= 0, got {v}")
        if len(b) == 0:
            raise ValidationError("b must contain at least one effort weight")
        if any(not np.isfinite(v) or v <= 0 for v in b):
            raise ValidationError(f"every effort weight b_i must be > 0, got {b}")
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise ValidationError(f"control bounds must be finite, got [{self.lower}, {self.upper}]")
        if not self.upper > self.lower:
            raise ValidationError(f"control bounds must satisfy upper > lower, got [{self.lower}, {self.upper}]")

    @property
    def b_array(self) -> np.ndarray:
        return np.array(self.b, dtype=float)
