"""Pontryagin layer: Hamiltonian evaluation and independent consistency checks.

The verifiers here are deliberately dumb: central differences of the
Hamiltonian in the state cross-check the analytic adjoints, and a dense grid
search over admissible controls cross-checks the closed-form control laws.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .core import CostWeights, ParameterSet, ValidationError
from . import models
from .models import ModelId

__all__ = [
    "DEFAULT_SEED",
    "ConsistencyReport",
    "hamiltonian",
    "hamiltonian_control_gradient",
    "verify_adjoint_consistency",
    "verify_control_stationarity",
]

DEFAULT_SEED = 1234


def hamiltonian(model: ModelId, t: float, x: np.ndarray, lam: np.ndarray,
                u: np.ndarray, p: ParameterSet, w: CostWeights) -> float:
    """Running cost plus inner product of adjoint and dynamics."""
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    d = models.model_definition(model)
    if lam.shape != (d.state_dim,):
        raise ValidationError(f"{d.id.value}: adjoint must have shape ({d.state_dim},), got {lam.shape}")
    f = models.dynamics(model, t, x, u, p)
    return models.running_cost(model, x, u, w) + float(np.dot(lam, f))


def hamiltonian_control_gradient(model: ModelId, t, x, lam, u, p, w,
                                 step: float = 1e-3) -> np.ndarray:
    """dH/du by central differences.

    Every catalog Hamiltonian is polynomial of degree two in the controls, so
    the central difference is exact up to roundoff for any step.
    """
    u = np.asarray(u, dtype=float)
    grad = np.empty_like(u)
    for i in range(u.size):
        up = u.copy()
        um = u.copy()
        up[i] += step
        um[i] -= step
        grad[i] = (hamiltonian(model, t, x, lam, up, p, w)
                   - hamiltonian(model, t, x, lam, um, p, w)) / (2.0 * step)
    return grad


@dataclass
class ConsistencyReport:
    """Outcome of a sampling verification run."""

    model: ModelId
    samples: int
    seed: int
    max_adjoint_residual: float | None = None
    max_stationarity_residual: float | None = None
    worst_offenders: list[dict] = field(default_factory=list)

    def __post_init__(self):
        for v in (self.max_adjoint_residual, self.max_stationarity_residual):
            if v is not None and v < 0:
                raise ValidationError("residuals must be nonnegative")


def _resolve(model, p, w):
    d = models.model_definition(model)
    model = d.id
    if p is None:
        p = models.default_params(model)
    if w is None:
        w = CostWeights(a1=1.0, a2=1.0 if d.cost_kind.value == "C1" else 0.0,
                        b=tuple(100.0 for _ in range(d.control_dim)))
    return model, d, p, w


def _sample(d, w: CostWeights, samples: int, seed: int, residual) -> tuple[float, list[dict]]:
    """Score ``residual(t, x, lam, u) -> (res, info)`` at seeded random points.

    Returns the largest residual and the three worst samples' records.
    """
    if samples < 1:
        raise ValidationError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    worst: list[tuple[float, dict]] = []
    max_res = 0.0
    for si in range(samples):
        # Log-uniform compartment sizes spread the check across population scales.
        x = 10.0 ** rng.uniform(0.0, 4.0, size=d.state_dim)
        lam = rng.uniform(-100.0, 100.0, size=d.state_dim)
        u = rng.uniform(w.lower, w.upper, size=d.control_dim)
        t = rng.uniform(0.0, 5.0)
        res, info = residual(t, x, lam, u)
        if res > max_res:
            max_res = res
        worst.append((res, {"sample": si, "residual": res, **info}))
    worst.sort(key=lambda e: -e[0])
    return max_res, [info for _, info in worst[:3]]


def verify_adjoint_consistency(model: ModelId, p: ParameterSet | None = None,
                               w: CostWeights | None = None, samples: int = 100,
                               seed: int = DEFAULT_SEED) -> ConsistencyReport:
    """Compare the analytic adjoint against -grad_x H by central differences.

    Residuals are relative to max(1, |grad H|_inf) per sample; component i is
    differenced with step 1e-4 * max(1, |x_i|).
    """
    model, d, p, w = _resolve(model, p, w)

    def residual(t, x, lam, u):
        grad = np.empty(d.state_dim)
        for i in range(d.state_dim):
            h = 1e-4 * max(1.0, abs(x[i]))
            xp = x.copy()
            xm = x.copy()
            xp[i] += h
            xm[i] -= h
            grad[i] = (hamiltonian(model, t, xp, lam, u, p, w)
                       - hamiltonian(model, t, xm, lam, u, p, w)) / (2.0 * h)
        analytic = models.adjoint_rhs(model, t, x, lam, u, p, w)
        diff = np.abs(analytic - (-grad))
        res = float(np.max(diff)) / max(1.0, float(np.max(np.abs(grad))))
        return res, {"component": int(np.argmax(diff)), "t": t, "x": x.tolist()}

    max_res, worst = _sample(d, w, samples, seed, residual)
    return ConsistencyReport(model=model, samples=samples, seed=seed,
                             max_adjoint_residual=max_res, worst_offenders=worst)


def verify_control_stationarity(model: ModelId, p: ParameterSet | None = None,
                                w: CostWeights | None = None, samples: int = 100,
                                grid_points: int = 101,
                                seed: int = DEFAULT_SEED) -> ConsistencyReport:
    """Check the closed-form control law attains the grid minimum of H.

    Models whose Hamiltonian is additively separable across controls are
    checked with per-component sweeps around the candidate (which certifies
    the joint minimum); the non-separable model gets the full tensor grid.
    """
    model, d, p, w = _resolve(model, p, w)
    axis = np.linspace(w.lower, w.upper, grid_points)
    tensor = None if d.separable_controls else [
        np.array(v) for v in itertools.product(axis, repeat=d.control_dim)]

    def residual(t, x, lam, _):
        u_star = models.control_characterization(model, t, x, lam, p, w)
        h_star = hamiltonian(model, t, x, lam, u_star, p, w)
        candidates = tensor
        if candidates is None:
            candidates = []
            for i in range(d.control_dim):
                for v in axis:
                    cand = u_star.copy()
                    cand[i] = v
                    candidates.append(cand)
        h_min = min(itertools.chain(
            (h_star,), (hamiltonian(model, t, x, lam, v, p, w) for v in candidates)))
        res = max(0.0, h_star - h_min) / max(1.0, abs(h_star))
        return res, {"u_star": u_star.tolist(), "t": t}

    max_res, worst = _sample(d, w, samples, seed, residual)
    return ConsistencyReport(model=model, samples=samples, seed=seed,
                             max_stationarity_residual=max_res, worst_offenders=worst)
