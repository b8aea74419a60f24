"""Pontryagin layer: Hamiltonian evaluation and independent consistency checks.

The verifiers here are deliberately dumb: central differences of the
Hamiltonian in the state cross-check the analytic adjoints, and a dense grid
search over admissible controls cross-checks the closed-form control laws.
H has one implementation, the private kernel ``_hamiltonian``. The public
``hamiltonian`` validates its arguments and calls it at one point; the
verifiers check the problem once, resolve the parameters once per sample and
call it directly, the grid search with every candidate control of a sample as
one column batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import CostWeights, ParameterSet, ValidationError
from . import models
from .models import ModelId, _cost_vec

__all__ = [
    "DEFAULT_SEED",
    "ConsistencyReport",
    "hamiltonian",
    "verify_adjoint_consistency",
    "verify_control_stationarity",
]

DEFAULT_SEED = 1234


def _hamiltonian(d, t: float, x, lam, u, q: tuple, w: CostWeights):
    """H = g.x + 0.5 sum_i b_i u_i^2 + sum_i lam_i f_i, with f = d.rhs(t, x, u, q).

    The kernel behind every Hamiltonian evaluation; it validates nothing. x and
    lam are one state and costate (arrays), q is the model's parameter tuple at
    t, and u holds one entry per control: each a float, or a (G,) column, in
    which case H comes back as a (G,) array, one value per control column.
    """
    f = d.rhs(t, x, u, q)
    h = float(_cost_vec(d.id, w) @ x) + 0.5 * sum(b * (ui * ui) for b, ui in zip(w.b, u))
    return h + sum(li * fi for li, fi in zip(lam, f))


def hamiltonian(model: ModelId, t: float, x: np.ndarray, lam: np.ndarray,
                u: np.ndarray, p: ParameterSet, w: CostWeights) -> float:
    """Running cost plus inner product of adjoint and dynamics."""
    d, x, lam, u = models._point(model, state=x, adjoint=lam, control=u)
    return float(_hamiltonian(d, t, x, lam, u, p.values(d.required_params, t), w))


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
    if p is None:
        p = models.default_params(d.id)
    if w is None:  # every state-cost term the model has, so each adjoint term is checked
        w = CostWeights(a1=1.0, a2=1.0, a_isolated=1.0 if d.isolated is not None else 0.0,
                        b=tuple(100.0 for _ in range(d.control_dim)))
    models.validate_problem(d.id, p, w)  # before any sampling
    return d.id, d, p, w


def _sample(d, w: CostWeights, samples: int, seed: int, residual) -> tuple[float, list[dict]]:
    """Score ``residual(t, x, lam, u) -> (res, info)`` at seeded random points.

    Returns the largest residual and the three worst samples' records. A
    non-finite residual (NaN included) counts as the largest.
    """
    if samples < 1:
        raise ValidationError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    worst: list[tuple[float, dict]] = []
    for si in range(samples):
        # Log-uniform compartment sizes spread the check across population scales.
        x = 10.0 ** rng.uniform(0.0, 4.0, size=d.state_dim)
        lam = rng.uniform(-100.0, 100.0, size=d.state_dim)
        u = rng.uniform(w.lower, w.upper, size=d.control_dim)
        t = rng.uniform(0.0, 5.0)
        res, info = residual(t, x, lam, u)
        worst.append((res, {"sample": si, "residual": res, **info}))
    worst.sort(key=lambda e: (math.isfinite(e[0]), -e[0]))
    return worst[0][0], [info for _, info in worst[:3]]


def verify_adjoint_consistency(model: ModelId, p: ParameterSet | None = None,
                               w: CostWeights | None = None, samples: int = 100,
                               seed: int = DEFAULT_SEED) -> ConsistencyReport:
    """Compare the analytic adjoint against -grad_x H by central differences.

    Residuals are relative to max(1, |grad H|_inf) per sample; component i is
    differenced with step 1e-4 * max(1, |x_i|).
    """
    model, d, p, w = _resolve(model, p, w)

    def residual(t, x, lam, u):
        q = p.values(d.required_params, t)
        grad = np.empty(d.state_dim)
        for i in range(d.state_dim):
            h = 1e-4 * max(1.0, abs(x[i]))
            xp = x.copy()
            xm = x.copy()
            xp[i] += h
            xm[i] -= h
            grad[i] = (_hamiltonian(d, t, xp, lam, u, q, w)
                       - _hamiltonian(d, t, xm, lam, u, q, w)) / (2.0 * h)
        diff = np.abs(np.array(d.adjoint(t, x, lam, u, q, w)) + grad)
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
    m = d.control_dim
    axis = np.linspace(w.lower, w.upper, grid_points)
    # Candidate controls, one per column; NaN marks an entry held at u*, and
    # column 0 is u* itself, so h_star and h_min come from one evaluation.
    if d.separable_controls:
        grid = np.full((m, 1 + m * grid_points), np.nan)
        for i in range(m):
            grid[i, 1 + i * grid_points:1 + (i + 1) * grid_points] = axis
    else:
        grid = np.full((m, 1 + grid_points ** m), np.nan)
        grid[:, 1:] = np.stack(np.meshgrid(*[axis] * m, indexing="ij")).reshape(m, -1)
    held = np.isnan(grid)

    def residual(t, x, lam, _):
        q = p.values(d.required_params, t)
        u_star = np.array(d.characterize(t, x, lam, q, w))
        h = _hamiltonian(d, t, x, lam, np.where(held, u_star[:, None], grid), q, w)
        h_star = float(h[0])
        res = (h_star - float(h.min())) / max(1.0, abs(h_star))  # NaN if any candidate H is
        return res, {"u_star": u_star.tolist(), "t": t}

    max_res, worst = _sample(d, w, samples, seed, residual)
    return ConsistencyReport(model=model, samples=samples, seed=seed,
                             max_stationarity_residual=max_res, worst_offenders=worst)
