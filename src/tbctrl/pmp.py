"""Pontryagin layer: Hamiltonian evaluation and independent consistency checks.

The verifiers here are deliberately dumb: central differences of the
Hamiltonian in the state cross-check the analytic adjoints, and a dense grid
search over admissible controls cross-checks the closed-form control laws.
H has one implementation, ``_hamiltonian``: lam.f plus the running cost of
``models._running_cost``, which the cost quadrature and ``running_cost`` share.
``hamiltonian`` validates its arguments and calls it at one point; the verifiers
check the problem once and call it on numpy columns: the adjoint check on a batch
of samples, the grid search on one sample's candidate controls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .core import CostWeights, ParameterSet, ValidationError
from . import models
from .models import ModelId, _running_cost

__all__ = [
    "DEFAULT_SEED",
    "ConsistencyReport",
    "hamiltonian",
    "verify_adjoint_consistency",
    "verify_control_stationarity",
]

DEFAULT_SEED = 1234

# Values per entry in a verifier's Hamiltonian call: at most bowong's 101-point
# tensor grid for one sample in the adjoint check, and 2048 candidate controls
# in the grid search. Wider calls raise the peak RSS of `tbctrl verify all`.
_WIDTH = 1 + 101 ** 2
_CANDIDATES = 2048


def _hamiltonian(d, t, x, lam, u, q: tuple, w: CostWeights):
    """H = g.x + 0.5 sum_i b_i u_i^2 + sum_i lam_i f_i, with f = d.rhs(t, x, u, q).

    The kernel behind every Hamiltonian evaluation; it validates nothing. x,
    lam and u hold one entry per state, costate and control, and q is the
    model's parameter tuple at t. Entries are floats, or numpy arrays that
    broadcast together, and H comes back in their broadcast shape.
    """
    f = d.rhs(t, x, u, q)
    return _running_cost(d.id, w, x, u) + sum(li * fi for li, fi in zip(lam, f))


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


def _resolve(model, p, w, samples):
    d = models.model_definition(model)
    if p is None:
        p = models.default_params(d.id)
    if w is None:  # every state-cost term the model has, so each adjoint term is checked
        w = CostWeights(a1=1.0, a2=1.0, a_isolated=1.0 if d.isolated is not None else 0.0,
                        b=tuple(100.0 for _ in range(d.control_dim)))
    models.validate_problem(d.id, p, w)  # before any sampling
    if samples < 1:
        raise ValidationError(f"samples must be >= 1, got {samples}")
    return d.id, d, p, w


def _draws(d, w: CostWeights, samples: int, seed: int):
    """The seeded random points (t, x, lam, u): t a float, the others fresh arrays."""
    # One rng call draws every sample's row of 2n + m + 1 uniforms, each column
    # mapped as lo + (hi - lo) r, as rng.uniform maps its draws: bitwise the
    # points of drawing x, lam, u and t in turn for each sample. uniform(0.0,
    # 1.0) draws bitwise what random() draws; random() left about 80 KiB more
    # of numpy's code pages resident in `tbctrl verify all`.
    n, m = d.state_dim, d.control_dim
    r = np.random.default_rng(seed).uniform(0.0, 1.0, (samples, 2 * n + m + 1))
    # Log-uniform compartment sizes spread the check across population scales.
    x = 10.0 ** (4.0 * r[:, :n])  # on [0, 4); 0.0 + 4.0 r is 4.0 r exactly
    lam = -100.0 + 200.0 * r[:, n:2 * n]
    u = w.lower + (w.upper - w.lower) * r[:, 2 * n:2 * n + m]
    t = (5.0 * r[:, -1]).tolist()
    return zip(t, x, lam, u)


def _worst(scored: list[tuple[float, dict]]) -> tuple[float, list[dict]]:
    """The largest residual and the three worst samples' records, from (residual, record) pairs.

    A non-finite residual (NaN included) counts as the largest.
    """
    scored.sort(key=lambda e: (math.isfinite(e[0]), -e[0]))
    return scored[0][0], [info for _, info in scored[:3]]


def verify_adjoint_consistency(model: ModelId, p: ParameterSet | None = None,
                               w: CostWeights | None = None, samples: int = 100,
                               seed: int = DEFAULT_SEED) -> ConsistencyReport:
    """Compare the analytic adjoint against -grad_x H by central differences.

    Residuals are relative to max(1, |grad H|_inf) per sample; component i is
    differenced with step 1e-4 * max(1, |x_i|). Each batch of samples takes
    one Hamiltonian and one adjoint call.
    """
    model, d, p, w = _resolve(model, p, w, samples)
    n = d.state_dim
    i = np.arange(n)
    draws = _draws(d, w, samples, seed)
    scored: list[tuple[float, dict]] = []
    while batch := list(islice(draws, _WIDTH // (2 * n))):
        ts, xs, lams, us = zip(*batch)
        t = np.array(ts)[:, None]
        x = np.array(xs)
        lam, u = np.array(lams).T[:, :, None], np.array(us).T[:, :, None]
        q = p.values(d.required_params, t)
        step = 1e-4 * np.maximum(1.0, np.abs(x))
        # State entry j by sample and column: column 2i shifts x_i up by its step, 2i + 1 down.
        shifted = np.repeat(x.T[:, :, None], 2 * n, axis=2)
        shifted[i, :, 2 * i] += step.T
        shifted[i, :, 2 * i + 1] -= step.T
        h = _hamiltonian(d, t, shifted, lam, u, q, w)
        grad = (h[:, 0::2] - h[:, 1::2]) / (2.0 * step)
        adj = np.hstack(np.broadcast_arrays(*d.adjoint(t, x.T[:, :, None], lam, u, q, w)))
        diff = np.abs(adj + grad)
        res = diff.max(axis=1) / np.maximum(1.0, np.abs(grad).max(axis=1))
        for (ti, xi, _, _), r, c in zip(batch, res.tolist(), diff.argmax(axis=1).tolist()):
            scored.append((r, {"sample": len(scored), "residual": r, "component": c, "t": ti,
                               "x": xi.tolist()}))
    max_res, worst = _worst(scored)
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
    The grid needs both bounds, so grid_points must be at least 2.
    """
    model, d, p, w = _resolve(model, p, w, samples)
    if grid_points < 2:
        raise ValidationError(f"grid_points must be >= 2, got {grid_points}")
    m = d.control_dim
    axis = np.linspace(w.lower, w.upper, grid_points)
    # Candidate controls, one per column; NaN marks an entry held at u*, and
    # column 0 is u* itself, so h_star and h_min come from the same values.
    if d.separable_controls:
        grid = np.full((m, 1 + m * grid_points), np.nan)
        for i in range(m):
            grid[i, 1 + i * grid_points:1 + (i + 1) * grid_points] = axis
    else:
        grid = np.full((m, 1 + grid_points ** m), np.nan)
        for i, g in enumerate(np.meshgrid(*[axis] * m, indexing="ij", copy=False)):
            grid[i, 1:] = g.ravel()
    held = np.isnan(grid)
    h = np.empty(grid.shape[1])  # reused and filled by slices, for the same peak RSS
    scored: list[tuple[float, dict]] = []
    for si, (t, x, lam, _) in enumerate(_draws(d, w, samples, seed)):
        # floats: the same values as np.float64 scalars, which the model handles about 5x slower
        x, lam = x.tolist(), lam.tolist()
        q = p.values(d.required_params, t)
        u_star = np.array(d.characterize(t, x, lam, q, w))
        for j in range(0, h.size, _CANDIDATES):
            c = slice(j, j + _CANDIDATES)
            h[c] = _hamiltonian(d, t, x, lam, np.where(held[:, c], u_star[:, None], grid[:, c]), q, w)
        h_star = float(h[0])
        res = (h_star - float(h.min())) / max(1.0, abs(h_star))  # NaN if any candidate H is
        scored.append((res, {"sample": si, "residual": res, "u_star": u_star.tolist(), "t": t}))
    max_res, worst = _worst(scored)
    return ConsistencyReport(model=model, samples=samples, seed=seed,
                             max_stationarity_residual=max_res, worst_offenders=worst)
