"""Pontryagin layer: Hamiltonian evaluation and independent consistency checks.

H has one implementation, ``_hamiltonian``: lam.f plus ``models._running_cost``, which the cost
quadrature shares; ``hamiltonian`` validates one point and calls it. The verifiers are deliberately
dumb and call it on numpy columns, one per sample. Central differences of H in the state check the
analytic adjoints. The control laws are checked by a grid search on H's exact quadratic form in u
(the dynamics are affine in u): one call per batch at the stencil z = 0, e_i / 2, e_i and e_i + e_j
(j < i), in z = (u - lower) / (upper - lower), reads each sample's coefficients, and u* and every
candidate are priced on them. The same call checks the form at the sample's drawn u: a sample whose
H there is off the quadratic by more than 1e-10 max(1, |H|) gets a NaN residual, so the model fails.
``_WIDTH`` bounds the values of an adjoint-check call, a stencil call and a grid-search temporary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import islice, product

import numpy as np

from .core import CostWeights, ParameterSet, ValidationError, check_count
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

# 51 rows of a 101-point grid: 101 rows ran bowong's search a fifth faster, for 0.3 MiB more RSS.
_WIDTH = 51 * 101


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


def _resolve(model, p, w, samples, seed):
    d = models.model_definition(model)
    if p is None:
        p = models.default_params(d.id)
    if w is None:  # every state-cost term the model has, so each adjoint term is checked
        w = CostWeights(a1=1.0, a2=1.0, a_isolated=1.0 if d.isolated is not None else 0.0,
                        b=tuple(100.0 for _ in range(d.control_dim)))
    models.validate_problem(d.id, p, w)  # before any sampling
    check_count("samples", samples, 1)
    check_count("seed", seed, 0)
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
    model, d, p, w = _resolve(model, p, w, samples, seed)
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
    """Check the closed-form control law attains the grid minimum of H: on each control's line
    through u* where H is separable across controls (which certifies the joint minimum), else on
    the tensor grid. The grid needs both bounds, so grid_points must be an integer of at least 2."""
    model, d, p, w = _resolve(model, p, w, samples, seed)
    check_count("grid_points", grid_points, 2)
    draws, scored = _draws(d, w, samples, seed), []
    size = max(1, _WIDTH // max(grid_points, (d.control_dim + 1) ** 2))  # (m+1)^2 >= stencil + u
    while batch := list(islice(draws, size)):
        u_star, h_star, h_min = _grid_search(d, p, w, batch, grid_points)
        res = ((h_star - h_min) / np.maximum(1.0, np.abs(h_star))).tolist()
        for (t, *_), u, r in zip(batch, u_star, res):
            scored.append((r, {"sample": len(scored), "residual": r, "u_star": u, "t": t}))
    max_res, worst = _worst(scored)
    return ConsistencyReport(model=model, samples=samples, seed=seed,
                             max_stationarity_residual=max_res, worst_offenders=worst)


def _grid_search(d, p: ParameterSet, w: CostWeights, batch: list, grid_points: int):
    """u* by sample (the laws take floats), H there, and H's least value over u* and the grid.
    In z, H = f0 + sum_i [z_i (g_i + Q_i z_i) + sum_{j<i} C_ij z_i z_j]: quad sums terms(i, z_i)."""
    m, names, lo, span = d.control_dim, d.required_params, w.lower, w.upper - w.lower
    axis = (np.linspace(lo, w.upper, grid_points) - lo) / span
    u_star = np.array([d.characterize(t, x.tolist(), lam.tolist(), p.values(names, t), w)
                       for t, x, lam, _ in batch], dtype=float)
    (t,), x, lam, u, z = (np.array(v).T.reshape(-1, len(batch), 1)
                          for v in (*zip(*batch), (u_star - lo) / span))
    e = np.eye(m)
    stencil = [0.0 * e[0], *(e / 2), *e, *(a + b for i, a in enumerate(e) for b in e[:i])]
    uu = np.concatenate([np.broadcast_to(lo + span * np.array(stencil).T[:, None],
                                         (m, len(batch), len(stencil))), u], 2)  # then drawn u
    f0, *f, hu = _hamiltonian(d, t, x, lam, list(uu), p.values(names, t), w).T[:, :, None]
    half, one, fp = np.array(f[:m]), np.array(f[m:2 * m]), f[2 * m:]
    g, sq = 4.0 * half - 3.0 * f0 - one, 2.0 * (one - 2.0 * half + f0)
    cross = [[fp[i * (i - 1) // 2 + j] - one[i] - one[j] + f0 for j in range(i)] for i in range(m)]
    terms = lambda i, zi: (zi * (g[i] + sq[i] * zi), [c * zi for c in cross[i]])  # of z_i in H
    on_axis = None if d.separable_controls else terms(m - 1, axis)  # a tensor row's, once
    quad = lambda z: sum((sum(map(np.multiply, cz, z), dg) for dg, cz in (
        on_axis if zi is axis and on_axis else terms(i, zi) for i, zi in enumerate(z))), f0)
    fits = np.abs(hu - quad((u - lo) / span)) <= 1e-10 * np.maximum(1.0, np.abs(hu))
    h_star = np.where(fits, quad(z), np.nan).ravel()  # off the form: NaN, which wins the min
    lines = ([*z[:i], axis, *z[i + 1:]] for i in range(m)) if d.separable_controls else (
        [*row, axis] for row in product(axis, repeat=m - 1))
    return u_star.tolist(), h_star, np.minimum(h_star, reduce(np.minimum, map(quad, lines)).min(1))
