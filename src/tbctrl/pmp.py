"""Pontryagin layer: Hamiltonian evaluation and independent consistency checks.

H has one implementation, ``_hamiltonian``: lam.f plus ``models._running_cost``, which the cost
quadrature shares; ``hamiltonian`` validates one point and calls it. ``_draws`` draws the samples
as numpy columns, and a verifier's batch is a slice of their rows. The complex step of H in the
state, Im H(x + 1e-20 i e_i) / 1e-20, checks the analytic adjoints to roundoff. The control laws
are checked by a grid search on H's exact quadratic form in u (the dynamics are affine in u): one
call per batch at the stencil z = 0, e_i / 2, e_i and e_i + e_j (j < i), in
z = (u - lower) / (upper - lower), reads each sample's coefficients, and u* and every candidate
are priced on them. The same call checks the form at the sample's drawn u: a sample whose H there
is off the quadratic by more than 1e-10 max(1, |H|) gets a NaN residual, so the model fails. The
law is called once per batch, on its columns. On a tensor grid (bowong), each row of the first
m - 1 controls is a quadratic in the last: only the nodes beside its vertex and the two ends can
hold its least value, so only those are priced, by the same expression as every other candidate.
``_WIDTH`` bounds the floats of an adjoint-check call, a stencil call and a grid-search temporary.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, product

import numpy as np

from .core import CostWeights, ParameterSet, check_count
from . import models
from .models import ModelId, _running_cost
from .models.base import clamp

__all__ = [
    "DEFAULT_SEED",
    "ConsistencyReport",
    "hamiltonian",
    "verify_adjoint_consistency",
    "verify_control_stationarity",
]

DEFAULT_SEED = 1234

# 51 samples by the 101 points of a grid line, or, on bowong's tensor grid, by its 101 u1 rows.
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
    d, x, lam, u = models._point(model, p=p, w=w, state=x, adjoint=lam, control=u)
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


def _uniforms(seed, samples: int, k: int):
    """k columns of seeded uniforms on [0, 1), drawn sample by sample."""
    # One Mersenne Twister call; the top 53 bits of each 64. numpy.random would map libcrypto.
    b = random.Random(operator.index(seed)).randbytes(8 * samples * k)
    return (np.frombuffer(b, "<u8") >> 11).reshape(samples, k).T * 2.0 ** -53


def _draws(d, w: CostWeights, samples: int, seed: int):
    """The seeded points: t a (samples, 1) column; x, lam and u one such column per entry."""
    n, m = d.state_dim, d.control_dim
    r = _uniforms(seed, samples, 2 * n + m + 1)[:, :, None]  # x, lam, u, t
    # Log-uniform compartment sizes spread the check across population scales.
    x = 10.0 ** (4.0 * r[:n])
    lam = -100.0 + 200.0 * r[n:2 * n]
    u = w.lower + (w.upper - w.lower) * r[2 * n:2 * n + m]
    return 5.0 * r[-1], x, lam, u


def _worst(res: list[float], record) -> tuple[float, list[dict]]:
    """The largest of the samples' residuals and record(i) of the three worst samples i.

    A non-finite residual (NaN included) counts as the largest.
    """
    order = sorted(range(len(res)), key=[(math.isfinite(r), -r) for r in res].__getitem__)
    return res[order[0]], [record(i) for i in order[:3]]


def verify_adjoint_consistency(model: ModelId, p: ParameterSet | None = None,
                               w: CostWeights | None = None, samples: int = 100,
                               seed: int = DEFAULT_SEED) -> ConsistencyReport:
    """Compare the analytic adjoint against -grad_x H by the complex step.

    dH/dx_i is Im H(x + 1e-20 i e_i) / 1e-20, which has no cancellation, so it
    is exact to roundoff. Residuals are relative to max(1, |grad H|_inf) per
    sample. Each batch of samples takes one Hamiltonian call, on n complex
    columns per sample, and one adjoint call.
    """
    model, d, p, w = _resolve(model, p, w, samples, seed)
    n, size = d.state_dim, _WIDTH // (2 * d.state_dim)  # n complex columns a sample: 2n floats
    draws, res, diffs = _draws(d, w, samples, seed), [], []
    for b in range(0, samples, size):
        t, x, lam, u = (v[..., b:b + size, :] for v in draws)
        q = p.values(d.required_params, t)
        # Column i steps x_i by 1e-20 i; 0.0 * real carries a non-finite H into its derivative.
        h = _hamiltonian(d, t, x + 1e-20j * np.eye(n)[:, None, :], lam, u, q, w)
        grad = h.imag / 1e-20 + 0.0 * h.real
        adj = np.hstack(np.broadcast_arrays(*d.adjoint(t, x, lam, u, q, w)))
        diff = np.abs(adj + grad)
        res += (diff.max(axis=1) / np.maximum(1.0, np.abs(grad).max(axis=1))).tolist()
        diffs += list(diff)  # a view of each sample's row
    # argmax's entry, a NaN first; numpy's argmax would page in 64 KiB of its code (peak RSS)
    first_max = lambda r: r.index(max(r, key=lambda v: (v != v, v)))
    max_res, worst = _worst(res, lambda k: {"sample": k, "residual": res[k],
                                            "component": first_max(diffs[k].tolist()),
                                            "t": draws[0].item(k), "x": draws[1][:, k, 0].tolist()})
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
    draws, res, u_star = _draws(d, w, samples, seed), [], []
    size = max(1, _WIDTH // max(grid_points, (d.control_dim + 1) ** 2))  # (m+1)^2 >= stencil + u
    for b in range(0, samples, size):
        u, h_star, h_min = _grid_search(d, p, w, [v[..., b:b + size, :] for v in draws],
                                        grid_points)
        res += ((h_star - h_min) / np.maximum(1.0, np.abs(h_star))).tolist()
        u_star += u
    max_res, worst = _worst(res, lambda k: {"sample": k, "residual": res[k], "u_star": u_star[k],
                                            "t": draws[0].item(k)})
    return ConsistencyReport(model=model, samples=samples, seed=seed,
                             max_stationarity_residual=max_res, worst_offenders=worst)


def _grid_search(d, p: ParameterSet, w: CostWeights, batch, grid_points: int):
    """u* by sample, H there, and H's least value over u* and the grid, for a batch (t, x, lam, u)
    of ``_draws``' columns.
    In z, H = f0 + sum_i [z_i (g_i + Q_i z_i) + sum_{j<i} C_ij z_i z_j]: quad sums terms(i, z_i)."""
    m, lo, span = d.control_dim, w.lower, w.upper - w.lower
    axis = (np.linspace(lo, w.upper, grid_points) - lo) / span
    t, x, lam, u = batch
    q = p.values(d.required_params, t)
    # one law call on the batch's columns; an entry the law returns as one value is every sample's
    u_star = np.array(np.broadcast_arrays(*d.characterize(t, x, lam, q, w), t)[:m], dtype=float)
    e = np.eye(m)
    stencil = [0.0 * e[0], *(e / 2), *e, *(a + b for i, a in enumerate(e) for b in e[:i])]
    uu = np.concatenate([np.broadcast_to(lo + span * np.array(stencil).T[:, None],
                                         (m, len(t), len(stencil))), u], 2)  # then drawn u
    f0, *f, hu = _hamiltonian(d, t, x, lam, list(uu), q, w).T[:, :, None]
    half, one, fp = np.array(f[:m]), np.array(f[m:2 * m]), f[2 * m:]
    g, sq = 4.0 * half - 3.0 * f0 - one, 2.0 * (one - 2.0 * half + f0)
    cross = [[fp[i * (i - 1) // 2 + j] - one[i] - one[j] + f0 for j in range(i)] for i in range(m)]
    terms = lambda i, zi: (zi * (g[i] + sq[i] * zi), [c * zi for c in cross[i]])  # of z_i in H
    quad = lambda z, h=f0, first=0: sum((sum(map(np.multiply, cz, z), dg) for dg, cz in (
        terms(i, z[i]) for i in range(first, len(z)))), h)  # H's terms from z_first on, onto h
    fits = np.abs(hu - quad((u - lo) / span)) <= 1e-10 * np.maximum(1.0, np.abs(hu))
    z = (u_star - lo) / span
    h_star = np.where(fits, quad(z), np.nan).ravel()  # off the form: NaN, which wins the min
    if d.separable_controls:  # each control's line through u*, the others held there
        h_min = reduce(np.minimum, (quad([*z[:i], axis, *z[i + 1:]]) for i in range(m)))
    else:  # each row of the first m - 1 controls' grid, and the last control's grid on it
        rows = list(np.array([*product(axis, repeat=m - 1)]).T)
        h_rows = quad(rows)
        h_min = _row_least(lambda zl: quad([*rows, zl], h_rows, m - 1), sq[-1],
                           sum(map(np.multiply, cross[-1], rows), g[-1]), axis)
    h_min = np.minimum(h_star, h_min.min(1))
    return u_star[:, :, 0].T.tolist(), h_star, h_min


def _row_least(h, sq, b, axis):
    """The least of h over the nodes of the grid ``axis`` on [0, 1], for h(z) = c + z (b + sq z)
    on every row. On a uniform grid it is at a node next to the vertex -b / (2 sq), clipped to
    [0, 1], when sq > 0, else at an end: only those nodes, and the ends, are scored."""
    v = clamp(-b / np.where(sq > 0.0, 2.0 * sq, np.inf), 0.0, 1.0)  # sq <= 0: 0, at an end
    k = (v * (axis.size - 1)).astype(np.intp)  # v >= 0, so this is the floor
    del v, b  # free before the scoring, as every temporary here is as large as a batch's rows
    nodes = chain((axis.take(k + o, mode="clip") for o in (-1, 0, 1, 2)), (axis[0], axis[-1]))
    return reduce(np.minimum, map(h, nodes))

