"""Pontryagin layer: Hamiltonian evaluation and independent consistency checks.

The verifiers here are deliberately dumb: central differences of the
Hamiltonian in the state cross-check the analytic adjoints, and a dense grid
search over admissible controls cross-checks the closed-form control laws.
H has one implementation, ``_hamiltonian``: lam.f plus the running cost of
``models._running_cost``, which the cost quadrature and ``running_cost`` share.
``hamiltonian`` validates its arguments and calls it at one point; the verifiers
check the problem once and call it on numpy columns, one per sample, against the
shifted states of the adjoint check or the grid search's candidate axes.
"""

from __future__ import annotations

import math
import numbers
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

# Values per entry in a Hamiltonian call, the one budget of both verifiers: 51
# rows of bowong's 101-point tensor grid. Calls twice as wide ran `tbctrl verify
# all` about 12% faster, but raised its peak RSS by 0.3 MiB.
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


def _check_count(name: str, v, least: int):
    """Refuse v unless it is an integer, not a bool, of at least ``least``."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {v!r}")
    if v < least:
        raise ValidationError(f"{name} must be >= {least}, got {v}")


def _slices(n: int, step: int) -> list[slice]:
    """range(n) in slices of ``step`` entries, the last one possibly shorter."""
    return [slice(i, i + step) for i in range(0, n, step)]


def _resolve(model, p, w, samples, seed):
    d = models.model_definition(model)
    if p is None:
        p = models.default_params(d.id)
    if w is None:  # every state-cost term the model has, so each adjoint term is checked
        w = CostWeights(a1=1.0, a2=1.0, a_isolated=1.0 if d.isolated is not None else 0.0,
                        b=tuple(100.0 for _ in range(d.control_dim)))
    models.validate_problem(d.id, p, w)  # before any sampling
    _check_count("samples", samples, 1)
    _check_count("seed", seed, 0)
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
    """Check the closed-form control law attains the grid minimum of H.

    Models whose Hamiltonian is additively separable across controls are
    checked with per-component sweeps around the candidate (which certifies
    the joint minimum); the non-separable model gets the full tensor grid.
    The grid needs both bounds, so grid_points must be an integer of at least 2.
    """
    model, d, p, w = _resolve(model, p, w, samples, seed)
    _check_count("grid_points", grid_points, 2)
    m, names = d.control_dim, d.required_params
    # Each call puts the samples on axis 0 and the candidates on the next k axes:
    # a sweep's one control, the others held at u*, or the tensor grid, u_i on axis i + 1.
    sweeps = [(i,) for i in range(m)] if d.separable_controls else [tuple(range(m))]
    k = len(sweeps[0])
    axes = [np.linspace(w.lower, w.upper, grid_points).reshape((-1,) + (1,) * (k - 1 - j))
            for j in range(k)]
    ts, xs, lams, _ = zip(*_draws(d, w, samples, seed))
    # u* on floats, sample by sample: the laws take no columns
    u_star = [np.array(d.characterize(t, x.tolist(), lam.tolist(), p.values(names, t), w)).tolist()
              for t, x, lam in zip(ts, xs, lams)]
    column = lambda v: np.array(v).T.reshape((-1, samples) + (1,) * k)  # entry, sample, 1, ...
    (t,), x, lam, us = map(column, ([ts], xs, lams, u_star))
    h_star = np.concatenate([_hamiltonian(d, t[s], x[:, s], lam[:, s], us[:, s], p.values(names, t[s]),
                                          w).ravel() for s in _slices(samples, _WIDTH)])
    h_min = h_star.copy()
    # Whole grids for as many samples as fit a call, else one sample's grid in rows of axis 1.
    cells = grid_points ** k
    rows = min(grid_points, max(1, _WIDTH // (cells // grid_points)))
    for s in _slices(samples, max(1, _WIDTH // cells)):
        q = p.values(names, t[s])
        for on in sweeps:
            u = [axes[on.index(i)] if i in on else ui for i, ui in enumerate(us[:, s])]
            for r in _slices(grid_points, rows):
                u[on[0]] = axes[0][r]
                h = _hamiltonian(d, t[s], x[:, s], lam[:, s], u, q, w)
                h_min[s] = np.minimum(h_min[s], h.reshape(len(h), -1).min(axis=1))  # NaN wins
    res = ((h_star - h_min) / np.maximum(1.0, np.abs(h_star))).tolist()
    max_res, worst = _worst([(r, {"sample": i, "residual": r, "u_star": u, "t": t})
                             for i, (r, u, t) in enumerate(zip(res, u_star, ts))])
    return ConsistencyReport(model=model, samples=samples, seed=seed,
                             max_stationarity_residual=max_res, worst_offenders=worst)
