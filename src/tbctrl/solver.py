"""Forward-backward sweep solver.

The sweep is a fixed-point iteration u <- T(u): one sweep integrates the
state forward with classical RK4, integrates the adjoint backward from the
zero terminal condition and evaluates the closed-form control law along the
grid, giving u_hat = T(u). The next control comes from projected Anderson
mixing (type II, memory 3, no damping) on the residual r = u_hat - u: the
last few residual differences fit r by least squares, the matching
control-law differences are taken off u_hat, and the result is clipped to
the control bounds. When |r|_1 rises against the previous sweep the memory
is cleared and the sweep takes the relaxed step c*u + (1-c)*u_hat instead.
Iteration stops when |u_hat - u|_1 / |u_hat|_1 drops below tolerance; the
returned control is that u_hat, the pointwise characterization from the
final sweep (re-integrated once more). A solve that runs out of iterations
returns its cheapest iterate, flagged.

The sweep's start comes from nested iteration (``_start``). A grid of
n >= 500 steps first solves the same problem on n // 10 steps, started the
same way, and interpolates that control (its best iterate, if that level did
not converge) linearly onto its own nodes; the coarsest level, and any grid
under 500 steps, starts from the scenario's ``initial_control``. The
flagship's 5000 steps thus start from 500, and those from 50. A coarse sweep
costs a tenth of a fine one, and its control lands the fine sweep within
about the tolerance, so the fine grid typically takes one or two sweeps. A
coarse level that meets a non-finite value is dropped, and the next finer
level starts from ``initial_control``. The report counts only the sweeps on
the requested grid; each level is capped at ``max_iterations`` sweeps.

The state pass and the direct oracle's simulations share one RK4 kernel,
``_rk4``. It takes float lists or numpy columns: one run works on Python
floats rather than small arrays, and the oracle's batches on a (B,) column
per compartment, one member per entry. It hands the model its parameters as
a tuple resolved once per pass (at each evaluation time only when the set
holds a time table), and checks finiteness once per pass rather than after
every step. The costate pass is the same RK4 rule applied to the costate,
which is linear in lam: each step is an exact affine map, built from the
costate's coefficients with stacked matrix products and composed by a
blocked doubling scan (``_costate_pass``). The sweep checks the problem once, before
the first iteration, and prices each iterate with the bare cost quadrature.
"""

from __future__ import annotations

import math
import numbers
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import (CostWeights, NonFiniteError, ParameterSet, TimeGrid,
                   Trajectory, ValidationError)
from . import models
from .costs import _quadrature, total_cost
from .models import ModelId
from .pmp import _hamiltonian

if TYPE_CHECKING:
    from .scenario import ScenarioConfig

__all__ = [
    "FbsSettings",
    "SolveReport",
    "Solution",
    "integrate_forward",
    "integrate_adjoint_backward",
    "solve_fbs",
    "reduced_cost_gradient",
]


@dataclass(frozen=True)
class FbsSettings:
    """Sweep iteration knobs.

    ``relaxation`` is the damping c of the fallback step
    u <- c*u + (1-c)*u_hat, taken when the sweep residual rises instead of
    the Anderson step. ``tolerance`` bounds the relative fixed-point residual
    |u_hat - u|_1 / |u_hat|_1 at which the sweep stops. ``initial_control``
    is a scalar or one value per control, held over the coarsest grid the
    sweep starts on.
    """

    relaxation: float = 0.5
    tolerance: float = 1e-4
    max_iterations: int = 500
    initial_control: float | tuple[float, ...] = 0.0

    def __post_init__(self):
        if not (0.0 <= self.relaxation < 1.0):
            raise ValidationError(f"relaxation must lie in [0, 1), got {self.relaxation}")
        if not 0.0 < self.tolerance < math.inf:  # an infinite tolerance stops after one sweep
            raise ValidationError(f"tolerance must be finite and positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValidationError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass
class SolveReport:
    """Iteration record for one solve."""

    iterations: int
    converged: bool
    cost_history: tuple[float, ...]
    final_control_change: float
    message: str = ""


@dataclass
class Solution:
    """Converged (or best-effort) trajectories plus the solve report."""

    trajectory: Trajectory
    cost: float
    report: SolveReport


def _located(message: str, ts: np.ndarray, j: int, backward: bool = False) -> NonFiniteError:
    """NonFiniteError naming the node of the j-th row in integration order."""
    step = len(ts) - 1 - j if backward else j
    return NonFiniteError(f"{message} at step {step} (t={ts[j]:.6g})", step=step, time=ts[j])


def _raise_first_nonfinite(last, rows, ts: np.ndarray, what: str, backward: bool = False):
    """Raise NonFiniteError at the first non-finite row past the start, in integration order.

    A non-finite entry stays non-finite in every later row, so ``rows()``
    (the rows, or the kept values, so far) is searched only when ``last``,
    the pass's latest row, has one.
    """
    if np.isfinite(last).all():
        return
    bad = ~np.isfinite(rows()[1:]).all(axis=1)
    if bad.any():
        raise _located(f"{what} became non-finite", ts, int(bad.argmax()) + 1, backward)


def _rk4(f, y0: np.ndarray, nodes: np.ndarray, drivers, what: str, p: ParameterSet,
         names: tuple[str, ...], keep=None) -> np.ndarray:
    """Classical RK4 of y' = f(t, y, *d, q) forward along ``nodes``.

    The pass runs on Python floats: y and every stage are lists, ``drivers``
    are node-indexed arrays (one per part of d) read a row at a time, and a
    half-step takes the mean of the two end rows. q is the tuple of the
    parameters ``names`` in ``p``, resolved once per pass, or at each
    evaluation time if ``p`` holds a time table.

    Given ``keep``, the pass runs a batch of B members on numpy columns: y0 is
    (w, B), each driver is node-indexed (m, B) rows, and y and every stage are
    lists of (B,) columns, which f takes as it takes floats. Each member then
    gets bitwise the rows of its own float pass. Instead of the rows, the pass
    returns keep(y), a (B,) column, at each node, as an (n_nodes, B) array;
    keep must give a member whose row has a non-finite entry a non-finite
    value.

    Finiteness is checked once per pass, not per step, and the first
    non-finite row (or kept value) is reported. A ValidationError from f (say,
    a live population driven to N <= 0) is located like a non-finite row, at
    the node the failing step integrates to; only at the pass's first
    evaluation, which sees just the given y0, d0 and parameters, is it passed
    on unchanged.
    """
    if keep is None:
        flat = array("d", y0)  # the rows so far, appended as they are made
        y = flat.tolist()
        store = flat.extend
        runs = zip(*(map(np.ndarray.tolist, a) for a in drivers))
    else:
        flat = array("d")  # the kept columns, likewise
        y = list(y0)
        store = lambda y: flat.frombytes(keep(y).tobytes())
        store(y)
        runs = zip(*drivers)
    width = np.shape(y0)[-1]  # w floats a row, or B kept values
    rows = lambda: np.frombuffer(flat, dtype=float).reshape(-1, width)
    values, timed = p.values, p._timed
    q0 = qm = qe = values(names)
    t = float(nodes[0])
    d0 = next(runs)
    k1 = None  # set once the pass's first evaluation returns
    try:
        for j, (t1, d1) in enumerate(zip(map(float, nodes[1:]), runs), 1):
            h = t1 - t
            tm, te = t + 0.5 * h, t + h
            dm = [[0.5 * (a + b) for a, b in zip(r0, r1)] for r0, r1 in zip(d0, d1)]
            if timed:
                q0, qm, qe = values(names, t), values(names, tm), values(names, te)
            k1 = f(t, y, *d0, q0)
            hh = 0.5 * h
            k2 = f(tm, [yi + hh * ki for yi, ki in zip(y, k1)], *dm, qm)
            k3 = f(tm, [yi + hh * ki for yi, ki in zip(y, k2)], *dm, qm)
            k4 = f(te, [yi + h * ki for yi, ki in zip(y, k3)], *d1, qe)
            h6 = h / 6.0
            y = [yi + h6 * (a + 2.0 * b + 2.0 * c + e)
                 for yi, a, b, c, e in zip(y, k1, k2, k3, k4)]
            store(y)
            t, d0 = t1, d1
    except ArithmeticError:  # say, np.errstate(invalid="raise") in array arithmetic past a bad row
        _raise_first_nonfinite(y, rows, nodes, what)
        raise
    except ValidationError as exc:
        if k1 is None:
            raise
        _raise_first_nonfinite(y, rows, nodes, what)
        raise _located(f"{what} left the model's domain ({exc})", nodes, j) from exc
    _raise_first_nonfinite(y, rows, nodes, what)
    return rows()


# Steps per block of the costate scan. It bounds the pass's working arrays, six
# (n+1, n+1, block) stacks at the peak: about 80 KiB for four compartments,
# which fits under what the sweep already holds. Longer blocks make fewer numpy
# calls but hold more at once: with 128-step blocks the flagship benchmark's
# peak RSS rose by up to 0.2 MiB, with 64-step blocks it does not rise.
_BLOCK = 64


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of small square matrices laid out (r, r, L), one per last index.

    Broadcast products over the L-long rows rather than np.matmul: BLAS's
    matrix-matrix code, paged in on first use, adds about 0.25 MiB to the
    resident set of a process that has no other use for it.
    """
    out = a[:, :1] * b[:1]
    for j in range(1, len(b)):
        out += a[:, j:j + 1] * b[j:j + 1]
    return out


def _affine_steps(coef: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Each step's RK4 map of lam' = A lam + b, as augmented matrices [[M, c], [0, 1]].

    ``coef`` holds the augmented [[A, b], [0, 0]] of L steps, laid out
    (n+1, n+1, 2L+1): at the L+1 nodes in integration order, then at the L
    midpoints. ``h`` holds the L signed step sizes. RK4 on a linear system is
    the exact affine map lam -> M lam + c, and each stage acts on the
    augmented [lam; 1], so each is one stacked product. The result is laid out
    (n+1, n+1, L).
    """
    steps = len(h)
    a0, a1, am = coef[..., :steps], coef[..., 1:steps + 1], coef[..., steps + 1:]
    hh = 0.5 * h
    k = _matmul(am, a0)  # in place from here: few arrays live at once
    k *= hh
    k += am  # k2 = am (1 + hh k1), k1 = a0
    m = 2.0 * k
    m += a0
    k = _matmul(am, k)
    k *= hh
    k += am  # k3
    m += 2.0 * k
    k = _matmul(a1, k)
    k *= h
    k += a1  # k4
    m += k
    m *= h / 6.0
    for i in range(len(m)):
        m[i, i] += 1.0
    return m


def _compose(m: np.ndarray) -> np.ndarray:
    """Inclusive doubling scan over the last axis, in place: map j becomes map j after ... after map 0."""
    s = 1
    while s < m.shape[-1]:
        m[..., s:] = _matmul(m[..., s:], m[..., :-s])
        s *= 2
    return m


def _first_refusal(d, w: CostWeights, p: ParameterSet, t, x, u):
    """The first step of a block whose stage point the pointwise costate refuses, and the error.

    t, x and u are the block's stage points, as ``_costate_pass`` lays them
    out; steps count from 1, and the points are tried in integration order.
    """
    names, zero = d.required_params, [0.0] * d.state_dim
    steps = len(t) // 2
    for j, i in [(1, 0)] + [(j, i) for j in range(1, steps + 1) for i in (steps + j, j)]:
        ti = float(t[i])
        try:
            d.adjoint(ti, x[i].tolist(), zero, u[i].tolist(), p.values(names, ti), w)
        except ValidationError as exc:
            return j, exc
    return None


def _costate_pass(d, w: CostWeights, p: ParameterSet, state: np.ndarray,
                  control: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Classical RK4 of the linear costate lam' = A lam + b backward from lam(tf) = 0.

    A and b are fixed by the state and control rows, so each RK4 step is an
    exact affine map of lam. The pass runs in blocks of ``_BLOCK`` steps, in
    integration order. For each block it reads A and b off the model's costate
    (``models.costate_coefficients``) at the block's distinct stage times (the
    nodes, and the midpoints with the mean of the two end rows as drivers),
    forms each step's map, composes the maps by a doubling scan and applies the
    composites to the block's boundary value. The scan associates the sums
    differently from a stage-by-stage pass, so the rows agree with one to
    roundoff, not bitwise; lam(tf) is exactly 0.

    Finiteness is checked once per pass, and the first non-finite row in
    integration order is reported. A ValidationError from the costate is
    located at the node of the first step to meet a failing stage time (the
    latest such time), once the rows before it are integrated and checked.
    """
    n = d.state_dim
    ts = nodes[::-1]  # integration order
    lam = np.empty((len(nodes), n))  # allocated whole: a growing buffer is copied past the block arrays
    lam[-1] = 0.0
    rows = lambda: lam[done:][::-1]  # the rows so far, in integration order
    y = [0.0] * n  # the latest row
    done = len(nodes) - 1  # its node

    def points(lo):
        """Stage points from node done down to node lo: the nodes, then the midpoints."""
        t, x, u = nodes[lo:done + 1][::-1], state[lo:done + 1][::-1], control[lo:done + 1][::-1]
        return (np.concatenate([t, t[:-1] + 0.5 * (t[1:] - t[:-1])]),
                np.concatenate([x, 0.5 * (x[:-1] + x[1:])]),
                np.concatenate([u, 0.5 * (u[:-1] + u[1:])]))

    def advance(lo):
        """Integrate from node done down to node lo."""
        nonlocal done, y
        t, x, u = points(lo)
        steps = done - lo
        m = _compose(_affine_steps(models.costate_coefficients(d, w, p, t, x, u),
                                   t[1:steps + 1] - t[:steps]))
        block = m[:n, n] + m[:n, 0] * y[0]  # composite j applied to [y; 1], as (n, steps)
        for k in range(1, n):
            block += m[:n, k] * y[k]
        lam[lo:done] = block.T[::-1]
        y, done = lam[lo].tolist(), lo

    try:
        while done > 0:
            lo = max(done - _BLOCK, 0)
            try:
                advance(lo)
            except ValidationError:
                refusal = _first_refusal(d, w, p, *points(lo))
                if refusal is None:
                    raise
                j, exc = refusal
                if j > 1:
                    advance(done - j + 1)
                _raise_first_nonfinite(y, rows, ts, "adjoint", backward=True)
                raise _located(f"adjoint left the model's domain ({exc})", ts,
                               len(nodes) - done, backward=True) from exc
    except ArithmeticError:  # say, np.errstate(invalid="raise") in array arithmetic past a bad row
        _raise_first_nonfinite(y, rows, ts, "adjoint", backward=True)
        raise
    _raise_first_nonfinite(y, rows, ts, "adjoint", backward=True)
    return lam


def integrate_forward(model: ModelId, p: ParameterSet, x0: np.ndarray,
                      control: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Integrate the state ODE forward; returns the (n_nodes, state_dim) array."""
    d, x0 = models._point(model, x0=x0)
    control = np.asarray(control, dtype=float)
    if control.shape != (grid.n_nodes, d.control_dim):
        raise ValidationError(
            f"{d.id.value}: control must have shape ({grid.n_nodes}, {d.control_dim}), got {control.shape}")
    if np.any(x0 < 0):
        raise ValidationError("initial state must be nonnegative")
    return _rk4(d.rhs, x0, grid.nodes, (control,), "state", p, d.required_params)


def integrate_adjoint_backward(model: ModelId, p: ParameterSet, w: CostWeights,
                               state: np.ndarray, control: np.ndarray,
                               grid: TimeGrid) -> np.ndarray:
    """Integrate the costate ODE backward from the zero terminal condition.

    State and control are linearly interpolated at half-steps; lam(tf) = 0
    exactly by construction.
    """
    d = models.model_definition(model)
    state = np.asarray(state, dtype=float)
    control = np.asarray(control, dtype=float)
    if state.shape != (grid.n_nodes, d.state_dim):
        raise ValidationError(f"{d.id.value}: state trajectory shape {state.shape} does not match grid")
    if control.shape != (grid.n_nodes, d.control_dim):
        raise ValidationError(f"{d.id.value}: control trajectory shape {control.shape} does not match grid")
    return _costate_pass(d, w, p, state, control, grid.nodes)


def _expand_initial_control(initial, n_nodes: int, control_dim: int) -> np.ndarray:
    if isinstance(initial, numbers.Real):
        return np.full((n_nodes, control_dim), float(initial))
    arr = np.asarray(initial, dtype=float)
    if arr.shape != (control_dim,):
        raise ValidationError(f"initial control must be scalar or ({control_dim},), got {arr.shape}")
    return np.tile(arr, (n_nodes, 1))


def _positivity(state: np.ndarray) -> bool:
    scale = max(1.0, float(np.max(np.abs(state))))
    return bool(np.min(state) >= -1e-9 * scale)


_MEMORY = 3  # Anderson mixing keeps at most this many residual differences


def _least_squares(columns: list[np.ndarray], r: np.ndarray) -> list[float]:
    """Coefficients g minimising |r - sum_j g_j columns[j]|_2, by modified Gram-Schmidt.

    Meant for the few flat columns of Anderson mixing: plain dot products,
    no LAPACK. A column that is numerically in the span of the earlier ones
    (or zero) gets coefficient 0.
    """
    qs: list[np.ndarray] = []  # orthonormal basis of the kept columns
    r_cols: list[list[float]] = []  # R's column for each kept column, on qs[:k+1]
    kept: list[int] = []
    for j, col in enumerate(columns):
        v = col.copy()
        coef = []
        for q in qs:
            c = float(q @ v)
            v -= c * q
            coef.append(c)
        norm = math.sqrt(float(v @ v))
        if norm <= 1e-12 * math.sqrt(float(col @ col)):
            continue
        qs.append(v / norm)
        r_cols.append(coef + [norm])
        kept.append(j)
    rest = r.copy()
    proj = []  # Q^T r, with r orthogonalized as the columns were
    for q in qs:
        c = float(q @ rest)
        rest -= c * q
        proj.append(c)
    g = [0.0] * len(qs)
    for i in reversed(range(len(qs))):  # back substitution on the upper-triangular R
        g[i] = (proj[i] - sum(r_cols[k][i] * g[k] for k in range(i + 1, len(qs)))) / r_cols[i][i]
    gamma = [0.0] * len(columns)
    for j, gj in zip(kept, g):
        gamma[j] = gj
    return gamma


_COARSEN = 10  # each nested level has this many times fewer steps than the next finer one
_COARSEST = 50  # and at least this many


def _start(d, scenario: "ScenarioConfig", grid: TimeGrid) -> np.ndarray:
    """The sweep's starting control on ``grid``.

    On a grid of at least ``_COARSEN * _COARSEST`` steps it is the control
    of the same problem solved one level coarser (its best iterate if that
    sweep did not converge), interpolated linearly onto the grid's nodes.
    Otherwise, or if the coarser solve meets a non-finite value, it is the
    scenario's ``initial_control`` held over the grid, clipped to the bounds.
    """
    n = grid.n_steps // _COARSEN
    if n >= _COARSEST:
        coarse = TimeGrid(grid.t0, grid.tf, n)
        start = _start(d, scenario, coarse)
        try:
            u = _sweep(d, scenario, coarse, start)[0]
        except NonFiniteError:
            pass
        else:
            return np.column_stack([np.interp(grid.nodes, coarse.nodes, c) for c in u.T])
    w = scenario.weights
    u = _expand_initial_control(scenario.fbs.initial_control, grid.n_nodes, d.control_dim)
    return np.clip(u, w.lower, w.upper, out=u)


def _sweep(d, scenario: "ScenarioConfig", grid: TimeGrid, u: np.ndarray):
    """Sweep from the control u on ``grid`` until the fixed-point residual settles.

    Returns the control (the final characterization if converged, else the
    cheapest iterate), the cost of each iterate, whether the sweep converged
    and its last relative residual.
    """
    model, p, w, settings = scenario.model, scenario.params, scenario.weights, scenario.fbs
    x0 = scenario.initial_state()
    relax = settings.relaxation
    char = d.characterize
    names = d.required_params
    q = p.values(names)  # the control law's parameters, unless p holds a time table
    vec, b = models.cost_state_vector(model, w), w.b_array

    history: list[float] = []
    best_cost = np.inf
    best_u = u.copy()
    converged = False
    rel_residual = np.inf
    d_res: list[np.ndarray] = []  # the last residual differences, flat
    d_law: list[np.ndarray] = []  # the matching differences of the control law's output
    prev_res = prev_law = None
    prev_norm = np.inf

    for it in range(1, settings.max_iterations + 1):
        try:
            state = integrate_forward(model, p, x0, u, grid)
            adjoint = integrate_adjoint_backward(model, p, w, state, u, grid)
        except NonFiniteError as exc:
            raise NonFiniteError(f"sweep iteration {it}: {exc}", step=exc.step,
                                 time=exc.time) from exc
        laws = array("d")
        for t, x, lam in zip(grid.nodes, map(np.ndarray.tolist, state), map(np.ndarray.tolist, adjoint)):
            laws.extend(char(t, x, lam, p.values(names, t) if p._timed else q, w))
        u_hat = np.frombuffer(laws, dtype=float).reshape(u.shape)
        cost = _quadrature(state, u, vec, b, grid.h)
        del state, adjoint  # so that the next sweep's passes do not hold them too
        history.append(cost)
        if cost < best_cost:
            best_cost = cost
            best_u = u.copy()
        res = (u_hat - u).ravel()
        norm = float(np.sum(np.abs(res)))
        rel_residual = norm / max(float(np.sum(np.abs(u_hat))), 1e-12)
        if rel_residual < settings.tolerance:
            converged = True
            # Land on the pointwise Hamiltonian minimizer from the final sweep.
            u = u_hat
            break
        if norm > prev_norm:
            # The residual rose: forget the secant history and damp.
            d_res.clear()
            d_law.clear()
            u_next = relax * u + (1.0 - relax) * u_hat
        else:
            if prev_res is not None:
                d_res.append(res - prev_res)
                d_law.append(u_hat - prev_law)
                if len(d_res) > _MEMORY:
                    del d_res[0], d_law[0]
            u_next = u_hat.copy()
            for g, dl in zip(_least_squares(d_res, res), d_law):
                u_next -= g * dl
            np.clip(u_next, w.lower, w.upper, out=u_next)
        prev_res, prev_law, prev_norm = res, u_hat, norm
        u = u_next

    return (u if converged else best_u), history, converged, rel_residual


def solve_fbs(scenario: "ScenarioConfig") -> Solution:
    """Run the forward-backward sweep on a scenario until the control settles.

    The sweep starts from the problem's solution on coarser grids (see
    ``_start``); the report counts the sweeps on the scenario's own grid.
    """
    model, p, w, grid = scenario.model, scenario.params, scenario.weights, scenario.grid
    d = models.validate_problem(model, p, w, scenario.cost_kind)
    u, history, converged, rel_residual = _sweep(d, scenario, grid, _start(d, scenario, grid))
    state = integrate_forward(model, p, scenario.initial_state(), u, grid)
    adjoint = integrate_adjoint_backward(model, p, w, state, u, grid)
    traj = Trajectory(grid, state, u, adjoint, state_nonnegative=_positivity(state))
    cost = total_cost(scenario.cost_kind, model, traj, w)
    report = SolveReport(
        iterations=len(history),
        converged=converged,
        cost_history=tuple(history),
        final_control_change=rel_residual,
        message="" if converged else f"no convergence within {scenario.fbs.max_iterations} iterations; best iterate returned",
    )
    return Solution(trajectory=traj, cost=cost, report=report)


def reduced_cost_gradient(model: ModelId, p: ParameterSet, w: CostWeights,
                          grid: TimeGrid, x0: np.ndarray,
                          control: np.ndarray) -> np.ndarray:
    """Adjoint-route gradient of the cost w.r.t. each control node.

    Sweeps the state forward and the costate backward for the given control,
    then scales dH/du at each node by its trapezoidal quadrature weight. That
    is the continuous-adjoint gradient weighted by the trapezoid, which is only
    O(h) close to the exact gradient of the discretized cost: it is close at
    interior nodes under a smooth control, but bowong at 200 steps under a
    rough control gives -61.7 against -52.1 by differences at node 50. dH/du
    is a central difference; every catalog Hamiltonian is quadratic in the
    controls, so it is exact up to roundoff for any step. One Hamiltonian call
    covers every node: the nodes' times, states and costates as (n+1, 1)
    columns against their 2m shifted controls as (n+1, 2m) ones.
    """
    d = models.validate_problem(model, p, w)
    control = np.asarray(control, dtype=float)
    state = integrate_forward(model, p, x0, control, grid)
    adjoint = integrate_adjoint_backward(model, p, w, state, control, grid)
    m, step = d.control_dim, 1e-3
    # Control k by node and column: column k shifts u_k up by step, column m + k down.
    shifted = control.T[:, :, None] + np.hstack([step * np.eye(m), -step * np.eye(m)])[:, None, :]
    t = grid.nodes[:, None]
    h = _hamiltonian(d, t, state.T[:, :, None], adjoint.T[:, :, None], shifted,
                     p.values(d.required_params, t), w)
    grad = (h[:, :m] - h[:, m:]) / (2.0 * step)
    grad *= grid.h
    grad[[0, -1]] *= 0.5
    return grad
