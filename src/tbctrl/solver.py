"""Forward-backward sweep solver.

The sweep is a fixed-point iteration u <- T(u): one sweep integrates the
state forward with classical RK4, integrates the adjoint backward from the
zero terminal condition and evaluates the closed-form control law along the
grid, giving u_hat = T(u). The next control comes from projected Anderson
mixing (type II, memory 3, no damping) on the residual r = u_hat - u: the
last few residual differences fit r by least squares, the matching
control-law differences are taken off u_hat, and the result is clipped to
the control bounds. When |r|_1 rises against the previous sweep the memory
is cleared and the sweep takes the damped step c*u + (1-c)*u_hat instead,
with c = ``_DAMPING`` = 0.5. Iteration stops when |u_hat - u|_1 / |u_hat|_1
drops below tolerance; the returned control is that u_hat, the pointwise
characterization from the final sweep (re-integrated once more). A solve
that runs out of iterations returns its cheapest iterate, flagged.

The sweep's start comes from nested iteration (``_start``). A grid of
n >= 500 steps first solves the same problem on n // 10 steps, started the
same way, and interpolates that control (its best iterate, if that level did
not converge) linearly onto its own nodes; the coarsest level, and any grid
under 500 steps, starts from u = 0 clipped to the control bounds. The
flagship's 5000 steps thus start from 500, and those from 50. A coarse sweep
costs a tenth of a fine one, and its control lands the fine sweep within
about the tolerance, so the fine grid typically takes one or two sweeps. A
coarse level that meets a non-finite value is dropped, and the next finer
level starts from the clipped zero. The report counts only the sweeps on the
requested grid; each level is capped at ``max_iterations`` sweeps.

The state pass and the direct oracle's simulations share one RK4 kernel,
``_rk4``. It takes floats or numpy columns: one run works on Python floats
rather than small arrays, and the oracle's batches on a (B,) column per
compartment, one member per entry. Its step is straight-line code, one local
name per component and stage, compiled from a template once per state and
control width, so a step spends its time in the model rather than in
building lists. It hands the model its parameters as a tuple resolved once
per pass (at each evaluation time only when the set holds a time table), and
checks finiteness once per pass rather than after every step. The costate
pass is the same RK4 rule applied to the costate, which is linear in lam, run
as an affine scan (``costate._costate_pass``). Each pass checks its
arguments once, at entry (``models._point``); the sweep checks the problem
before the first iteration and prices each iterate with the bare cost
quadrature.
"""

from __future__ import annotations

import functools
import linecache
import math
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import (CostWeights, NonFiniteError, ParameterSet, TimeGrid, Trajectory,
                   ValidationError, _located, _number, _raise_first_nonfinite, check_count)
from . import models
from .costate import _costate_pass
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

    ``tolerance`` bounds the relative fixed-point residual
    |u_hat - u|_1 / |u_hat|_1 at which the sweep stops, and
    ``max_iterations`` caps the sweeps on each grid level.
    """

    tolerance: float = 1e-4
    max_iterations: int = 500

    def __post_init__(self):
        object.__setattr__(self, "tolerance", _number(self.tolerance, "tolerance"))
        if not 0.0 < self.tolerance < math.inf:  # an infinite tolerance stops after one sweep
            raise ValidationError(f"tolerance must be finite and positive, got {self.tolerance}")
        check_count("max_iterations", self.max_iterations, 1)  # range() needs an int


@dataclass
class SolveReport:
    """Iteration record for one solve by ``solve_fbs`` (the sweep) or ``solve_direct`` (the oracle).

    ``iterations``: the sweeps on the requested grid, or the oracle's gradient evaluations.
    ``cost_history``: one cost per sweep, or the lattice start's, then each accepted step's.
    ``final_control_change``: the sweep's relative fixed-point residual, or the
    oracle's relative projected-gradient sup norm (see ``solve_direct``).
    """

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


# One RK4 pass written out for a state of n components and a control of m:
# the loop of ``_rk4`` with every stage as straight-line arithmetic on local
# names. ``_rk4_steps`` fills in the names: y_i the state; a_i, b_i, c_i and
# e_i the four stages; u_i and v_i entry i of the control rows at the step's
# start and end.
_RK4_TEMPLATE = """\
def steps(f, y, t, u, runs, store, values, names, timed, q0):
    qm = qe = q0
    for t1, v in runs:
        {y}, = y
        {u}, = u
        {v}, = v
        h = t1 - t
        tm, te = t + 0.5 * h, t + h
        um = [{um}]
        if timed:
            q0, qm, qe = values(names, t), values(names, tm), values(names, te)
        {a}, = f(t, y, u, q0)
        hh = 0.5 * h
        {b}, = f(tm, [{k2}], um, qm)
        {c}, = f(tm, [{k3}], um, qm)
        {e}, = f(te, [{k4}], v, qe)
        h6 = h / 6.0
        y = [{y1}]
        store(y)
        t, u = t1, v
"""


@functools.cache
def _rk4_steps(n: int, m: int):
    """The RK4 loop for n state components and m controls, from ``_RK4_TEMPLATE``.

    It is compiled under a file name that states n and m, and its source is
    put in ``linecache``, so tracebacks that the ``traceback`` module prints
    (pytest's and logging's among them) show its lines.
    """
    def entries(form, k):  # form, for each entry i of k
        return ", ".join(form.format(i=i) for i in range(k))

    source = _RK4_TEMPLATE.format(
        y=entries("y{i}", n), a=entries("a{i}", n), b=entries("b{i}", n), c=entries("c{i}", n),
        e=entries("e{i}", n), u=entries("u{i}", m), v=entries("v{i}", m),
        um=entries("0.5 * (u{i} + v{i})", m),
        k2=entries("y{i} + hh * a{i}", n), k3=entries("y{i} + hh * b{i}", n),
        k4=entries("y{i} + h * c{i}", n),
        y1=entries("y{i} + h6 * (a{i} + 2.0 * b{i} + 2.0 * c{i} + e{i})", n))
    filename = f"<tbctrl RK4 step, n={n}, m={m}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    scope: dict = {}
    exec(compile(source, filename, "exec"), scope)
    return scope["steps"]


def _refuses(f, *args) -> bool:
    """Whether f(*args) raises a ValidationError."""
    try:
        f(*args)
    except ValidationError:
        return True
    return False


def _rk4(d, y0: np.ndarray, nodes: np.ndarray, control, p: ParameterSet, keep=None) -> np.ndarray:
    """Classical RK4 of the model d's state, x' = d.rhs(t, x, u, q), forward along ``nodes``.

    The pass runs on Python floats: y is a list, ``control`` is a
    node-indexed (n_nodes, m) array read a row at a time, and a half-step
    takes the mean of the two end rows. Each step is straight-line arithmetic
    on one local name per component, stage and control entry, in a loop
    compiled once per state and control width (``_rk4_steps``). q is the
    tuple of the model's ``required_params`` in ``p``, resolved once per
    pass, or at each evaluation time if ``p`` holds a time table.

    Given ``keep``, the pass runs a batch of B members on numpy columns: y0 is
    (w, B), the control is node-indexed (m, B) rows, and y and every stage are
    lists of (B,) columns, which d.rhs takes as it takes floats. Each member then
    gets bitwise the rows of its own float pass. Instead of the rows, the pass
    returns keep(y), a (B,) column, at each node, as an (n_nodes, B) array;
    keep must give a member whose row has a non-finite entry a non-finite
    value.

    Finiteness is checked once per pass, not per step, and the first
    non-finite row (or kept value) is reported. A ValidationError from d.rhs (say,
    a live population driven to N <= 0) is located like a non-finite row, at
    the node the failing step integrates to; only at the pass's first
    evaluation, which sees just the given y0, first control row and
    parameters, is it passed on unchanged. An ArithmeticError (say, a
    floating-point exception under ``np.errstate``) or a RuntimeWarning raised
    as an error (under a warnings filter) is located at that node too, at any
    evaluation, as the state becoming non-finite.
    """
    if keep is None:
        flat = array("d", y0)  # the rows so far, appended as they are made
        y = flat.tolist()
        store = flat.extend
        runs = map(np.ndarray.tolist, control)
    else:
        flat = array("d")  # the kept columns, likewise
        y = list(y0)
        store = lambda y: flat.frombytes(keep(y).tobytes())
        store(y)
        runs = iter(control)
    width = np.shape(y0)[-1]  # w floats a row, or B kept values
    rows = lambda: np.frombuffer(flat, dtype=float).reshape(-1, width)
    f, names, values, timed = d.rhs, d.required_params, p.values, p._timed
    t = float(nodes[0])
    u0 = next(runs)
    q0 = values(names, t)
    steps = _rk4_steps(len(y), len(u0))
    try:
        steps(f, y, t, u0, zip(map(float, nodes[1:]), runs), store, values, names, timed, q0)
    except (ArithmeticError, RuntimeWarning, ValidationError) as exc:
        j = len(rows())  # the node the failing step integrates to
        refused = isinstance(exc, ValidationError)
        if refused and j == 1 and _refuses(f, t, y, u0, q0):  # f is pure: the first evaluation refused
            raise
        _raise_first_nonfinite(rows(), nodes, "state")
        raise _located(f"state left the model's domain ({exc})" if refused else
                       "state became non-finite", nodes, j) from exc
    _raise_first_nonfinite(rows(), nodes, "state")
    return rows()


def integrate_forward(model: ModelId, p: ParameterSet, x0: np.ndarray,
                      control: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Integrate the state ODE forward; returns the (n_nodes, state_dim) array."""
    d, x0 = models._point(model, p=p, x0=x0)
    control = models._point(d.id, grid.n_nodes, control=control)[1]
    return _rk4(d, x0, grid.nodes, control, p)


def integrate_adjoint_backward(model: ModelId, p: ParameterSet, w: CostWeights,
                               state: np.ndarray, control: np.ndarray,
                               grid: TimeGrid) -> np.ndarray:
    """Integrate the costate ODE backward from the zero terminal condition.

    State and control are linearly interpolated at half-steps; lam(tf) = 0
    exactly by construction.
    """
    d, state, control = models._point(model, grid.n_nodes, p=p, w=w, state=state,
                                      control=control)
    return _costate_pass(d, w, p, state, control, grid.nodes)


def _positivity(state: np.ndarray) -> bool:
    scale = max(1.0, float(np.max(np.abs(state))))
    return bool(np.min(state) >= -1e-9 * scale)


_MEMORY = 3  # Anderson mixing keeps at most this many residual differences
_DAMPING = 0.5  # the fallback step's weight on the current control: c*u + (1-c)*u_hat


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
    Otherwise, or if the coarser solve meets a non-finite value, it is u = 0
    clipped to the bounds.
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
    return np.clip(np.zeros((grid.n_nodes, d.control_dim)), w.lower, w.upper)


def _sweep(d, scenario: "ScenarioConfig", grid: TimeGrid, u: np.ndarray):
    """Sweep from the control u on ``grid`` until the fixed-point residual settles.

    Returns the control (the final characterization if converged, else the
    cheapest iterate), the cost of each iterate, whether the sweep converged
    and its last relative residual.
    """
    model, p, w, settings = scenario.model, scenario.params, scenario.weights, scenario.fbs
    x0 = scenario.initial_state()
    char = d.characterize
    names = d.required_params
    q = p.values(names)  # the control law's parameters, unless p holds a time table

    history: list[float] = []
    best_cost = np.inf
    best_u = u  # no iterate is changed in place once made
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
        cost = _quadrature(d.id, w, state, u, grid.h)
        del state, adjoint  # so that the next sweep's passes do not hold them too
        history.append(cost)
        if cost < best_cost:
            best_cost = cost
            best_u = u  # no iterate is changed in place once made
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
            u_next = _DAMPING * u + (1.0 - _DAMPING) * u_hat
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
    d = models.validate_problem(model, p, w)
    u, history, converged, rel_residual = _sweep(d, scenario, grid, _start(d, scenario, grid))
    state = integrate_forward(model, p, scenario.initial_state(), u, grid)
    adjoint = integrate_adjoint_backward(model, p, w, state, u, grid)
    traj = Trajectory(grid, state, u, adjoint, state_nonnegative=_positivity(state))
    cost = total_cost(model, traj, w)
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
    rough control gives -61.7 against -52.1 by differences at node 50. dH/du_k
    is the complex step Im H(u + 1e-20 i e_k) / 1e-20, exact to roundoff. One
    Hamiltonian call covers every node: the nodes' times, states and costates
    as (n+1, 1) columns against their m stepped controls as (n+1, m) ones.
    """
    d = models.validate_problem(model, p, w)
    control = np.asarray(control, dtype=float)
    state = integrate_forward(model, p, x0, control, grid)
    adjoint = integrate_adjoint_backward(model, p, w, state, control, grid)
    t = grid.nodes[:, None]
    h = _hamiltonian(d, t, state.T[:, :, None], adjoint.T[:, :, None],
                     control.T[:, :, None] + 1e-20j * np.eye(d.control_dim)[:, None, :],
                     p.values(d.required_params, t), w)  # column k steps u_k by 1e-20 i
    grad = h.imag / 1e-20 * grid.h
    grad[[0, -1]] *= 0.5
    return grad
