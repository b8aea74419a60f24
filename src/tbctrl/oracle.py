"""Independent direct optimizer used to cross-check sweep solutions.

Controls are piecewise-constant on a coarse grid; the objective gradient is
estimated by central finite differences of simulate-then-integrate, and the
iteration is projected gradient descent with Armijo backtracking. Each
iteration's trial step is the spectral (Barzilai-Borwein) step s.s / s.y from
the last accepted step s and the change y in the gradient over it, or, where
s.y is not positive and finite, the last accepted step doubled. The state
integrator is shared with the sweep solver, but the cost quadrature and its
assembly are written here independently, and no adjoint code is reused.

Each control's cost is the trapezoid of its own running cost over a whole
run from x0. The RK4 kernel takes float lists or numpy columns. The line
search integrates one control on floats, and one more float run of the
returned control gives the returned trajectory. The 2*M*m shifted controls of
a gradient (M coarse intervals, m controls), and the constant-control lattice
of the starting point, run as a batch of (B,) columns (B <= 128, more batches
past that) through the same kernel and the model's own rhs, bitwise as B
float runs would.
"""

from __future__ import annotations

from functools import reduce
from operator import add, mul

import numpy as np

from .core import TimeGrid, Trajectory, ValidationError, check_count
from . import models
from .solver import SolveReport, Solution, _rk4

__all__ = ["solve_direct", "best_constant_control"]

_ARMIJO = 1e-4
_MAX_BACKTRACKS = 30
_GRAD_TOL = 1e-5
_FD_STEP = 1e-4  # central-difference step in each coarse control value
# a cost is a double near C, so a gradient entry moves in steps of ulp(C)/(2*_FD_STEP): 5.7e-10 at C=633
# constant-control lattice points per axis for the starting point, by control_dim
_INIT_LATTICE_POINTS = {1: 11, 2: 7}
# members per batched run: wide enough to spread numpy's per-call cost, and a
# bound on what a run keeps (n_nodes * _BATCH floats)
_BATCH = 128


def _intervals(n_steps: int, coarse_steps: int) -> np.ndarray:
    """Coarse interval of each fine node."""
    return np.minimum(np.arange(n_steps + 1) * coarse_steps // n_steps, coarse_steps - 1)


def _fine_controls(u_coarse: np.ndarray, n_steps: int) -> np.ndarray:
    return u_coarse[_intervals(n_steps, u_coarse.shape[0])]


def _trapezoid(g: np.ndarray, h: float) -> float:
    """The trapezoid integral of the running cost g, a contiguous node array."""
    return float(h * (np.sum(g) - 0.5 * (g[0] + g[-1])))


class _Simulator:
    """Simulate-then-integrate of the piecewise-constant objective.

    The running cost is assembled here from the model's weight patterns, not
    taken from :mod:`tbctrl.costs`: g = sum_k vec_k x_k + 0.5 sum_j b_j u_j^2,
    each sum taken left to right over the state and control entries, so that
    a float run and a batch member give the same bits.
    """

    def __init__(self, model, p, w, grid: TimeGrid, x0):
        d, self.x0 = models._point(model, p=p, w=w, x0=x0)  # checks the problem and x0
        self.d = d
        self.p = p
        self.grid = grid
        vec = w.a1 * np.array(d.infectious) + w.a2 * np.array(d.latent)
        if d.isolated is not None:
            vec = vec + w.a_isolated * np.array(d.isolated)
        self.state_vec = vec.tolist()
        self.b = w.b

    def state_cost(self, xs):
        """sum_k vec_k x_k over the state entries xs (floats, node arrays or batch columns).

        A zero weight times an infinite entry is NaN, so a non-finite entry
        anywhere in x gives a non-finite value, as the batch kernel needs.
        """
        return reduce(add, map(mul, self.state_vec, xs))

    def effort(self, us):
        """0.5 sum_j b_j u_j^2 over the control entries us."""
        return 0.5 * reduce(add, [b * np.square(u) for b, u in zip(self.b, us)])

    def run(self, u_coarse: np.ndarray):
        """States at every node and the cost, for one control."""
        fine = _fine_controls(u_coarse, self.grid.n_steps)
        state = _rk4(self.d, self.x0, self.grid.nodes, fine, self.p)
        return state, _trapezoid(self.state_cost(state.T) + self.effort(fine.T), self.grid.h)

    def costs(self, coarse: np.ndarray) -> np.ndarray:
        """The costs of B piecewise-constant controls, run as batches through the kernel.

        Member b's control on coarse interval j is ``coarse[j, :, b]``. A
        batch holds at most ``_BATCH`` members and keeps only their running
        state cost at each node.
        """
        grid = self.grid
        intervals = _intervals(grid.n_steps, coarse.shape[0])
        effort = self.effort(coarse.transpose(1, 0, 2))  # (M, B): each member's on each interval
        out = np.empty(coarse.shape[-1])
        for lo in range(0, out.size, _BATCH):
            by_interval = list(coarse[:, :, lo:lo + _BATCH])
            y0 = np.broadcast_to(self.x0[:, None], (self.x0.size, by_interval[0].shape[-1]))
            kept = _rk4(self.d, y0, grid.nodes, [by_interval[j] for j in intervals.tolist()],
                        self.p, keep=self.state_cost)
            for b, column in enumerate(kept.T, lo):
                out[b] = _trapezoid(column + effort[intervals, b], grid.h)
        return out

    def gradient(self, u: np.ndarray) -> np.ndarray:
        """Central differences of the cost in each coarse value of u, one batched run per shift.

        Member 2i shifts flat entry i of u up by ``_FD_STEP`` and member 2i+1
        down, and runs the whole horizon from x0.
        """
        coarse_steps, m = u.shape
        size = coarse_steps * m
        shifted = np.repeat(u[:, :, None], 2 * size, axis=2)
        flat, i = shifted.reshape(size, 2 * size), np.arange(size)
        flat[i, 2 * i] += _FD_STEP
        flat[i, 2 * i + 1] -= _FD_STEP
        costs = self.costs(shifted)
        return ((costs[0::2] - costs[1::2]) / (2.0 * _FD_STEP)).reshape(u.shape)


def best_constant_control(scenario, grid_points: int = 11) -> tuple[np.ndarray, float]:
    """First cheapest point of a uniform lattice of constant admissible controls, and its cost."""
    check_count("grid_points", grid_points, 2)
    model, p, w = scenario.model, scenario.params, scenario.weights
    return _best_constant(_Simulator(model, p, w, scenario.grid, scenario.initial_state()), w,
                          grid_points)


def _best_constant(sim: _Simulator, w, grid_points: int) -> tuple[np.ndarray, float]:
    """``best_constant_control`` for a checked problem, on its simulator."""
    axis = np.linspace(w.lower, w.upper, grid_points)
    mesh = np.meshgrid(*([axis] * sim.d.control_dim), indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    # the lattice as batch members on a single coarse interval
    costs = sim.costs(points.T[None])
    cheapest, low = None, np.inf
    for const, cost in zip(points, costs.tolist()):
        if cost < low:
            cheapest, low = const, cost
    return cheapest, low


def _spectral_step(du: np.ndarray, dgrad: np.ndarray, fallback: float) -> float:
    """The Barzilai-Borwein (BB1) trial step s.s / s.y, or ``2 * fallback``.

    s = ``du`` is the change in the iterate and y = ``dgrad`` the change in
    its gradient over the last accepted step, both (M, m) arrays. Without a
    positive, finite s.y (s = 0 after a fully clipped step, a stretch of
    negative curvature, a non-finite gradient), the trial step is the last
    accepted one, doubled.
    """
    sy = float(np.sum(du * dgrad))
    if 0.0 < sy < np.inf:
        return float(np.sum(du * du)) / sy
    return 2.0 * fallback


def solve_direct(scenario, coarse_steps: int = 50, max_iters: int = 100) -> Solution:
    """Projected finite-difference gradient descent on piecewise-constant controls.

    Starts from the cheapest point of a coarse lattice of constant controls,
    descends with Armijo backtracking, and stops once the sup-norm of the
    projected gradient falls below 1e-5 * (1 + |cost|) or the iteration
    budget runs out. The last accepted iterate is returned either way, and
    it is the cheapest, as no accepted step raises the cost (the Armijo test
    below, on a decrease sum(grad * (u - candidate)) that a projected step
    never makes negative). ``report.converged`` records whether the gradient
    test was met, and ``report.final_control_change`` the tested ratio at
    that iterate, or NaN if the budget ran out after an accepted step.

    The first trial step moves the largest gradient entry a quarter of the
    control range. Each later one is the Barzilai-Borwein step s.s / s.y
    (Barzilai & Borwein 1988; projected form: Birgin, Martinez & Raydan
    2000), with s the last accepted change in the control and y the change
    in the gradient over it. When s.y is not positive and finite (a step
    clipped to nothing, negative curvature), the trial step is the last
    accepted step doubled. A trial step is halved until it passes the
    monotone Armijo test on the projected candidate.

    Raises ``ValidationError`` unless coarse_steps and max_iters are
    integers with 1 <= coarse_steps <= n_steps and max_iters >= 1.
    """
    model, p, w = scenario.model, scenario.params, scenario.weights
    sim = _Simulator(model, p, w, scenario.grid, scenario.initial_state())
    d, grid = sim.d, sim.grid
    check_count("coarse_steps", coarse_steps, 1)
    if coarse_steps > grid.n_steps:
        raise ValidationError(f"coarse_steps must be <= {grid.n_steps} (n_steps), got {coarse_steps}")
    check_count("max_iters", max_iters, 1)

    lo, hi = w.lower, w.upper
    nu = d.control_dim

    const, cost = _best_constant(sim, w, _INIT_LATTICE_POINTS.get(nu, 5))
    u = np.tile(const, (coarse_steps, 1))

    history = [cost]
    converged = False
    line_search_failed = False
    step = None
    prev_u = prev_grad = None  # the last accepted step's start and its gradient

    for it in range(1, max_iters + 1):
        grad = sim.gradient(u)

        projected = u - np.clip(u - grad, lo, hi)
        pg_norm = float(np.max(np.abs(projected)))
        scale = 1.0 + abs(cost)
        if pg_norm < _GRAD_TOL * scale:
            converged = True
            break

        if step is None:
            step = 0.25 * (hi - lo) / max(float(np.max(np.abs(grad))), 1e-12)
        else:
            step = _spectral_step(u - prev_u, grad - prev_grad, step)
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            cand = np.clip(u - step * grad, lo, hi)
            cand_cost = sim.run(cand)[1]
            decrease = float(np.sum(grad * (u - cand)))
            if cand_cost <= cost - _ARMIJO * decrease:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            line_search_failed = True
            break
        prev_u, prev_grad = u, grad
        u, cost = cand, cand_cost
        history.append(cost)

    traj = Trajectory(grid, sim.run(u)[0], _fine_controls(u, grid.n_steps))
    msg = "direct method (projected finite-difference gradient descent)"
    if line_search_failed:
        msg += "; line search stalled, best iterate returned"
    report = SolveReport(
        iterations=it,
        converged=converged,
        cost_history=tuple(history),
        # no gradient is taken at an iterate accepted on the last iteration
        final_control_change=pg_norm / scale if converged or line_search_failed else float("nan"),
        message=msg,
    )
    return Solution(trajectory=traj, cost=cost, report=report)
