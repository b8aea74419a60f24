"""Independent direct optimizer used to cross-check sweep solutions.

Controls are piecewise-constant on a coarse grid; the objective gradient is
estimated by central finite differences of simulate-then-integrate, and the
iteration is projected gradient descent with Armijo backtracking. The state
integrator is shared with the sweep solver, but the cost quadrature and its
assembly are written here independently, and no adjoint code is reused.
"""

from __future__ import annotations

import numpy as np

from .core import TimeGrid, Trajectory, ValidationError
from . import models
from .solver import SolveReport, Solution, _rk4

__all__ = ["solve_direct", "best_constant_control"]

_ARMIJO = 1e-4
_MAX_BACKTRACKS = 30
_GRAD_TOL = 1e-5
_FD_STEP = 1e-4  # central-difference step in each coarse control value
# constant-control lattice points per axis for the starting point, by control_dim
_INIT_LATTICE_POINTS = {1: 11, 2: 7}


def _coarse_boundaries(n_steps: int, coarse_steps: int) -> np.ndarray:
    """First fine node of each coarse interval (right-continuous mapping)."""
    j = np.arange(coarse_steps)
    return -(-j * n_steps // coarse_steps)  # ceil(j*n/M)


def _fine_controls(u_coarse: np.ndarray, n_steps: int) -> np.ndarray:
    m = u_coarse.shape[0]
    idx = np.minimum(np.arange(n_steps + 1) * m // n_steps, m - 1)
    return u_coarse[idx]


class _Simulator:
    """Restartable simulate-then-integrate of the piecewise-constant objective.

    The running cost is assembled here from the model's weight patterns, not
    taken from :mod:`tbctrl.costs`.
    """

    def __init__(self, model, p, w, grid: TimeGrid, x0):
        self.d = d = models.model_definition(model)
        self.p = p
        self.grid = grid
        self.x0 = np.asarray(x0, dtype=float)
        vec = w.a1 * np.array(d.infectious) + w.a2 * np.array(d.latent)
        if d.isolated is not None:
            vec = vec + w.a_isolated * np.array(d.isolated)
        self.state_vec = vec
        self.b = w.b_array

    def run(self, u_coarse: np.ndarray, start: int = 0, x_start=None):
        """States from node ``start`` (at ``x_start``, default x0) and the running cost at each."""
        fine = _fine_controls(u_coarse, self.grid.n_steps)[start:]
        x = self.x0 if x_start is None else x_start
        state = _rk4(self.d.rhs, x, self.grid.nodes[start:], (fine,), "state",
                     self.p, self.d.required_params)
        return state, state @ self.state_vec + 0.5 * (np.square(fine) @ self.b)

    def cost(self, u_coarse: np.ndarray, start: int = 0, x_start=None,
             prefix: float = 0.0) -> float:
        """``prefix`` plus the trapezoid integral of the running cost from node ``start``."""
        _, g = self.run(u_coarse, start, x_start)
        return prefix + float(self.grid.h * (np.sum(g) - 0.5 * (g[0] + g[-1])))


def best_constant_control(scenario, grid_points: int = 11) -> tuple[np.ndarray, float]:
    """First cheapest point of a uniform lattice of constant admissible controls, and its cost."""
    if grid_points < 2:
        raise ValidationError(f"grid_points must be >= 2, got {grid_points}")
    model, p, w = scenario.model, scenario.params, scenario.weights
    d = models.validate_problem(model, p, w, scenario.cost_kind)
    sim = _Simulator(model, p, w, scenario.grid, scenario.initial_state())
    axis = np.linspace(w.lower, w.upper, grid_points)
    mesh = np.meshgrid(*([axis] * d.control_dim), indexing="ij")
    best_u = None
    best_cost = np.inf
    for const in np.stack([m.ravel() for m in mesh], axis=-1):
        cost = sim.cost(const.reshape(1, -1))
        if cost < best_cost:
            best_cost = cost
            best_u = const
    return best_u, best_cost


def solve_direct(scenario, coarse_steps: int = 50, max_iters: int = 100) -> Solution:
    """Projected finite-difference gradient descent on piecewise-constant controls.

    Starts from the cheapest point of a coarse lattice of constant controls,
    descends with Armijo backtracking, and stops once the sup-norm of the
    projected gradient falls below 1e-5 * (1 + |cost|) or the iteration
    budget runs out. The best evaluated iterate is returned either way;
    ``report.converged`` records whether the gradient test was met.
    """
    model, p, w = scenario.model, scenario.params, scenario.weights
    d = models.validate_problem(model, p, w, scenario.cost_kind)
    grid = scenario.grid
    if coarse_steps < 1 or coarse_steps > grid.n_steps:
        raise ValidationError(
            f"coarse_steps must lie in [1, {grid.n_steps}], got {coarse_steps}")

    sim = _Simulator(model, p, w, grid, scenario.initial_state())
    lo, hi = w.lower, w.upper
    nu = d.control_dim
    # the RK4 step into an interval's first node already reads that interval's
    # control, so a perturbed coordinate's run restarts one node earlier
    starts = np.maximum(_coarse_boundaries(grid.n_steps, coarse_steps) - 1, 0)

    const, cost = best_constant_control(scenario, _INIT_LATTICE_POINTS.get(nu, 5))
    u = np.tile(const, (coarse_steps, 1))
    best_cost = cost
    best_u = u.copy()

    history = [cost]
    converged = False
    line_search_failed = False
    step = None
    iterations = 0

    for it in range(1, max_iters + 1):
        iterations = it
        base_state, g = sim.run(u)
        prefix = np.concatenate(([0.0], np.cumsum(0.5 * grid.h * (g[:-1] + g[1:]))))
        grad = np.empty_like(u)
        flat = u.reshape(-1)
        for jc in range(coarse_steps):
            start = int(starts[jc])
            x_start, pre = base_state[start], float(prefix[start])
            for kc in range(nu):
                idx = jc * nu + kc
                orig = flat[idx]
                flat[idx] = orig + _FD_STEP
                up = sim.cost(u, start, x_start, pre)
                flat[idx] = orig - _FD_STEP
                down = sim.cost(u, start, x_start, pre)
                flat[idx] = orig
                grad[jc, kc] = (up - down) / (2.0 * _FD_STEP)

        projected = u - np.clip(u - grad, lo, hi)
        pg_norm = float(np.max(np.abs(projected)))
        scale = 1.0 + abs(cost)
        if pg_norm < _GRAD_TOL * scale:
            converged = True
            break

        if step is None:
            step = 0.25 * (hi - lo) / max(float(np.max(np.abs(grad))), 1e-12)
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            cand = np.clip(u - step * grad, lo, hi)
            cand_cost = sim.cost(cand)
            decrease = float(np.sum(grad * (u - cand)))
            if cand_cost <= cost - _ARMIJO * decrease:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            line_search_failed = True
            break
        u = cand
        cost = cand_cost
        history.append(cost)
        if cost < best_cost:
            best_cost = cost
            best_u = u.copy()
        step *= 2.0

    state, _ = sim.run(best_u)
    traj = Trajectory(grid, state, _fine_controls(best_u, grid.n_steps))
    msg = "direct method (projected finite-difference gradient descent)"
    if line_search_failed:
        msg += "; line search stalled, best iterate returned"
    report = SolveReport(
        iterations=iterations,
        converged=converged,
        cost_history=tuple(history),
        final_control_change=float("nan"),
        message=msg,
    )
    return Solution(trajectory=traj, cost=best_cost, report=report)
