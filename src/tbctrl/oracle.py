"""Independent direct optimizer used to cross-check sweep solutions.

Controls are piecewise-constant on a coarse grid; the objective gradient is
estimated by central finite differences of simulate-then-integrate, and the
iteration is projected gradient descent with Armijo backtracking. The state
integrator is shared with the sweep solver, but the cost quadrature and its
assembly are written here independently, and no adjoint code is reused.
"""

from __future__ import annotations

import numpy as np

from .core import CostWeights, TimeGrid, Trajectory, ValidationError
from . import models
from .models import ModelId
from .solver import SolveReport, Solution, _rk4, validate_problem

__all__ = ["solve_direct", "best_constant_control"]

_ARMIJO = 1e-4
_MAX_BACKTRACKS = 30


def _coarse_boundaries(n_steps: int, coarse_steps: int) -> np.ndarray:
    """First fine node of each coarse interval (right-continuous mapping)."""
    j = np.arange(coarse_steps)
    return -(-j * n_steps // coarse_steps)  # ceil(j*n/M)


def _fine_controls(u_coarse: np.ndarray, n_steps: int) -> np.ndarray:
    m = u_coarse.shape[0]
    idx = np.minimum(np.arange(n_steps + 1) * m // n_steps, m - 1)
    return u_coarse[idx]


class _CostPath:
    """Oracle-side objective: running cost re-assembled locally, cumulative trapezoid."""

    def __init__(self, model: ModelId, w: CostWeights):
        d = models.model_definition(model)
        vec = w.a1 * np.array(d.infectious) + w.a2 * np.array(d.latent)
        if d.isolated is not None:
            vec = vec + w.a_isolated * np.array(d.isolated)
        self.state_vec = vec
        self.b = w.b_array

    def integrand(self, state: np.ndarray, control: np.ndarray) -> np.ndarray:
        return state @ self.state_vec + 0.5 * (np.square(control) @ self.b)

    def integral(self, values: np.ndarray, h: float) -> float:
        return float(h * (np.sum(values) - 0.5 * (values[0] + values[-1])))


class _Simulator:
    """Full and suffix-restart simulations of the piecewise-constant objective."""

    def __init__(self, model, p, w, grid: TimeGrid, x0, coarse_steps: int):
        self.d = models.model_definition(model)
        self.p = p
        self.grid = grid
        self.x0 = np.asarray(x0, dtype=float)
        self.m = coarse_steps
        self.bounds = _coarse_boundaries(grid.n_steps, coarse_steps)
        self.cost_path = _CostPath(model, w)
        self.evaluations = 0

    def run(self, x0: np.ndarray, fine: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        return _rk4(self.d.rhs, x0, nodes, (fine,), "state", self.p, self.d.required_params)

    def cost(self, u_coarse: np.ndarray) -> float:
        fine = _fine_controls(u_coarse, self.grid.n_steps)
        state = self.run(self.x0, fine, self.grid.nodes)
        self.evaluations += 1
        g = self.cost_path.integrand(state, fine)
        return self.cost_path.integral(g, self.grid.h)

    def base_run(self, u_coarse: np.ndarray):
        """Full run caching states and prefix costs for suffix restarts."""
        fine = _fine_controls(u_coarse, self.grid.n_steps)
        state = self.run(self.x0, fine, self.grid.nodes)
        self.evaluations += 1
        g = self.cost_path.integrand(state, fine)
        h = self.grid.h
        prefix = np.concatenate(([0.0], np.cumsum(0.5 * h * (g[:-1] + g[1:]))))
        return state, prefix

    def suffix_cost(self, u_coarse: np.ndarray, coord: int, base_state, base_prefix) -> float:
        """Objective with coordinate ``coord`` perturbed, restarting just before it."""
        start = max(int(self.bounds[coord]) - 1, 0)
        fine = _fine_controls(u_coarse, self.grid.n_steps)
        nodes = self.grid.nodes[start:]
        state = self.run(base_state[start], fine[start:], nodes)
        g = self.cost_path.integrand(state, fine[start:])
        return float(base_prefix[start]) + self.cost_path.integral(g, self.grid.h)


def _init_lattice_points(control_dim: int) -> int:
    return {1: 11, 2: 7}.get(control_dim, 5)


def _best_constant(sim: _Simulator, control_dim: int, grid_points: int,
                   lo: float, hi: float) -> tuple[np.ndarray, float]:
    """First cheapest point of a uniform lattice of constant controls, and its cost."""
    axis = np.linspace(lo, hi, grid_points)
    mesh = np.meshgrid(*([axis] * control_dim), indexing="ij")
    best_u = None
    best_cost = np.inf
    for const in np.stack([m.ravel() for m in mesh], axis=-1):
        cost = sim.cost(const.reshape(1, -1))
        if cost < best_cost:
            best_cost = cost
            best_u = const
    return best_u, best_cost


def best_constant_control(scenario, grid_points: int = 11) -> tuple[np.ndarray, float]:
    """Exhaustive search over a uniform lattice of constant admissible controls."""
    if grid_points < 2:
        raise ValidationError(f"grid_points must be >= 2, got {grid_points}")
    model, p, w = scenario.model, scenario.params, scenario.weights
    validate_problem(model, p, w)
    d = models.model_definition(model)
    sim = _Simulator(model, p, w, scenario.grid, scenario.initial_state(), 1)
    return _best_constant(sim, d.control_dim, grid_points, w.lower, w.upper)


def solve_direct(scenario, coarse_steps: int = 50, fd_step: float = 1e-4,
                 max_iters: int = 100, grad_tol_scale: float = 1e-5,
                 init_grid_points: int | None = None) -> Solution:
    """Projected finite-difference gradient descent on piecewise-constant controls.

    Starts from the cheapest point of a coarse lattice of constant controls,
    descends with Armijo backtracking, and stops once the sup-norm of the
    projected gradient falls below grad_tol_scale * (1 + |cost|) or the
    iteration budget runs out. The best evaluated iterate is returned either
    way; ``report.converged`` records whether the gradient test was met.
    """
    model, p, w = scenario.model, scenario.params, scenario.weights
    validate_problem(model, p, w)
    d = models.model_definition(model)
    grid = scenario.grid
    if coarse_steps < 1 or coarse_steps > grid.n_steps:
        raise ValidationError(
            f"coarse_steps must lie in [1, {grid.n_steps}], got {coarse_steps}")
    if not fd_step > 0.0:
        raise ValidationError(f"fd_step must be positive, got {fd_step}")

    sim = _Simulator(model, p, w, grid, scenario.initial_state(), coarse_steps)
    lo, hi = w.lower, w.upper
    nu = d.control_dim

    pts = init_grid_points if init_grid_points is not None else _init_lattice_points(nu)
    const, cost = _best_constant(sim, nu, pts, lo, hi)
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
        base_state, base_prefix = sim.base_run(u)
        grad = np.empty_like(u)
        flat = u.reshape(-1)
        for jc in range(coarse_steps):
            for kc in range(nu):
                idx = jc * nu + kc
                orig = flat[idx]
                flat[idx] = orig + fd_step
                up = sim.suffix_cost(u, jc, base_state, base_prefix)
                flat[idx] = orig - fd_step
                down = sim.suffix_cost(u, jc, base_state, base_prefix)
                flat[idx] = orig
                grad[jc, kc] = (up - down) / (2.0 * fd_step)

        projected = u - np.clip(u - grad, lo, hi)
        pg_norm = float(np.max(np.abs(projected)))
        scale = 1.0 + abs(cost)
        if pg_norm < grad_tol_scale * scale:
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

    fine = _fine_controls(best_u, grid.n_steps)
    state = sim.run(sim.x0, fine, grid.nodes)
    traj = Trajectory(grid, state, fine)
    msg = "direct method (projected finite-difference gradient descent)"
    if line_search_failed:
        msg += "; line search stalled, best iterate returned"
    report = SolveReport(
        iterations=iterations,
        converged=converged,
        cost_history=tuple(history),
        final_control_change=float("nan"),
        final_adjoint_residual=None,
        message=msg,
    )
    return Solution(trajectory=traj, cost=best_cost, report=report)
