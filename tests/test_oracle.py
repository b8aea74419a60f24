from dataclasses import replace

import numpy as np
import pytest

from tbctrl import best_constant_control, solve_direct
from tbctrl.core import ValidationError


@pytest.fixture(scope="module")
def direct_n1000(flagship, shrink):
    return solve_direct(shrink(flagship, 1000), coarse_steps=25, max_iters=60)


class TestSolveDirect:
    def test_zero_state_weight_stays_at_zero(self, flagship, shrink):
        cfg = shrink(flagship, 400)
        cfg = replace(cfg, weights=replace(cfg.weights, a1=0.0))
        sol = solve_direct(cfg, coarse_steps=10, max_iters=5)
        assert sol.report.converged
        assert sol.cost == 0.0
        assert np.array_equal(sol.trajectory.control,
                              np.zeros_like(sol.trajectory.control))

    def test_huge_effort_weight_gives_zero_control(self, flagship, shrink):
        cfg = shrink(flagship, 400)
        cfg = replace(cfg, weights=replace(cfg.weights, b=(1e12,)))
        sol = solve_direct(cfg, coarse_steps=10, max_iters=10)
        assert float(np.max(np.abs(sol.trajectory.control))) < 1e-3

    def test_agrees_with_sweep_solver(self, flagship, shrink, solve_cached, direct_n1000):
        cfg = shrink(flagship, 1000)
        fbs = solve_cached.get("flagship-n1000", cfg)
        assert abs(fbs.cost - direct_n1000.cost) / direct_n1000.cost < 0.01

    def test_precondition_validation(self, flagship, shrink):
        cfg = shrink(flagship, 100)
        with pytest.raises(ValidationError):
            solve_direct(cfg, coarse_steps=101)
        with pytest.raises(ValidationError):
            solve_direct(cfg, coarse_steps=0)


class TestBestConstantControl:
    def test_zero_state_weight_prefers_zero(self, flagship, shrink):
        cfg = shrink(flagship, 300)
        cfg = replace(cfg, weights=replace(cfg.weights, a1=0.0))
        const, cost = best_constant_control(cfg, grid_points=5)
        assert const[0] == 0.0 and cost == 0.0

    def test_beats_endpoint_strategies(self, flagship, shrink):
        from tbctrl import integrate_forward, total_cost
        from tbctrl.core import Trajectory
        cfg = shrink(flagship, 300)
        _, best = best_constant_control(cfg, grid_points=11)
        _, endpoints_only = best_constant_control(cfg, grid_points=2)
        assert best <= endpoints_only  # u=0 and u=1 are lattice points

        def const_cost(v):
            u = np.full((cfg.grid.n_nodes, 1), v)
            state = integrate_forward(cfg.model, cfg.params, cfg.initial_state(),
                                      u, cfg.grid)
            return total_cost(cfg.cost_kind, cfg.model, Trajectory(cfg.grid, state, u),
                              cfg.weights)

        # same integral through the separately written quadrature path
        bound = min(const_cost(0.0), const_cost(1.0))
        assert best <= bound * (1 + 1e-12)

    def test_direct_improves_on_constants(self, flagship, shrink, direct_n1000):
        cfg = shrink(flagship, 1000)
        _, const_cost = best_constant_control(cfg, grid_points=11)
        assert direct_n1000.cost <= const_cost

    def test_grid_points_validation(self, flagship, shrink):
        with pytest.raises(ValidationError):
            best_constant_control(shrink(flagship, 100), grid_points=1)
