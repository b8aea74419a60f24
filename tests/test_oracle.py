from dataclasses import replace

import numpy as np
import pytest

from tbctrl import (CostWeights, ModelId, best_constant_control, default_params,
                    make_time_grid, model_definition, oracle, solve_direct, solve_fbs)
from tbctrl.core import TimeTable, ValidationError
from tbctrl.oracle import _FD_STEP, _Simulator, _spectral_step
from tbctrl.scenario import ScenarioConfig
from tbctrl.solver import FbsSettings, _rk4

from conftest import source_a2

# a last initial fraction that solve_fbs refuses, and the rule it breaks
BAD_INITIAL = pytest.mark.parametrize("bad, rule", [(-1 / 120, "nonnegative"), (np.nan, "finite"),
                                                    (np.inf, "finite")], ids=["negative", "nan", "inf"])


def bad_flagship(flagship, shrink, bad):
    """The flagship at 100 steps with initial fractions (76, 38, 7, 120 * bad) / 120."""
    return replace(shrink(flagship, 100), initial_values=(76 / 120, 38 / 120, 7 / 120, bad))


def model_config(mid, n_steps, time_table=False):
    """A scenario on a model's defaults; korea's mu as a time table when asked."""
    d = model_definition(mid)
    p = default_params(mid)
    if time_table:
        mu = p.value("mu")
        p = p.with_updates({"mu": TimeTable((0.0, 2.0, 5.0), (mu, 1.5 * mu, mu))})
    return ScenarioConfig(
        name=f"{mid.value}-default", model=mid, params=p, initial_mode="counts",
        initial_values=(7000.0, 2000.0, 1000.0) + (100.0,) * (d.state_dim - 3),
        grid=make_time_grid(0.0, 5.0, n_steps),
        weights=CostWeights(a1=1.0, a2=source_a2(mid), b=(50.0,) * d.control_dim),
        fbs=FbsSettings())


def scalar_gradient(sim, u):
    """Central differences from one whole-horizon float run per shifted coarse value."""
    grad = np.empty_like(u)
    for (j, k), value in np.ndenumerate(u):
        costs = []
        for shifted in (value + _FD_STEP, value - _FD_STEP):
            v = u.copy()
            v[j, k] = shifted
            costs.append(sim.run(v)[1])
        grad[j, k] = (costs[0] - costs[1]) / (2.0 * _FD_STEP)
    return grad


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
        for max_iters in (0, -3):
            with pytest.raises(ValidationError, match="max_iters"):
                solve_direct(cfg, coarse_steps=10, max_iters=max_iters)

    @BAD_INITIAL
    def test_initial_state_validation(self, flagship, shrink, bad, rule):
        cfg = bad_flagship(flagship, shrink, bad)
        for solve in (solve_fbs, lambda c: solve_direct(c, coarse_steps=5, max_iters=2)):
            with pytest.raises(ValidationError, match=f"^seirs: initial state must be {rule}$"):
                solve(cfg)

    def test_stalled_line_search_returns_the_lattice_start(self, flagship, shrink, monkeypatch):
        # with no trial step allowed, the first line search fails at once
        monkeypatch.setattr(oracle, "_MAX_BACKTRACKS", 0)
        cfg = shrink(flagship, 100)
        sol = solve_direct(cfg, coarse_steps=5)
        assert not sol.report.converged
        assert sol.report.iterations == 1
        assert sol.report.message.endswith("; line search stalled, best iterate returned")
        const, cost = best_constant_control(cfg, oracle._INIT_LATTICE_POINTS[1])
        assert sol.cost == cost
        assert np.array_equal(sol.trajectory.control, np.tile(const, (cfg.grid.n_nodes, 1)))

    @pytest.mark.parametrize("ends", ["converged", "budget", "stalled"])
    def test_report_records_the_stop_test(self, flagship, shrink, monkeypatch, ends):
        # final_control_change is sup |projected gradient| / (1 + |cost|) at the returned
        # iterate, which has no gradient when the budget ends on an accepted step
        if ends == "stalled":
            monkeypatch.setattr(oracle, "_MAX_BACKTRACKS", 0)
        cfg = shrink(flagship, 100)
        sol = solve_direct(cfg, coarse_steps=5, max_iters=1 if ends == "budget" else 100)
        report, change = sol.report, sol.report.final_control_change
        assert report.converged == (ends == "converged")
        assert report.cost_history[-1] == sol.cost
        # the returned state is the float run of the returned control, and the cost its cost
        sim = _Simulator(cfg.model, cfg.params, cfg.weights, cfg.grid, cfg.initial_state())
        control = sol.trajectory.control
        assert np.array_equal(sol.trajectory.state,
                              _rk4(sim.d, sim.x0, cfg.grid.nodes, control, cfg.params))
        assert sol.cost == sim.run(control[::20][:5])[1]  # interval j starts at node 20 j
        if ends == "converged":
            assert 0.0 <= change < oracle._GRAD_TOL
        elif ends == "budget":
            assert report.iterations == 1 and len(report.cost_history) == 2
            assert np.isnan(change)
        else:
            assert oracle._GRAD_TOL <= change < np.inf

    def test_flagship_spectral_steps_converge_fast(self, flagship, shrink):
        # 18 iterations with the doubled-step rule alone
        sol = solve_direct(shrink(flagship, 500), coarse_steps=25)
        assert sol.report.converged
        assert sol.report.iterations <= 10
        assert sol.cost <= 632.7243200783862 * (1 + 1e-9)

    @pytest.mark.parametrize("mid", list(ModelId))
    def test_cross_checks_every_model(self, mid, default_config, solve_cached):
        cfg = default_config(mid, 500)
        sol = solve_direct(cfg, coarse_steps=20)
        assert sol.report.converged, sol.report.message
        _, const_cost = best_constant_control(cfg)
        assert sol.cost <= const_cost
        fbs = solve_cached.get(f"{mid.value}-default-n500", cfg)
        assert abs(sol.cost - fbs.cost) / sol.cost < 0.01

    @pytest.mark.parametrize("mid", [m for m in ModelId if source_a2(m) == 0.0])
    def test_latent_weight_on_infectious_only_models(self, mid, default_config):
        # the weights alone state the objective: a2 = 1 on a model whose source
        # objective weighs only the infectious class is a valid problem
        cfg = default_config(mid, 500)
        cfg = replace(cfg, weights=replace(cfg.weights, a2=1.0))
        fbs = solve_fbs(cfg)
        assert fbs.report.converged, fbs.report.message
        sol = solve_direct(cfg, coarse_steps=20)
        assert sol.report.converged, sol.report.message
        assert abs(sol.cost - fbs.cost) / sol.cost < 0.01


class TestSpectralStep:
    def test_two_point_step_on_positive_curvature(self):
        du = np.array([[0.1, -0.2], [0.3, 0.0]])
        dgrad = np.array([[0.4, -0.1], [0.5, 2.0]])
        expected = np.sum(du * du) / np.sum(du * dgrad)
        assert _spectral_step(du, dgrad, 0.7) == expected
        # on a quadratic with Hessian c*I the step is 1/c
        assert _spectral_step(du, 4.0 * du, 0.7) == pytest.approx(0.25, rel=1e-15)

    def test_doubles_the_last_step_without_positive_finite_curvature(self):
        du = np.array([[0.1], [-0.2]])
        assert _spectral_step(du, -du, 0.3) == 0.6  # s.y < 0
        assert _spectral_step(du, np.array([[0.2], [0.1]]), 0.3) == 0.6  # s.y = 0
        zero = np.zeros((2, 1))
        assert _spectral_step(zero, np.array([[1.0], [2.0]]), 0.3) == 0.6  # fully clipped
        assert _spectral_step(du, np.array([[np.inf], [0.0]]), 0.3) == 0.6
        assert _spectral_step(du, np.array([[np.nan], [1.0]]), 0.3) == 0.6


class TestBatchedGradient:
    @pytest.mark.parametrize("mid", list(ModelId))
    def test_matches_scalar_runs(self, mid, monkeypatch):
        cfg = model_config(mid, 100, time_table=mid is ModelId.KOREA)
        d = model_definition(mid)
        # every weight pattern in play, so the running cost sums several terms
        w = CostWeights(a1=1.0, a2=0.7, b=tuple(np.linspace(30.0, 70.0, d.control_dim)),
                        a_isolated=0.4 if d.isolated is not None else 0.0)
        sim = _Simulator(mid, cfg.params, w, cfg.grid, cfg.initial_state())
        u = np.random.default_rng(7).uniform(0.2, 0.8, (7, d.control_dim))
        reference = scalar_gradient(sim, u)
        assert np.array_equal(sim.gradient(u), reference)
        monkeypatch.setattr(oracle, "_BATCH", 5)  # several batches, the last one narrower
        assert np.array_equal(sim.gradient(u), reference)

    @pytest.mark.parametrize("mid", list(ModelId))
    def test_solve_direct_on_every_model(self, mid):
        sol = solve_direct(model_config(mid, 100), coarse_steps=5, max_iters=2)
        _, const_cost = best_constant_control(model_config(mid, 100), grid_points=3)
        assert np.isfinite(sol.cost) and sol.cost <= const_cost
        assert sol.report.iterations >= 1


class TestBestConstantControl:
    @pytest.mark.parametrize("mid, points", [(ModelId.SEIRS, 11), (ModelId.BOWONG, 7)])
    def test_lattice_batch_matches_scalar_loop(self, mid, points):
        cfg = model_config(mid, 200)
        sim = _Simulator(mid, cfg.params, cfg.weights, cfg.grid, cfg.initial_state())
        axis = np.linspace(0.0, 1.0, points)
        best_u, best_cost = None, np.inf
        for const in np.stack(np.meshgrid(*[axis] * len(cfg.weights.b), indexing="ij"),
                              axis=-1).reshape(-1, len(cfg.weights.b)):
            cost = sim.run(const.reshape(1, -1))[1]
            if cost < best_cost:
                best_u, best_cost = const, cost
        const, cost = best_constant_control(cfg, grid_points=points)
        assert np.array_equal(const, best_u) and cost == best_cost

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
            return total_cost(cfg.model, Trajectory(cfg.grid, state, u), cfg.weights)

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

    @BAD_INITIAL
    def test_initial_state_validation(self, flagship, shrink, bad, rule):
        with pytest.raises(ValidationError, match=f"^seirs: initial state must be {rule}$"):
            best_constant_control(bad_flagship(flagship, shrink, bad))
