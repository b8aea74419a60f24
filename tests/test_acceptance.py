"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Expensive solves are
shared through the session-scoped store, so criteria may be run together or
individually.
"""

import time
import warnings
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from tbctrl import (ModelId, dynamics, get_scenario,
                    integrate_forward, make_time_grid, model_definition,
                    reduced_cost_gradient, solve_direct, solve_fbs, total_cost,
                    verify_adjoint_consistency, verify_control_stationarity)
from tbctrl.core import Trajectory
from tbctrl.models import has_baseline, neutral_control, uncontrolled_rhs
from tbctrl.scenario import sweep_points

SWEEP_SCENARIOS = ("seirs-fig2-sweep", "seirs-fig3-sweep", "seirs-fig4-sweep",
                   "seirs-fig5-sweep", "seirs-fig6-sweep")


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"FAIL: criterion {num} - {desc}")
        raise
    print(f"PASS: criterion {num} - {desc}")


def constant_run_cost(config, value):
    d = model_definition(config.model)
    u = np.full((config.grid.n_nodes, d.control_dim), value)
    state = integrate_forward(config.model, config.params, config.initial_state(),
                              u, config.grid)
    return state, total_cost(config.cost_kind, config.model,
                             Trajectory(config.grid, state, u), config.weights)


def infectious_fraction(config, trajectory):
    vec = np.array(model_definition(config.model).infectious)
    return (trajectory.state @ vec) / trajectory.state.sum(axis=1)


def all_sweep_solutions(solve_cached):
    out = []
    for name in SWEEP_SCENARIOS:
        cfg = get_scenario(name)
        for label, sub in sweep_points(cfg):
            out.append((name, label, sub, solve_cached.get(f"{name}:{label}", sub)))
    return out


def test_criterion_01_control_reduces_infectious_fraction(flagship, solve_cached):
    with criterion(1, "flagship solve converges in <30s; controlled I1/N <= baseline"):
        t0 = time.perf_counter()
        sol = solve_fbs(flagship)
        elapsed = time.perf_counter() - t0
        solve_cached.put("flagship-full", sol)
        assert sol.report.converged, sol.report.message
        assert elapsed < 30.0, f"flagship solve took {elapsed:.1f}s"
        base_state, _ = constant_run_cost(flagship, 0.0)
        frac_opt = infectious_fraction(flagship, sol.trajectory)
        frac_base = base_state[:, 2] / base_state.sum(axis=1)
        assert np.all(frac_opt[1:] <= frac_base[1:] + 1e-9)
        print(f"  (solve: {elapsed:.1f}s, {sol.report.iterations} iterations, "
              f"cost {sol.cost:.4f})")


def test_criterion_02_optimal_beats_constant_strategies(flagship, solve_cached):
    with criterion(2, "C(u*) <= min(C(0), C(1)) on flagship and all sweep points"):
        checks = [("flagship", flagship, solve_cached.get("flagship-full", flagship))]
        for name, label, sub, sol in all_sweep_solutions(solve_cached):
            checks.append((f"{name}[{label}]", sub, sol))
        for tag, cfg, sol in checks:
            assert sol.report.converged, f"{tag}: not converged"
            assert sol.trajectory.state_nonnegative, f"{tag}: negative compartments"
            _, c0 = constant_run_cost(cfg, 0.0)
            _, c1 = constant_run_cost(cfg, 1.0)
            bound = min(c0, c1) + 1e-8 * c0
            assert sol.cost <= bound, f"{tag}: {sol.cost} > min({c0}, {c1})"
        print(f"  ({len(checks)} configurations checked)")


def test_criterion_03_direct_method_agreement(flagship, solve_cached):
    with criterion(3, "independent direct optimizer within 1% of sweep cost"):
        fbs = solve_cached.get("flagship-full", flagship)
        t0 = time.perf_counter()
        direct = solve_direct(flagship, coarse_steps=50)
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0, f"direct method took {elapsed:.0f}s"
        rel = abs(fbs.cost - direct.cost) / direct.cost
        assert rel < 0.01, f"cost gap {rel:.4%}"
        print(f"  (direct {direct.cost:.4f} vs sweep {fbs.cost:.4f}: "
              f"gap {rel:.4%}, {elapsed:.0f}s)")


def test_criterion_04_adjoint_consistency_all_models():
    with criterion(4, "analytic adjoints match -dH/dx to 1e-6 for all 7 models"):
        worst = {}
        for mid in ModelId:
            r = verify_adjoint_consistency(mid, samples=100)
            worst[mid.value] = r.max_adjoint_residual
            assert r.max_adjoint_residual < 1e-6, f"{mid.value}: {r.max_adjoint_residual}"
        print("  (max residuals: " +
              ", ".join(f"{k}={v:.2e}" for k, v in worst.items()) + ")")


def test_criterion_05_control_law_attains_grid_minimum():
    with criterion(5, "control laws attain the 101-point grid minimum of H"):
        for mid in ModelId:
            r = verify_control_stationarity(mid, samples=100, grid_points=101)
            assert r.max_stationarity_residual <= 1e-10, (
                f"{mid.value}: {r.max_stationarity_residual}")


def test_criterion_06_population_conservation(flagship):
    with criterion(6, "constant-population setup conserves N to 1e-8 at n=5000"):
        mu, n_pop = 0.0143, 10000.0
        params = flagship.params.with_updates({"Lambda": mu * n_pop, "d1": 0.0})
        grid = make_time_grid(0.0, 5.0, 5000)
        u = np.full((grid.n_nodes, 1), 0.4)
        state = integrate_forward(ModelId.SEIRS, params, flagship.initial_state(), u, grid)
        pop = state.sum(axis=1)
        drift = float(np.max(np.abs(pop - pop[0])) / pop[0])
        assert drift < 1e-8, f"population drift {drift:.2e}"
        print(f"  (relative drift {drift:.2e})")


def test_criterion_07_reduction_identities_exact():
    with criterion(7, "neutral controls reproduce uncontrolled systems bitwise"):
        from tbctrl import default_params
        rng = np.random.default_rng(20260810)
        for mid in ModelId:
            if not has_baseline(mid):
                continue
            d = model_definition(mid)
            p = default_params(mid)
            u0 = neutral_control(mid)
            for _ in range(1000):
                x = rng.uniform(1.0, 1e4, size=d.state_dim)
                t = rng.uniform(0.0, 5.0)
                a = dynamics(mid, t, x, u0, p)
                b = uncontrolled_rhs(mid, t, x, p)
                assert np.array_equal(a, b), f"{mid.value}: mismatch at {x}"


def test_criterion_08_discretization_control(flagship, solve_cached):
    with criterion(8, "halving the step changes the optimal cost by < 1e-4"):
        sol = solve_cached.get("flagship-full", flagship)
        fine_cfg = replace(flagship, grid=make_time_grid(0.0, 5.0, 10000))
        fine = solve_cached.get("flagship-n10000", fine_cfg)
        assert fine.report.converged
        rel = abs(sol.cost - fine.cost) / fine.cost
        assert rel < 1e-4, f"cost changed by {rel:.2e} under step halving"
        print(f"  (n=5000: {sol.cost:.6f}, n=10000: {fine.cost:.6f}, gap {rel:.2e})")


def test_criterion_09_effort_weight_monotonicity(solve_cached):
    with criterion(9, "optimal cost non-decreasing across the effort-weight sweep"):
        cfg = get_scenario("fig4-sweep")
        rows = []
        for label, sub in sweep_points(cfg):
            sol = solve_cached.get(f"seirs-fig4-sweep:{label}", sub)
            assert sol.report.converged, label
            u = sol.trajectory.control
            duration = sub.grid.h * int(np.sum(np.all(u > 0.99, axis=1)))
            rows.append((label, sol.cost, duration))
        costs = [c for _, c, _ in rows]
        assert all(b >= a - 1e-12 for a, b in zip(costs, costs[1:])), costs
        durations = [d for _, _, d in rows]
        print("  (recorded durations with u>0.99: " +
              ", ".join(f"{lbl}: {d:.3f}y" for lbl, _, d in rows) + ")")
        if not all(b > a for a, b in zip(durations, durations[1:])):
            msg = ("documented discrepancy: duration at the control's upper bound "
                   f"is not increasing across the effort-weight sweep ({durations}); "
                   "the projected control law shrinks with larger effort weights, "
                   "so the maximal-control period contracts as B grows")
            print(f"  DISCREPANCY: {msg}")
            warnings.warn(msg)


def test_criterion_10_balanced_weights_monotone_decline(solve_cached):
    with criterion(10, "balanced weights: I1/N non-increasing (per-step slack 1e-6)"):
        worst = []
        for name in ("seirs-fig5-sweep", "seirs-fig6-sweep"):
            cfg = get_scenario(name)
            for label, sub in sweep_points(cfg):
                sol = solve_cached.get(f"{name}:{label}", sub)
                assert sol.report.converged, label
                frac = infectious_fraction(sub, sol.trajectory)
                increases = np.diff(frac)
                imax = int(np.argmax(increases))
                worst.append((f"{name}[{label}]", float(increases[imax]),
                              float(sub.grid.nodes[imax])))
        report = ", ".join(f"{tag}: {inc:.2e} at t={t:.3f}" for tag, inc, t in worst)
        print(f"  (max per-step increases: {report})")
        offenders = [w for w in worst if w[1] > 1e-6]
        assert not offenders, (
            "infectious fraction increases beyond the per-step slack in the final "
            "grid steps: the zero terminal adjoint forces the control to 0 at tf, "
            f"creating a terminal boundary layer; offenders: {offenders}")


def test_criterion_11_adjoint_gradient_matches_finite_differences(flagship):
    with criterion(11, "adjoint-route cost gradient matches finite differences to 1e-3"):
        cfg = flagship
        x0 = cfg.initial_state()
        control = np.full((cfg.grid.n_nodes, 1), 0.3)
        grad = reduced_cost_gradient(cfg.model, cfg.params, cfg.weights,
                                     cfg.grid, x0, control)

        def cost_of(u):
            state = integrate_forward(cfg.model, cfg.params, x0, u, cfg.grid)
            return total_cost(cfg.cost_kind, cfg.model,
                              Trajectory(cfg.grid, state, u), cfg.weights)

        rng = np.random.default_rng(42)
        nodes = rng.choice(np.arange(1, cfg.grid.n_steps), size=20, replace=False)
        delta = 1e-3
        worst = 0.0
        for j in nodes:
            up = control.copy()
            um = control.copy()
            up[j, 0] += delta
            um[j, 0] -= delta
            fd = (cost_of(up) - cost_of(um)) / (2 * delta)
            rel = abs(grad[j, 0] - fd) / max(abs(fd), 1e-12)
            worst = max(worst, rel)
            assert rel < 1e-3, f"node {j}: relative error {rel:.2e}"
        print(f"  (worst relative error over 20 nodes: {worst:.2e})")
