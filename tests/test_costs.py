import numpy as np
import pytest

from tbctrl import CostWeights, ModelId, integrate_forward, make_time_grid, total_cost
from tbctrl.core import Trajectory, ValidationError


def _seirs_traj(n_steps, state_fn, control_fn, tf=5.0):
    g = make_time_grid(0.0, tf, n_steps)
    t = g.nodes
    state = np.zeros((g.n_nodes, 4))
    state[:, 2] = state_fn(t)
    control = control_fn(t).reshape(-1, 1)
    return Trajectory(g, state, control)


class TestTrivialIntegrals:
    def test_zero_integrand(self):
        traj = _seirs_traj(100, lambda t: 0.0 * t, lambda t: 0.0 * t)
        w = CostWeights(a1=1.0, b=(100.0,))
        assert total_cost(ModelId.SEIRS, traj, w) == 0.0

    def test_constant_effort(self):
        # (B/2) * u^2 * (tf - t0) = 50 * 1 * 5
        traj = _seirs_traj(100, lambda t: 0.0 * t, lambda t: np.ones_like(t))
        w = CostWeights(a1=1.0, b=(100.0,))
        assert total_cost(ModelId.SEIRS, traj, w) == pytest.approx(250.0, rel=1e-13)

    def test_missing_controls_rejected(self):
        g = make_time_grid(0.0, 1.0, 4)
        traj = Trajectory(g, np.zeros((5, 4)))
        with pytest.raises(ValidationError):
            total_cost(ModelId.SEIRS, traj, CostWeights(a1=1.0, b=(1.0,)))


class TestAgainstRefinedQuadrature:
    def test_uncontrolled_flagship_cost(self, flagship):
        # oracle: trapezoid at double/quadruple resolution, Richardson-extrapolated
        cfg = flagship
        u = np.zeros((cfg.grid.n_nodes, 1))
        state = integrate_forward(cfg.model, cfg.params, cfg.initial_state(), u, cfg.grid)
        got = total_cost(cfg.model, Trajectory(cfg.grid, state, u), cfg.weights)

        def fine_cost(n):
            g = make_time_grid(0.0, 5.0, n)
            uu = np.zeros((g.n_nodes, 1))
            st = integrate_forward(cfg.model, cfg.params, cfg.initial_state(), uu, g)
            integrand = st[:, 2]  # a1 = 1, u = 0
            h = g.h
            return float(h * (integrand.sum() - 0.5 * (integrand[0] + integrand[-1])))

        c2, c4 = fine_cost(10000), fine_cost(20000)
        richardson = c4 + (c4 - c2) / 3.0
        assert got == pytest.approx(richardson, rel=1e-6)


class TestProperties:
    def test_monotone_in_weights(self):
        t_fn = lambda t: np.sin(t) + 2.0
        traj = _seirs_traj(200, t_fn, lambda t: 0.5 * np.ones_like(t))
        base = total_cost(ModelId.SEIRS, traj, CostWeights(a1=1.0, b=(50.0,)))
        more_a = total_cost(ModelId.SEIRS, traj, CostWeights(a1=2.0, b=(50.0,)))
        more_b = total_cost(ModelId.SEIRS, traj, CostWeights(a1=1.0, b=(80.0,)))
        assert more_a >= base and more_b >= base

    def test_second_order_convergence(self):
        # smooth integrand: halving h shrinks the quadrature error about 4x
        exact_state = (1.0 - np.cos(5.0)) + 2.0 * 5.0
        exact_effort = 50.0 * (2.5 + np.sin(10.0) / 4.0)
        exact = exact_state + exact_effort
        w = CostWeights(a1=1.0, b=(100.0,))
        errs = []
        for n in (100, 200, 400):
            traj = _seirs_traj(n, lambda t: np.sin(t) + 2.0, np.cos)
            errs.append(abs(total_cost(ModelId.SEIRS, traj, w) - exact))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)
