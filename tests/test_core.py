import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tbctrl.core import (CostWeights, ParameterSet, TimeTable, Trajectory,
                         ValidationError, interpolate_state, make_time_grid)


class TestTimeGrid:
    def test_unit_spacing(self):
        g = make_time_grid(0.0, 5.0, 5)
        assert np.array_equal(g.nodes, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0])

    def test_fine_step(self):
        g = make_time_grid(0.0, 5.0, 5000)
        assert g.h == pytest.approx(0.001, rel=0, abs=0)
        assert g.n_nodes == 5001

    def test_degenerate_horizon_rejected(self):
        with pytest.raises(ValidationError):
            make_time_grid(0.0, 0.0, 10)
        with pytest.raises(ValidationError):
            make_time_grid(2.0, 1.0, 10)

    def test_too_few_steps_rejected(self):
        with pytest.raises(ValidationError):
            make_time_grid(0.0, 1.0, 1)

    def test_non_integer_steps_rejected(self):
        with pytest.raises(ValidationError):
            make_time_grid(0.0, 1.0, 2.5)

    @given(t0=st.floats(-100, 100), span=st.floats(0.01, 1000),
           n=st.integers(2, 5000))
    def test_uniform_spacing_and_endpoints(self, t0, span, n):
        g = make_time_grid(t0, t0 + span, n)
        assert g.nodes[0] == t0
        assert g.nodes[-1] == t0 + span
        diffs = np.diff(g.nodes)
        scale = max(abs(t0), abs(t0 + span), 1.0)
        assert np.max(np.abs(diffs - g.h)) <= 8 * np.finfo(float).eps * scale


class TestInterpolateState:
    @pytest.fixture
    def traj(self):
        g = make_time_grid(0.0, 4.0, 4)
        state = np.arange(10.0).reshape(5, 2)
        return Trajectory(g, state, np.zeros((5, 1)))

    def test_exact_at_nodes(self, traj):
        for i, t in enumerate(traj.grid.nodes):
            assert np.array_equal(interpolate_state(traj, t), traj.state[i])

    def test_midpoint_is_average(self, traj):
        mid = interpolate_state(traj, 0.5)
        assert np.allclose(mid, 0.5 * (traj.state[0] + traj.state[1]), rtol=0, atol=0)

    def test_outside_grid_rejected(self, traj):
        with pytest.raises(ValidationError):
            interpolate_state(traj, traj.grid.tf + 1.0)
        with pytest.raises(ValidationError):
            interpolate_state(traj, traj.grid.t0 - 0.1)

    @given(t=st.floats(0.0, 4.0))
    def test_piecewise_linear(self, t):
        g = make_time_grid(0.0, 4.0, 4)
        state = np.column_stack([np.array([3.0, -1.0, 4.0, 1.0, 5.0]),
                                 np.array([0.0, 2.0, -2.0, 7.0, 1.0])])
        traj = Trajectory(g, state, np.zeros((5, 1)))
        got = interpolate_state(traj, t)
        i = min(int(t), 3)
        w = t - i
        expected = (1 - w) * state[i] + w * state[i + 1]
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-9)


class TestTrajectory:
    def test_shape_validation(self):
        g = make_time_grid(0.0, 1.0, 2)
        with pytest.raises(ValidationError):
            Trajectory(g, np.zeros((2, 4)))
        with pytest.raises(ValidationError):
            Trajectory(g, np.zeros((3, 4)), control=np.zeros((4, 1)))


class TestTimeTable:
    def test_interpolation_and_extrapolation(self):
        tab = TimeTable((0.0, 1.0, 3.0), (2.0, 4.0, 0.0))
        assert tab(0.5) == pytest.approx(3.0)
        assert tab(2.0) == pytest.approx(2.0)
        assert tab(-5.0) == 2.0  # constant extrapolation
        assert tab(10.0) == 0.0

    def test_times_must_increase(self):
        with pytest.raises(ValidationError):
            TimeTable((0.0, 0.0), (1.0, 2.0))

    @pytest.mark.parametrize("times", [(0.0, float("nan"), 3.0), (float("nan"),),
                                       (0.0, float("inf"))])
    def test_times_must_be_finite(self, times):
        with pytest.raises(ValidationError, match="^time table times must be finite$"):
            TimeTable(times, (0.05,) * len(times))


class TestParameterSet:
    def test_lookup_and_missing(self):
        p = ParameterSet({"beta": 13.0, "mu": 0.01, "c": 1.0})
        assert p.value("beta") == 13.0
        names = ("mu", "beta", "c")
        assert p.values(names) == tuple(p.value(n) for n in names) == (0.01, 13.0, 1.0)
        assert p.values(names, 7.0) == p.values(names)  # constants ignore t
        for lookup in (lambda: p.value("sigma"), lambda: p.values(("beta", "sigma"))):
            with pytest.raises(ValidationError, match=r"^missing parameter 'sigma'$"):
                lookup()

    def test_time_dependent_entry(self):
        p = ParameterSet({"beta": 13.0, "k": TimeTable((0.0, 10.0), (1.0, 2.0))})
        assert isinstance(p.raw("k"), TimeTable)
        assert p.value("k", 5.0) == pytest.approx(1.5)
        assert p.values(("k", "beta"), 5.0) == (p.value("k", 5.0), 13.0)
        assert p.values(("k",)) == (1.0,)
        # sweeps send scenarios to worker processes
        q = pickle.loads(pickle.dumps(p))
        assert q == p and q.values(("k", "beta"), 5.0) == p.values(("k", "beta"), 5.0)

    def test_time_column_matches_per_time_lookups(self):
        # one lookup over a (k, 1) column of times equals k lookups, bitwise, and keeps its shape
        tab = TimeTable((0.0, 1.5, 5.0), (0.01, 0.03, 0.02))
        p = ParameterSet({"beta": 13.0, "mu": tab, "k": TimeTable((2.0,), (0.4,))})
        names = ("mu", "beta", "k")
        t = np.random.default_rng(5).uniform(-1.0, 6.0, size=(500, 1))
        t[:4, 0] = (0.0, 1.5, 5.0, 2.0)  # the knots themselves
        mu, beta, k = p.values(names, t)
        assert mu.shape == k.shape == (500, 1) and type(beta) is float
        for i, ti in enumerate(t[:, 0].tolist()):
            want = p.values(names, ti)
            assert (mu[i, 0].tobytes(), beta, k[i, 0].tobytes()) == (
                np.float64(want[0]).tobytes(), want[1], np.float64(want[2]).tobytes())
            assert type(want[0]) is float and tab(ti) == want[0]

    def test_with_updates_leaves_original(self):
        p = ParameterSet({"beta": 13.0})
        q = p.with_updates({"beta": 15.0, "mu": 0.01})
        assert p.value("beta") == 13.0
        assert q.value("beta") == 15.0 and q.value("mu") == 0.01
        r = p.with_updates({"beta": TimeTable((0.0, 10.0), (1.0, 2.0))})
        assert r.values(("beta",), 5.0) == (1.5,) and p.values(("beta",), 5.0) == (13.0,)

    def test_rejects_non_numeric(self):
        with pytest.raises(ValidationError):
            ParameterSet({"beta": "fast"})


class TestCostWeights:
    def test_zero_effort_weight_rejected(self):
        with pytest.raises(ValidationError):
            CostWeights(a1=1.0, b=(0.0,))

    def test_negative_state_weight_rejected(self):
        with pytest.raises(ValidationError):
            CostWeights(a1=-1.0, b=(1.0,))

    def test_bounds_must_be_ordered(self):
        with pytest.raises(ValidationError):
            CostWeights(b=(1.0,), lower=1.0, upper=0.0)

    @pytest.mark.parametrize("lower, upper", [(0.0, np.inf), (-np.inf, 1.0),
                                              (-np.inf, np.inf)])
    def test_bounds_must_be_finite(self, lower, upper):
        with pytest.raises(ValidationError, match="finite"):
            CostWeights(b=(1.0,), lower=lower, upper=upper)

    def test_scalar_b_normalized(self):
        w = CostWeights(b=2.0)
        assert w.b == (2.0,)
