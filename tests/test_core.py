import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tbctrl.core import (CostWeights, ParameterSet, TimeGrid, TimeTable, Trajectory,
                         ValidationError, interpolate_state, make_time_grid)
from tbctrl.models import ModelId
from tbctrl.oracle import best_constant_control, solve_direct
from tbctrl.pmp import verify_adjoint_consistency, verify_control_stationarity
from tbctrl.solver import FbsSettings


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
        with pytest.raises(ValidationError, match="^time grid endpoints must be finite$"):
            make_time_grid(0.0, math.inf, 10)

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


# Every count argument of the library, by entry point and name: its least value, and
# a call that passes it v on a small flagship scenario.
SEIRS = ModelId.SEIRS
COUNT_ARGUMENTS = {
    "FbsSettings.max_iterations": (1, lambda cfg, v: FbsSettings(max_iterations=v)),
    "make_time_grid.n_steps": (2, lambda cfg, v: make_time_grid(0.0, 5.0, v)),
    "TimeGrid.n_steps": (2, lambda cfg, v: TimeGrid(0.0, 5.0, v)),
    "solve_direct.coarse_steps": (1, lambda cfg, v: solve_direct(cfg, coarse_steps=v)),
    "solve_direct.max_iters": (1, lambda cfg, v: solve_direct(cfg, coarse_steps=5, max_iters=v)),
    "best_constant_control.grid_points": (2, lambda cfg, v: best_constant_control(cfg, grid_points=v)),
    "verify_adjoint_consistency.samples": (1, lambda cfg, v: verify_adjoint_consistency(SEIRS, samples=v)),
    "verify_adjoint_consistency.seed": (0, lambda cfg, v: verify_adjoint_consistency(SEIRS, seed=v)),
    "verify_control_stationarity.samples": (1, lambda cfg, v: verify_control_stationarity(SEIRS, samples=v)),
    "verify_control_stationarity.seed": (0, lambda cfg, v: verify_control_stationarity(SEIRS, seed=v)),
    "verify_control_stationarity.grid_points": (
        2, lambda cfg, v: verify_control_stationarity(SEIRS, grid_points=v)),
}


@pytest.mark.parametrize("entry", COUNT_ARGUMENTS)
@pytest.mark.parametrize("bad", ["bool", "float", "below"])
def test_every_count_argument_refuses_non_counts(flagship, shrink, entry, bad):
    least, call = COUNT_ARGUMENTS[entry]
    name = entry.split(".")[1]
    v = {"bool": True, "float": 2.5, "below": least - 1}[bad]
    with pytest.raises(ValidationError, match=rf"^{name} must be (an integer|>= {least}), got "):
        call(shrink(flagship, 100), v)


# Every real-number argument of the library outside the weights and parameters (which
# have their own tests), by entry point and the name its refusal gives, and a call
# that passes it v.
REAL_ARGUMENTS = {
    "TimeGrid.t0": ("t0", lambda v: TimeGrid(v, 5.0, 4)),
    "TimeGrid.tf": ("tf", lambda v: TimeGrid(0.0, v, 4)),
    "make_time_grid.t0": ("t0", lambda v: make_time_grid(v, 5.0, 4)),
    "make_time_grid.tf": ("tf", lambda v: make_time_grid(0.0, v, 4)),
    "FbsSettings.tolerance": ("tolerance", lambda v: FbsSettings(tolerance=v)),
    "TimeTable.times": ("time table time", lambda v: TimeTable((0.0, v), (1.0, 2.0))),
    "TimeTable.values": ("time table value", lambda v: TimeTable((0.0, 1.0), (1.0, v))),
}


@pytest.mark.parametrize("entry", REAL_ARGUMENTS)
@pytest.mark.parametrize("bad", [True, False, "5", None])
def test_every_real_argument_refuses_non_numbers(entry, bad):
    # unchecked, make_time_grid(False, True, 4) is a grid on [0, 1], and a
    # string reaches numpy as a TypeError
    name, call = REAL_ARGUMENTS[entry]
    with pytest.raises(ValidationError, match=rf"^{name}: expected a number, got {bad!r}$"):
        call(bad)


def test_real_arguments_stored_as_floats():
    g = TimeGrid(0, np.int64(5), 4)
    tab = TimeTable((0, np.float32(1.5)), (np.int64(2), 3))
    assert all(type(v) is float for v in (g.t0, g.tf, FbsSettings(tolerance=1).tolerance,
                                          *tab.times, *tab.values))


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

    def test_nan_time_rejected(self, traj):
        with pytest.raises(ValidationError, match="t=nan outside grid"):
            interpolate_state(traj, float("nan"))

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
        assert isinstance(p.as_dict()["k"], TimeTable)
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

    def test_rejects_bool(self):
        # as a scenario document's parameters are refused; True would load as 1.0
        with pytest.raises(ValidationError, match=r"^parameter 'k1': expected a number, got True$"):
            ParameterSet({"k1": True})


class TestCostWeights:
    def test_zero_effort_weight_rejected(self):
        with pytest.raises(ValidationError):
            CostWeights(a1=1.0, b=(0.0,))
        with pytest.raises(ValidationError, match="^b must contain at least one effort weight$"):
            CostWeights(b=())

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

    @pytest.mark.parametrize("kwargs, name", [
        ({"a1": True}, "a1"), ({"a2": False}, "a2"), ({"a_isolated": True}, "a_isolated"),
        ({"b": True}, "b"), ({"b": (1.0, True)}, "b"), ({"lower": False}, "lower"),
        ({"upper": True}, "upper"),
    ])
    def test_bools_rejected(self, kwargs, name):
        with pytest.raises(ValidationError, match=rf"^{name}: expected a number, got (True|False)$"):
            CostWeights(**kwargs)

    def test_numbers_stored_as_floats(self):
        w = CostWeights(a1=1, a2=np.int64(2), b=(3, np.float32(0.5)), a_isolated=0, lower=-1, upper=2)
        assert all(type(v) is float for v in (w.a1, w.a2, w.a_isolated, w.lower, w.upper, *w.b))
        assert (w.a1, w.a2, w.b, w.lower, w.upper) == (1.0, 2.0, (3.0, 0.5), -1.0, 2.0)
