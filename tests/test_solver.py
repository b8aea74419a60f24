import math
from dataclasses import replace
from functools import reduce
from operator import add
from types import SimpleNamespace

import numpy as np
import pytest

from tbctrl import (CostWeights, ModelId, NonFiniteError, ParameterSet, adjoint_rhs,
                    control_characterization, default_params, dynamics,
                    integrate_adjoint_backward, integrate_forward, make_time_grid,
                    model_definition, reduced_cost_gradient, solve_fbs, total_cost)
from tbctrl import costate, models, solver
from tbctrl.core import TimeTable, Trajectory, ValidationError
from tbctrl.models.base import live_population
from tbctrl.oracle import _fine_controls, _Simulator
from tbctrl.costate import _BLOCK, _SUB_BLOCK, _coefficients, _costate_pass
from tbctrl.solver import FbsSettings, _least_squares, _rk4, _sweep

from conftest import source_a2


LIVE_POPULATION = [ModelId.REINFECTION, ModelId.KOREA, ModelId.ISOLATION_IMMIGRATION,
                   ModelId.BOWONG]


def zero_rate_params():
    return ParameterSet({
        "Lambda": 0.0, "beta": 0.0, "c": 0.0, "mu": 0.0, "sigma": 0.0,
        "k1": 0.0, "r1": 0.0, "r2": 0.0, "d1": 0.0, "N": 1.0,
    })


def reference_rk4(f, y0, nodes, drivers, backward=False):
    """RK4 with ndarray stages, y' = f(t, y, *d): the loop the float kernel replaced."""
    order = slice(None, None, -1 if backward else 1)
    ts = nodes[order]
    runs = [a[order] for a in drivers]
    mids = [0.5 * (a[:-1] + a[1:]) for a in runs]
    out = np.zeros((len(nodes), len(y0)))
    rows = out[order]
    rows[0] = y = y0
    steps = zip(ts[:-1], ts[1:], zip(*runs), zip(*mids), zip(*(a[1:] for a in runs)))
    for j, (t, t1, d0, dm, d1) in enumerate(steps, 1):
        h = t1 - t
        k1 = f(t, y, *d0)
        k2 = f(t + 0.5 * h, y + (0.5 * h) * k1, *dm)
        k3 = f(t + 0.5 * h, y + (0.5 * h) * k2, *dm)
        k4 = f(t + h, y + h * k3, *d1)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rows[j] = y
    return out


def assert_costate_matches(lam, ref_lam):
    """The costate pass agrees with the stage-by-stage reference to 1e-13 relative.

    The pass evaluates the same RK4 map with the sums associated differently,
    so the rows agree to roundoff (1e-15 to 1e-14), not bitwise.
    """
    assert np.max(np.abs(lam - ref_lam)) <= 1e-13 * np.max(np.abs(ref_lam))


def assert_passes_match_reference(mid, p, seed, n_steps=200):
    """Both passes match ``reference_rk4`` over the per-point model wrappers; returns the state."""
    d = model_definition(mid)
    rng = np.random.default_rng(seed)
    g = make_time_grid(0.0, 5.0, n_steps)
    x0 = 10.0 ** rng.uniform(1.0, 4.0, d.state_dim)
    u = rng.uniform(0.0, 1.0, (g.n_nodes, d.control_dim))
    w = CostWeights(a1=rng.uniform(0.5, 2.0), a2=rng.uniform(0.0, 1.0),
                    b=tuple(rng.uniform(10.0, 200.0, d.control_dim)),
                    a_isolated=rng.uniform(0.0, 1.0) if d.isolated is not None else 0.0)
    state = integrate_forward(mid, p, x0, u, g)
    lam = integrate_adjoint_backward(mid, p, w, state, u, g)
    ref_state = reference_rk4(lambda t, x, v: dynamics(mid, t, x, v, p), x0, g.nodes, (u,))
    ref_lam = reference_rk4(lambda t, lam, x, v: adjoint_rhs(mid, t, x, lam, v, p, w),
                            np.zeros(d.state_dim), g.nodes, (ref_state, u), backward=True)
    assert np.array_equal(state, ref_state)
    assert_costate_matches(lam, ref_lam)
    return state


class TestReferenceKernel:
    """The passes give the results of the ndarray-stage loop.

    The state pass and the oracle's batches match it bitwise; the costate pass,
    an affine scan of the same RK4 steps, to 1e-13 relative.
    """

    @pytest.mark.parametrize("mid", list(ModelId))
    def test_both_passes_match_reference(self, mid):
        assert_passes_match_reference(mid, default_params(mid), seed=list(ModelId).index(mid))

    def test_time_table_resolved_at_each_evaluation(self):
        # mu changes inside the horizon, so a tuple bound once at t0 gives other rows
        mid = ModelId.KOREA
        constant = default_params(mid)
        table = constant.with_updates(
            {"mu": TimeTable((0.0, 1.5, 3.0, 4.5), (0.01, 0.05, 0.02, 0.04))})
        assert not np.array_equal(assert_passes_match_reference(mid, table, seed=42),
                                  assert_passes_match_reference(mid, constant, seed=42))

    def test_oracle_batch_matches_reference(self, flagship, shrink):
        # each member of a batch keeps bitwise the running state cost of its own pass
        cfg = shrink(flagship, 300)
        g = cfg.grid
        sim = _Simulator(cfg.model, cfg.params, cfg.weights, g, cfg.initial_state())
        fine = _fine_controls(np.random.default_rng(3).uniform(0.0, 1.0, (25, 1, 4)), g.n_steps)
        x0 = np.broadcast_to(cfg.initial_state()[:, None], (4, 4))
        kept = _rk4(sim.d.rhs, x0, g.nodes, fine, "state", cfg.params, sim.d.required_params,
                    keep=sim.state_cost)
        assert kept.shape == (g.n_nodes, 4)
        for b in range(4):
            ref = reference_rk4(lambda t, x, v: dynamics(cfg.model, t, x, v, cfg.params),
                                cfg.initial_state(), g.nodes, (fine[:, :, b],))
            assert np.array_equal(kept[:, b], sim.state_cost(ref.T))


# A grid of 2 * _BLOCK + 3 steps, which the pass runs backward as chunks of _BLOCK,
# _BLOCK and 3 steps, and the nodes where one coefficient is non-finite: inside the
# first sub-block, either side of a sub-block's end, inside each chunk, either side of
# a chunk's end, in the short last chunk and at t0. Each level of the scan multiplies it.
N_SCAN = 2 * _BLOCK + 3
NONFINITE_NODES = {
    "first-sub-block": N_SCAN - 2, "sub-block-end": N_SCAN - _SUB_BLOCK,
    "after-sub-block-end": N_SCAN - _SUB_BLOCK - 1, "mid-chunk": N_SCAN - _BLOCK // 2,
    "chunk-end": N_SCAN - _BLOCK, "after-chunk-end": N_SCAN - _BLOCK - 1,
    "second-chunk": N_SCAN - 3 * _BLOCK // 2, "second-chunk-end": N_SCAN - 2 * _BLOCK,
    "last-chunk": N_SCAN - 2 * _BLOCK - 1, "first-node": 0,
}


@pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("k", NONFINITE_NODES.values(), ids=NONFINITE_NODES.keys())
def test_inf_times_zero_reaches_the_costate_rows(monkeypatch, k, value):
    # A BLAS may skip a product's zero factors; 0 * inf and 0 * NaN must still give
    # NaN, as in the row loop. lam_1 stays 0 and A's entry (0, 1) is non-finite at node
    # k only, so the reference's first non-finite row is at node k, and the pass must
    # locate it there. The nodes are dyadic, so t + h meets the next node exactly.
    nodes = np.arange(N_SCAN + 1) / 64.0

    def coef(t):  # the augmented [[A, b], [0, 0]] at the times t, laid out (3, 3, P)
        out = np.zeros((3, 3, len(t)))
        out[0, 0], out[0, 2] = -1.0, 1.0
        out[0, 1] = np.where(t == nodes[k], value, 0.5)
        return out

    def row_loop(t, lam, _):  # reference_rk4 steps over its drivers: the nodes ride along
        c = coef(np.array([t]))[..., 0]
        return np.array([sum(c[i, j] * lam[j] for j in range(2)) + c[i, 2] for i in range(2)])

    monkeypatch.setattr(costate, "_coefficients", lambda d, w, p, t, x, u: coef(t))
    d = SimpleNamespace(state_dim=2)
    with np.errstate(invalid="ignore"):
        ref = reference_rk4(row_loop, np.zeros(2), nodes, (nodes,), backward=True)
        with pytest.raises(NonFiniteError) as err:
            _costate_pass(d, None, None, np.ones((N_SCAN + 1, 2)), np.zeros((N_SCAN + 1, 1)), nodes)
    assert np.isfinite(ref[k + 1:]).all() and np.isnan(ref[k, 0])
    assert (err.value.step, err.value.time) == (k, nodes[k])


def toy_rhs(n, refuse_from=math.inf):
    """y_i' = -a y_i + b u_(i mod 2) y_(i-1) + (1 + t/4) u_2: n states and a control of width 3.

    It takes floats or (B,) columns, and for floats refuses t >= refuse_from
    or y_0 < 0 as a model refuses a point outside its domain.
    """

    def f(t, y, u, q):
        if isinstance(y[0], float) and (t >= refuse_from or y[0] < 0.0):
            raise ValidationError(f"toy refuses t={t}")
        a, b = q
        return [-a * y[i] + b * u[i % 2] * y[i - 1] + (1.0 + 0.25 * t) * u[2] for i in range(n)]

    return f


class TestToyKernel:
    """``_rk4`` on state widths no model has, against ``reference_rk4``."""

    P = ParameterSet({"a": 0.7, "b": TimeTable((0.0, 1.0, 2.0), (1.3, 0.4, 0.9))})
    NAMES = ("a", "b")

    def reference(self, f, y0, nodes, u):
        q = lambda t: self.P.values(self.NAMES, t)
        return reference_rk4(lambda t, y, ui: np.array(f(t, list(y), ui, q(t))), y0, nodes, (u,))

    @pytest.mark.parametrize("n", [3, 7])
    def test_floats_and_batch_match_reference(self, n):
        rng = np.random.default_rng(n)
        nodes = np.linspace(0.0, 2.0, 41)
        y0 = rng.uniform(0.5, 2.0, (n, 3))
        u = np.concatenate([rng.uniform(0.0, 1.0, (len(nodes), 2, 3)),
                            rng.uniform(-1.0, 1.0, (len(nodes), 1, 3))], axis=1)
        f = toy_rhs(n)
        kept = _rk4(f, y0, nodes, list(u), "state", self.P, self.NAMES,
                    keep=lambda y: reduce(add, y))
        for b in range(3):
            ref = self.reference(f, y0[:, b], nodes, u[..., b])
            rows = _rk4(f, y0[:, b], nodes, u[..., b], "state", self.P, self.NAMES)
            assert rows.tobytes() == ref.tobytes()
            assert kept[:, b].tobytes() == reduce(add, ref.T).tobytes()

    NODES = np.linspace(0.0, 1.0, 11)

    def run(self, f, y0):
        u = np.tile([0.5, 0.5, 0.25], (11, 1))
        return _rk4(f, np.array(y0), self.NODES, u, "state", self.P, self.NAMES)

    def test_refusal_at_first_evaluation_passes_through(self):
        with pytest.raises(ValidationError, match="^toy refuses t=0.0$") as err:
            self.run(toy_rhs(3), [-1.0, 1.0, 1.0])
        assert err.value.__cause__ is None and err.value.__context__ is None

    @pytest.mark.parametrize("refuse_from, step", [(0.01, 1), (0.37, 4)],
                             ids=["first-step-midpoint", "mid-pass"])
    def test_later_refusal_located_at_its_node(self, refuse_from, step):
        # the first stage time past refuse_from is the midpoint of step 1, or the end of step 4
        with pytest.raises(NonFiniteError) as err:
            self.run(toy_rhs(7, refuse_from), [1.0] * 7)
        assert (err.value.step, err.value.time) == (step, self.NODES[step])
        assert isinstance(err.value.__cause__, ValidationError)
        assert str(err.value).startswith("state left the model's domain (toy refuses t=")
        assert str(err.value).endswith(f") at step {step} (t={self.NODES[step]:.6g})")


class TestForwardIntegration:
    def test_zero_dynamics_keeps_state_constant(self):
        g = make_time_grid(0.0, 5.0, 50)
        x0 = np.array([10.0, 5.0, 2.0, 1.0])
        u = np.full((g.n_nodes, 1), 0.7)
        state = integrate_forward(ModelId.SEIRS, zero_rate_params(), x0, u, g)
        assert np.array_equal(state, np.tile(x0, (g.n_nodes, 1)))

    def test_population_conserved(self, flagship, shrink):
        cfg = shrink(flagship, 2000)
        u = np.zeros((cfg.grid.n_nodes, 1))
        state = integrate_forward(cfg.model, cfg.params, cfg.initial_state(), u, cfg.grid)
        pop = state.sum(axis=1)
        assert np.max(np.abs(pop - pop[0])) / pop[0] < 1e-10

    def test_step_halving_agreement(self, flagship):
        cfg = flagship
        x0 = cfg.initial_state()

        def terminal(n):
            g = make_time_grid(0.0, 5.0, n)
            u = np.zeros((g.n_nodes, 1))
            return integrate_forward(cfg.model, cfg.params, x0, u, g)[-1]

        coarse, fine = terminal(5000), terminal(10000)
        assert np.max(np.abs(coarse - fine) / np.maximum(np.abs(fine), 1.0)) < 1e-6

    def test_blowup_aborts_with_diagnostics(self):
        p = ParameterSet({
            "Lambda": 0.0, "beta": 1e308, "c": 1.0, "mu": 0.0, "sigma": 1.0,
            "k1": 1e300, "r1": 0.0, "r2": 0.0, "d1": 0.0, "N": 1.0,
        })
        g = make_time_grid(0.0, 5.0, 10)
        x0 = np.array([1e5, 1e5, 1e5, 1e5])
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(NonFiniteError) as err:
                integrate_forward(ModelId.SEIRS, p, x0, np.zeros((g.n_nodes, 1)), g)
        assert err.value.step is not None

    # beta = 1e300 blows step 1 up. From the "skewed" x0 (mostly in the last
    # compartment) or the "spread" one, the state either overflows or reaches
    # N(t) <= 0 at an RK4 stage, which live_population refuses
    @pytest.mark.parametrize("mid, spread, refused", [
        pytest.param(ModelId.REINFECTION, False, False, id="reinfection"),
        pytest.param(ModelId.REINFECTION, True, True, id="reinfection-spread"),
        pytest.param(ModelId.KOREA, False, False, id="korea"),
        pytest.param(ModelId.KOREA, True, False, id="korea-spread"),
        pytest.param(ModelId.ISOLATION_IMMIGRATION, False, True, id="isolation-immigration"),
        pytest.param(ModelId.ISOLATION_IMMIGRATION, True, False,
                     id="isolation-immigration-spread"),
        pytest.param(ModelId.BOWONG, False, True, id="bowong"),
        pytest.param(ModelId.BOWONG, True, True, id="bowong-spread"),
    ])
    def test_live_population_blowup_located(self, mid, spread, refused):
        d = model_definition(mid)
        p = default_params(mid).with_updates({"beta": 1e300})
        g = make_time_grid(0.0, 5.0, 10)
        if spread:
            x0 = 1000.0 * np.arange(1.0, d.state_dim + 1)
        else:
            x0 = np.array([100.0] * (d.state_dim - 1) + [9000.0])
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(NonFiniteError) as err:
                integrate_forward(mid, p, x0, np.zeros((g.n_nodes, d.control_dim)), g)
        assert (err.value.step, err.value.time) == (1, 0.5)
        cause = err.value.__cause__
        assert isinstance(cause, ValidationError) == refused
        how = f"left the model's domain ({cause})" if refused else "became non-finite"
        assert str(err.value) == f"state {how} at step 1 (t=0.5)"

    @pytest.mark.parametrize("spread, refused", [(False, False), (True, True)],
                             ids=["non-finite", "refused"])
    def test_one_batch_column_located_as_its_own_pass(self, spread, refused):
        # the middle member blows up as in the reinfection cases above; the two
        # beside it have no one infected or latent, so no flow moves them far
        mid = ModelId.REINFECTION
        d = model_definition(mid)
        p = default_params(mid).with_updates({"beta": 1e300})
        g = make_time_grid(0.0, 5.0, 10)
        x0 = 1000.0 * np.arange(1.0, 5.0) if spread else np.array([100.0, 100.0, 100.0, 9000.0])
        idle = np.array([1000.0, 0.0, 0.0, 1000.0])
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(NonFiniteError) as alone:
                integrate_forward(mid, p, x0, np.zeros((g.n_nodes, 1)), g)
            with pytest.raises(NonFiniteError) as batch:
                _rk4(d.rhs, np.column_stack([idle, x0, idle]), g.nodes,
                     np.zeros((g.n_nodes, 1, 3)), "state", p, d.required_params,
                     keep=lambda y: reduce(add, y))
        assert (batch.value.step, batch.value.time) == (1, 0.5)
        assert str(batch.value) == str(alone.value)
        assert isinstance(batch.value.__cause__, ValidationError) == refused

    @pytest.mark.parametrize("mid", LIVE_POPULATION)
    def test_empty_initial_population_still_invalid(self, mid):
        d = model_definition(mid)
        g = make_time_grid(0.0, 5.0, 10)
        with pytest.raises(ValidationError, match="degenerate population"):
            integrate_forward(mid, default_params(mid), np.zeros(d.state_dim),
                              np.zeros((g.n_nodes, d.control_dim)), g)

    def test_blowup_located_when_invalid_operations_raise(self):
        # S' = 3 S with h = 1: every RK4 stage of step 1 stays finite but the row
        # overflows; step 2 then meets 0 * inf, which np.errstate makes an error.
        # mu < 0 is outside seirs' domain, so the kernel runs without the entry's gate.
        d = model_definition(ModelId.SEIRS)
        p = zero_rate_params().with_updates({"mu": -3.0})
        g = make_time_grid(0.0, 5.0, 5)
        x0 = np.array([1.13e307, 0.0, 0.0, 0.0])
        with np.errstate(over="ignore", invalid="raise"):
            with pytest.raises(NonFiniteError) as err:
                _rk4(d.rhs, x0, g.nodes, np.zeros((g.n_nodes, 1)), "state", p, d.required_params)
        assert (err.value.step, err.value.time) == (1, 1.0)

    def test_batch_blowup_located_when_invalid_operations_raise(self):
        # the case above as the first member of a batch, beside a tame one
        d = model_definition(ModelId.SEIRS)
        p = zero_rate_params().with_updates({"mu": -3.0})
        g = make_time_grid(0.0, 5.0, 5)
        x0 = np.zeros((4, 2))
        x0[0] = 1.13e307, 1.0
        with np.errstate(over="ignore", invalid="raise"):
            with pytest.raises(NonFiniteError) as err:
                _rk4(d.rhs, x0, g.nodes, np.zeros((g.n_nodes, 1, 2)), "state", p,
                     d.required_params, keep=lambda y: reduce(add, y))
        assert (err.value.step, err.value.time) == (1, 1.0)

    def test_negative_initial_state_rejected(self):
        g = make_time_grid(0.0, 1.0, 10)
        with pytest.raises(ValidationError):
            integrate_forward(ModelId.SEIRS, zero_rate_params(),
                              np.array([-1.0, 0.0, 0.0, 0.0]),
                              np.zeros((g.n_nodes, 1)), g)

    @pytest.mark.parametrize("bad, rule", [(-1e-300, "nonnegative"),  # however small
                                           (math.nan, "finite"), (math.inf, "finite")],
                             ids=["negative", "nan", "inf"])
    @pytest.mark.parametrize("mid", list(ModelId), ids=lambda m: m.value)
    def test_negative_initial_state_names_the_model(self, mid, bad, rule):
        d = model_definition(mid)
        g = make_time_grid(0.0, 1.0, 10)
        x0 = np.full(d.state_dim, 100.0)
        x0[-1] = bad
        with pytest.raises(ValidationError, match=f"^{mid.value}: initial state must be {rule}$"):
            integrate_forward(mid, models.default_params(mid), x0,
                              np.zeros((g.n_nodes, d.control_dim)), g)


class TestBackwardIntegration:
    def test_zero_state_weight_gives_zero_adjoint(self, flagship, shrink):
        cfg = shrink(flagship, 400)
        w = CostWeights(a1=0.0, b=(100.0,))
        u = np.full((cfg.grid.n_nodes, 1), 0.3)
        state = integrate_forward(cfg.model, cfg.params, cfg.initial_state(), u, cfg.grid)
        lam = integrate_adjoint_backward(cfg.model, cfg.params, w, state, u, cfg.grid)
        assert np.array_equal(lam, np.zeros_like(lam))

    def test_terminal_condition_exact(self, flagship, shrink):
        cfg = shrink(flagship, 400)
        u = np.full((cfg.grid.n_nodes, 1), 0.2)
        state = integrate_forward(cfg.model, cfg.params, cfg.initial_state(), u, cfg.grid)
        lam = integrate_adjoint_backward(cfg.model, cfg.params, cfg.weights,
                                         state, u, cfg.grid)
        assert np.array_equal(lam[-1], np.zeros(4))

    @pytest.mark.parametrize("mid", list(ModelId))
    def test_blowup_located_in_integration_order(self, mid):
        # zero dynamics: |lam_i| = (n - i) * h * a1, which first overflows at i = 2;
        # rows 1 and 0 overflow too but come later in the backward pass. N and
        # post-exposure's efficacies must lie inside their domains; under zero
        # rates and controls they move nothing.
        d = model_definition(mid)
        inside = {"N": 1.0, "eps1": 0.5, "eps2": 0.5}
        p = ParameterSet({name: inside.get(name, 0.0) for name in d.required_params})
        g = make_time_grid(0.0, 10.0, 10)
        w = CostWeights(a1=2.5e307, b=(1.0,) * d.control_dim)
        state = np.ones((g.n_nodes, d.state_dim))
        u = np.zeros((g.n_nodes, d.control_dim))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError) as err:
                integrate_adjoint_backward(mid, p, w, state, u, g)
        assert (err.value.step, err.value.time) == (2, 2.0)
        assert str(err.value) == "adjoint became non-finite at step 2 (t=2)"

    @pytest.mark.parametrize("mid", LIVE_POPULATION)
    def test_degenerate_final_state_located(self, mid):
        # a forward pass may end on a finite row with N <= 0 that no rhs call saw;
        # the backward pass meets it first and locates it at the step it takes
        d = model_definition(mid)
        g = make_time_grid(0.0, 10.0, 10)
        state = np.ones((g.n_nodes, d.state_dim))
        state[-1] = 0.0
        w = CostWeights(a1=1.0, b=(1.0,) * d.control_dim)
        with pytest.raises(NonFiniteError) as err:
            integrate_adjoint_backward(mid, default_params(mid), w, state,
                                       np.zeros((g.n_nodes, d.control_dim)), g)
        assert (err.value.step, err.value.time) == (9, 9.0)
        assert str(err.value) == ("adjoint left the model's domain (degenerate population: "
                                  "N(t) = 0.0) at step 9 (t=9)")

    @staticmethod
    def vanishing_population(mu):
        # no recruitment: bowong's N(t) falls as exp(-mu t) from 4000
        mid = ModelId.BOWONG
        p = default_params(mid).with_updates({"Lambda": 0.0, "mu": mu})
        g = make_time_grid(0.0, 5.0, 2000)
        u = np.full((g.n_nodes, 2), 0.5)
        state = integrate_forward(mid, p, np.full(4, 1000.0), u, g)
        return lambda: integrate_adjoint_backward(mid, p, CostWeights(a1=1.0, b=(1.0, 1.0)),
                                                  state, u, g), g

    @pytest.mark.parametrize("mu", [80.0, 145.0])
    def test_tiny_population_costate_finite(self, mu):
        # mu = 80 takes N(t) to 5e-171 by t = 5, where N * N underflows to 0, and
        # mu = 145 to a subnormal 3.8e-312, where 1/N overflows; the adjoint
        # divides by N only in shares of N, so the costate stays finite
        adjoint, _ = self.vanishing_population(mu)
        assert np.all(np.isfinite(adjoint()))

    def test_initial_adjoint_step_halving_at_fixed_point(self, flagship, shrink):
        cfg = shrink(flagship, 1000)
        sol = solve_fbs(cfg)
        assert sol.report.converged
        lam_coarse = sol.trajectory.adjoint[0]

        fine = make_time_grid(0.0, 5.0, 2000)
        u_fine = np.interp(fine.nodes, cfg.grid.nodes,
                           sol.trajectory.control[:, 0]).reshape(-1, 1)
        state = integrate_forward(cfg.model, cfg.params, cfg.initial_state(), u_fine, fine)
        lam_fine = integrate_adjoint_backward(cfg.model, cfg.params, cfg.weights,
                                              state, u_fine, fine)[0]
        assert abs(lam_coarse[2] - lam_fine[2]) / abs(lam_fine[2]) < 1e-5


class TestCostateScan:
    """The blocked affine scan behind the costate pass, at its edges."""

    @staticmethod
    def problem(mid, n_steps, p=None, seed=5):
        # n_steps steps of 0.02; the kernel takes nodes, so n_steps = 1 works too
        d = model_definition(mid)
        p = default_params(mid) if p is None else p
        rng = np.random.default_rng(seed)
        nodes = 0.02 * np.arange(n_steps + 1)
        u = rng.uniform(0.0, 1.0, (len(nodes), d.control_dim))
        x0 = np.array([7000.0, 2000.0, 1000.0] + [100.0] * (d.state_dim - 3))
        state = _rk4(d.rhs, x0, nodes, u, "state", p, d.required_params)
        w = CostWeights(a1=1.0, a2=0.5, b=(50.0,) * d.control_dim,
                        a_isolated=0.7 if d.isolated is not None else 0.0)
        # the model's adjoint without the entry's gate: seirs allows no time table
        ref = reference_rk4(lambda t, lam, x, v: np.array(
                                d.adjoint(t, x, lam, v, p.values(d.required_params, t), w)),
                            np.zeros(d.state_dim), nodes, (state, u), backward=True)
        return _costate_pass(d, w, p, state, u, nodes), ref

    @pytest.mark.parametrize("n_steps", [1, _SUB_BLOCK - 1, _SUB_BLOCK, _SUB_BLOCK + 1, _BLOCK - 1,
                                         _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
    @pytest.mark.parametrize("mid", list(ModelId))
    def test_block_edges_match_reference(self, mid, n_steps):
        lam, ref = self.problem(mid, n_steps)
        assert np.array_equal(lam[-1], np.zeros(len(lam[-1])))
        assert_costate_matches(lam, ref)

    @pytest.mark.parametrize("mid, tables", [
        (ModelId.SEIRS, {"beta": ((0.0, 1.0, 2.5, 4.0), (13.0, 20.0, 8.0, 15.0))}),
        # korea's scenarios may carry tables, on the names it allows
        (ModelId.KOREA, {"mu": ((0.0, 1.5, 3.0, 4.5), (0.01, 0.05, 0.02, 0.04)),
                         "k": ((0.0, 2.0, 4.0), (0.05, 0.3, 0.1))}),
    ], ids=["seirs-beta", "korea-mu-k"])
    def test_time_table_resolved_at_every_stage_time(self, mid, tables):
        # the adjoint runs on columns; a table gives each stage its own q
        constant = default_params(mid)
        table = constant.with_updates({name: TimeTable(*tv) for name, tv in tables.items()})
        lam, ref = self.problem(mid, _BLOCK + 44, table)
        assert_costate_matches(lam, ref)
        assert not np.allclose(lam, self.problem(mid, _BLOCK + 44, constant)[0])

    @pytest.mark.parametrize("mid", list(ModelId))
    def test_b_is_the_costate_at_zero(self, mid):
        # not -g: where the state holds an inf, 0 * inf makes the costate at lam = 0 NaN
        d = model_definition(mid)
        p = default_params(mid)
        w = CostWeights(a1=1.0, b=(50.0,) * d.control_dim)
        rng = np.random.default_rng(11)
        t = rng.uniform(0.0, 5.0, 6)
        x = 10.0 ** rng.uniform(1.0, 4.0, (6, d.state_dim))
        x[2] = np.inf
        u = rng.uniform(0.0, 1.0, (6, d.control_dim))
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            coef = _coefficients(d, w, p, t, x, u)
            at = [[adjoint_rhs(mid, ti, xi, lam, ui, p, w) for lam in np.eye(d.state_dim + 1, d.state_dim)]
                  for ti, xi, ui in zip(t, x, u)]
        zero = np.array([row[-1] for row in at])
        assert not np.isfinite(zero[2]).all()
        np.testing.assert_array_equal(coef[:-1, -1].T, zero)
        assert np.array_equal(coef[-1], np.zeros((d.state_dim + 1, 6)))
        for s in (0, 1, 3, 4, 5):
            a = np.array(at[s][:-1]).T - zero[s][:, None]
            assert np.allclose(coef[:-1, :-1, s], a, rtol=1e-13, atol=1e-13 * np.max(np.abs(a)))

    @pytest.mark.parametrize("mid", list(ModelId))
    def test_coefficients_match_one_adjoint_call_per_column(self, mid):
        # bitwise, NaN pattern included: the n+1 columns of [[A, b], [0, 0]] read off by
        # n+1 adjoint calls on (P,) columns, at lam = e_k and at lam = 0
        d = model_definition(mid)
        p = default_params(mid)
        if mid is ModelId.KOREA:  # a parameter column per point
            p = p.with_updates({"mu": TimeTable((0.0, 2.0, 5.0), (0.01, 0.05, 0.02))})
        w = CostWeights(a1=1.0, a2=0.5, b=(50.0,) * d.control_dim,
                        a_isolated=0.7 if d.isolated is not None else 0.0)
        n, rng = d.state_dim, np.random.default_rng(12)
        t = rng.uniform(0.0, 5.0, 9)
        x = 10.0 ** rng.uniform(1.0, 4.0, (9, n))
        x[4] = np.inf
        u = rng.uniform(0.0, 1.0, (9, d.control_dim))
        q = p.values(d.required_params, t)
        ref = np.zeros((n + 1, n + 1, 9))
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            for k in range(n + 1):
                lam = [float(j == k) for j in range(n)]
                for i, v in enumerate(d.adjoint(t, list(x.T.copy()), lam, list(u.T.copy()), q, w)):
                    ref[i, k] = v
            ref[:n, :n] -= ref[:n, n:]
            coef = _coefficients(d, w, p, t, x, u)
        nan = np.isnan(ref)
        assert nan[:, :, 4].any() and not nan[:, :, [0, 1, 2, 3, 5, 6, 7, 8]].any()
        assert np.array_equal(np.isnan(coef), nan)
        assert np.where(nan, 0.0, coef).tobytes() == np.where(nan, 0.0, ref).tobytes()

    @pytest.mark.parametrize("mid", list(ModelId))
    def test_nonfinite_stage_located_as_reference(self, mid):
        # an inf state row at node 5 first meets the step that integrates node 6 to node 5
        d = model_definition(mid)
        nodes = np.linspace(0.0, 10.0, 11)
        state = np.ones((11, d.state_dim))
        state[5] = np.inf
        u = np.zeros((11, d.control_dim))
        p, w = default_params(mid), CostWeights(a1=1.0, b=(1.0,) * d.control_dim)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            ref = reference_rk4(lambda t, lam, x, v: adjoint_rhs(mid, t, x, lam, v, p, w),
                                np.zeros(d.state_dim), nodes, (state, u), backward=True)
            with pytest.raises(NonFiniteError) as err:
                _costate_pass(d, w, p, state, u, nodes)
        assert np.isfinite(ref[6:]).all() and not np.isfinite(ref[5]).all()
        assert (err.value.step, err.value.time) == (5, 5.0)

    @staticmethod
    def checked_seirs(monkeypatch):
        # seirs's adjoint, refusing N <= 0 as the live-population models do, on columns too
        defn = model_definition(ModelId.SEIRS)
        adjoint = defn.adjoint

        def checked(t, x, lam, u, p, w):
            live_population(x)
            return adjoint(t, x, lam, u, p, w)

        monkeypatch.setitem(models.MODELS, ModelId.SEIRS, replace(defn, adjoint=checked))
        return models.MODELS[ModelId.SEIRS]

    @pytest.mark.parametrize("mid", [ModelId.SEIRS, ModelId.KOREA])
    @pytest.mark.parametrize("a1, located", [
        (1.0, "left the model's domain (degenerate population: N(t) = 0.0) at step 6 (t=18)"),
        # |lam| = 3 (10 - i) a1 at node i overflows at node 7, before the step that meets node 6
        (2.5e307, "became non-finite at step 7 (t=21)"),
    ], ids=["refused", "non-finite-first"])
    def test_refusal_located_at_latest_failing_stage(self, monkeypatch, mid, a1, located):
        d = self.checked_seirs(monkeypatch) if mid is ModelId.SEIRS else model_definition(mid)
        p = ParameterSet({name: 1.0 if name == "N" else 0.0 for name in d.required_params})
        nodes = 3.0 * np.arange(11)
        state = np.ones((11, d.state_dim))
        state[[3, 6]] = 0.0  # N = 0 at nodes 3 and 6; node 6 is met first
        u = np.zeros((11, d.control_dim))
        w = CostWeights(a1=a1, b=(1.0,) * d.control_dim)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError) as err:
                _costate_pass(d, w, p, state, u, nodes)
        assert str(err.value) == f"adjoint {located}"

    # n - bad = _BLOCK + 3 * _SUB_BLOCK + 5: step 5 of the fourth sub-block of the second chunk
    EDGE_STEPS = 2 * _BLOCK + 3
    EDGE_BAD = _BLOCK - 3 * _SUB_BLOCK - 2

    def test_refusal_located_past_a_block_edge(self, monkeypatch):
        d = self.checked_seirs(monkeypatch)
        n, bad = self.EDGE_STEPS, self.EDGE_BAD
        nodes = np.linspace(0.0, 5.0, n + 1)
        state = np.ones((n + 1, 4))
        state[[bad, bad - 40]] = 0.0
        u = np.zeros((n + 1, 1))
        with pytest.raises(NonFiniteError) as err:
            _costate_pass(d, CostWeights(a1=1.0, b=(1.0,)), default_params(ModelId.SEIRS),
                          state, u, nodes)
        assert (err.value.step, err.value.time) == (bad, nodes[bad])
        assert isinstance(err.value.__cause__, ValidationError)

    @pytest.mark.parametrize("mid", list(ModelId))
    def test_nonfinite_row_located_past_a_block_edge(self, mid):
        # an inf state row first meets the step that integrates node bad + 1 to node bad
        d = model_definition(mid)
        n, bad = self.EDGE_STEPS, self.EDGE_BAD
        nodes = np.linspace(0.0, 5.0, n + 1)
        state = np.ones((n + 1, d.state_dim))
        state[[bad, bad - 40]] = np.inf
        u = np.zeros((n + 1, d.control_dim))
        p, w = default_params(mid), CostWeights(a1=1.0, b=(1.0,) * d.control_dim)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            ref = reference_rk4(lambda t, lam, x, v: adjoint_rhs(mid, t, x, lam, v, p, w),
                                np.zeros(d.state_dim), nodes, (state, u), backward=True)
            with pytest.raises(NonFiniteError) as err:
                _costate_pass(d, w, p, state, u, nodes)
        assert np.isfinite(ref[bad + 1:]).all() and not np.isfinite(ref[bad]).all()
        assert (err.value.step, err.value.time) == (bad, nodes[bad])
        assert str(err.value) == f"adjoint became non-finite at step {bad} (t={nodes[bad]:.6g})"


class TestSolveFbs:
    def test_huge_effort_weight_silences_control(self, flagship, shrink):
        cfg = shrink(flagship, 800)
        cfg = replace(cfg, weights=replace(cfg.weights, b=(1e12,)))
        sol = solve_fbs(cfg)
        assert sol.report.converged
        assert float(np.max(np.abs(sol.trajectory.control))) < 1e-6
        u0 = np.zeros((cfg.grid.n_nodes, 1))
        base = integrate_forward(cfg.model, cfg.params, cfg.initial_state(), u0, cfg.grid)
        rel = np.max(np.abs(sol.trajectory.state - base) / np.maximum(np.abs(base), 1.0))
        assert rel < 1e-6

    def test_zero_state_weight_converges_immediately(self, flagship, shrink):
        cfg = shrink(flagship, 400)
        cfg = replace(cfg, weights=replace(cfg.weights, a1=0.0))
        sol = solve_fbs(cfg)
        assert sol.report.converged and sol.report.iterations == 1
        assert np.array_equal(sol.trajectory.control, np.zeros_like(sol.trajectory.control))
        assert np.array_equal(sol.trajectory.adjoint, np.zeros_like(sol.trajectory.adjoint))

    def test_beats_constant_strategies(self, flagship, shrink, solve_cached):
        cfg = shrink(flagship, 1000)
        sol = solve_cached.get("flagship-n1000", cfg)
        assert sol.report.converged

        def const_cost(v):
            u = np.full((cfg.grid.n_nodes, 1), v)
            state = integrate_forward(cfg.model, cfg.params, cfg.initial_state(), u, cfg.grid)
            return total_cost(cfg.model, Trajectory(cfg.grid, state, u), cfg.weights)

        assert sol.cost <= min(const_cost(0.0), const_cost(1.0))

    def test_returned_control_is_a_fixed_point(self, flagship, shrink, solve_cached):
        # The stopping test's own measure, |T(u) - u|_1 / |T(u)|_1, at the returned u.
        cfg = shrink(flagship, 1000)
        sol = solve_cached.get("flagship-n1000", cfg)
        u = sol.trajectory.control
        state = integrate_forward(cfg.model, cfg.params, cfg.initial_state(), u, cfg.grid)
        lam = integrate_adjoint_backward(cfg.model, cfg.params, cfg.weights,
                                         state, u, cfg.grid)
        u_hat = np.array([control_characterization(cfg.model, t, x, l, cfg.params, cfg.weights)
                          for t, x, l in zip(cfg.grid.nodes, state, lam)])
        assert np.sum(np.abs(u_hat - u)) / np.sum(np.abs(u_hat)) < cfg.fbs.tolerance

    def test_accelerated_sweep_count(self, flagship, shrink, solve_cached):
        # Relaxation alone (c = 0.5) takes 18 sweeps here.
        cfg = shrink(flagship, 1000)
        sol = solve_cached.get("flagship-n1000", cfg)
        assert sol.report.converged and sol.report.iterations <= 10

    @pytest.mark.parametrize("mid", list(ModelId))
    def test_every_model_converges_nonnegative(self, mid, default_config, solve_cached):
        sol = solve_cached.get(f"{mid.value}-default-n500", default_config(mid, 500))
        assert sol.report.converged, sol.report.message
        assert sol.trajectory.state_nonnegative is True
        assert np.min(sol.trajectory.state) >= 0.0

    def test_iteration_cap_returns_best_flagged(self, flagship, shrink):
        cfg = shrink(flagship, 400, max_iterations=2)
        sol = solve_fbs(cfg)
        assert not sol.report.converged
        assert sol.report.iterations == 2
        assert "no convergence" in sol.report.message
        assert len(sol.report.cost_history) == 2

    def test_cost_history_length_matches_iterations(self, flagship, shrink):
        cfg = shrink(flagship, 600)
        sol = solve_fbs(cfg)
        assert len(sol.report.cost_history) == sol.report.iterations

    def test_positivity_flag_recorded(self, flagship, shrink):
        cfg = shrink(flagship, 600)
        sol = solve_fbs(cfg)
        assert sol.trajectory.state_nonnegative is True

    def test_invalid_parameters_rejected(self, flagship):
        bad = replace(flagship, params=flagship.params.with_updates({"mu": -1.0}))
        with pytest.raises(ValidationError):
            solve_fbs(bad)


def single_grid(cfg):
    """The sweep on the scenario's grid alone, from u = 0 clipped: (control, history, converged)."""
    d = model_definition(cfg.model)
    u0 = np.clip(np.zeros((cfg.grid.n_nodes, d.control_dim)), cfg.weights.lower, cfg.weights.upper)
    u, history, converged, _ = _sweep(d, cfg, cfg.grid, u0)
    return u, history, converged


def assert_single_grid(sol, cfg):
    u, history, converged = single_grid(cfg)
    assert np.array_equal(sol.trajectory.control, u)
    assert sol.report.cost_history == tuple(history)
    assert sol.report.converged is converged


class TestNestedStart:
    @pytest.mark.parametrize("mid", list(ModelId))
    def test_every_model_agrees_with_single_grid(self, mid, default_config):
        cfg = default_config(mid, 1000)
        sol = solve_fbs(cfg)
        assert sol.report.converged, sol.report.message
        u, _, converged = single_grid(cfg)
        assert converged
        state = integrate_forward(mid, cfg.params, cfg.initial_state(), u, cfg.grid)
        cost = total_cost(mid, Trajectory(cfg.grid, state, u), cfg.weights)
        assert abs(sol.cost - cost) <= 1e-8 * abs(cost)

    def test_failing_coarse_level_falls_back_to_single_grid(self, flagship, shrink, monkeypatch):
        cfg = shrink(flagship, 1000)
        sweep = solver._sweep

        def coarse_fails(d, scenario, grid, u):
            if grid.n_steps < scenario.grid.n_steps:
                raise NonFiniteError("coarse level", step=1, time=0.0)
            return sweep(d, scenario, grid, u)

        monkeypatch.setattr(solver, "_sweep", coarse_fails)
        assert_single_grid(solve_fbs(cfg), cfg)

    def test_grid_under_500_steps_is_single_grid(self, flagship, shrink):
        cfg = shrink(flagship, 499)
        assert_single_grid(solve_fbs(cfg), cfg)

    @pytest.mark.parametrize("n_steps, levels", [(499, [499]), (500, [50, 500]),
                                                 (1000, [100, 1000]), (5000, [50, 500, 5000])])
    def test_levels_and_interpolated_starts(self, flagship, shrink, monkeypatch, n_steps, levels):
        # Each level "solves" to u = t / tf, which a finer level interpolates exactly.
        seen = []

        def sweep(d, scenario, grid, u):
            seen.append((grid, u.copy()))
            return grid.nodes[:, None] / grid.tf, [0.0], True, 0.0

        monkeypatch.setattr(solver, "_sweep", sweep)
        solve_fbs(shrink(flagship, n_steps))
        assert [grid.n_steps for grid, _ in seen] == levels
        assert np.array_equal(seen[0][1], np.zeros((levels[0] + 1, 1)))
        for grid, start in seen[1:]:
            assert np.allclose(start, grid.nodes[:, None] / grid.tf, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("max_iterations", [1, 2, 500])
    def test_report_counts_sweeps_on_the_requested_grid(self, flagship, shrink, max_iterations):
        sol = solve_fbs(shrink(flagship, 1000, max_iterations=max_iterations))
        report = sol.report
        assert report.iterations == len(report.cost_history) <= max_iterations
        assert report.converged or report.iterations == max_iterations


class TestFbsSettings:
    def test_settings_validation(self):
        with pytest.raises(ValidationError):
            FbsSettings(tolerance=0.0)
        with pytest.raises(ValidationError, match="tolerance must be finite"):
            FbsSettings(tolerance=math.inf)  # would stop after one sweep, reported converged
        with pytest.raises(ValidationError):
            FbsSettings(max_iterations=0)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3"])
    def test_non_integer_max_iterations_refused(self, n):
        # 2.5 would reach range() in the sweep; True would cap it at one sweep
        with pytest.raises(ValidationError, match="max_iterations must be an integer"):
            FbsSettings(max_iterations=n)


class TestLeastSquares:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_lapack(self, k):
        rng = np.random.default_rng(40 + k)
        a = rng.standard_normal((5001, k))
        r = rng.standard_normal(5001)
        gamma = _least_squares([a[:, j].copy() for j in range(k)], r)
        expected = np.linalg.lstsq(a, r, rcond=None)[0]
        assert np.allclose(gamma, expected, rtol=0.0, atol=1e-10)

    def test_dependent_column_gets_zero(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal(5001)
        b = rng.standard_normal(5001)
        r = 2.0 * a - b
        gamma = _least_squares([a, b, 3.0 * a, np.zeros(5001)], r)
        assert gamma[2:] == [0.0, 0.0]
        assert np.allclose(gamma[:2], [2.0, -1.0], rtol=0.0, atol=1e-12)


class TestReducedGradient:
    def test_matches_finite_differences(self, flagship, shrink):
        cfg = shrink(flagship, 800)
        x0 = cfg.initial_state()
        control = np.full((cfg.grid.n_nodes, 1), 0.3)
        grad = reduced_cost_gradient(cfg.model, cfg.params, cfg.weights,
                                     cfg.grid, x0, control)

        def cost_of(u):
            state = integrate_forward(cfg.model, cfg.params, x0, u, cfg.grid)
            return total_cost(cfg.model, Trajectory(cfg.grid, state, u), cfg.weights)

        rng = np.random.default_rng(2)
        nodes = rng.choice(np.arange(1, cfg.grid.n_steps), size=10, replace=False)
        delta = 1e-3
        for j in nodes:
            up = control.copy()
            um = control.copy()
            up[j, 0] += delta
            um[j, 0] -= delta
            fd = (cost_of(up) - cost_of(um)) / (2 * delta)
            assert abs(grad[j, 0] - fd) / max(abs(fd), 1e-12) < 1e-3

    @pytest.mark.parametrize("mid", list(ModelId))
    def test_every_model_matches_finite_differences(self, mid):
        d = model_definition(mid)
        p = default_params(mid)
        if mid is ModelId.KOREA:  # parameters resolved at each node's time
            mu = p.value("mu")
            p = p.with_updates({"mu": TimeTable((0.0, 2.0, 5.0), (mu, 1.5 * mu, mu))})
        g = make_time_grid(0.0, 5.0, 200)
        x0 = np.array([7000.0, 2000.0, 1000.0] + [100.0] * (d.state_dim - 3))
        w = CostWeights(a1=1.0, a2=source_a2(mid), b=(50.0,) * d.control_dim)
        # A smooth control: against a rough one the costate route is only O(h) close.
        control = 0.5 + 0.3 * np.sin(np.outer(g.nodes, np.arange(1, d.control_dim + 1)))
        grad = reduced_cost_gradient(mid, p, w, g, x0, control)

        def cost_of(u):
            state = integrate_forward(mid, p, x0, u, g)
            return total_cost(mid, Trajectory(g, state, u), w)

        delta = 1e-3
        # Interior nodes: next to tf, where lam -> 0, the relative gap grows.
        for j, k in ((50, 0), (100, d.control_dim - 1), (150, 0)):
            up = control.copy()
            um = control.copy()
            up[j, k] += delta
            um[j, k] -= delta
            fd = (cost_of(up) - cost_of(um)) / (2 * delta)
            assert abs(grad[j, k] - fd) / max(abs(fd), 1e-12) < 1e-3
