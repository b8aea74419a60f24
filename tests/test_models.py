import math
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from tbctrl import (CostWeights, ModelId, ParameterSet, adjoint_rhs, best_constant_control,
                    control_characterization, default_params, dynamics, hamiltonian,
                    integrate_adjoint_backward, integrate_forward, make_time_grid,
                    model_definition,
                    reduced_cost_gradient, running_cost, solve_direct, solve_fbs,
                    validate_params, verify_adjoint_consistency, verify_control_stationarity)
from tbctrl.core import TimeTable, ValidationError
from tbctrl.models import (MODELS, cost_state_vector, has_baseline,
                           neutral_control, uncontrolled_rhs)

from conftest import source_a2

README = Path(__file__).resolve().parents[1] / "README.md"

EXPECTED_DIMS = {
    ModelId.SEIRS: (4, 1),
    ModelId.TWO_STRAIN: (6, 2),
    ModelId.REINFECTION: (4, 1),
    ModelId.ISOLATION_IMMIGRATION: (5, 2),
    ModelId.KOREA: (4, 3),
    ModelId.BOWONG: (4, 2),
    ModelId.POST_EXPOSURE: (5, 2),
}


def flagship_params():
    return ParameterSet({
        "Lambda": 143.0, "beta": 13.0, "c": 1.0, "mu": 0.0143, "sigma": 1.0,
        "k1": 1.0, "r1": 2.0, "r2": 1.0, "d1": 0.0, "N": 10000.0,
    })


def flagship_x0():
    n = 10000.0
    return np.array([(76 / 120) * n, (38 / 120) * n, (5 / 120) * n, (1 / 120) * n])


class TestCatalog:
    def test_seven_models_with_expected_dimensions(self):
        assert len(MODELS) == 7
        for mid, (m, nu) in EXPECTED_DIMS.items():
            d = model_definition(mid)
            assert (d.state_dim, d.control_dim) == (m, nu)

    def test_defaults_validate(self):
        for mid in ModelId:
            assert validate_params(mid, default_params(mid)) == []

    def test_readme_table_matches_the_catalog(self):
        rows = [[cell.strip() for cell in line.strip("|").split("|")]
                for line in README.read_text(encoding="utf-8").splitlines()
                if line.startswith("| `")]
        assert [row[0] for row in rows] == [f"`{mid.value}`" for mid in ModelId]
        for (_, states, controls, weighted, source), mid in zip(rows, ModelId):
            d = model_definition(mid)
            assert states == ", ".join(d.state_labels)
            assert controls == str(d.control_dim)

            def term(weight, pattern):  # weight times the sum of the classes it weighs
                assert set(pattern) <= {0.0, 1.0}
                names = [label for label, v in zip(d.state_labels, pattern) if v]
                return f"{weight}·" + (names[0] if len(names) == 1 else f"({' + '.join(names)})")

            terms = [term("a1", d.infectious), term("a2", d.latent)]
            if d.isolated is not None:
                terms.append(term("a_isolated", d.isolated))
            assert weighted == " + ".join(terms)
            # the source objective: the a1 term, and the a2 term exactly where source_a2 is 1
            assert source == " + ".join(terms[:1 + int(source_a2(mid))])


class TestSeirsDynamics:
    def test_matches_exact_arithmetic_oracle(self):
        # oracle: direct substitution evaluated in exact rational arithmetic
        p = flagship_params()
        x = flagship_x0()
        mu, c, beta, sigma = F(0.0143), F(1), F(13), F(1)
        r1, r2, k1, d1, n, lam_in = F(2), F(1), F(1), F(0), F(10000), F(143)
        s, l1, i1, tr = (F(v) for v in x)
        th = beta * c / n
        exact = [
            lam_in - th * s * i1 - mu * s,
            th * s * i1 - (mu + r1) * l1 - k1 * l1 + sigma * th * tr * i1,
            k1 * l1 - (mu + r2 + d1) * i1,
            r1 * l1 + r2 * i1 - sigma * th * tr * i1 - mu * tr,
        ]
        frozen = (-3378.122222222222, -6069.5888888888885,
                  2744.0416666666665, 6703.669444444444)
        assert np.allclose([float(v) for v in exact], frozen, rtol=1e-12)
        got = dynamics(ModelId.SEIRS, 0.0, x, np.array([0.0]), p)
        assert np.allclose(got, [float(v) for v in exact], rtol=1e-12)

    def test_disease_free_subspace(self):
        p = flagship_params()
        x = np.array([7000.0, 0.0, 0.0, 500.0])
        f = dynamics(ModelId.SEIRS, 0.0, x, np.array([0.3]), p)
        assert f[1] == 0.0 and f[2] == 0.0
        assert f[0] == pytest.approx(143.0 - 0.0143 * 7000.0, rel=1e-14)

    @pytest.mark.parametrize("mid", [ModelId.SEIRS, ModelId.TWO_STRAIN, ModelId.POST_EXPOSURE])
    def test_population_balance_when_inflow_matches_deaths(self, mid):
        # defaults recruit mu*N with no disease deaths, so with sum(x) = N the
        # component sums cancel up to rounding
        d = model_definition(mid)
        p = default_params(mid)
        n_pop = p.value("N")
        inflow = p.value("mu") * n_pop
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.dirichlet(np.ones(d.state_dim)) * n_pop
            u = rng.uniform(0.0, 1.0, size=d.control_dim)
            f = dynamics(mid, 0.0, x, u, p)
            scale = float(np.max(np.abs(f))) + inflow
            assert abs(float(np.sum(f))) <= 1e-12 * scale


@st.composite
def boundary_points(draw, mid):
    """Valid parameters (defaults x U[0.5, 2]), t, u, and x >= 0 with one x_i = 0."""
    d = model_definition(mid)
    defaults = default_params(mid)
    vals = {name: defaults.value(name) * draw(st.floats(0.5, 2.0))
            for name in d.required_params}
    for name, domain in d.domains.items():
        vals[name] = min(vals[name], domain.hi)
    for a, b in d.sum_constraints:
        vals[b] = min(vals[b], 1.0 - vals[a])
    p = ParameterSet(vals)
    assert validate_params(mid, p) == []
    x = np.array(draw(st.lists(st.floats(0.0, 1e4), min_size=d.state_dim,
                               max_size=d.state_dim)))
    i = draw(st.integers(0, d.state_dim - 1))
    x[i] = 0.0
    assume(x.sum() > 0.0)  # live-population models need someone alive
    u = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=d.control_dim,
                               max_size=d.control_dim)))
    return p, draw(st.floats(0.0, 5.0)), x, u, i


class TestNonnegativity:
    @pytest.mark.parametrize("mid", list(ModelId))
    @given(data=st.data())
    def test_empty_compartment_does_not_decrease(self, mid, data):
        p, t, x, u, i = data.draw(boundary_points(mid))
        assert dynamics(mid, t, x, u, p)[i] >= 0.0

    @pytest.mark.parametrize("mid", list(ModelId))
    def test_tiny_live_population_stays_finite(self, mid):
        # A lone subnormal-scale compartment: reinfection once formed beta*c/N
        # first, which overflowed to inf and made every component NaN.
        d = model_definition(mid)
        x = np.zeros(d.state_dim)
        x[-1] = 2.2250738585072014e-308
        f = dynamics(mid, 0.0, x, np.zeros(d.control_dim), default_params(mid))
        assert np.all(np.isfinite(f))
        assert np.all(f[:-1] >= 0.0)

    @pytest.mark.parametrize("mid", list(ModelId))
    def test_tiny_live_population_costate_stays_finite(self, mid):
        # reinfection, korea and bowong once divided by N * N, which underflows
        # to 0 below N ~ 1e-154 and made their costate NaN
        d = model_definition(mid)
        w = CostWeights(a1=1.0, a2=1.0, b=(50.0,) * d.control_dim,
                        a_isolated=1.0 if d.isolated is not None else 0.0)
        lam = np.linspace(-1.0, 1.0, d.state_dim)
        f = adjoint_rhs(mid, 0.0, np.full(d.state_dim, 1e-200), lam,
                        np.full(d.control_dim, 0.5), default_params(mid), w)
        assert np.all(np.isfinite(f))


class TestReductionIdentities:
    @pytest.mark.parametrize("mid", [m for m in ModelId if has_baseline(m)])
    def test_neutral_control_matches_baseline_exactly(self, mid):
        d = model_definition(mid)
        p = default_params(mid)
        u0 = neutral_control(mid)
        rng = np.random.default_rng(11)
        for _ in range(200):
            x = rng.uniform(1.0, 1e4, size=d.state_dim)
            a = dynamics(mid, 0.7, x, u0, p)
            b = uncontrolled_rhs(mid, 0.7, x, p)
            assert np.array_equal(a, b)


class TestControlLaws:
    def test_clamped_at_zero_when_adjoints_equal(self):
        p = flagship_params()
        w = CostWeights(a1=1.0, b=(100.0,))
        lam = np.array([0.0, 0.4, 0.4, 0.0])
        u = control_characterization(ModelId.SEIRS, 0.0, flagship_x0(), lam, p, w)
        assert u[0] == 0.0

    def test_interior_value(self):
        # k1 * L1 * (lam3 - lam2) / B = 1 * 37 * 1 / 100 = 0.37
        p = flagship_params()
        w = CostWeights(a1=1.0, b=(100.0,))
        x = np.array([100.0, 37.0, 5.0, 1.0])
        lam = np.array([0.0, 0.0, 1.0, 0.0])
        u = control_characterization(ModelId.SEIRS, 0.0, x, lam, p, w)
        assert u[0] == pytest.approx(0.37, rel=1e-12)

    def test_clamped_at_upper_bound(self):
        p = flagship_params()
        w = CostWeights(a1=1.0, b=(100.0,))
        x = np.array([100.0, 320.0, 5.0, 1.0])
        lam = np.array([0.0, 0.0, 1.0, 0.0])  # raw value 3.2
        u = control_characterization(ModelId.SEIRS, 0.0, x, lam, p, w)
        assert u[0] == 1.0

    @pytest.mark.parametrize("mid", list(ModelId))
    @pytest.mark.parametrize("scale", [0.25, 7.0])
    def test_invariant_under_joint_weight_adjoint_scaling(self, mid, scale):
        d = model_definition(mid)
        p = default_params(mid)
        w = CostWeights(a1=1.0, a2=0.5, b=tuple(50.0 for _ in range(d.control_dim)))
        ws = CostWeights(a1=scale * w.a1, a2=scale * w.a2,
                         b=tuple(scale * bi for bi in w.b))
        rng = np.random.default_rng(5)
        for _ in range(25):
            x = rng.uniform(1.0, 1e4, size=d.state_dim)
            lam = rng.uniform(-50.0, 50.0, size=d.state_dim)
            u1 = control_characterization(mid, 0.2, x, lam, p, w)
            u2 = control_characterization(mid, 0.2, x, scale * lam, p, ws)
            assert np.allclose(u1, u2, rtol=1e-9, atol=1e-12)

    def test_bowong_law_beats_dense_grid(self):
        # non-separable control coupling: exact box minimizer vs 101x101 grid
        from tbctrl import hamiltonian
        mid = ModelId.BOWONG
        p = default_params(mid)
        w = CostWeights(a1=1.0, b=(60.0, 40.0))
        rng = np.random.default_rng(17)
        axis = np.linspace(0.0, 1.0, 101)
        for _ in range(10):
            x = rng.uniform(1.0, 1e4, size=4)
            lam = rng.uniform(-80.0, 80.0, size=4)
            u_star = control_characterization(mid, 0.0, x, lam, p, w)
            h_star = hamiltonian(mid, 0.0, x, lam, u_star, p, w)
            h_grid = min(hamiltonian(mid, 0.0, x, lam, np.array([a, b]), p, w)
                         for a in axis for b in axis)
            assert h_star <= h_grid + 1e-10 * max(1.0, abs(h_star))


class TestRunningCost:
    def test_infectious_burden_only(self):
        w = CostWeights(a1=1.0, b=(100.0,))
        x = np.array([0.0, 0.0, 100.0, 0.0])
        assert running_cost(ModelId.SEIRS, x, np.array([0.0]), w) == 100.0

    def test_pure_effort(self):
        w = CostWeights(a1=1.0, b=(100.0,))
        x = np.zeros(4)
        assert running_cost(ModelId.SEIRS, x, np.array([1.0]), w) == 50.0

    def test_combined_burden_and_effort(self):
        # a1*I + a2*L + (B/2)u^2 = 10 + 10 + 12.5 on the two-strain aggregates
        w = CostWeights(a1=1.0, a2=2.0, b=(100.0, 100.0))
        x = np.array([0.0, 0.0, 0.0, 5.0, 10.0, 0.0])  # L2=5, I2=10
        got = running_cost(ModelId.TWO_STRAIN, x, np.array([0.5, 0.0]), w)
        assert got == pytest.approx(32.5, rel=1e-14)

    def test_cost_vector_patterns(self):
        w = CostWeights(a1=2.0, a2=3.0, b=(1.0, 1.0))
        vec = cost_state_vector(ModelId.TWO_STRAIN, w)
        assert np.array_equal(vec, [0.0, 0.0, 0.0, 3.0, 2.0, 0.0])


class TestValidateParams:
    def test_flagship_set_is_valid(self):
        assert validate_params(ModelId.SEIRS, flagship_params()) == []

    def test_treatment_failure_split_must_stay_below_one(self):
        p = default_params(ModelId.TWO_STRAIN).with_updates({"p": 0.7, "q": 0.5})
        msgs = validate_params(ModelId.TWO_STRAIN, p)
        assert any("p + q <= 1" in m for m in msgs)

    def test_missing_parameter_reported(self):
        p = ParameterSet({"beta": 13.0})
        msgs = validate_params(ModelId.SEIRS, p)
        assert any("missing parameter 'mu'" in m for m in msgs)

    def test_negative_rate_reported(self):
        p = flagship_params().with_updates({"mu": -0.1})
        msgs = validate_params(ModelId.SEIRS, p)
        assert any("'mu'" in m for m in msgs)

    def test_proportion_below_zero_reported_once(self):
        p = default_params(ModelId.TWO_STRAIN).with_updates({"p": -0.1})
        assert validate_params(ModelId.TWO_STRAIN, p) == ["parameter 'p' must be >= 0.0, got -0.1"]

    def test_time_table_only_where_supported(self):
        p = flagship_params().with_updates({"mu": TimeTable((0.0, 1.0), (0.01, 0.02))})
        msgs = validate_params(ModelId.SEIRS, p)
        assert any("time-dependent" in m for m in msgs)

    def test_time_table_range_checked(self):
        p = default_params(ModelId.KOREA).with_updates(
            {"s": TimeTable((0.0, 1.0), (0.5, 1.5))})
        msgs = validate_params(ModelId.KOREA, p)
        assert any("'s'" in m for m in msgs)

    @pytest.mark.parametrize("values", [(math.nan, 0.05, 0.06), (0.05, math.nan, 0.06),
                                        (0.05, 0.06, math.nan)])
    def test_nan_anywhere_in_time_table_reported(self, values):
        # min()/max() skip a NaN that is not the first entry; every value is checked
        p = default_params(ModelId.KOREA).with_updates(
            {"b": TimeTable((0.0, 1.0, 2.0), values)})
        assert validate_params(ModelId.KOREA, p) == ["parameter 'b' must be finite"]


class TestKoreaTimeDependence:
    def test_table_rates_enter_dynamics(self):
        p = default_params(ModelId.KOREA).with_updates(
            {"k": TimeTable((0.0, 10.0), (0.05, 0.25))})
        x = np.array([5000.0, 800.0, 300.0, 2000.0])
        u = np.zeros(3)
        f_early = dynamics(ModelId.KOREA, 0.0, x, u, p)
        f_late = dynamics(ModelId.KOREA, 10.0, x, u, p)
        # progression k*L1 appears in both the I inflow and the L1 outflow
        assert f_late[2] - f_early[2] == pytest.approx(0.2 * 800.0, rel=1e-12)

    def test_constant_and_single_row_table_agree(self):
        base = default_params(ModelId.KOREA)
        tab = base.with_updates({"k": TimeTable((0.0,), (base.value("k"),))})
        x = np.array([5000.0, 800.0, 300.0, 2000.0])
        u = np.array([0.2, 0.4, 0.1])
        assert np.array_equal(dynamics(ModelId.KOREA, 3.0, x, u, base),
                              dynamics(ModelId.KOREA, 3.0, x, u, tab))


class TestDegenerateInputs:
    @pytest.mark.parametrize("mid", [ModelId.REINFECTION, ModelId.KOREA,
                                     ModelId.BOWONG, ModelId.ISOLATION_IMMIGRATION])
    def test_zero_population_rejected(self, mid):
        from tbctrl.core import ValidationError
        d = model_definition(mid)
        p = default_params(mid)
        with pytest.raises(ValidationError):
            dynamics(mid, 0.0, np.zeros(d.state_dim), np.zeros(d.control_dim), p)

    def test_dimension_mismatch_rejected(self):
        from tbctrl.core import ValidationError
        p = flagship_params()
        with pytest.raises(ValidationError):
            dynamics(ModelId.SEIRS, 0.0, np.zeros(3), np.zeros(1), p)
        with pytest.raises(ValidationError):
            adjoint_rhs(ModelId.SEIRS, 0.0, np.zeros(4), np.zeros(3), np.zeros(1),
                        p, CostWeights(a1=1.0, b=(1.0,)))


    @pytest.mark.parametrize("mid", [ModelId.SEIRS, ModelId.KOREA])
    @pytest.mark.parametrize("wrapper, vector", [
        ("dynamics", "x"), ("dynamics", "u"),
        ("adjoint_rhs", "x"), ("adjoint_rhs", "lam"), ("adjoint_rhs", "u"),
        ("control_characterization", "x"), ("control_characterization", "lam"),
        ("running_cost", "x"), ("running_cost", "u"),
        ("hamiltonian", "x"), ("hamiltonian", "lam"), ("hamiltonian", "u"),
    ])
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_every_point_wrapper_checks_every_vector(self, mid, wrapper, vector, extra):
        d = model_definition(mid)
        p, w = default_params(mid), CostWeights(a1=1.0, b=(50.0,) * d.control_dim)
        v = {"x": np.full(d.state_dim, 100.0), "lam": np.ones(d.state_dim),
             "u": np.full(d.control_dim, 0.5)}
        v[vector] = np.full(len(v[vector]) + extra, v[vector][0])
        x, lam, u = v["x"], v["lam"], v["u"]
        call = {
            "dynamics": lambda: dynamics(mid, 0.5, x, u, p),
            "adjoint_rhs": lambda: adjoint_rhs(mid, 0.5, x, lam, u, p, w),
            "control_characterization": lambda: control_characterization(mid, 0.5, x, lam, p, w),
            "running_cost": lambda: running_cost(mid, x, u, w),
            "hamiltonian": lambda: hamiltonian(mid, 0.5, x, lam, u, p, w),
        }[wrapper]
        what = {"x": "state", "lam": "adjoint", "u": "control"}[vector]
        with pytest.raises(ValidationError, match=rf"^{mid.value}: {what} must have shape"):
            call()


# Each entry point that solves or checks a problem, called on a scenario.
PROBLEM_ENTRIES = {
    "solve_fbs": solve_fbs,
    "solve_direct": lambda cfg: solve_direct(cfg, coarse_steps=5, max_iters=1),
    "best_constant_control": lambda cfg: best_constant_control(cfg, grid_points=2),
    "reduced_cost_gradient": lambda cfg: reduced_cost_gradient(
        cfg.model, cfg.params, cfg.weights, cfg.grid, cfg.initial_state(),
        np.zeros((cfg.grid.n_nodes, 1))),
    "verify_adjoint_consistency": lambda cfg: verify_adjoint_consistency(
        cfg.model, cfg.params, cfg.weights, samples=1),
    "verify_control_stationarity": lambda cfg: verify_control_stationarity(
        cfg.model, cfg.params, cfg.weights, samples=1),
}


# Each entry point that evaluates or integrates a model for a parameter set,
# called on seirs at a point or on a 4-step grid.
_X, _LAM, _U = np.full(4, 100.0), np.ones(4), np.full(1, 0.5)
_W, _GRID = CostWeights(a1=1.0, b=(50.0,)), make_time_grid(0.0, 1.0, 4)
PARAMETER_ENTRIES = {
    "integrate_forward": lambda p: integrate_forward(
        ModelId.SEIRS, p, _X, np.tile(_U, (_GRID.n_nodes, 1)), _GRID),
    "integrate_adjoint_backward": lambda p: integrate_adjoint_backward(
        ModelId.SEIRS, p, _W, np.tile(_X, (_GRID.n_nodes, 1)), np.tile(_U, (_GRID.n_nodes, 1)), _GRID),
    "dynamics": lambda p: dynamics(ModelId.SEIRS, 0.5, _X, _U, p),
    "adjoint_rhs": lambda p: adjoint_rhs(ModelId.SEIRS, 0.5, _X, _LAM, _U, p, _W),
    "control_characterization": lambda p: control_characterization(ModelId.SEIRS, 0.5, _X, _LAM, p, _W),
    "hamiltonian": lambda p: hamiltonian(ModelId.SEIRS, 0.5, _X, _LAM, _U, p, _W),
}


class TestValidateProblem:
    @pytest.mark.parametrize("problem", ["mu = -1", "seirs with a_isolated = 1"])
    @pytest.mark.parametrize("entry", PROBLEM_ENTRIES)
    def test_every_entry_point_rejects_the_same_problems(self, flagship, shrink, entry, problem):
        cfg = shrink(flagship, 50)
        assert cfg.model is ModelId.SEIRS
        cfg = {
            "mu = -1": replace(cfg, params=cfg.params.with_updates({"mu": -1.0})),
            "seirs with a_isolated = 1": replace(cfg, weights=replace(cfg.weights, a_isolated=1.0)),
        }[problem]
        with pytest.raises(ValidationError):
            PROBLEM_ENTRIES[entry](cfg)

    @pytest.mark.parametrize("problem", ["N = 0", "mu = -1", "beta time table"])
    @pytest.mark.parametrize("entry", PARAMETER_ENTRIES)
    def test_every_pass_and_point_entry_rejects_the_same_parameters(self, entry, problem):
        p = default_params(ModelId.SEIRS)
        PARAMETER_ENTRIES[entry](p)
        p = p.with_updates({
            "N = 0": {"N": 0.0},
            "mu = -1": {"mu": -1.0},
            "beta time table": {"beta": TimeTable((0.0, 1.0), (13.0, 20.0))},  # seirs allows none
        }[problem])
        with pytest.raises(ValidationError, match=r"^seirs: invalid parameters"):
            PARAMETER_ENTRIES[entry](p)

    @pytest.mark.parametrize("entry", ["adjoint_rhs", "integrate_adjoint_backward"])
    @pytest.mark.parametrize("mid", list(ModelId))
    def test_costate_entry_points_check_the_weights_fit(self, mid, entry):
        # no adjoint reads b and only isolation-immigration's reads a_isolated,
        # so the entry points check the fit themselves
        d = model_definition(mid)
        p, g = default_params(mid), make_time_grid(0.0, 1.0, 4)
        x, u = np.full(d.state_dim, 100.0), np.full(d.control_dim, 0.5)
        call = {
            "adjoint_rhs": lambda w: adjoint_rhs(mid, 0.5, x, np.ones(d.state_dim), u, p, w),
            "integrate_adjoint_backward": lambda w: integrate_adjoint_backward(
                mid, p, w, np.tile(x, (g.n_nodes, 1)), np.tile(u, (g.n_nodes, 1)), g),
        }[entry]
        fits = CostWeights(a1=1.0, b=(50.0,) * d.control_dim)
        call(fits)
        with pytest.raises(ValidationError, match=f"needs {d.control_dim} effort weights"):
            call(replace(fits, b=(50.0,) * (d.control_dim + 1)))
        if d.isolated is None:
            with pytest.raises(ValidationError, match="no isolated compartment"):
                call(replace(fits, a_isolated=1.0))
        else:
            call(replace(fits, a_isolated=1.0))
