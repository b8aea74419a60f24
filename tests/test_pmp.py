import itertools
import math
import random
import re
from dataclasses import replace
from fractions import Fraction as F
from functools import reduce

import numpy as np
import pytest

from tbctrl import (CostWeights, ModelId, adjoint_rhs, control_characterization, dynamics,
                    hamiltonian, running_cost, verify_adjoint_consistency,
                    verify_control_stationarity)
from tbctrl.core import ParameterSet, TimeTable, ValidationError
from tbctrl import models as models_pkg
from tbctrl import pmp
from tbctrl.models.base import live_population
from tbctrl.pmp import _WIDTH, DEFAULT_SEED, _draws, _grid_search, _hamiltonian, _row_least
from tbctrl.cli import main
from conftest import uniforms


def flagship_params():
    return ParameterSet({
        "Lambda": 143.0, "beta": 13.0, "c": 1.0, "mu": 0.0143, "sigma": 1.0,
        "k1": 1.0, "r1": 2.0, "r2": 1.0, "d1": 0.0, "N": 10000.0,
    })


class TestHamiltonian:
    @pytest.mark.parametrize("mid", list(ModelId))
    def test_zero_adjoint_gives_running_cost(self, mid):
        # one running-cost form: bitwise, with every state-cost weight the model has nonzero
        d = models_pkg.model_definition(mid)
        p = models_pkg.default_params(mid)
        w = CostWeights(a1=1.3, a2=0.7, a_isolated=0.9 if d.isolated is not None else 0.0,
                        b=tuple(50.0 + 10.0 * i for i in range(d.control_dim)))
        rng = np.random.default_rng(20)
        for _ in range(200):
            t = rng.uniform(0.0, 5.0)
            x = 10.0 ** rng.uniform(1.0, 4.0, d.state_dim)
            u = rng.uniform(0.0, 1.0, d.control_dim)
            got = hamiltonian(mid, t, x, np.zeros(d.state_dim), u, p, w)
            assert got == running_cost(mid, x, u, w)

    def test_zero_cost_gives_inner_product(self):
        p = flagship_params()
        w = CostWeights(a1=0.0, b=(100.0,))
        x = np.array([6000.0, 3000.0, 400.0, 600.0])
        lam = np.array([0.3, -0.1, 0.7, 0.2])
        u = np.zeros(1)
        f = dynamics(ModelId.SEIRS, 0.0, x, u, p)
        assert hamiltonian(ModelId.SEIRS, 0.0, x, lam, u, p, w) == pytest.approx(
            float(lam @ f), rel=1e-14)

    def test_matches_exact_substitution(self):
        # oracle: full substitution evaluated in exact rational arithmetic
        n = 10000.0
        x = np.array([(76 / 120) * n, (38 / 120) * n, (5 / 120) * n, (1 / 120) * n])
        lam = np.array([0.1, -0.2, 0.3, -0.4])
        mu, c, beta, sigma = F(0.0143), F(1), F(13), F(1)
        r1, r2, k1, d1, nn, lam_in = F(2), F(1), F(1), F(0), F(10000), F(143)
        a_w, b_w, u = F(1), F(100), F(0.37)
        s, l1, i1, tr = (F(v) for v in x)
        m1, m2, m3, m4 = (F(v) for v in lam)
        th = beta * c / nn
        f1 = lam_in - th * s * i1 - mu * s
        f2 = th * s * i1 - (mu + r1) * l1 - (1 - u) * k1 * l1 + sigma * th * tr * i1
        f3 = (1 - u) * k1 * l1 - (mu + r2 + d1) * i1
        f4 = r1 * l1 + r2 * i1 - sigma * th * tr * i1 - mu * tr
        exact = a_w * i1 + b_w / 2 * u * u + m1 * f1 + m2 * f2 + m3 * f3 + m4 * f4
        assert float(exact) == pytest.approx(-1144.471388888889, rel=1e-13)
        got = hamiltonian(ModelId.SEIRS, 0.0, x, lam, np.array([0.37]),
                          flagship_params(), CostWeights(a1=1.0, b=(100.0,)))
        assert got == pytest.approx(float(exact), rel=1e-12)

    @pytest.mark.parametrize("mid", list(ModelId))
    def test_control_columns_match_single_points(self, mid):
        # one kernel call over G control columns equals G calls of the public wrapper
        d = models_pkg.model_definition(mid)
        p = models_pkg.default_params(mid)
        if mid is ModelId.KOREA:  # q must be resolved at t, not at 0
            p = p.with_updates({"mu": TimeTable((0.0, 5.0), (0.01, 0.03))})
        w = CostWeights(a1=1.0, a2=0.5, b=tuple(40.0 + 10.0 * i for i in range(d.control_dim)))
        rng = np.random.default_rng(11)
        t = 2.5
        for _ in range(3):
            x = 10.0 ** rng.uniform(0.0, 4.0, size=d.state_dim)
            lam = rng.uniform(-100.0, 100.0, size=d.state_dim)
            cols = rng.uniform(0.0, 1.0, size=(d.control_dim, 25))
            h = _hamiltonian(d, t, x, lam, cols, p.values(d.required_params, t), w)
            assert h.shape == (25,)
            for j in range(25):
                assert h[j] == pytest.approx(
                    hamiltonian(mid, t, x, lam, cols[:, j], p, w), rel=1e-12, abs=0.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            hamiltonian(ModelId.SEIRS, 0.0, np.zeros(4), np.zeros(3), np.zeros(1),
                        flagship_params(), CostWeights(a1=1.0, b=(1.0,)))


def reference_draws(d, w, samples, seed):
    """Four draws per sample, x, lam, u and t in turn, each mapped as lo + (hi - lo) r."""
    rng = random.Random(seed)
    for _ in range(samples):
        x = 10.0 ** (0.0 + 4.0 * uniforms(rng, d.state_dim))
        lam = -100.0 + 200.0 * uniforms(rng, d.state_dim)
        u = w.lower + (w.upper - w.lower) * uniforms(rng, d.control_dim)
        yield 0.0 + 5.0 * uniforms(rng, 1).item(), x, lam, u


def draw_rows(d, w, samples, seed):
    """``_draws``' columns as one (t, x, lam, u) row per sample: t a float, the others views."""
    t, x, lam, u = _draws(d, w, samples, seed)
    return [(t.item(k), x[:, k, 0], lam[:, k, 0], u[:, k, 0]) for k in range(samples)]


class TestDraws:
    @pytest.mark.parametrize("mid", list(ModelId))
    def test_match_four_calls_per_sample(self, mid):
        d = models_pkg.model_definition(mid)
        w = CostWeights(a1=1.0, b=(1.0,) * d.control_dim, lower=0.05, upper=0.9)
        for seed in (1, 7, DEFAULT_SEED):
            t, *cols = _draws(d, w, 60, seed)
            assert t.shape == (60, 1)
            assert [c.shape for c in cols] == [(d.state_dim, 60, 1)] * 2 + [(d.control_dim, 60, 1)]
            ref = list(zip(*reference_draws(d, w, 60, seed)))
            assert t.tobytes() == np.array(ref[0]).tobytes()
            for c, r in zip(cols, ref[1:]):
                assert c.tobytes() == np.array(r).T[:, :, None].tobytes()


class TestRecordTypes:
    """Worst-offender records hold builtin numbers, read from the draws' columns by index:
    under numpy 2 the repr of a numpy float reads np.float64(...)."""

    @pytest.mark.parametrize("mid", list(ModelId), ids=lambda m: m.value)
    def test_records_hold_builtin_types(self, mid):
        adj = verify_adjoint_consistency(mid, samples=30).worst_offenders
        stat = verify_control_stationarity(mid, samples=30, grid_points=11).worst_offenders
        floats = lambda v: type(v) is list and all(type(e) is float for e in v)
        for rec in adj + stat:
            assert type(rec["sample"]) is int and type(rec["t"]) is float
            assert type(rec["residual"]) is float
        for rec in adj:
            assert type(rec["component"]) is int and floats(rec["x"])
            assert len(rec["x"]) == models_pkg.model_definition(mid).state_dim
        for rec in stat:
            assert floats(rec["u_star"])
            assert len(rec["u_star"]) == models_pkg.model_definition(mid).control_dim


class TestAdjointConsistency:
    def test_seirs_within_tolerance(self):
        r = verify_adjoint_consistency(ModelId.SEIRS, samples=100)
        assert r.max_adjoint_residual < 1e-12
        assert r.samples == 100 and r.seed == 1234
        assert len(r.worst_offenders) == 3

    def test_mutated_adjoint_detected(self, monkeypatch):
        defn = models_pkg.model_definition(ModelId.SEIRS)
        orig = defn.adjoint

        def broken(t, x, lam, u, p, w):
            out = orig(t, x, lam, u, p, w)
            out[0] += 1.0
            return out

        monkeypatch.setitem(models_pkg.MODELS, ModelId.SEIRS,
                            replace(defn, adjoint=broken))
        r = verify_adjoint_consistency(ModelId.SEIRS, samples=20)
        assert r.max_adjoint_residual > 1e-3
        assert r.worst_offenders[0]["residual"] > 1e-3

    @pytest.mark.parametrize("mid, pattern, weight", [
        (ModelId.ISOLATION_IMMIGRATION, "isolated", "a_isolated"),
        (ModelId.REINFECTION, "latent", "a2"),  # its source objective has no latent term
    ])
    def test_dropped_state_cost_term_detected(self, monkeypatch, capsys, mid, pattern, weight):
        # the default weights switch every state-cost term on, so none can go missing unseen
        defn = models_pkg.model_definition(mid)
        orig = defn.adjoint

        def dropped(t, x, lam, u, p, w):
            out = orig(t, x, lam, u, p, w)
            for i, on in enumerate(getattr(defn, pattern)):
                out[i] += on * getattr(w, weight)
            return out

        monkeypatch.setitem(models_pkg.MODELS, mid, replace(defn, adjoint=dropped))
        r = verify_adjoint_consistency(mid, samples=20)
        assert r.max_adjoint_residual > 1e-3
        assert main(["verify", mid.value]) == 2
        assert "FAIL" in capsys.readouterr().out

    def test_zero_samples_rejected(self):
        with pytest.raises(ValidationError):
            verify_adjoint_consistency(ModelId.SEIRS, samples=0)

    def test_batches_no_wider_than_budget(self, monkeypatch):
        # two-strain steps 6 states per sample, each a complex value of two floats, so a batch
        # holds _WIDTH // 12 samples: _WIDTH // 12 * 12 floats of every state entry at most
        defn = models_pkg.model_definition(ModelId.TWO_STRAIN)
        widths, floats = [], []

        def rhs(t, x, u, p):
            widths.append(max(np.size(v) for v in (*x, *u)))
            floats.append(max(np.asarray(v).nbytes for v in (*x, *u)) // 8)
            return defn.rhs(t, x, u, p)

        monkeypatch.setitem(models_pkg.MODELS, ModelId.TWO_STRAIN, replace(defn, rhs=rhs))
        r = verify_adjoint_consistency(ModelId.TWO_STRAIN, samples=_WIDTH // 12 + 1)
        assert r.max_adjoint_residual < 1e-12
        assert widths == [_WIDTH // 12 * 6, 6]
        assert floats == [_WIDTH // 12 * 12, 12] and max(floats) <= _WIDTH

    @pytest.mark.parametrize("mid", list(ModelId))
    def test_complex_step_passes_cli_threshold_for_every_seed(self, mid):
        # the complex step has no cancellation, so only roundoff stays, under `tbctrl verify`'s
        # 1e-12 bar
        worst = max(verify_adjoint_consistency(mid, seed=seed).max_adjoint_residual
                    for seed in range(1, 201))
        assert worst < 1e-12

    @pytest.mark.parametrize("mid, i", [(mid, i) for mid in ModelId for i in
                                        range(models_pkg.model_definition(mid).state_dim)],
                             ids=lambda v: getattr(v, "value", v))
    def test_costate_term_off_by_1e_9_detected(self, monkeypatch, capsys, mid, i):
        # a costate component wrong by one part in 1e9 passes a 1e-6 bar, but not 1e-12
        defn = models_pkg.model_definition(mid)

        def scaled(*args):
            out = defn.adjoint(*args)
            out[i] = out[i] * (1.0 + 1e-9)
            return out

        monkeypatch.setitem(models_pkg.MODELS, mid, replace(defn, adjoint=scaled))
        assert verify_adjoint_consistency(mid).max_adjoint_residual >= 1e-12
        assert main(["verify", mid.value]) == 2
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("mid", list(ModelId), ids=lambda m: m.value)
    def test_rhs_dropping_the_complex_step_fails(self, monkeypatch, capsys, mid):
        # an rhs that is not analytic in x loses the step: H's derivative is then the running
        # cost's alone, far from the adjoint, and not a residual of 0
        defn = models_pkg.model_definition(mid)

        def real_part(t, x, u, p):
            return defn.rhs(t, [v.real for v in x], u, p)

        monkeypatch.setitem(models_pkg.MODELS, mid, replace(defn, rhs=real_part))
        assert verify_adjoint_consistency(mid).max_adjoint_residual > 1e-3
        assert main(["verify", mid.value]) == 2
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("x, refused", [
        ([1e-20j, 0.0], True),  # complex order would call N = 1e-20 i positive
        ([np.array([[0.0, 1.0]]) + 1e-20j * e for e in np.eye(2)], True),
        ([np.array([[2.0, 1.0]]) + 1e-20j * e for e in np.eye(2)], False),
    ])
    def test_live_population_judges_a_complex_step_by_its_real_part(self, x, refused):
        if refused:
            with pytest.raises(ValidationError, match="degenerate population: N"):
                live_population(x)
        else:
            np.testing.assert_array_equal(live_population(x), x[0] + x[1])


class TestControlStationarity:
    def test_seirs_grid_minimum(self):
        r = verify_control_stationarity(ModelId.SEIRS, samples=50, grid_points=101)
        assert r.max_stationarity_residual < 1e-10

    def test_descents_when_upper_adjoint_smaller(self):
        # lam3 < lam2 pushes the raw law negative: clamp at 0, H nondecreasing in u
        from tbctrl import control_characterization
        p = flagship_params()
        w = CostWeights(a1=1.0, b=(100.0,))
        x = np.array([6000.0, 3000.0, 400.0, 600.0])
        lam = np.array([0.0, 0.9, 0.1, 0.0])
        u_star = control_characterization(ModelId.SEIRS, 0.0, x, lam, p, w)
        assert u_star[0] == 0.0
        grid = np.linspace(0.0, 1.0, 101)
        h_vals = [hamiltonian(ModelId.SEIRS, 0.0, x, lam, np.array([v]), p, w)
                  for v in grid]
        assert np.all(np.diff(h_vals) >= -1e-12)

    def test_two_control_joint_minimum(self):
        r = verify_control_stationarity(ModelId.TWO_STRAIN, samples=30, grid_points=51)
        assert r.max_stationarity_residual < 1e-10

    @pytest.mark.parametrize("mid", list(ModelId))
    def test_passes_cli_threshold_for_every_seed(self, mid):
        # each law is the exact minimiser of H's quadratic in u, so no grid node undercuts it
        worst = max(verify_control_stationarity(mid, seed=seed).max_stationarity_residual
                    for seed in range(1, 201))
        assert worst < 1e-10

    def test_zero_samples_rejected(self):
        with pytest.raises(ValidationError):
            verify_control_stationarity(ModelId.SEIRS, samples=0)

    @pytest.mark.parametrize("grid_points", [1, 0, -1])
    def test_too_few_grid_points_rejected(self, grid_points):
        # without both bounds on the grid, u* alone (0) or nothing sensible (< 0) is searched
        with pytest.raises(ValidationError, match="grid_points must be >= 2"):
            verify_control_stationarity(ModelId.SEIRS, samples=5, grid_points=grid_points)

    def test_mutated_law_detected(self, monkeypatch):
        defn = models_pkg.model_definition(ModelId.SEIRS)
        monkeypatch.setitem(
            models_pkg.MODELS, ModelId.SEIRS,
            replace(defn, characterize=lambda t, x, lam, p, w: np.array([1.0])))
        r = verify_control_stationarity(ModelId.SEIRS, samples=20, grid_points=51)
        assert r.max_stationarity_residual > 1e-6

    def test_mutated_tensor_law_detected(self, monkeypatch):
        # bowong is checked on the full tensor grid, not per-component sweeps
        defn = models_pkg.model_definition(ModelId.BOWONG)
        assert not defn.separable_controls
        monkeypatch.setitem(
            models_pkg.MODELS, ModelId.BOWONG,
            replace(defn, characterize=lambda t, x, lam, p, w: [0.5, 0.5]))
        r = verify_control_stationarity(ModelId.BOWONG, samples=20, grid_points=51)
        assert r.max_stationarity_residual > 1e-6


def _nan_first(fn):
    def broken(*args):
        out = list(fn(*args))
        out[0] = math.nan
        return out
    return broken


class TestNonFiniteResiduals:
    @pytest.mark.parametrize("name, residuals", [
        ("rhs", ("max_adjoint_residual", "max_stationarity_residual")),
        ("adjoint", ("max_adjoint_residual",)),
        ("characterize", ("max_stationarity_residual",)),
    ])
    def test_nan_model_output_fails_the_checks(self, monkeypatch, capsys, name, residuals):
        defn = models_pkg.model_definition(ModelId.SEIRS)
        monkeypatch.setitem(models_pkg.MODELS, ModelId.SEIRS,
                            replace(defn, **{name: _nan_first(getattr(defn, name))}))
        adj = verify_adjoint_consistency(ModelId.SEIRS, samples=5)
        stat = verify_control_stationarity(ModelId.SEIRS, samples=5, grid_points=11)
        for attr in residuals:
            report = adj if attr == "max_adjoint_residual" else stat
            assert not math.isfinite(getattr(report, attr))
            assert not math.isfinite(report.worst_offenders[0]["residual"])
        assert main(["verify", "seirs", "--samples", "5"]) == 2
        assert "FAIL" in capsys.readouterr().out

    def test_nan_sample_ranks_first(self, monkeypatch):
        defn = models_pkg.model_definition(ModelId.SEIRS)

        def nan_at_sample_2(*args):
            out = defn.adjoint(*args)
            out[0][2] = math.nan  # entry 2 of the output column is sample 2
            return out

        monkeypatch.setitem(models_pkg.MODELS, ModelId.SEIRS,
                            replace(defn, adjoint=nan_at_sample_2))
        r = verify_adjoint_consistency(ModelId.SEIRS, samples=10)
        assert math.isnan(r.max_adjoint_residual)
        first, second, _ = r.worst_offenders
        assert first["sample"] == 2 and math.isnan(first["residual"]) and first["component"] == 0
        assert second["residual"] < 1e-12


def point_search(mid, p, w, t, x, lam, grid_points):
    """u*, H at u* and the least H over u* and the grid of one sample, by point-wrapper calls
    at every candidate: the full Hamiltonian, not its quadratic form in u."""
    axis = np.linspace(w.lower, w.upper, grid_points)
    u_star = control_characterization(mid, t, x, lam, p, w)
    h_star = h_min = hamiltonian(mid, t, x, lam, u_star, p, w)
    if models_pkg.model_definition(mid).separable_controls:  # a sweep per control, the others held at u*
        candidates = []
        for i, v in itertools.product(range(u_star.size), axis):
            candidates.append(u_star.copy())
            candidates[-1][i] = v
    else:  # the tensor grid
        candidates = [np.array(u) for u in itertools.product(axis, repeat=u_star.size)]
    for u in candidates:
        h_min = min(h_min, hamiltonian(mid, t, x, lam, u, p, w))
    return u_star, h_star, h_min


def point_residual(mid, p, w, t, x, lam, grid_points):
    """u* and the grid-search residual of one sample, from ``point_search``."""
    u_star, h_star, h_min = point_search(mid, p, w, t, x, lam, grid_points)
    return u_star, (h_star - h_min) / max(1.0, abs(h_star))


class TestTimeTables:
    """Worst records redone point by point: both verifiers on korea with time tables,
    and the grid search on every model.

    mu enters korea's dynamics only, and r also its u3 law. Grid-search
    residuals tie at 0.0 over many samples, so that check runs one sample per
    seed, with effort weights that keep the last control (korea's u3) off its
    bounds for some seeds: a parameter resolved at the wrong time, or a
    candidate scored at the wrong control, then changes a record.
    """

    P = models_pkg.default_params(ModelId.KOREA).with_updates(
        {"mu": TimeTable((0.0, 2.0, 5.0), (0.01, 0.03, 0.02)),
         "r": TimeTable((0.0, 2.5, 5.0), (1.0, 3.0, 2.0))})
    W = CostWeights(a1=1.0, a2=1.0, b=(1e6, 1e6, 1e6))

    def draws(self, samples, seed):
        return draw_rows(models_pkg.model_definition(ModelId.KOREA), self.W, samples, seed)

    def test_adjoint_records_match_point_wrappers(self):
        k, p, w = ModelId.KOREA, self.P, self.W
        r = verify_adjoint_consistency(k, p, w)
        draws = self.draws(100, DEFAULT_SEED)
        for rec in r.worst_offenders:
            t, x, lam, u = draws[rec["sample"]]
            assert rec["t"] == t and rec["x"] == x.tolist()
            # the complex step by scalar calls of the kernel, one per sample and entry, as the
            # public hamiltonian casts to float
            d = models_pkg.model_definition(k)
            q = p.values(d.required_params, t)
            grad = np.empty(x.size)
            for i in range(x.size):
                xs = list(x.astype(complex))
                xs[i] += 1e-20j
                grad[i] = _hamiltonian(d, t, xs, list(lam), list(u), q, w).imag / 1e-20
            diff = np.abs(adjoint_rhs(k, t, x, lam, u, p, w) + grad)
            assert rec["component"] == int(np.argmax(diff))
            assert rec["residual"] == float(np.max(diff)) / max(1.0, float(np.max(np.abs(grad))))

    @pytest.mark.parametrize("mid", list(ModelId), ids=lambda m: m.value)
    def test_stationarity_records_match_point_wrappers(self, mid):
        d = models_pkg.model_definition(mid)
        if mid is ModelId.KOREA:
            p, w = self.P, self.W
        else:
            p = models_pkg.default_params(mid)
            w = CostWeights(a1=1.0, a2=1.0, a_isolated=1.0 if d.isolated is not None else 0.0,
                            b=(1e7,) * d.control_dim)
        interior = 0
        for seed in range(15):  # bowong's u2* is interior at 3 of seeds 0 to 14, 2 of 0 to 9
            (rec,) = verify_control_stationarity(mid, p, w, samples=1, grid_points=21,
                                                 seed=seed).worst_offenders
            ((t, x, lam, _),) = draw_rows(d, w, 1, seed)
            u_star, res = point_residual(mid, p, w, t, x, lam, 21)
            assert rec == {"sample": 0, "residual": res, "u_star": u_star.tolist(), "t": t}
            interior += 0.0 < u_star[-1] < 1.0
        assert interior >= 3


# Sample counts and grids whose search spans several batches, the last one partial.
SPLIT = _WIDTH // 101 + 9  # 101 points: whole batches of _WIDTH // 101 samples, then 9
CALL_EDGES = ([(m, None, SPLIT, 101) for m in ModelId if m is not ModelId.BOWONG]
              + [(ModelId.KOREA, "tables", SPLIT, 101),
                 (ModelId.BOWONG, None, 15, 21),  # the tensor grid, in one batch each
                 (ModelId.BOWONG, None, 2, 75)])


class TestBatchedSearch:
    """The grid search scores u* and the candidates on each sample's quadratic form of H in u,
    read by one Hamiltonian call of at most ``_WIDTH`` values per batch of samples; its records
    are those of a search point by point on the full H, to rounding."""

    @pytest.mark.parametrize("mid, tables, samples, grid_points", CALL_EDGES,
                             ids=lambda v: getattr(v, "value", str(v)))
    def test_nudged_records_match_point_wrappers(self, monkeypatch, mid, tables, samples,
                                                 grid_points):
        # off the minimum every residual is nonzero and distinct, so the ranking is strict
        defn = models_pkg.model_definition(mid)
        law = defn.characterize
        monkeypatch.setitem(models_pkg.MODELS, mid, replace(
            defn, characterize=lambda *args: [0.5 * v + 0.2537 for v in law(*args)]))
        if tables:
            p, w = TestTimeTables.P, TestTimeTables.W
        else:
            p = models_pkg.default_params(mid)
            w = CostWeights(a1=1.0, a2=1.0, a_isolated=1.0 if defn.isolated is not None else 0.0,
                            b=(100.0,) * defn.control_dim)
        r = verify_control_stationarity(mid, p, w, samples=samples, grid_points=grid_points)
        expected = []
        for i, (t, x, lam, _) in enumerate(draw_rows(defn, w, samples, DEFAULT_SEED)):
            u_star, res = point_residual(mid, p, w, t, x, lam, grid_points)
            expected.append({"sample": i, "residual": res, "u_star": u_star.tolist(), "t": t})
        residuals = {e["residual"] for e in expected}
        assert min(residuals) > 0.0 and len(residuals) == samples
        expected.sort(key=lambda e: -e["residual"])
        # The quadratic and the full H round differently: the largest gap seen is 3.8e-13.
        near = lambda v: pytest.approx(v, rel=0.0, abs=1e-12)
        assert r.max_stationarity_residual == near(expected[0]["residual"])
        for got, want in zip(r.worst_offenders, expected[:3], strict=True):
            assert got == {**want, "residual": near(want["residual"])}

    @pytest.mark.parametrize("mid, samples, grid_points, batches", [
        (ModelId.SEIRS, 250, 101, [51, 51, 51, 51, 46]),
        (ModelId.BOWONG, 2, 301, [2]),
        (ModelId.KOREA, 700, 2, [321, 321, 58]),  # (m + 1)^2 = 16, not the grid, sets the batch
    ], ids=["seirs", "bowong", "korea"])
    def test_calls_no_wider_than_budget(self, monkeypatch, mid, samples, grid_points, batches):
        # one call per batch: its samples at every stencil point and at their drawn u
        defn = models_pkg.model_definition(mid)
        m = defn.control_dim
        widths = []

        def rhs(t, x, u, p):
            widths.append(np.broadcast(t, *x, *u).size)
            return defn.rhs(t, x, u, p)

        monkeypatch.setitem(models_pkg.MODELS, mid, replace(defn, rhs=rhs))
        verify_control_stationarity(mid, samples=samples, grid_points=grid_points)
        points = 1 + 2 * m + m * (m - 1) // 2 + 1
        assert widths == [b * points for b in batches] and max(widths) <= _WIDTH


class TestQuadraticForm:
    """The grid search reads H's coefficients in u from a stencil, and checks the form at
    each sample's drawn u."""

    @pytest.mark.parametrize("mid", [ModelId.SEIRS, ModelId.BOWONG], ids=lambda m: m.value)
    def test_cubic_term_fails_the_form_check(self, monkeypatch, capsys, mid):
        # a u^3 term free of x leaves the adjoint right and every law unchanged, so only the
        # form check can see it: it makes the residuals NaN, and `tbctrl verify` fails the model
        defn = models_pkg.model_definition(mid)

        def cubic(t, x, u, p):
            out = defn.rhs(t, x, u, p)
            out[1] = out[1] + u[0] ** 3
            return out

        monkeypatch.setitem(models_pkg.MODELS, mid, replace(defn, rhs=cubic))
        r = verify_control_stationarity(mid, samples=20)
        assert math.isnan(r.max_stationarity_residual)
        assert all(math.isnan(rec["residual"]) for rec in r.worst_offenders)
        assert verify_adjoint_consistency(mid, samples=20).max_adjoint_residual < 1e-12
        assert main(["verify", mid.value]) == 2
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("mid", list(ModelId), ids=lambda m: m.value)
    def test_grid_minimum_matches_full_hamiltonian(self, mid):
        # an independent reference: the same candidates scored by point calls of the full H
        d = models_pkg.model_definition(mid)
        p = models_pkg.default_params(mid)
        w = CostWeights(a1=1.0, a2=1.0, a_isolated=1.0 if d.isolated is not None else 0.0,
                        b=(100.0,) * d.control_dim)
        u_star, h_star, h_min = _grid_search(d, p, w, _draws(d, w, 20, DEFAULT_SEED), 11)
        rows = draw_rows(d, w, 20, DEFAULT_SEED)
        for (t, x, lam, _), us, hs, hm in zip(rows, u_star, h_star, h_min, strict=True):
            ref_u, ref_star, ref_min = point_search(mid, p, w, t, x, lam, 11)
            assert us == ref_u.tolist()
            assert hs == pytest.approx(ref_star, rel=1e-13, abs=0.0)
            assert hm == pytest.approx(ref_min, rel=1e-13, abs=0.0)


class TestArguments:
    @pytest.mark.parametrize("verify", [verify_adjoint_consistency, verify_control_stationarity])
    @pytest.mark.parametrize("kwargs, message", [
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"samples": 2.5}, "samples must be an integer, got 2.5"),
        ({"samples": True}, "samples must be an integer, got True"),
    ])
    def test_bad_seed_or_samples_refused(self, verify, kwargs, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            verify(ModelId.SEIRS, **kwargs)

    @pytest.mark.parametrize("grid_points", [2.5, 101.0, True])
    def test_non_integer_grid_points_refused(self, grid_points):
        with pytest.raises(ValidationError, match="grid_points must be an integer"):
            verify_control_stationarity(ModelId.SEIRS, samples=5, grid_points=grid_points)

    def test_numpy_integers_accepted(self):
        for verify, kwargs in [(verify_adjoint_consistency, {}),
                               (verify_control_stationarity, {"grid_points": 11})]:
            got = verify(ModelId.TWO_STRAIN, samples=np.int64(7), seed=np.int32(3),
                         **{k: np.int64(v) for k, v in kwargs.items()})
            assert got == verify(ModelId.TWO_STRAIN, samples=7, seed=3, **kwargs)


def every_node(h, sq, b, axis):
    """The least of h over every node of the grid ``axis``: what ``_row_least`` must equal."""
    return reduce(np.minimum, map(h, axis))


class TestRowBrackets:
    """A tensor row's quadratic c + z (b + Q z) in the last control is priced only at the nodes
    beside its vertex and at the ends. Scored by the same expression at every node instead, each
    row gives the same least value bitwise, in every case below."""

    @pytest.mark.parametrize("grid_points", [2, 3, 101])
    def test_built_rows_match_every_node(self, grid_points):
        axis = np.linspace(0.0, 1.0, grid_points)
        node, mid = axis[grid_points // 2], (axis[0] + axis[1]) / 2
        rows = [(50.0, -100.0 * 0.3137), (50.0, -100.0 * node),  # interior vertex; on a node
                (50.0, -100.0 * mid),  # halfway between two nodes, which tie
                (7.0, 14.0 * 0.4), (7.0, -14.0 * 1.6),  # vertex below and above [0, 1]
                (0.0, 2.5), (0.0, -2.5), (0.0, 0.0),  # Q = 0
                (-30.0, 30.0), (-30.0, 10.0), (-30.0, 70.0)]  # Q < 0
        sq, b = (np.array(v)[:, None] for v in zip(*rows))
        for c in (12.5, -3.7e5):
            scored = []

            def h(zl):
                scored.append(zl)
                return c + zl * (b + sq * zl)

            got = _row_least(h, sq, b, axis)
            assert len(scored) == 6  # four nodes beside each vertex, then both ends
            assert got.tobytes() == every_node(h, sq, b, axis).tobytes()

    @pytest.mark.parametrize("grid_points", [2, 3, 101])
    @pytest.mark.parametrize("seed", [1, 7, DEFAULT_SEED])
    def test_nudged_bowong_matches_every_node(self, monkeypatch, seed, grid_points):
        # off the minimum every residual differs, so each record shows the least value it got
        defn = models_pkg.model_definition(ModelId.BOWONG)
        law = defn.characterize
        monkeypatch.setitem(models_pkg.MODELS, ModelId.BOWONG, replace(
            defn, characterize=lambda *args: [0.5 * v + 0.2537 for v in law(*args)]))
        d, p = models_pkg.MODELS[ModelId.BOWONG], models_pkg.default_params(ModelId.BOWONG)
        w = CostWeights(a1=1.0, a2=1.0, b=(100.0, 100.0))
        batch = list(_draws(d, w, _WIDTH // grid_points, seed))
        got = _grid_search(d, p, w, batch, grid_points)
        report = verify_control_stationarity(ModelId.BOWONG, p, w, seed=seed,
                                             grid_points=grid_points)
        assert report.max_stationarity_residual > 0.0
        monkeypatch.setattr(pmp, "_row_least", every_node)
        want = _grid_search(d, p, w, batch, grid_points)
        assert got[0] == want[0]
        assert got[1].tobytes() == want[1].tobytes() and got[2].tobytes() == want[2].tobytes()
        assert repr(report) == repr(verify_control_stationarity(
            ModelId.BOWONG, p, w, seed=seed, grid_points=grid_points))


class TestColumnLaws:
    """Each model's control law called once on columns gives, entry by entry, the bits of its
    calls on floats: on 100 draws, korea with time tables, and a NaN costate, which every law
    clamps to the lower bound."""

    @pytest.mark.parametrize("mid", list(ModelId), ids=lambda m: m.value)
    def test_columns_match_float_calls(self, mid):
        d = models_pkg.model_definition(mid)
        p = TestTimeTables.P if mid is ModelId.KOREA else models_pkg.default_params(mid)
        inside = np.zeros(d.control_dim, dtype=int)  # samples off both bounds, by control
        both = 0  # samples with every control off its bounds (bowong: its interior point)
        for b, (lo, hi), seed in itertools.product((100.0, 1e4), ((0.0, 1.0), (0.05, 0.9)),
                                                   (1, 7, DEFAULT_SEED)):
            w = CostWeights(a1=1.0, a2=1.0, a_isolated=1.0 if d.isolated is not None else 0.0,
                            b=(b,) * d.control_dim, lower=lo, upper=hi)
            t, x, lam, _ = _draws(d, w, 100, seed)
            lam[:, 0] = math.nan
            law = d.characterize(t, x, lam, p.values(d.required_params, t), w)
            cols = np.array(np.broadcast_arrays(*law, t)[:d.control_dim])[:, :, 0]
            assert cols.shape == (d.control_dim, 100) and np.all(cols[:, 0] == w.lower)
            for i, ti in enumerate(t[:, 0].tolist()):
                one = d.characterize(ti, x[:, i, 0].tolist(), lam[:, i, 0].tolist(),
                                     p.values(d.required_params, ti), w)
                assert np.array(one, dtype=float).tobytes() == cols[:, i].tobytes()
            off = (w.lower < cols) & (cols < w.upper)
            inside += off.sum(axis=1)
            both += int(np.all(off, axis=0).sum())
        assert np.all(inside > 0) and both > 0
