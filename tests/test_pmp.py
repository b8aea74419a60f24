import itertools
import math
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from tbctrl import (CostWeights, ModelId, dynamics, hamiltonian, running_cost,
                    verify_adjoint_consistency, verify_control_stationarity)
from tbctrl.core import ParameterSet, ValidationError
from tbctrl import models as models_pkg
from tbctrl.cli import main


def flagship_params():
    return ParameterSet({
        "Lambda": 143.0, "beta": 13.0, "c": 1.0, "mu": 0.0143, "sigma": 1.0,
        "k1": 1.0, "r1": 2.0, "r2": 1.0, "d1": 0.0, "N": 10000.0,
    })


class TestHamiltonian:
    def test_zero_adjoint_gives_running_cost(self):
        p = flagship_params()
        w = CostWeights(a1=1.0, b=(100.0,))
        x = np.array([6000.0, 3000.0, 400.0, 600.0])
        u = np.array([0.4])
        got = hamiltonian(ModelId.SEIRS, 0.0, x, np.zeros(4), u, p, w)
        assert got == running_cost(ModelId.SEIRS, x, u, w)

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

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            hamiltonian(ModelId.SEIRS, 0.0, np.zeros(4), np.zeros(3), np.zeros(1),
                        flagship_params(), CostWeights(a1=1.0, b=(1.0,)))


class TestAdjointConsistency:
    def test_seirs_within_tolerance(self):
        r = verify_adjoint_consistency(ModelId.SEIRS, samples=100)
        assert r.max_adjoint_residual < 1e-6
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

    def test_zero_samples_rejected(self):
        with pytest.raises(ValidationError):
            verify_adjoint_consistency(ModelId.SEIRS, samples=0)

    @pytest.mark.parametrize("mid", list(ModelId))
    def test_default_step_passes_cli_threshold_for_every_seed(self, mid):
        # central-difference roundoff must stay under `tbctrl verify`'s 1e-6 bar
        worst = max(verify_adjoint_consistency(mid, seed=seed).max_adjoint_residual
                    for seed in range(1, 41))
        assert worst < 1e-6


class TestControlStationarity:
    def test_seirs_grid_minimum(self):
        r = verify_control_stationarity(ModelId.SEIRS, samples=50, grid_points=101)
        assert r.max_stationarity_residual <= 1e-10

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
        assert r.max_stationarity_residual <= 1e-10

    def test_zero_samples_rejected(self):
        with pytest.raises(ValidationError):
            verify_control_stationarity(ModelId.SEIRS, samples=0)

    def test_mutated_law_detected(self, monkeypatch):
        defn = models_pkg.model_definition(ModelId.SEIRS)
        monkeypatch.setitem(
            models_pkg.MODELS, ModelId.SEIRS,
            replace(defn, characterize=lambda t, x, lam, p, w: np.array([1.0])))
        r = verify_control_stationarity(ModelId.SEIRS, samples=20, grid_points=51)
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
        calls = itertools.count()

        def nan_on_third_call(*args):
            out = defn.adjoint(*args)
            if next(calls) == 2:
                out[0] = math.nan
            return out

        monkeypatch.setitem(models_pkg.MODELS, ModelId.SEIRS,
                            replace(defn, adjoint=nan_on_third_call))
        r = verify_adjoint_consistency(ModelId.SEIRS, samples=10)
        assert math.isnan(r.max_adjoint_residual)
        first, second, _ = r.worst_offenders
        assert first["sample"] == 2 and math.isnan(first["residual"])
        assert second["residual"] < 1e-6
