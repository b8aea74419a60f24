"""Uncontrolled baseline systems and the neutral control values that recover them.

Each baseline is a separate transcription of the corresponding model without
its interventions. Evaluating the controlled right-hand side at the neutral
control must reproduce these exactly (bitwise), which pins down where the
controls enter; the arithmetic groupings below deliberately mirror the
controlled implementations so the comparison is exact in floating point.
"""

from __future__ import annotations

import numpy as np

from ..core import ParameterSet
from .base import ModelId, live_population
from . import seirs, two_strain, reinfection, isolation, korea

__all__ = ["has_baseline", "neutral_control", "uncontrolled_rhs"]


def _seirs_rhs(t, x, p):
    lam_in, beta, c, mu, sigma, k1, r1, r2, d1, n_pop = p.values(seirs.PARAMS)
    s, l1, i1, tr = x
    th = beta * c / n_pop
    inf_s = th * s * i1
    inf_t = sigma * th * tr * i1
    return np.array([
        lam_in - inf_s - mu * s,
        inf_s - (mu + r1) * l1 - k1 * l1 + inf_t,
        k1 * l1 - (mu + r2 + d1) * i1,
        r1 * l1 + r2 * i1 - inf_t - mu * tr,
    ])


def _two_strain_rhs(t, x, pp):
    (lam_in, beta, beta_s, c, mu, sigma, k1, k2, r1, r2,
     d1, d2, p, q, n_pop) = pp.values(two_strain.PARAMS)
    s, l1, i1, l2, i2, tr = x
    th1 = beta * c / n_pop
    th2 = beta_s * c / n_pop
    ths = sigma * beta * c / n_pop
    inf_s = th1 * s * i1
    inf_rs = th2 * s * i2
    inf_t = ths * tr * i1
    inf_rl = th2 * l1 * i2
    inf_rt = th2 * tr * i2
    return np.array([
        lam_in - inf_s - mu * s - inf_rs,
        inf_s - (mu + k1 + r1) * l1 + inf_t + p * r2 * i1 - inf_rl,
        k1 * l1 - (mu + r2 + d1) * i1,
        q * r2 * i1 - (mu + k2) * l2 + th2 * (s + l1 + tr) * i2,
        k2 * l2 - (mu + d2) * i2,
        r1 * l1 + (1.0 - (p + q)) * r2 * i1 - inf_t - mu * tr - inf_rt,
    ])


def _reinfection_rhs(t, x, p):
    lam_in, beta, c, mu, sigma, k1, r2, d1, rho = p.values(reinfection.PARAMS)
    s, l1, i1, tr = x
    n = live_population(x)
    bc = beta * c / n
    inf_s = bc * s * i1
    inf_t = sigma * bc * tr * i1
    reinf = rho * bc * l1 * i1
    return np.array([
        lam_in - inf_s - mu * s,
        inf_s - reinf - (mu + k1) * l1 + inf_t,
        reinf + k1 * l1 - (mu + r2 + d1) * i1,
        r2 * i1 - inf_t - mu * tr,
    ])


def _isolation_rhs(t, x, pp):
    (lam_in, a_in, ps, qs, beta, c, lvl, m, p, sigma, sig_s, k1, mu,
     d3, d4, r2, r3, xi) = pp.values(isolation.PARAMS)
    s, l1, i1, jc, tr = x
    n = live_population(x)
    bc = beta * c
    phi = bc * (i1 + lvl * jc) / n
    psi = sigma * bc * (i1 + sig_s * jc) / n
    iso = xi * i1
    return np.array([
        lam_in + (1.0 - (ps + qs)) * a_in - phi * s - mu * s,
        ps * a_in + (1.0 - m) * phi * s - p * phi * l1 + psi * tr - (k1 + mu) * l1,
        qs * a_in + m * phi * s + p * phi * l1 + k1 * l1 - (mu + d3 + r2) * i1 - iso,
        iso - (r3 + mu + d4) * jc,
        r2 * i1 + r3 * jc - psi * tr - mu * tr,
    ])


def _korea_rhs(t, x, p):
    b, mu, beta, alpha, k, s, r = p.values(korea.PARAMS, t)
    sv, l1, iv, l5 = x
    n = live_population(x)
    w = beta * sv * iv / n
    return np.array([
        b * n - mu * sv - w,
        w - (k + mu) * l1 + s * r * iv,
        k * l1 - (r + mu) * iv,
        (1.0 - s) * r * iv - mu * l5,
    ])


# model -> (control at which the controlled system degenerates to its baseline, baseline rhs)
_BASELINES = {
    ModelId.SEIRS: ((0.0,), _seirs_rhs),
    ModelId.TWO_STRAIN: ((1.0, 0.0), _two_strain_rhs),
    ModelId.REINFECTION: ((0.0,), _reinfection_rhs),
    ModelId.ISOLATION_IMMIGRATION: ((0.0, 0.0), _isolation_rhs),
    ModelId.KOREA: ((0.0, 0.0, 0.0), _korea_rhs),
}


def _baseline(model: ModelId):
    model = ModelId(model)
    try:
        return _BASELINES[model]
    except KeyError:
        raise KeyError(f"no uncontrolled baseline recorded for {model.value}") from None


def has_baseline(model: ModelId) -> bool:
    return model in _BASELINES


def neutral_control(model: ModelId) -> np.ndarray:
    """Control vector at which the controlled system matches its uncontrolled baseline."""
    return np.array(_baseline(model)[0])


def uncontrolled_rhs(model: ModelId, t: float, x: np.ndarray, p: ParameterSet) -> np.ndarray:
    """Right-hand side of the model's uncontrolled baseline system."""
    return _baseline(model)[1](t, np.asarray(x, dtype=float), p)
