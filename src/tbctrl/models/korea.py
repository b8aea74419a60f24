"""Four-compartment TB model with time-dependent rates and three controls.

Compartments S, L1 (high-risk recent latent), I (active infectious), L5
(permanent low-risk latent). Demographic and epidemiological rates b, mu, k,
s, r may be supplied as piecewise-linear time tables. Controls: u1 distancing
(scales new infections by 1-u1), u2 case finding (moves latents to L5 at
u2*alpha), and u3 case holding (the fraction of would-be treatment failures
s*r*I prevented from re-entering L1). Population N(t) is the live sum.
"""

from __future__ import annotations

import numpy as np

from ..core import CostKind
from .base import UNIT, ModelDefinition, ModelId, clamp, live_population

LABELS = ("S", "L1", "I", "L5")
PARAMS = ("b", "mu", "beta", "alpha", "k", "s", "r")
TIME_DEPENDENT = ("b", "mu", "k", "s", "r")


def rhs(t, x, u, p):
    b, mu, beta, alpha, k, s, r = p
    sv, l1, iv, l5 = x
    n = live_population(x)
    u1, u2, u3 = u
    w = beta * sv * iv / n
    return [
        b * n - mu * sv - (1.0 - u1) * w,
        (1.0 - u1) * w - (k + u2 * alpha + mu) * l1 + (1.0 - u3) * s * r * iv,
        k * l1 - (r + mu) * iv,
        (1.0 - (1.0 - u3) * s) * r * iv + u2 * alpha * l1 - mu * l5,
    ]


def jac(t, x, u, p):
    b, mu, beta, alpha, k, s, r = p
    sv, l1, iv, l5 = x
    n = live_population(x)
    u1, u2, u3 = u
    sn, i_n = sv / n, iv / n  # shares of N, each divided once: N * N underflows below N ~ 1e-154
    d_w = beta * np.array([i_n * (1.0 - sn), -sn * i_n, sn * (1.0 - i_n), -sn * i_n])
    j = np.zeros((4, 4))
    j[0] = b - (1.0 - u1) * d_w  # bN grows with every compartment
    j[0, 0] -= mu
    j[1] = (1.0 - u1) * d_w
    j[1, 1] -= k + u2 * alpha + mu
    j[1, 2] += (1.0 - u3) * s * r
    j[2, 1] = k
    j[2, 2] = -(r + mu)
    j[3, 1] = u2 * alpha
    j[3, 2] = (1.0 - (1.0 - u3) * s) * r
    j[3, 3] = -mu
    return j


def characterize(t, x, lam, p, w):
    _, _, beta, alpha, k, s, r = p
    sv, l1, iv, _ = x
    n = live_population(x)
    w_inf = beta * sv * iv / n
    u1 = w_inf * (lam[1] - lam[0]) / w.b[0]
    u2 = alpha * l1 * (lam[1] - lam[3]) / w.b[1]
    u3 = s * r * iv * (lam[1] - lam[3]) / w.b[2]
    return [
        clamp(u1, w.lower, w.upper),
        clamp(u2, w.lower, w.upper),
        clamp(u3, w.lower, w.upper),
    ]


DEFINITION = ModelDefinition(
    id=ModelId.KOREA,
    description="TB model with time-dependent rates; distancing, case finding, case holding",
    state_labels=LABELS,
    control_labels=("u1", "u2", "u3"),
    cost_kind=CostKind.C1,
    required_params=PARAMS,
    rhs=rhs,
    characterize=characterize,
    infectious=(0.0, 0.0, 1.0, 0.0),
    latent=(0.0, 1.0, 0.0, 0.0),
    jac=jac,
    domains={"s": UNIT},
    time_dependent_ok=TIME_DEPENDENT,
)

DEFAULT_PARAMS = {
    "b": 0.02,
    "mu": 0.0143,
    "beta": 13.0,
    "alpha": 0.4,
    "k": 0.05,
    "s": 0.3,
    "r": 2.0,
}
