"""Four-compartment TB model with time-dependent rates and three controls.

Compartments S, L1 (high-risk recent latent), I (active infectious), L5
(permanent low-risk latent). Demographic and epidemiological rates b, mu, k,
s, r may be supplied as piecewise-linear time tables. Controls: u1 distancing
(scales new infections by 1-u1), u2 case finding (moves latents to L5 at
u2*alpha), and u3 case holding (the fraction of would-be treatment failures
s*r*I prevented from re-entering L1). Population N(t) is the live sum.
"""

from __future__ import annotations

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


def adjoint(t, x, lam, u, p, w):
    # Hand-derived costate system for H = a1*I + a2*L1 + (B/2)u^2 + <lam, f>.
    b, mu, beta, alpha, k, s, r = p
    sv, l1, iv, l5 = x
    m1, m2, m3, m4 = lam
    n = live_population(x)
    u1, u2, u3 = u
    sn, i_n = sv / n, iv / n  # shares of N, each divided once: N * N underflows below N ~ 1e-154
    # The infection flow beta*S*I/N moves S to L1 under distancing; it and the
    # births bN grow with every compartment through N, the common term z.
    gw = beta * (1.0 - u1) * (m2 - m1)
    z = gw * sn * i_n - b * m1
    hold = (1.0 - u3) * s * r  # failed treatment back to L1; the rest goes to L5
    return [
        z - gw * i_n + mu * m1,
        -w.a2 + z + (k + u2 * alpha + mu) * m2 - k * m3 - u2 * alpha * m4,
        -w.a1 + z - gw * sn - hold * m2 + (r + mu) * m3 - (r - hold) * m4,
        z + mu * m4,
    ]


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
    adjoint=adjoint,
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
