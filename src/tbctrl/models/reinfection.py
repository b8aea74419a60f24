"""Exogenous-reinfection TB model with a reinfection-prevention control.

Compartments S, L1, I1, T. Latently infected individuals can be pushed to
active disease by renewed exposure (the rho*beta*c*L1*I1/N flow); the control
u scales that flow by 1-u, modelling effort spent preventing reinfection
contacts. The population N(t) is the live sum of compartments.
Source objective: a1*I1 (the infectious class) plus the control effort.
"""

from __future__ import annotations

from .base import UNIT, ModelDefinition, ModelId, clamp, live_population

LABELS = ("S", "L1", "I1", "T")
PARAMS = ("Lambda", "beta", "c", "mu", "sigma", "k1", "r2", "d1", "rho")


def rhs(t, x, u, p):
    lam_in, beta, c, mu, sigma, k1, r2, d1, rho = p
    s, l1, i1, tr = x
    n = live_population(x)
    bi = beta * c * i1 / n  # i1 / n <= 1, so no overflow however small N is
    inf_s = bi * s
    inf_t = sigma * bi * tr
    reinf = rho * bi * (1.0 - u[0]) * l1
    return [
        lam_in - inf_s - mu * s,
        inf_s - reinf - (mu + k1) * l1 + inf_t,
        reinf + k1 * l1 - (mu + r2 + d1) * i1,
        r2 * i1 - inf_t - mu * tr,
    ]


def adjoint(t, x, lam, u, p, w):
    # Hand-derived costate system for H = a1*I1 + a2*L1 + (B/2)u^2 + <lam, f>.
    _, beta, c, mu, sigma, k1, r2, d1, rho = p
    s, l1, i1, tr = x
    m1, m2, m3, m4 = lam
    n = live_population(x)
    # Shares of N, each divided once: N * N underflows to 0 below N ~ 1e-154.
    sn, ln, i_n, tn = s / n, l1 / n, i1 / n, tr / n
    # Each incidence flow is (rate) * X * I1 / N; weigh its gradient by the
    # costates it moves between. Every compartment feeds N, which gives all
    # four rows the common term z.
    gs = beta * c * (m2 - m1)                       # S -> L1
    gt = sigma * beta * c * (m2 - m4)               # T -> L1
    gr = rho * beta * c * (1.0 - u[0]) * (m3 - m2)  # L1 -> I1
    v = gs * sn + gt * tn + gr * ln
    z = v * i_n
    return [
        z - gs * i_n + mu * m1,
        -w.a2 + z - gr * i_n + (mu + k1) * m2 - k1 * m3,
        -w.a1 + z - v + (mu + r2 + d1) * m3 - r2 * m4,
        z - gt * i_n + mu * m4,
    ]


def characterize(t, x, lam, p, w):
    _, beta, c, mu, sigma, k1, r2, d1, rho = p
    n = live_population(x)
    raw = rho * beta * c * x[1] * x[2] * (lam[2] - lam[1]) / (w.b[0] * n)
    return [clamp(raw, w.lower, w.upper)]


DEFINITION = ModelDefinition(
    id=ModelId.REINFECTION,
    description="SEIRS TB model with exogenous reinfection and a reinfection-prevention control",
    state_labels=LABELS,
    control_labels=("u",),
    required_params=PARAMS,
    rhs=rhs,
    characterize=characterize,
    infectious=(0.0, 0.0, 1.0, 0.0),
    latent=(0.0, 1.0, 0.0, 0.0),
    adjoint=adjoint,
    domains={"sigma": UNIT},
)

DEFAULT_PARAMS = {
    "Lambda": 143.0,
    "beta": 13.0,
    "c": 1.0,
    "mu": 0.0143,
    "sigma": 1.0,
    "k1": 0.5,
    "r2": 2.0,
    "d1": 0.0,
    "rho": 0.4,
}
