"""Exogenous-reinfection TB model with a reinfection-prevention control.

Compartments S, L1, I1, T. Latently infected individuals can be pushed to
active disease by renewed exposure (the rho*beta*c*L1*I1/N flow); the control
u scales that flow by 1-u, modelling effort spent preventing reinfection
contacts. The population N(t) is the live sum of compartments.
"""

from __future__ import annotations

import numpy as np

from ..core import CostKind
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


def jac(t, x, u, p):
    _, beta, c, mu, sigma, k1, r2, d1, rho = p
    s, l1, i1, tr = x
    n = live_population(x)
    bc = beta * c
    # Shares of N, each divided once: N * N underflows to 0 below N ~ 1e-154.
    sn, ln, i_n, tn = s / n, l1 / n, i1 / n, tr / n
    # Gradients of the three incidence flows; every compartment feeds N.
    d_inf_s = bc * np.array([i_n * (1.0 - sn), -sn * i_n, sn * (1.0 - i_n), -sn * i_n])
    d_inf_t = sigma * bc * np.array([-tn * i_n, -tn * i_n, tn * (1.0 - i_n), i_n * (1.0 - tn)])
    ru = rho * bc * (1.0 - u[0])
    d_reinf = ru * np.array([-ln * i_n, i_n * (1.0 - ln), ln * (1.0 - i_n), -ln * i_n])
    j = np.zeros((4, 4))
    j[0] = -d_inf_s
    j[0, 0] -= mu
    j[1] = d_inf_s - d_reinf + d_inf_t
    j[1, 1] -= mu + k1
    j[2] = d_reinf
    j[2, 1] += k1
    j[2, 2] -= mu + r2 + d1
    j[3] = -d_inf_t
    j[3, 2] += r2
    j[3, 3] -= mu
    return j


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
    cost_kind=CostKind.C2,
    required_params=PARAMS,
    rhs=rhs,
    characterize=characterize,
    infectious=(0.0, 0.0, 1.0, 0.0),
    latent=(0.0, 1.0, 0.0, 0.0),
    jac=jac,
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
