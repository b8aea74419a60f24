"""Single-strain SEIRS-type TB model with one case-finding control.

Compartments S (susceptible), L1 (latent), I1 (infectious), T (treated).
The control u scales down progression out of the latent class: the flow
L1 -> I1 runs at rate (1-u) k1. Total population is treated as the constant
parameter N (recruitment Lambda = mu*N and d1 = 0 keep it exact).
Source objective: a1*I1 (the infectious class) plus the control effort.
"""

from __future__ import annotations

from .base import POSITIVE, UNIT, ModelDefinition, ModelId, clamp

LABELS = ("S", "L1", "I1", "T")
PARAMS = ("Lambda", "beta", "c", "mu", "sigma", "k1", "r1", "r2", "d1", "N")


def rhs(t, x, u, p):
    lam_in, beta, c, mu, sigma, k1, r1, r2, d1, n_pop = p
    s, l1, i1, tr = x
    th = beta * c / n_pop
    inf_s = th * s * i1
    inf_t = sigma * th * tr * i1
    prog = (1.0 - u[0]) * k1 * l1
    return [
        lam_in - inf_s - mu * s,
        inf_s - (mu + r1) * l1 - prog + inf_t,
        prog - (mu + r2 + d1) * i1,
        r1 * l1 + r2 * i1 - inf_t - mu * tr,
    ]


def adjoint(t, x, lam, u, p, w):
    # Hand-derived costate system for H = a1*I1 + a2*L1 + (B/2)u^2 + <lam, f>.
    _, beta, c, mu, sigma, k1, r1, r2, d1, n_pop = p
    s, l1, i1, tr = x
    m1, m2, m3, m4 = lam
    th = beta * c / n_pop
    ku = (1.0 - u[0]) * k1
    return [
        m1 * (th * i1 + mu) - m2 * th * i1,
        -w.a2 + m2 * ((mu + r1) + ku) - m3 * ku - m4 * r1,
        -w.a1 + m1 * th * s - m2 * (th * s + sigma * th * tr)
        + m3 * (mu + r2 + d1) - m4 * (r2 - sigma * th * tr),
        -m2 * sigma * th * i1 + m4 * (sigma * th * i1 + mu),
    ]


def characterize(t, x, lam, p, w):
    _, beta, c, mu, sigma, k1, r1, r2, d1, n_pop = p
    raw = k1 * x[1] * (lam[2] - lam[1]) / w.b[0]
    return [clamp(raw, w.lower, w.upper)]


DEFINITION = ModelDefinition(
    id=ModelId.SEIRS,
    description="single-strain SEIRS TB model, case-finding control on latent progression",
    state_labels=LABELS,
    control_labels=("u",),
    required_params=PARAMS,
    rhs=rhs,
    characterize=characterize,
    infectious=(0.0, 0.0, 1.0, 0.0),
    latent=(0.0, 1.0, 0.0, 0.0),
    adjoint=adjoint,
    domains={"sigma": UNIT, "N": POSITIVE},
)

DEFAULT_PARAMS = {
    "Lambda": 143.0,  # mu * N
    "beta": 13.0,
    "c": 1.0,
    "mu": 0.0143,
    "sigma": 1.0,
    "k1": 1.0,
    "r1": 2.0,
    "r2": 1.0,
    "d1": 0.0,
    "N": 10000.0,
}
