"""TB model with immigration of infectious individuals and isolation for treatment.

Compartments S, L1, I1, J (isolated infectious), T. Immigrants arrive at
rate A with latent fraction p_star and active fraction q_star; control u1 is
medical screening of immigrants (scaling those infected inflows by 1-u1),
and u2 boosts the isolation rate of active cases to (1+u2)*xi. The isolation
level l in [0,1] sets how much J contributes to transmission (l=0 perfect
isolation), and sigma_star is the residual contact treated individuals keep
with the isolated. Population N(t) is the live compartment sum.
Source objective: a1*I1 (the infectious class) plus the control effort.
"""

from __future__ import annotations

from .base import UNIT, ModelDefinition, ModelId, clamp, live_population

LABELS = ("S", "L1", "I1", "J", "T")
PARAMS = ("Lambda_star", "A", "p_star", "q_star", "beta", "c", "l", "m", "p",
          "sigma", "sigma_star", "k1", "mu", "d3", "d4", "r2", "r3", "xi")


def rhs(t, x, u, pp):
    (lam_in, a_in, ps, qs, beta, c, lvl, m, p, sigma, sig_s, k1, mu,
     d3, d4, r2, r3, xi) = pp
    s, l1, i1, jc, tr = x
    n = live_population(x)
    u1, u2 = u
    bc = beta * c
    phi = bc * (i1 + lvl * jc) / n          # force of infection on S and L1
    psi = sigma * bc * (i1 + sig_s * jc) / n  # residual force on treated
    screen = 1.0 - u1
    iso = (1.0 + u2) * xi * i1
    return [
        lam_in + (1.0 - screen * (ps + qs)) * a_in - phi * s - mu * s,
        screen * (ps * a_in) + (1.0 - m) * phi * s - p * phi * l1 + psi * tr - (k1 + mu) * l1,
        screen * (qs * a_in) + m * phi * s + p * phi * l1 + k1 * l1 - (mu + d3 + r2) * i1 - iso,
        iso - (r3 + mu + d4) * jc,
        r2 * i1 + r3 * jc - psi * tr - mu * tr,
    ]


def adjoint(t, x, lam, u, pp, w):
    # Hand-derived costate system for H = a1*I1 + a2*L1 + a_isolated*J + (B/2)u^2 + <lam, f>.
    (lam_in, a_in, ps, qs, beta, c, lvl, m, p, sigma, sig_s, k1, mu,
     d3, d4, r2, r3, xi) = pp
    s, l1, i1, jc, tr = x
    m1, m2, m3, m4, m5 = lam
    n = live_population(x)
    bc = beta * c
    phi = bc * (i1 + lvl * jc) / n
    psi = sigma * bc * (i1 + sig_s * jc) / n
    # Costate weights of the flows phi*S, phi*L1 and psi*T, by the rows they enter.
    gs = (1.0 - m) * m2 + m * m3 - m1
    gl = p * (m3 - m2)
    gt = m2 - m5
    # Their gradients through phi and psi, by shares of N (each divided once);
    # every compartment feeds N, which gives all five rows the common term z.
    fp = gs * (s / n) + gl * (l1 / n)
    ft = gt * (tr / n)
    z = fp * phi + ft * psi
    e, et = bc * fp, sigma * bc * ft
    iso = (1.0 + u[1]) * xi
    return [
        z - gs * phi + mu * m1,
        -w.a2 + z - gl * phi + (k1 + mu) * m2 - k1 * m3,
        -w.a1 + z - e - et + (mu + d3 + r2) * m3 + iso * (m3 - m4) - r2 * m5,
        -w.a_isolated + z - lvl * e - sig_s * et + (r3 + mu + d4) * m4 - r3 * m5,
        z - gt * psi + mu * m5,
    ]


def characterize(t, x, lam, pp, w):
    (lam_in, a_in, ps, qs, beta, c, lvl, m, p, sigma, sig_s, k1, mu,
     d3, d4, r2, r3, xi) = pp
    i1 = x[2]
    u1 = a_in * (ps * (lam[1] - lam[0]) + qs * (lam[2] - lam[0])) / w.b[0]
    u2 = xi * i1 * (lam[2] - lam[3]) / w.b[1]
    return [clamp(u1, w.lower, w.upper), clamp(u2, w.lower, w.upper)]


DEFINITION = ModelDefinition(
    id=ModelId.ISOLATION_IMMIGRATION,
    description="TB model with infectious immigration, screening control and isolation control",
    state_labels=LABELS,
    control_labels=("u1", "u2"),
    required_params=PARAMS,
    rhs=rhs,
    characterize=characterize,
    infectious=(0.0, 0.0, 1.0, 0.0, 0.0),
    latent=(0.0, 1.0, 0.0, 0.0, 0.0),
    isolated=(0.0, 0.0, 0.0, 1.0, 0.0),
    adjoint=adjoint,
    domains=dict.fromkeys(("p_star", "q_star", "l", "m", "sigma", "sigma_star"), UNIT),
    sum_constraints=(("p_star", "q_star"),),
)

DEFAULT_PARAMS = {
    "Lambda_star": 100.0,
    "A": 50.0,
    "p_star": 0.2,
    "q_star": 0.1,
    "beta": 13.0,
    "c": 1.0,
    "l": 0.3,
    "m": 0.05,
    "p": 0.4,
    "sigma": 0.9,
    "sigma_star": 0.2,
    "k1": 0.5,
    "mu": 0.0143,
    "d3": 0.1,
    "d4": 0.05,
    "r2": 1.0,
    "r3": 1.5,
    "xi": 0.9,
}
