"""Post-exposure intervention TB model with early and persistent latent classes.

Compartments S, L3 (early latent, infected under two years), I1 (active
infectious), L4 (persistent latent), T (treated). Control u1 (case holding,
effectiveness eps1) suppresses reactivation of treated individuals:
omega_R becomes (1-eps1*u1)*omega_R in both the I1 source and the T sink.
Control u2 (case finding, effectiveness eps2) adds treatment of persistent
latents: tau2 becomes tau2+eps2*u2 in both the L4 sink and the T source.
Births balance natural deaths, so population is the constant parameter N.
Source objective: a1*I1 + a2*L4 (active, persistent latent) plus the effort.
"""

from __future__ import annotations

from .base import OPEN_UNIT, POSITIVE, UNIT, ModelDefinition, ModelId, clamp

LABELS = ("S", "L3", "I1", "L4", "T")
PARAMS = ("N", "mu", "beta", "sigma", "sigma_R", "delta", "k1",
          "omega", "omega_R", "tau0", "tau1", "tau2", "eps1", "eps2")


def rhs(t, x, u, p):
    (n_pop, mu, beta, sigma, sig_r, delta, k1, omega, omega_r,
     tau0, tau1, tau2, eps1, eps2) = p
    s, l3, i1, l4, tr = x
    u1, u2 = u
    th = beta / n_pop
    foi = th * i1
    react_t = (1.0 - eps1 * u1) * omega_r   # treated reactivation under case holding
    treat_l4 = tau2 + eps2 * u2             # persistent-latent treatment under case finding
    return [
        mu * n_pop - foi * s - mu * s,
        foi * (s + sigma * l4 + sig_r * tr) - (delta + tau1 + mu) * l3,
        k1 * delta * l3 + omega * l4 + react_t * tr - (tau0 + mu) * i1,
        (1.0 - k1) * delta * l3 - sigma * foi * l4 - (omega + treat_l4 + mu) * l4,
        tau0 * i1 + tau1 * l3 + treat_l4 * l4 - sig_r * foi * tr - (react_t + mu) * tr,
    ]


def adjoint(t, x, lam, u, p, w):
    # Hand-derived costate system for H = a1*I1 + a2*L4 + (B/2)u^2 + <lam, f>.
    (n_pop, mu, beta, sigma, sig_r, delta, k1, omega, omega_r,
     tau0, tau1, tau2, eps1, eps2) = p
    s, l3, i1, l4, tr = x
    m1, m2, m3, m4, m5 = lam
    u1, u2 = u
    th = beta / n_pop
    foi = th * i1
    react_t = (1.0 - eps1 * u1) * omega_r
    treat_l4 = tau2 + eps2 * u2
    # Infection moves S, L4 (at sigma) and T (at sigma_R) to L3 at rate foi.
    gs, gl, gt = m1 - m2, sigma * (m4 - m2), sig_r * (m5 - m2)
    return [
        foi * gs + mu * m1,
        (delta + tau1 + mu) * m2 - k1 * delta * m3 - (1.0 - k1) * delta * m4 - tau1 * m5,
        -w.a1 + th * (s * gs + l4 * gl + tr * gt) + (tau0 + mu) * m3 - tau0 * m5,
        -w.a2 + foi * gl - omega * m3 + (omega + treat_l4 + mu) * m4 - treat_l4 * m5,
        foi * gt - react_t * m3 + (react_t + mu) * m5,
    ]


def characterize(t, x, lam, p, w):
    (n_pop, mu, beta, sigma, sig_r, delta, k1, omega, omega_r,
     tau0, tau1, tau2, eps1, eps2) = p
    l4, tr = x[3], x[4]
    u1 = eps1 * omega_r * tr * (lam[2] - lam[4]) / w.b[0]
    u2 = eps2 * l4 * (lam[3] - lam[4]) / w.b[1]
    return [clamp(u1, w.lower, w.upper), clamp(u2, w.lower, w.upper)]


DEFINITION = ModelDefinition(
    id=ModelId.POST_EXPOSURE,
    description="post-exposure TB model (early/persistent latents), case holding and finding",
    state_labels=LABELS,
    control_labels=("u1", "u2"),
    required_params=PARAMS,
    rhs=rhs,
    characterize=characterize,
    infectious=(0.0, 0.0, 1.0, 0.0, 0.0),
    latent=(0.0, 0.0, 0.0, 1.0, 0.0),  # persistent latents L4
    adjoint=adjoint,
    domains={"sigma": UNIT, "sigma_R": UNIT, "k1": UNIT,
             "eps1": OPEN_UNIT, "eps2": OPEN_UNIT, "N": POSITIVE},
)

DEFAULT_PARAMS = {
    "N": 30000.0,
    "mu": 0.0143,
    "beta": 50.0,
    "sigma": 0.25,
    "sigma_R": 0.25,
    "delta": 12.0,
    "k1": 0.85,
    "omega": 0.0002,
    "omega_R": 0.0002,
    "tau0": 2.0,
    "tau1": 2.0,
    "tau2": 1.0,
    "eps1": 0.25,
    "eps2": 0.25,
}
