"""Fast/slow-progression TB model with diagnosed and undiagnosed infectious classes.

Compartments S, L1, I1 (diagnosed infectious), I2 (undiagnosed infectious).
A fraction g of new infections progresses fast; of those, a fraction f is
detected. Latents leaving L1 are detected with probability h. Control u1 is
chemoprophylaxis effort on latents (the factor 1-r1 becomes 1-u1*r1), and
control u2 scales the detection fraction (h becomes u2*h). Population N(t)
is the live compartment sum.

The Hamiltonian couples u1 and u2 through the detected-progression flow
u2*h*(1-u1*r1)*(k1+sigma*phi)*L1, so the control law is the exact minimizer
of the resulting quadratic over the admissible box rather than a pair of
independent clamps.
"""

from __future__ import annotations

from ..core import CostKind
from .base import UNIT, ModelDefinition, ModelId, clamp, live_population

LABELS = ("S", "L1", "I1", "I2")
PARAMS = ("Lambda", "beta", "mu", "g", "f", "h", "r1", "r2", "r3",
          "k1", "sigma", "d1", "d3")


def rhs(t, x, u, p):
    lam_in, beta, mu, g, f, h, r1, r2, r3, k1, sigma, d1, d3 = p
    s, l1, i1, i2 = x
    n = live_population(x)
    u1, u2 = u
    phi = beta * i1 / n
    chem = 1.0 - u1 * r1          # residual progression after chemoprophylaxis
    leave = (k1 + sigma * phi) * l1  # latents becoming active (reactivation + reinfection)
    detected = u2 * h
    return [
        lam_in - phi * s - mu * s,
        (1.0 - g) * phi * s + r2 * i1 + r3 * i2 - chem * sigma * phi * l1
        - (mu + k1 * chem) * l1,
        g * f * phi * s + detected * chem * leave - (mu + d1 + r2) * i1,
        g * (1.0 - f) * phi * s + (1.0 - detected) * chem * leave - (mu + d3 + r3) * i2,
    ]


def adjoint(t, x, lam, u, p, w):
    # Hand-derived costate system for H = a1*(I1 + I2) + a2*L1 + (B/2)u^2 + <lam, f>.
    lam_in, beta, mu, g, f, h, r1, r2, r3, k1, sigma, d1, d3 = p
    s, l1, i1, i2 = x
    m1, m2, m3, m4 = lam
    n = live_population(x)
    u1, u2 = u
    phi = beta * i1 / n
    detected = u2 * h
    # Costate weights of the infection flow phi*S and of the progression
    # (1 - u1*r1)*(k1 + sigma*phi)*L1 out of L1, by the rows they enter.
    gs = (1.0 - g) * m2 + g * (f * m3 + (1.0 - f) * m4) - m1
    gl = (1.0 - u1 * r1) * (detected * m3 + (1.0 - detected) * m4 - m2)
    # Their gradients through phi, by shares of N (each divided once): every
    # compartment feeds N, which gives all four rows the common term z.
    fp = gs * (s / n) + gl * sigma * (l1 / n)
    z = fp * phi
    return [
        z - gs * phi + mu * m1,
        -w.a2 + z - gl * (k1 + sigma * phi) + mu * m2,
        -w.a1 + z - beta * fp - r2 * m2 + (mu + d1 + r2) * m3,
        -w.a1 + z - r3 * m2 + (mu + d3 + r3) * m4,
    ]


def characterize(t, x, lam, p, w):
    """Exact minimizer of the control-quadratic part of H over the admissible box.

    With K = (k1 + sigma*phi)*L1 the u-dependent part of H is
        q(u) = B1/2 u1^2 + B2/2 u2^2 + alpha u1 + beta_c u2 + gamma u1 u2
    and the global box minimum is either the interior stationary point (when
    the Hessian is positive definite) or lies on one of the four edges, each
    of which is a strictly convex 1-D quadratic.
    """
    _, beta, mu, g, f, h, r1, r2, r3, k1, sigma, d1, d3 = p
    s, l1, i1, i2 = x
    n = live_population(x)
    phi = beta * i1 / n
    kflow = (k1 + sigma * phi) * l1
    l2, l3, l4 = lam[1], lam[2], lam[3]
    b1, b2 = w.b[0], w.b[1]
    alpha = r1 * kflow * (l2 - l4)
    beta_c = h * kflow * (l3 - l4)
    gamma = h * r1 * kflow * (l4 - l3)
    lo, hi = w.lower, w.upper

    def q(u1, u2):
        return (0.5 * b1 * u1 * u1 + 0.5 * b2 * u2 * u2
                + alpha * u1 + beta_c * u2 + gamma * u1 * u2)

    candidates = []
    det = b1 * b2 - gamma * gamma
    if det > 0.0:
        u1i = (gamma * beta_c - b2 * alpha) / det
        u2i = (gamma * alpha - b1 * beta_c) / det
        if lo <= u1i <= hi and lo <= u2i <= hi:
            candidates.append((u1i, u2i))
    for edge in (lo, hi):
        candidates.append((edge, clamp(-(beta_c + gamma * edge) / b2, lo, hi)))
        candidates.append((clamp(-(alpha + gamma * edge) / b1, lo, hi), edge))
    return list(min(candidates, key=lambda uv: q(*uv)))


DEFINITION = ModelDefinition(
    id=ModelId.BOWONG,
    description="fast/slow progression TB model, chemoprophylaxis and detection controls",
    state_labels=LABELS,
    control_labels=("u1", "u2"),
    cost_kind=CostKind.C2,
    required_params=PARAMS,
    rhs=rhs,
    characterize=characterize,
    infectious=(0.0, 0.0, 1.0, 1.0),  # all active cases, diagnosed or not
    latent=(0.0, 1.0, 0.0, 0.0),
    adjoint=adjoint,
    domains=dict.fromkeys(("g", "f", "h", "sigma", "r1"), UNIT),
    separable_controls=False,  # u1 and u2 couple through the detected-progression flow
)

DEFAULT_PARAMS = {
    "Lambda": 500.0,
    "beta": 13.0,
    "mu": 0.0143,
    "g": 0.1,
    "f": 0.7,
    "h": 0.8,
    "r1": 0.5,
    "r2": 1.0,
    "r3": 0.5,
    "k1": 0.3,
    "sigma": 0.9,
    "d1": 0.1,
    "d3": 0.15,
}
