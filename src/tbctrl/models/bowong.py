"""Fast/slow-progression TB model with diagnosed and undiagnosed infectious classes.

Compartments S, L1, I1 (diagnosed infectious), I2 (undiagnosed infectious).
A fraction g of new infections progresses fast; of those, a fraction f is
detected. Latents leaving L1 are detected with probability h. Control u1 is
chemoprophylaxis effort on latents (the factor 1-r1 becomes 1-u1*r1), and
control u2 scales the detection fraction (h becomes u2*h). Population N(t)
is the live compartment sum.
Source objective: a1*(I1 + I2) (all active cases) plus the control effort.

The Hamiltonian couples u1 and u2 through the detected-progression flow
u2*h*(1-u1*r1)*(k1+sigma*phi)*L1, so the control law is the exact minimizer
of the resulting quadratic over the admissible box rather than a pair of
independent clamps.
"""

from __future__ import annotations

import numpy as np

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
    of which is a strictly convex 1-D quadratic: the first least candidate wins.
    On numpy columns the same choice is made entry by entry.
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

    def q(uv):
        u1, u2 = uv
        return (0.5 * b1 * u1 * u1 + 0.5 * b2 * u2 * u2
                + alpha * u1 + beta_c * u2 + gamma * u1 * u2)

    candidates = []
    for edge in (lo, hi):
        candidates.append((edge, clamp(-(beta_c + gamma * edge) / b2, lo, hi)))
        candidates.append((clamp(-(alpha + gamma * edge) / b1, lo, hi), edge))
    det = b1 * b2 - gamma * gamma
    num1, num2 = gamma * beta_c - b2 * alpha, gamma * alpha - b1 * beta_c  # interior point * det
    try:  # costs the float path nothing
        if det > 0.0:
            u1i, u2i = num1 / det, num2 / det
            if lo <= u1i <= hi and lo <= u2i <= hi:
                candidates.insert(0, (u1i, u2i))  # the interior point is the first candidate
        return list(min(candidates, key=q))
    except ValueError:  # columns have no single truth value: the same choice entry by entry
        pos = np.where(det > 0.0, det, np.nan)  # det <= 0: no interior point, NaN is in no box
        u1i, u2i = num1 / pos, num2 / pos
        # in the box where clamping moves neither; `&` on bools would page in numpy code (peak RSS)
        inside = np.where(u1i == clamp(u1i, lo, hi), u2i == clamp(u2i, lo, hi), False)
        u1, u2 = np.where(inside, u1i, candidates[0][0]), np.where(inside, u2i, candidates[0][1])
        least = q((u1, u2))
        for c1, c2 in candidates:  # a later candidate wins only where it is less, as in min()
            qc = q((c1, c2))
            less = qc < least
            u1, u2 = np.where(less, c1, u1), np.where(less, c2, u2)
            least = np.where(less, qc, least)
        return [u1, u2]


DEFINITION = ModelDefinition(
    id=ModelId.BOWONG,
    description="fast/slow progression TB model, chemoprophylaxis and detection controls",
    state_labels=LABELS,
    control_labels=("u1", "u2"),
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
