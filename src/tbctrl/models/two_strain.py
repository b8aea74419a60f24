"""Two-strain TB model with case-finding and case-holding controls.

Compartments S, L1, I1 (typical strain), L2, I2 (resistant strain), T.
Control u1 is the fraction of typical latents found and treated (it scales
r1); the coefficient 1-u2 is the treatment-failure pressure on infectious
typical cases, so u2 near 1 means little failure and few new resistant
cases. Population is treated as the constant parameter N.
Source objective: a1*I2 + a2*L2 (the resistant strain) plus the effort.

Neutral controls are (u1, u2) = (1, 0): full baseline latent treatment and
unmitigated treatment failure recover the uncontrolled system.
"""

from __future__ import annotations

from .base import POSITIVE, UNIT, ModelDefinition, ModelId, clamp

LABELS = ("S", "L1", "I1", "L2", "I2", "T")
PARAMS = ("Lambda", "beta", "beta_star", "c", "mu", "sigma",
          "k1", "k2", "r1", "r2", "d1", "d2", "p", "q", "N")


def rhs(t, x, u, pp):
    lam_in, beta, beta_s, c, mu, sigma, k1, k2, r1, r2, d1, d2, p, q, n_pop = pp
    s, l1, i1, l2, i2, tr = x
    u1, u2 = u
    th1 = beta * c / n_pop
    th2 = beta_s * c / n_pop
    ths = sigma * beta * c / n_pop
    inf_s = th1 * s * i1
    inf_rs = th2 * s * i2
    inf_t = ths * tr * i1
    inf_rl = th2 * l1 * i2
    inf_rt = th2 * tr * i2
    fail = 1.0 - u2
    return [
        lam_in - inf_s - mu * s - inf_rs,
        inf_s - (mu + k1 + u1 * r1) * l1 + inf_t + fail * (p * r2 * i1) - inf_rl,
        k1 * l1 - (mu + r2 + d1) * i1,
        fail * (q * r2 * i1) - (mu + k2) * l2 + th2 * (s + l1 + tr) * i2,
        k2 * l2 - (mu + d2) * i2,
        u1 * r1 * l1 + (1.0 - fail * (p + q)) * r2 * i1 - inf_t - mu * tr - inf_rt,
    ]


def adjoint(t, x, lam, u, pp, w):
    # Hand-derived costate system for H = a1*I2 + a2*L2 + (B/2)u^2 + <lam, f>.
    _, beta, beta_s, c, mu, sigma, k1, k2, r1, r2, d1, d2, p, q, n_pop = pp
    s, l1, i1, l2, i2, tr = x
    u1, u2 = u
    m1, m2, m3, m4, m5, m6 = lam
    th1 = beta * c / n_pop
    th2 = beta_s * c / n_pop
    ths = sigma * beta * c / n_pop
    fail = 1.0 - u2
    # the resistant infections of S, L1 and T all feed L2
    rs, rl, rt = m1 - m4, m2 - m4, m6 - m4
    return [
        th1 * i1 * (m1 - m2) + th2 * i2 * rs + mu * m1,
        m2 * (mu + k1 + u1 * r1) - m3 * k1 - m6 * u1 * r1 + th2 * i2 * rl,
        th1 * s * (m1 - m2) + ths * tr * (m6 - m2) + m3 * (mu + r2 + d1)
        - fail * r2 * (p * m2 + q * m4) - (1.0 - fail * (p + q)) * r2 * m6,
        -w.a2 + m4 * (mu + k2) - m5 * k2,
        -w.a1 + th2 * (s * rs + l1 * rl + tr * rt) + m5 * (mu + d2),
        ths * i1 * (m6 - m2) + th2 * i2 * rt + mu * m6,
    ]


def characterize(t, x, lam, pp, w):
    _, beta, beta_s, c, mu, sigma, k1, k2, r1, r2, d1, d2, p, q, n_pop = pp
    l1, i1 = x[1], x[2]
    u1 = r1 * l1 * (lam[1] - lam[5]) / w.b[0]
    u2 = r2 * i1 * (p * lam[1] + q * lam[3] - (p + q) * lam[5]) / w.b[1]
    return [clamp(u1, w.lower, w.upper), clamp(u2, w.lower, w.upper)]


DEFINITION = ModelDefinition(
    id=ModelId.TWO_STRAIN,
    description="two-strain TB model (typical + resistant), case finding and case holding",
    state_labels=LABELS,
    control_labels=("u1", "u2"),
    required_params=PARAMS,
    rhs=rhs,
    characterize=characterize,
    infectious=(0.0, 0.0, 0.0, 0.0, 1.0, 0.0),  # resistant infectious I2
    latent=(0.0, 0.0, 0.0, 1.0, 0.0, 0.0),      # resistant latent L2
    adjoint=adjoint,
    domains={"sigma": UNIT, "p": UNIT, "q": UNIT, "N": POSITIVE},
    sum_constraints=(("p", "q"),),
)

DEFAULT_PARAMS = {
    "Lambda": 429.0,  # mu * N
    "beta": 13.0,
    "beta_star": 0.029,
    "c": 1.0,
    "mu": 0.0143,
    "sigma": 0.9,
    "k1": 0.5,
    "k2": 1.0,
    "r1": 2.0,
    "r2": 1.0,
    "d1": 0.0,
    "d2": 0.0,
    "p": 0.4,
    "q": 0.1,
    "N": 30000.0,
}
