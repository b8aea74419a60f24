"""Two-strain TB model with case-finding and case-holding controls.

Compartments S, L1, I1 (typical strain), L2, I2 (resistant strain), T.
Control u1 is the fraction of typical latents found and treated (it scales
r1); the coefficient 1-u2 is the treatment-failure pressure on infectious
typical cases, so u2 near 1 means little failure and few new resistant
cases. Population is treated as the constant parameter N.

Neutral controls are (u1, u2) = (1, 0): full baseline latent treatment and
unmitigated treatment failure recover the uncontrolled system.
"""

from __future__ import annotations

import numpy as np

from ..core import CostKind, ValidationError
from .base import ModelDefinition, ModelId, clamp

LABELS = ("S", "L1", "I1", "L2", "I2", "T")
PARAMS = ("Lambda", "beta", "beta_star", "c", "mu", "sigma",
          "k1", "k2", "r1", "r2", "d1", "d2", "p", "q", "N")


def rhs(t, x, u, pp):
    lam_in, beta, beta_s, c, mu, sigma, k1, k2, r1, r2, d1, d2, p, q, n_pop = pp
    if n_pop <= 0.0:
        raise ValidationError("parameter N must be positive")
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


def jac(t, x, u, pp):
    _, beta, beta_s, c, mu, sigma, k1, k2, r1, r2, d1, d2, p, q, n_pop = pp
    s, l1, i1, l2, i2, tr = x
    u1, u2 = u
    th1 = beta * c / n_pop
    th2 = beta_s * c / n_pop
    ths = sigma * beta * c / n_pop
    fail = 1.0 - u2
    j = np.zeros((6, 6))
    # columns: S, L1, I1, L2, I2, T
    j[0] = [-th1 * i1 - mu - th2 * i2, 0.0, -th1 * s, 0.0, -th2 * s, 0.0]
    j[1] = [th1 * i1,
            -(mu + k1 + u1 * r1) - th2 * i2,
            th1 * s + ths * tr + fail * p * r2,
            0.0,
            -th2 * l1,
            ths * i1]
    j[2] = [0.0, k1, -(mu + r2 + d1), 0.0, 0.0, 0.0]
    j[3] = [th2 * i2, th2 * i2, fail * q * r2, -(mu + k2), th2 * (s + l1 + tr), th2 * i2]
    j[4] = [0.0, 0.0, 0.0, k2, -(mu + d2), 0.0]
    j[5] = [0.0,
            u1 * r1,
            (1.0 - fail * (p + q)) * r2 - ths * tr,
            0.0,
            -th2 * tr,
            -ths * i1 - mu - th2 * i2]
    return j


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
    cost_kind=CostKind.C1,
    required_params=PARAMS,
    rhs=rhs,
    characterize=characterize,
    infectious=(0.0, 0.0, 0.0, 0.0, 1.0, 0.0),  # resistant infectious I2
    latent=(0.0, 0.0, 0.0, 1.0, 0.0, 0.0),      # resistant latent L2
    jac=jac,
    nonnegative_params=("Lambda", "beta", "beta_star", "c", "mu", "k1", "k2",
                        "r1", "r2", "d1", "d2", "p", "q"),
    unit_interval_params=("sigma", "p", "q"),
    positive_params=("N",),
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
