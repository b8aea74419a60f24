"""Catalog of controlled TB transmission models behind one uniform interface.

Every model exposes its ODE right-hand side, its hand-derived costate
(adjoint) right-hand side -dH/dx, which spells out its own state-cost terms,
the closed-form projected minimizer of its Hamiltonian in the controls, and
the linear state cost assembled from :class:`~tbctrl.core.CostWeights`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..core import CostKind, CostWeights, ParameterSet, ValidationError, check_kind_weights
from .base import ModelDefinition, ModelId, validate_against
from . import seirs, two_strain, reinfection, isolation, korea, bowong, post_exposure
from .baselines import has_baseline, neutral_control, uncontrolled_rhs

__all__ = [
    "ModelId",
    "ModelDefinition",
    "MODELS",
    "model_definition",
    "dynamics",
    "adjoint_rhs",
    "control_characterization",
    "running_cost",
    "cost_state_vector",
    "validate_params",
    "validate_problem",
    "default_params",
    "neutral_control",
    "has_baseline",
    "uncontrolled_rhs",
]

_MODULES = (seirs, two_strain, reinfection, isolation, korea, bowong, post_exposure)

MODELS: dict[ModelId, ModelDefinition] = {m.DEFINITION.id: m.DEFINITION for m in _MODULES}

_DEFAULTS = {m.DEFINITION.id: m.DEFAULT_PARAMS for m in _MODULES}


def model_definition(model: ModelId | str) -> ModelDefinition:
    try:
        return MODELS[ModelId(model)]
    except ValueError:
        known = ", ".join(m.value for m in MODELS)
        raise ValidationError(f"unknown model {model!r}; known models: {known}") from None


@lru_cache(maxsize=128)
def _cost_vec(model: ModelId, w: CostWeights) -> np.ndarray:
    """The state-cost vector g; the one check that w fits the model (effort weights, a_isolated)."""
    d = MODELS[model]
    if len(w.b) != d.control_dim:
        raise ValidationError(f"{model.value} needs {d.control_dim} effort weights, got {len(w.b)}")
    vec = w.a1 * np.array(d.infectious) + w.a2 * np.array(d.latent)
    if d.isolated is not None:
        vec = vec + w.a_isolated * np.array(d.isolated)
    elif w.a_isolated != 0.0:
        raise ValidationError(f"{model.value} has no isolated compartment; a_isolated must be 0")
    vec.flags.writeable = False
    return vec


def cost_state_vector(model: ModelId, w: CostWeights) -> np.ndarray:
    """Vector g with state-cost g.x (the integrand minus control effort)."""
    return _cost_vec(ModelId(model), w).copy()


def costate_coefficients(d: ModelDefinition, w: CostWeights, p: ParameterSet,
                         t: np.ndarray, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The costate lam' = A lam + b at P points, as augmented matrices [[A, b], [0, 0]].

    t is (P,), x (P, n) and u (P, m), one row per point; the result is laid
    out (n+1, n+1, P), one matrix per last index. The model's ``adjoint`` is
    evaluated on (P,) columns (a time-table parameter is a column too),
    once at lam = 0 for b and once at each lam = e_k for A's column k,
    less b; b is the costate at lam = 0, so where the state holds an inf,
    0 * inf makes it NaN as it makes the pointwise costate. A ValidationError
    from the model is passed on, as is one for weights that do not fit it.
    """
    _cost_vec(d.id, w)  # the weights must fit the model
    n = d.state_dim
    q = p.values(d.required_params, t)
    xc, uc = list(x.T.copy()), list(u.T.copy())
    out = np.zeros((n + 1, n + 1, len(t)))
    for k in range(n + 1):  # lam = e_k for column k < n, lam = 0 for b in column n
        for i, v in enumerate(d.adjoint(t, xc, [float(j == k) for j in range(n)], uc, q, w)):
            out[i, k] = v
    out[:n, :n] -= out[:n, n:]
    return out


def validate_problem(model: ModelId, p: ParameterSet, w: CostWeights,
                     kind: CostKind | None = None) -> ModelDefinition:
    """The model's definition, if p, w and the cost kind (when given) make a valid problem.

    Checks the parameters, then the weights' fit to the model, then the kind.
    """
    d = model_definition(model)
    violations = validate_against(d, p)
    if violations:
        raise ValidationError(f"{d.id.value}: invalid parameters: " + "; ".join(violations))
    _cost_vec(d.id, w)
    if kind is not None:
        check_kind_weights(kind, w)
    return d


def _point(model: ModelId, **vectors) -> list:
    """The model's definition, then each named vector as a float array of the model's shape.

    A vector named ``control`` needs one entry per control, any other one per compartment.
    """
    d = model_definition(model)
    out: list = [d]
    for what, v in vectors.items():
        n = d.control_dim if what == "control" else d.state_dim
        v = np.asarray(v, dtype=float)
        if v.shape != (n,):
            raise ValidationError(f"{d.id.value}: {what} must have shape ({n},), got {v.shape}")
        out.append(v)
    return out


def dynamics(model: ModelId, t: float, x: np.ndarray, u: np.ndarray,
             p: ParameterSet) -> np.ndarray:
    """Time derivative of the state under control u."""
    d, x, u = _point(model, state=x, control=u)
    return np.array(d.rhs(t, x, u, p.values(d.required_params, t)))


def adjoint_rhs(model: ModelId, t: float, x: np.ndarray, lam: np.ndarray,
                u: np.ndarray, p: ParameterSet, w: CostWeights) -> np.ndarray:
    """Time derivative of the costate: -dH/dx for the model's Hamiltonian."""
    d, x, lam, u = _point(model, state=x, adjoint=lam, control=u)
    _cost_vec(d.id, w)  # the weights must fit the model
    return np.array(d.adjoint(t, x, lam, u, p.values(d.required_params, t), w))


def control_characterization(model: ModelId, t: float, x: np.ndarray, lam: np.ndarray,
                             p: ParameterSet, w: CostWeights) -> np.ndarray:
    """Pointwise minimizer of the Hamiltonian over the admissible control box."""
    d, x, lam = _point(model, state=x, adjoint=lam)
    _cost_vec(d.id, w)  # the weights must fit the model
    return np.array(d.characterize(t, x, lam, p.values(d.required_params, t), w))


def running_cost(model: ModelId, x: np.ndarray, u: np.ndarray, w: CostWeights) -> float:
    """Objective integrand: linear state burden plus quadratic control effort."""
    d, x, u = _point(model, state=x, control=u)
    return float(_cost_vec(d.id, w) @ x + 0.5 * np.dot(w.b_array, np.square(u)))


def validate_params(model: ModelId, p: ParameterSet) -> list[str]:
    """List every violated parameter constraint; empty means valid."""
    return validate_against(model_definition(model), p)


def default_params(model: ModelId) -> ParameterSet:
    """A plausible, valid parameter set for demos and verification sampling."""
    return ParameterSet(_DEFAULTS[ModelId(model)])

