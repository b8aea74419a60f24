"""Catalog of controlled TB transmission models behind one uniform interface.

Every model exposes its ODE right-hand side, an analytically derived costate
(adjoint) right-hand side, the closed-form projected minimizer of its
Hamiltonian in the controls, and the linear state cost assembled from
:class:`~tbctrl.core.CostWeights`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..core import CostWeights, ParameterSet, ValidationError
from .base import CostateFn, ModelDefinition, ModelId, validate_against
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


def dynamics(model: ModelId, t: float, x: np.ndarray, u: np.ndarray,
             p: ParameterSet) -> np.ndarray:
    """Time derivative of the state under control u."""
    d = model_definition(model)
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.shape != (d.state_dim,):
        raise ValidationError(f"{d.id.value}: state must have shape ({d.state_dim},), got {x.shape}")
    if u.shape != (d.control_dim,):
        raise ValidationError(f"{d.id.value}: control must have shape ({d.control_dim},), got {u.shape}")
    return np.array(d.rhs(t, x, u, p.values(d.required_params, t)))


@lru_cache(maxsize=128)
def _cost_vec(model: ModelId, w: CostWeights) -> np.ndarray:
    d = MODELS[model]
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


def costate(d: ModelDefinition, w: CostWeights) -> CostateFn:
    """The model's costate right-hand side, lam' = f(t, lam, x, u, q), in the RK4 kernel's order.

    It is the explicit ``adjoint`` when the model spells one out, else
    -(J^T lam) - g from the analytic Jacobian; q is the model's parameter tuple.
    """
    if d.adjoint is not None:
        adjoint = d.adjoint
        return lambda t, lam, x, u, q: adjoint(t, x, lam, u, q, w)
    jac = d.jac
    g = _cost_vec(d.id, w)
    return lambda t, lam, x, u, q: (-(jac(t, x, u, q).T @ lam) - g).tolist()


def adjoint_rhs(model: ModelId, t: float, x: np.ndarray, lam: np.ndarray,
                u: np.ndarray, p: ParameterSet, w: CostWeights) -> np.ndarray:
    """Time derivative of the costate: -dH/dx for the model's Hamiltonian."""
    d = model_definition(model)
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    u = np.asarray(u, dtype=float)
    if lam.shape != (d.state_dim,):
        raise ValidationError(f"{d.id.value}: adjoint must have shape ({d.state_dim},), got {lam.shape}")
    return np.array(costate(d, w)(t, lam, x, u, p.values(d.required_params, t)))


def control_characterization(model: ModelId, t: float, x: np.ndarray, lam: np.ndarray,
                             p: ParameterSet, w: CostWeights) -> np.ndarray:
    """Pointwise minimizer of the Hamiltonian over the admissible control box."""
    d = model_definition(model)
    if len(w.b) != d.control_dim:
        raise ValidationError(f"{d.id.value} needs {d.control_dim} effort weights, got {len(w.b)}")
    return np.array(d.characterize(t, np.asarray(x, dtype=float), np.asarray(lam, dtype=float),
                                   p.values(d.required_params, t), w))


def running_cost(model: ModelId, x: np.ndarray, u: np.ndarray, w: CostWeights) -> float:
    """Objective integrand: linear state burden plus quadratic control effort."""
    d = model_definition(model)
    u = np.asarray(u, dtype=float)
    if len(w.b) != d.control_dim:
        raise ValidationError(f"{d.id.value} needs {d.control_dim} effort weights, got {len(w.b)}")
    vec = _cost_vec(d.id, w)
    return float(vec @ np.asarray(x, dtype=float) + 0.5 * np.dot(w.b_array, np.square(u)))


def validate_params(model: ModelId, p: ParameterSet) -> list[str]:
    """List every violated parameter constraint; empty means valid."""
    return validate_against(model_definition(model), p)


def default_params(model: ModelId) -> ParameterSet:
    """A plausible, valid parameter set for demos and verification sampling."""
    return ParameterSet(_DEFAULTS[ModelId(model)])

