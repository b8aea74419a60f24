"""Catalog of controlled TB transmission models behind one uniform interface.

Every model exposes its ODE right-hand side, its hand-derived costate
(adjoint) right-hand side -dH/dx, which spells out its own state-cost terms,
the closed-form projected minimizer of its Hamiltonian in the controls, and
the linear state cost assembled from :class:`~tbctrl.core.CostWeights`.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import add, mul

import numpy as np

from ..core import CostWeights, ParameterSet, ValidationError
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
        raise ValidationError(f"{model.value} has {d.control_dim} control(s), so needs "
                              f"{d.control_dim} effort weights, got {len(w.b)}")
    vec = w.a1 * np.array(d.infectious) + w.a2 * np.array(d.latent)
    if d.isolated is not None:
        vec = vec + w.a_isolated * np.array(d.isolated)
    elif w.a_isolated != 0.0:
        raise ValidationError(f"{model.value} has no isolated compartment; a_isolated must be 0")
    vec.flags.writeable = False
    return vec


def _running_cost(model: ModelId, w: CostWeights, x, u):
    """g.x + 0.5 sum_i b_i u_i^2, each sum added left to right; checks only w's fit.

    x and u hold one entry per state and control: floats, or numpy arrays that
    broadcast together, and the result comes back in their broadcast shape.
    """
    return (reduce(add, map(mul, _cost_vec(model, w), x))
            + 0.5 * reduce(add, map(mul, w.b, map(mul, u, u))))


def cost_state_vector(model: ModelId, w: CostWeights) -> np.ndarray:
    """Vector g with state-cost g.x (the integrand minus control effort)."""
    return _cost_vec(ModelId(model), w).copy()


def validate_problem(model: ModelId, p: ParameterSet, w: CostWeights) -> ModelDefinition:
    """The model's definition, if p and w make a valid problem (see ``_point``)."""
    return _point(model, p=p, w=w)[0]


def _point(model: ModelId, nodes: int | None = None, p: ParameterSet | None = None,
           w: CostWeights | None = None, **vectors) -> list:
    """The model's definition, then each named vector as a float array of the model's shape.

    The one gate of every public entry: given p, it refuses a parameter set
    that ``validate_against`` rejects; given w, weights that do not fit the
    model (``_cost_vec``). Past it, ``rhs``, ``adjoint`` and ``characterize``
    receive the tuple of an accepted set and check nothing but the state.
    A vector named ``control`` needs one entry per control, any other one per
    compartment; given ``nodes``, each is a (nodes, entries) array, one row per node.
    A vector named ``x0``, an initial state, must be nonnegative.
    """
    d = model_definition(model)
    if p is not None:
        violations = validate_against(d, p)
        if violations:
            raise ValidationError(f"{d.id.value}: invalid parameters: " + "; ".join(violations))
    if w is not None:
        _cost_vec(d.id, w)
    out: list = [d]
    for what, v in vectors.items():
        n = d.control_dim if what == "control" else d.state_dim
        shape = (n,) if nodes is None else (nodes, n)
        v = np.asarray(v, dtype=float)
        if v.shape != shape:
            raise ValidationError(f"{d.id.value}: {what} must have shape {shape}, got {v.shape}")
        if what == "x0" and np.any(v < 0):
            raise ValidationError(f"{d.id.value}: initial state must be nonnegative")
        out.append(v)
    return out


def dynamics(model: ModelId, t: float, x: np.ndarray, u: np.ndarray,
             p: ParameterSet) -> np.ndarray:
    """Time derivative of the state under control u."""
    d, x, u = _point(model, p=p, state=x, control=u)
    return np.array(d.rhs(t, x, u, p.values(d.required_params, t)))


def adjoint_rhs(model: ModelId, t: float, x: np.ndarray, lam: np.ndarray,
                u: np.ndarray, p: ParameterSet, w: CostWeights) -> np.ndarray:
    """Time derivative of the costate: -dH/dx for the model's Hamiltonian."""
    d, x, lam, u = _point(model, p=p, w=w, state=x, adjoint=lam, control=u)
    return np.array(d.adjoint(t, x, lam, u, p.values(d.required_params, t), w))


def control_characterization(model: ModelId, t: float, x: np.ndarray, lam: np.ndarray,
                             p: ParameterSet, w: CostWeights) -> np.ndarray:
    """Pointwise minimizer of the Hamiltonian over the admissible control box."""
    d, x, lam = _point(model, p=p, w=w, state=x, adjoint=lam)
    return np.array(d.characterize(t, x, lam, p.values(d.required_params, t), w))


def running_cost(model: ModelId, x: np.ndarray, u: np.ndarray, w: CostWeights) -> float:
    """Objective integrand: linear state burden plus quadratic control effort."""
    d, x, u = _point(model, state=x, control=u)
    return float(_running_cost(d.id, w, x, u))


def validate_params(model: ModelId, p: ParameterSet) -> list[str]:
    """List every violated parameter constraint; empty means valid."""
    return validate_against(model_definition(model), p)


def default_params(model: ModelId) -> ParameterSet:
    """A plausible, valid parameter set for demos and verification sampling."""
    return ParameterSet(_DEFAULTS[ModelId(model)])

