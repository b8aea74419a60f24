"""Total-cost evaluation: trapezoidal quadrature of the objective along a trajectory."""

from __future__ import annotations

import numpy as np

from .core import CostKind, CostWeights, Trajectory, ValidationError, check_kind_weights
from . import models
from .models import ModelId

__all__ = ["CostKind", "total_cost"]

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def total_cost(kind: CostKind, model: ModelId, traj: Trajectory, w: CostWeights) -> float:
    """Composite trapezoidal quadrature of the running cost over the grid."""
    check_kind_weights(kind, w)
    if traj.control is None:
        raise ValidationError("trajectory has no control samples; cannot evaluate cost")
    d = models.model_definition(model)
    if traj.control.shape[1] != d.control_dim:
        raise ValidationError(f"{d.id.value}: control dimension mismatch in trajectory")
    if traj.state.shape[1] != d.state_dim:
        raise ValidationError(f"{d.id.value}: state dimension mismatch in trajectory")
    return _quadrature(traj.state, traj.control, models.cost_state_vector(model, w), w.b_array,
                       traj.grid.h)


def _quadrature(state: np.ndarray, control: np.ndarray, vec: np.ndarray, b: np.ndarray,
                h: float) -> float:
    """Trapezoid of g.x + 0.5 sum_i b_i u_i^2 along the rows; checks nothing."""
    integrand = state @ vec + 0.5 * (np.square(control) @ b)
    return float(_trapezoid(integrand, dx=h))
