"""Total-cost evaluation: trapezoidal quadrature of the objective along a trajectory."""

from __future__ import annotations

import numpy as np

from .core import CostWeights, Trajectory, ValidationError
from . import models
from .models import ModelId

__all__ = ["total_cost"]

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def total_cost(model: ModelId, traj: Trajectory, w: CostWeights) -> float:
    """Composite trapezoidal quadrature of the running cost over the grid."""
    if traj.control is None:
        raise ValidationError("trajectory has no control samples; cannot evaluate cost")
    d, state, control = models._point(model, traj.grid.n_nodes, state=traj.state,
                                      control=traj.control)
    return _quadrature(d.id, w, state, control, traj.grid.h)


def _quadrature(model: ModelId, w: CostWeights, state: np.ndarray, control: np.ndarray,
                h: float) -> float:
    """Trapezoid of the running cost along the rows; checks only w's fit."""
    return float(_trapezoid(models._running_cost(model, w, state.T, control.T), dx=h))
