"""Optimal control of TB transmission models via the forward-backward sweep method."""

from .core import (CostWeights, NonFiniteError, ParameterSet, TimeGrid, TimeTable,
                   Trajectory, ValidationError, interpolate_state, make_time_grid)
from .costs import total_cost
from .models import (ModelId, adjoint_rhs, control_characterization, default_params,
                     dynamics, model_definition, running_cost, validate_params)
from .oracle import best_constant_control, solve_direct
from .pmp import (ConsistencyReport, hamiltonian, verify_adjoint_consistency,
                  verify_control_stationarity)
from .scenario import (ScenarioConfig, builtin_scenarios, get_scenario, load_scenario,
                       load_scenario_file, save_scenario, scenario_to_dict, sweep_points)
from .solver import (FbsSettings, Solution, SolveReport, integrate_adjoint_backward,
                     integrate_forward, reduced_cost_gradient, solve_fbs)

__version__ = "0.1.0"

__all__ = [
    "CostWeights", "NonFiniteError", "ParameterSet", "TimeGrid",
    "TimeTable", "Trajectory", "ValidationError", "interpolate_state", "make_time_grid",
    "total_cost",
    "ModelId", "adjoint_rhs", "control_characterization", "default_params",
    "dynamics", "model_definition", "running_cost", "validate_params",
    "best_constant_control", "solve_direct",
    "ConsistencyReport", "hamiltonian", "verify_adjoint_consistency",
    "verify_control_stationarity",
    "ScenarioConfig", "builtin_scenarios", "get_scenario", "load_scenario",
    "load_scenario_file", "save_scenario", "scenario_to_dict", "sweep_points",
    "FbsSettings", "Solution", "SolveReport", "integrate_adjoint_backward",
    "integrate_forward", "reduced_cost_gradient", "solve_fbs",
    "__version__",
]
