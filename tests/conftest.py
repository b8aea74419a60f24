"""Shared fixtures; expensive solves are cached once per session."""

from dataclasses import replace

import pytest

from tbctrl import (CostWeights, default_params, get_scenario, make_time_grid,
                    model_definition, solve_fbs)
from tbctrl.core import CostKind
from tbctrl.scenario import ScenarioConfig
from tbctrl.solver import FbsSettings


class SolveStore:
    """Session cache so acceptance criteria and unit tests share solves."""

    def __init__(self):
        self._store = {}

    def get(self, key, config):
        if key not in self._store:
            self._store[key] = solve_fbs(config)
        return self._store[key]

    def put(self, key, solution):
        self._store[key] = solution

    def __contains__(self, key):
        return key in self._store


@pytest.fixture(scope="session")
def solve_cached():
    return SolveStore()


@pytest.fixture(scope="session")
def flagship():
    return get_scenario("fig1")


@pytest.fixture(scope="session")
def shrink():
    """Return a copy of a scenario on a coarser grid (for fast unit tests)."""

    def _shrink(config, n_steps, **fbs_overrides):
        out = replace(config, grid=make_time_grid(config.grid.t0, config.grid.tf, n_steps))
        if fbs_overrides:
            out = replace(out, fbs=replace(out.fbs, **fbs_overrides))
        return out

    return _shrink


@pytest.fixture(scope="session")
def default_config():
    """Build a model's default problem: counts 7000/2000/1000, unit state weights, b = 50."""

    def _default_config(mid, n_steps):
        d = model_definition(mid)
        return ScenarioConfig(
            name=f"{mid.value}-default", model=mid, params=default_params(mid),
            initial_mode="counts",
            initial_values=(7000.0, 2000.0, 1000.0) + (0.0,) * (d.state_dim - 3),
            grid=make_time_grid(0.0, 5.0, n_steps), cost_kind=d.cost_kind,
            weights=CostWeights(a1=1.0, a2=1.0 if d.cost_kind is CostKind.C1 else 0.0,
                                b=(50.0,) * d.control_dim),
            fbs=FbsSettings())

    return _default_config
