"""Scenario configuration: JSON loading, validation, serialization, bundled setups."""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .core import (CostWeights, ParameterSet, TimeGrid, TimeTable, ValidationError,
                   _number, make_time_grid)
from . import models
from .models import ModelId
from .solver import FbsSettings

__all__ = [
    "SCHEMA_ID",
    "SCENARIO_DIR_ENV",
    "ScenarioConfig",
    "load_scenario",
    "load_scenario_file",
    "scenario_to_dict",
    "save_scenario",
    "builtin_scenarios",
    "builtin_scenario_names",
    "get_scenario",
    "find_scenario",
    "sweep_points",
]

SCHEMA_ID = "tbctrl-scenario/1"
SCENARIO_DIR_ENV = "TBCTRL_SCENARIO_DIR"


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed for one solve."""

    name: str
    model: ModelId
    params: ParameterSet
    initial_mode: str                 # "fractions" | "counts"
    initial_values: tuple[float, ...]
    grid: TimeGrid
    weights: CostWeights
    fbs: FbsSettings
    population: float | None = None   # reference N for fraction mode
    sweep: tuple[dict[str, float], ...] | None = None  # one override mapping per point

    def reference_population(self) -> float:
        if self.population is not None:
            return self.population
        if "N" in self.params:
            return self.params.value("N")
        raise ValidationError(
            f"scenario {self.name!r}: fraction-mode initial state needs a 'total' "
            "population or an N parameter")

    def initial_state(self) -> np.ndarray:
        vals = np.array(self.initial_values, dtype=float)
        if self.initial_mode == "fractions":
            return vals * self.reference_population()
        return vals


def _require_mapping(obj, path: str) -> Mapping:
    if not isinstance(obj, Mapping):
        raise ValidationError(f"{path}: expected an object, got {type(obj).__name__}")
    return obj


def _reject_unknown(obj: Mapping, allowed: set[str], path: str):
    unknown = sorted(set(obj) - allowed, key=str)  # a Python mapping may mix key types
    if unknown:
        raise ValidationError(f"{path}: unknown key(s) {unknown}; allowed: {sorted(allowed)}")


def _finite(obj, path: str) -> float:
    v = _number(obj, path)
    if not math.isfinite(v):
        raise ValidationError(f"{path}: expected a finite number, got {v}")
    return v


def _fraction_value(obj, path: str) -> Fraction:
    if not isinstance(obj, str):
        return Fraction(_finite(obj, path))
    if not (m := re.fullmatch(r"\s*([0-9]+)\s*(?:/\s*([0-9]+))?\s*", obj)):  # the schema's pattern
        raise ValidationError(f"{path}: expected a number or an 'n' or 'n/m' string, got {obj!r}")
    try:
        f = Fraction(int(m[1]), int(m[2] or 1))
        float(f)  # raises OverflowError past float range
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"{path}: cannot parse fraction {obj!r}") from None
    except OverflowError:
        raise ValidationError(f"{path}: number out of float range") from None
    return f


def _list(obj, path: str) -> list | tuple:
    if not isinstance(obj, (list, tuple)):
        raise ValidationError(f"{path}: expected a list, got {obj!r}")
    return obj


def _parse_parameters(obj, path: str) -> ParameterSet:
    obj = _require_mapping(obj, path)
    out: dict[str, float | TimeTable] = {}
    for name, v in obj.items():
        sub = f"{path}.{name}"
        if isinstance(v, Mapping):
            _reject_unknown(v, {"times", "values"}, sub)
            if "times" not in v or "values" not in v:
                raise ValidationError(f"{sub}: time table needs 'times' and 'values'")
            times = [_finite(t, f"{sub}.times") for t in _list(v["times"], f"{sub}.times")]
            values = [_number(t, f"{sub}.values") for t in _list(v["values"], f"{sub}.values")]
            try:
                out[name] = TimeTable(tuple(times), tuple(values))
            except ValidationError as exc:
                raise ValidationError(f"{sub}: {exc}") from None
        else:
            out[name] = _number(v, sub)
    return ParameterSet(out)


def _parse_initial_state(obj, d, path: str):
    obj = _require_mapping(obj, path)
    _reject_unknown(obj, {"mode", "values", "total"}, path)
    mode = obj.get("mode", "fractions")
    if mode not in ("fractions", "counts"):
        raise ValidationError(f"{path}.mode: expected 'fractions' or 'counts', got {mode!r}")
    if "values" not in obj:
        raise ValidationError(f"{path}: missing 'values'")
    raw = _list(obj["values"], f"{path}.values")
    if len(raw) != d.state_dim:
        raise ValidationError(
            f"{path}.values: {d.id.value} has {d.state_dim} compartments "
            f"({', '.join(d.state_labels)}), got {len(raw)} values")
    total = None
    if "total" in obj:
        total = _finite(obj["total"], f"{path}.total")
        if total <= 0:
            raise ValidationError(f"{path}.total: must be positive")
    if mode == "fractions":
        fracs = [_fraction_value(v, f"{path}.values[{i}]") for i, v in enumerate(raw)]
        if any(f < 0 for f in fracs):
            raise ValidationError(f"{path}.values: fractions must be nonnegative")
        try:
            s = float(sum(fracs))
        except OverflowError:  # each fraction fits a float, but not their sum
            s = math.inf
        if abs(s - 1.0) > 1e-9:
            raise ValidationError(f"{path}.values: initial fractions must sum to 1, got {s!r}")
        values = tuple(float(f) for f in fracs)
    else:
        values = tuple(_finite(v, f"{path}.values[{i}]") for i, v in enumerate(raw))
        if any(v < 0 for v in values):
            raise ValidationError(f"{path}.values: counts must be nonnegative")
    return mode, values, total


def _parse_cost(obj, d, path: str) -> CostWeights:
    """The weights, which state the objective; a2 and a_isolated default to 0."""
    obj = _require_mapping(obj, path)
    _reject_unknown(obj, {"a1", "a2", "a_isolated", "b", "bounds"}, path)
    for key in ("a1", "b"):
        if key not in obj:
            raise ValidationError(f"{path}: missing required key {key!r}")
    b_raw = obj["b"]
    if isinstance(b_raw, (list, tuple)):
        b = tuple(_number(v, f"{path}.b[{i}]") for i, v in enumerate(b_raw))
    else:
        b = (_number(b_raw, f"{path}.b"),)
    lower, upper = 0.0, 1.0
    if "bounds" in obj:
        bounds = obj["bounds"]
        if not isinstance(bounds, (list, tuple)) or len(bounds) != 2:
            raise ValidationError(f"{path}.bounds: expected [lower, upper]")
        lower = _number(bounds[0], f"{path}.bounds[0]")
        upper = _number(bounds[1], f"{path}.bounds[1]")
    try:
        weights = CostWeights(
            a1=_number(obj["a1"], f"{path}.a1"),
            a2=_number(obj.get("a2", 0.0), f"{path}.a2"),
            b=b,
            a_isolated=_number(obj.get("a_isolated", 0.0), f"{path}.a_isolated"),
            lower=lower,
            upper=upper,
        )
        models.cost_state_vector(d.id, weights)  # the weights must fit the model (b, a_isolated)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    return weights


def _parse_fbs(obj, path: str) -> FbsSettings:
    obj = _require_mapping(obj, path)
    _reject_unknown(obj, {"tolerance", "max_iterations"}, path)
    kwargs: dict[str, Any] = {}
    if "tolerance" in obj:
        kwargs["tolerance"] = _finite(obj["tolerance"], f"{path}.tolerance")
    if "max_iterations" in obj:
        kwargs["max_iterations"] = obj["max_iterations"]  # FbsSettings checks it is an integer
    try:
        return FbsSettings(**kwargs)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _parse_sweep(obj, path: str) -> tuple[dict[str, float], ...]:
    obj = _require_mapping(obj, path)
    _reject_unknown(obj, {"parameter", "values"}, path)
    if "values" not in obj or not isinstance(obj["values"], (list, tuple)):
        raise ValidationError(f"{path}: missing 'values' list")
    raw_values = obj["values"]
    if len(raw_values) == 0:
        raise ValidationError(f"{path}.values: sweep value list is empty")
    parameter = obj.get("parameter")
    if not isinstance(parameter, (str, type(None))):
        raise ValidationError(f"{path}.parameter: expected a string, got {parameter!r}")
    points = []
    for i, v in enumerate(raw_values):
        if parameter is None:
            if not isinstance(v, Mapping):
                raise ValidationError(f"{path}: scalar sweep values need a 'parameter' name")
            points.append({k: _number(x, f"{path}.values[{i}].{k}") for k, x in v.items()})
        elif isinstance(v, Mapping):
            raise ValidationError(f"{path}: a sweep with a 'parameter' takes only numbers, "
                                  f"but values[{i}] is an object")
        else:
            points.append({parameter: _number(v, f"{path}.values[{i}]")})
    return tuple(points)


def load_scenario(document: str | bytes | Mapping[str, Any]) -> ScenarioConfig:
    """Parse and fully validate a scenario document (JSON text or mapping)."""
    if isinstance(document, (str, bytes)):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"scenario document is not valid JSON: {exc}") from None
    else:
        doc = document
    doc = _require_mapping(doc, "$")
    _reject_unknown(doc, {"schema", "name", "model", "parameters", "initial_state",
                          "grid", "cost", "fbs", "sweep"}, "$")
    schema = doc.get("schema")
    if schema != SCHEMA_ID:
        raise ValidationError(f"$.schema: expected {SCHEMA_ID!r}, got {schema!r}")
    name = doc.get("name", "scenario")
    if not isinstance(name, str):
        raise ValidationError(f"$.name: expected a string, got {name!r}")
    for key in ("model", "parameters", "initial_state", "grid", "cost"):
        if key not in doc:
            raise ValidationError(f"$: missing required key {key!r}")
    try:
        model = ModelId(doc["model"])
    except ValueError:
        known = ", ".join(m.value for m in ModelId)
        raise ValidationError(f"$.model: unknown model {doc['model']!r}; known: {known}") from None
    d = models.model_definition(model)

    params = _parse_parameters(doc["parameters"], "$.parameters")
    violations = models.validate_params(model, params)
    if violations:
        raise ValidationError("$.parameters: " + "; ".join(violations))

    mode, values, total = _parse_initial_state(doc["initial_state"], d, "$.initial_state")
    gobj = _require_mapping(doc["grid"], "$.grid")
    _reject_unknown(gobj, {"t0", "tf", "n_steps"}, "$.grid")
    for key in ("t0", "tf", "n_steps"):
        if key not in gobj:
            raise ValidationError(f"$.grid: missing {key!r}")
    t0, tf = _number(gobj["t0"], "$.grid.t0"), _number(gobj["tf"], "$.grid.tf")
    try:
        grid = make_time_grid(t0, tf, gobj["n_steps"])  # TimeGrid checks it is an integer
    except ValidationError as exc:
        raise ValidationError(f"$.grid: {exc}") from None

    weights = _parse_cost(doc["cost"], d, "$.cost")
    fbs = _parse_fbs(doc.get("fbs", {}), "$.fbs")
    sweep = _parse_sweep(doc["sweep"], "$.sweep") if "sweep" in doc else None

    config = ScenarioConfig(
        name=name,
        model=model,
        params=params,
        initial_mode=mode,
        initial_values=values,
        grid=grid,
        weights=weights,
        fbs=fbs,
        population=total,
        sweep=sweep,
    )
    if mode == "fractions":
        config.reference_population()  # fails early with a clear message
    if sweep is not None:
        sweep_points(config)  # applying every sweep point validates the override targets
    return config


def load_scenario_file(path: str | os.PathLike) -> ScenarioConfig:
    text = Path(path).read_text(encoding="utf-8")
    try:
        return load_scenario(text)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _param_to_json(v: float | TimeTable):
    if isinstance(v, TimeTable):
        return {"times": list(v.times), "values": list(v.values)}
    return v


def scenario_to_dict(config: ScenarioConfig) -> dict:
    """Serialize a config back to the published document shape."""
    doc: dict[str, Any] = {
        "schema": SCHEMA_ID,
        "name": config.name,
        "model": config.model.value,
        "parameters": {k: _param_to_json(v) for k, v in config.params.as_dict().items()},
        "initial_state": {"mode": config.initial_mode, "values": list(config.initial_values)},
        "grid": {"t0": config.grid.t0, "tf": config.grid.tf, "n_steps": config.grid.n_steps},
        "cost": {
            "a1": config.weights.a1,
            "a2": config.weights.a2,
            "a_isolated": config.weights.a_isolated,
            "b": list(config.weights.b),
            "bounds": [config.weights.lower, config.weights.upper],
        },
        "fbs": {
            "tolerance": config.fbs.tolerance,
            "max_iterations": config.fbs.max_iterations,
        },
    }
    if config.population is not None:
        doc["initial_state"]["total"] = config.population
    if config.sweep is not None:
        doc["sweep"] = {"values": [dict(point) for point in config.sweep]}
    return doc


def save_scenario(config: ScenarioConfig, path: str | os.PathLike) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(config), indent=2) + "\n",
                          encoding="utf-8")


def _apply_override(config: ScenarioConfig, key: str, value: float) -> ScenarioConfig:
    if key.startswith("cost."):
        field = key[5:]
        w = config.weights
        if field in ("a1", "a2", "a_isolated"):
            w = replace(w, **{field: float(value)})
        elif field.startswith("b") and field[1:].isascii() and field[1:].isdigit():
            if field[1:] != str(int(field[1:])):
                raise ValidationError(f"sweep target {key!r}: index has a leading zero")
            idx = int(field[1:]) - 1
            if not 0 <= idx < len(w.b):
                raise ValidationError(f"sweep target {key!r}: index out of range")
            b = list(w.b)
            b[idx] = float(value)
            w = replace(w, b=tuple(b))
        else:
            raise ValidationError(f"sweep target {key!r}: unknown cost field")
        return replace(config, weights=w)
    d = models.model_definition(config.model)
    if key not in d.required_params:
        raise ValidationError(
            f"sweep target {key!r} is not a parameter of {config.model.value}")
    return replace(config, params=config.params.with_updates({key: float(value)}))


def sweep_points(config: ScenarioConfig) -> list[tuple[str, ScenarioConfig]]:
    """Materialize one labelled sub-scenario per sweep point.

    A point's label joins its overrides as ``key=value`` (``:g`` format).
    A point that overrides nothing, whose label repeats an earlier point's,
    or whose overrides are an earlier point's in another order, is refused
    at its ``$.sweep.values[i]`` path; any other refusal names the point by
    its label.
    """
    if config.sweep is None:
        raise ValidationError(f"scenario {config.name!r} declares no sweep")
    out = []
    for i, point in enumerate(config.sweep):
        label = ",".join(f"{k}={v:g}" for k, v in point.items())
        if not point:
            raise ValidationError(f"$.sweep.values[{i}]: a sweep point must override something")
        if any(label == seen for seen, _ in out):
            raise ValidationError(f"$.sweep.values[{i}]: label {label!r} repeats an earlier point's")
        if point in config.sweep[:i]:  # dicts compare as sets of (target, value) pairs
            raise ValidationError(f"$.sweep.values[{i}]: point {label!r} repeats an earlier point's "
                                  "overrides in another order")
        sub = replace(config, sweep=None, name=f"{config.name}[{label}]")
        try:
            for k, v in point.items():
                sub = _apply_override(sub, k, v)
            models.validate_problem(sub.model, sub.params, sub.weights)
        except ValidationError as exc:
            raise ValidationError(f"sweep point {label!r}: {exc}") from None
        out.append((label, sub))
    return out


def builtin_scenario_names() -> tuple[str, ...]:
    """The bundled scenarios: every JSON file in the tbctrl.scenarios package, sorted."""
    return tuple(sorted(f.name[:-5] for f in resources.files("tbctrl.scenarios").iterdir()
                        if f.name.endswith(".json")))


def _bundled(name: str) -> ScenarioConfig:
    return load_scenario(
        resources.files("tbctrl.scenarios").joinpath(f"{name}.json").read_text("utf-8"))


def builtin_scenarios() -> dict[str, ScenarioConfig]:
    """Bundled setups: the flagship run plus the standard sweep families."""
    return {name: _bundled(name) for name in builtin_scenario_names()}


def get_scenario(name: str) -> ScenarioConfig:
    """Look up a bundled scenario; short aliases like 'fig4-sweep' are accepted."""
    names = builtin_scenario_names()
    for full in (name, f"seirs-{name}"):
        if full in names:
            return _bundled(full)
    raise ValidationError(f"unknown scenario {name!r}; bundled scenarios: {', '.join(names)}")


def find_scenario(ref: str) -> ScenarioConfig:
    """Resolve a CLI scenario reference: path, then $TBCTRL_SCENARIO_DIR, then bundled."""
    path = Path(ref)
    if path.exists():
        return load_scenario_file(path)
    env_dir = os.environ.get(SCENARIO_DIR_ENV)
    if env_dir:
        for cand in (Path(env_dir) / ref, Path(env_dir) / f"{ref}.json"):
            if cand.exists():
                return load_scenario_file(cand)
    try:
        return get_scenario(ref)
    except ValidationError:
        raise FileNotFoundError(
            f"scenario {ref!r} not found as a file, under ${SCENARIO_DIR_ENV}, "
            f"or among bundled scenarios ({', '.join(builtin_scenario_names())})") from None
