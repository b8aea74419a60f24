"""Scenario configuration: JSON loading, validation, serialization, bundled setups."""

from __future__ import annotations

import functools
import json
import math
import numbers
import operator
import os
import re
from collections.abc import Mapping
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Any

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


def _shown(v) -> str:
    return repr(v) if isinstance(v, (str, numbers.Number)) else type(v).__name__


_KINDS = {"object": ("an object", Mapping), "array": ("a list", (list, tuple)),
          "string": ("a string", str), "number": ("a number", numbers.Real),
          "integer": ("an integer", (numbers.Integral, float))}
# (keyword, the kind it bounds, refuses, rule): a comparison with NaN refuses nothing (draft 7)
_LIMITS = (("minimum", "number", operator.lt, "must be >= {}"),
           ("maximum", "number", operator.gt, "must be <= {}"),
           ("exclusiveMinimum", "number", operator.le, "must be > {}"),
           ("minItems", "array", operator.lt, "needs at least {} item(s)"),
           ("maxItems", "array", operator.gt, "takes at most {} item(s)"),
           ("minProperties", "object", operator.lt, "needs at least {} key(s)"))


@functools.cache
def _schema() -> dict:
    return json.loads(resources.files("tbctrl").joinpath("scenario-schema.json").read_text("utf-8"))


def _is(v, kind: str) -> bool:
    """The draft-7 type test: a bool is of none of these kinds, an integral float is an integer."""
    return not isinstance(v, bool) and isinstance(v, _KINDS[kind][1]) and (
        kind != "integer" or not isinstance(v, float) or v.is_integer())


def _fits(v, schema: Mapping) -> bool:
    """Whether v has the type, the required keys and only the allowed keys of a oneOf branch."""
    keys = v.keys() if isinstance(v, Mapping) else set()
    return _is(v, schema["type"]) and set(schema.get("required", ())) <= keys and (
        schema.get("additionalProperties") is not False or keys <= schema["properties"].keys())


def _valid(v, schema: Mapping) -> bool:
    try:
        _conform(v, schema, "")
    except ValidationError:
        return False
    return True


def _conform(v, schema: Mapping, path: str) -> None:
    """Refuse v, at its JSON path, unless it conforms to schema: the draft-7 keywords that
    scenario-schema.json uses, with a tuple as an array and a non-string key refused."""
    if "type" in schema and not _is(v, schema["type"]):
        raise ValidationError(f"{path}: expected {_KINDS[schema['type']][0]}, got {_shown(v)}")
    among = [schema["const"]] if "const" in schema else schema.get("enum")
    if among is not None and v not in among:
        raise ValidationError(f"{path}: expected {' or '.join(map(repr, among))}, got {_shown(v)}")
    if "pattern" in schema and isinstance(v, str) and not re.search(schema["pattern"], v):
        raise ValidationError(f"{path}: {v!r} does not match {schema['pattern']!r}")
    for key, kind, refuses, rule in _LIMITS:
        if key in schema and _is(v, kind) and refuses(n := v if kind == "number" else len(v),
                                                       schema[key]):
            raise ValidationError(f"{path}: {rule.format(schema[key])}, got {n!r}")
    if isinstance(v, Mapping):
        props, extra = schema.get("properties", {}), schema.get("additionalProperties", True)
        if extra is False and (unknown := sorted(v.keys() - props.keys(), key=str)):
            raise ValidationError(f"{path}: unknown key(s) {unknown}; allowed: {sorted(props)}")
        if odd := [k for k in v if not isinstance(k, str)]:
            raise ValidationError(f"{path}: key {odd[0]!r} is not a string")
        if missing := [key for key in schema.get("required", ()) if key not in v]:
            raise ValidationError(f"{path}: missing required key {missing[0]!r}")
        for key, item in v.items():
            if isinstance(sub := props.get(key, extra), Mapping):
                _conform(item, sub, f"{path}.{key}")
    if "items" in schema and isinstance(v, (list, tuple)):
        for i, item in enumerate(v):
            _conform(item, schema["items"], f"{path}[{i}]")
    if "oneOf" in schema:
        fits = [s for s in schema["oneOf"] if _fits(v, s)] or \
            [s for s in schema["oneOf"] if _is(v, s["type"])]
        if len(fits) == 1:  # the failure inside the one branch v has the shape, or the type, of
            _conform(v, fits[0], path)
        elif sum(_valid(v, s) for s in fits) != 1:
            forms = [_KINDS[s["type"]][0] + (f" with keys {sorted(s['properties'])}"
                     if s.get("additionalProperties") is False else "") for s in schema["oneOf"]]
            raise ValidationError(f"{path}: expected {' or '.join(forms)}, got {_shown(v)}")
    if "if" in schema and _valid(v, schema["if"]):
        _conform(v, schema["then"], path)


def _finite(obj, path: str) -> float:
    v = _number(obj, path)
    if not math.isfinite(v):
        raise ValidationError(f"{path}: expected a finite number, got {v}")
    return v


def _fraction_value(obj, path: str) -> float:
    if not isinstance(obj, str):
        return _finite(obj, path)
    num, _, den = obj.partition("/")  # the schema's pattern: "n" or "n/m", m > 0
    try:
        return int(num) / int(den or 1)  # rounded once, to the double nearest n/m
    except ValueError:  # past int()'s digit limit
        raise ValidationError(f"{path}: too many digits") from None
    except OverflowError:
        raise ValidationError(f"{path}: number out of float range") from None


def _parse_parameters(obj, path: str) -> ParameterSet:
    out: dict[str, float | TimeTable] = {}
    for name, v in obj.items():
        sub = f"{path}.{name}"
        if isinstance(v, Mapping):  # a time table
            times = [_finite(t, f"{sub}.times") for t in v["times"]]
            values = [_number(t, f"{sub}.values") for t in v["values"]]
            try:
                out[name] = TimeTable(tuple(times), tuple(values))
            except ValidationError as exc:
                raise ValidationError(f"{sub}: {exc}") from None
        else:
            out[name] = _number(v, sub)
    return ParameterSet(out)


def _parse_initial_state(obj, d, path: str):
    mode, raw = obj.get("mode", "fractions"), obj["values"]
    if len(raw) != d.state_dim:
        raise ValidationError(
            f"{path}.values: {d.id.value} has {d.state_dim} compartments "
            f"({', '.join(d.state_labels)}), got {len(raw)} values")
    total = _finite(obj["total"], f"{path}.total") if "total" in obj else None
    if mode == "fractions":
        fracs = [_fraction_value(v, f"{path}.values[{i}]") for i, v in enumerate(raw)]
        if any(f < 0 for f in fracs):
            raise ValidationError(f"{path}.values: fractions must be nonnegative")
        try:
            s = math.fsum(fracs)
        except OverflowError:  # each fraction fits a float, but not their sum
            s = math.inf
        if abs(s - 1.0) > 1e-9:
            raise ValidationError(f"{path}.values: initial fractions must sum to 1, got {s!r}")
        values = tuple(fracs)
    else:
        values = tuple(_finite(v, f"{path}.values[{i}]") for i, v in enumerate(raw))
        if any(v < 0 for v in values):
            raise ValidationError(f"{path}.values: counts must be nonnegative")
    return mode, values, total


def _parse_cost(obj, d, path: str) -> CostWeights:
    """The weights, which state the objective; a2 and a_isolated default to 0."""
    w = {k: _finite(obj.get(k, 0.0), f"{path}.{k}") for k in ("a1", "a2", "a_isolated")}
    b = obj["b"]  # one number, or a list of one per control
    w["b"] = tuple(_finite(v, f"{path}.b[{i}]") for i, v in enumerate(b)) \
        if isinstance(b, (list, tuple)) else (_finite(b, f"{path}.b"),)
    w["lower"], w["upper"] = (_finite(v, f"{path}.bounds[{i}]")
                              for i, v in enumerate(obj.get("bounds", (0.0, 1.0))))
    try:
        weights = CostWeights(**w)
        models.cost_state_vector(d.id, weights)  # the weights must fit the model (b, a_isolated)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    return weights


def _parse_sweep(obj, path: str) -> tuple[dict[str, float], ...]:
    p = obj.get("parameter")  # names the one quantity each number sets; else objects
    return tuple({p: _number(v, f"{path}.values[{i}]")} if p is not None else
                 {k: _number(x, f"{path}.values[{i}].{k}") for k, x in v.items()}
                 for i, v in enumerate(obj["values"]))


def load_scenario(document: str | bytes | Mapping[str, Any]) -> ScenarioConfig:
    """Parse and fully validate a scenario document (JSON text or mapping): its structure
    against the packaged scenario-schema.json, then what the schema cannot state."""
    if isinstance(document, (str, bytes)):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"scenario document is not valid JSON: {exc}") from None
    else:
        doc = document
    _conform(doc, _schema(), "$")
    model = ModelId(doc["model"])
    d = models.model_definition(model)

    params = _parse_parameters(doc["parameters"], "$.parameters")
    if violations := models.validate_params(model, params):
        raise ValidationError("$.parameters: " + "; ".join(violations))

    mode, values, total = _parse_initial_state(doc["initial_state"], d, "$.initial_state")
    g = doc["grid"]
    try:
        grid = make_time_grid(_finite(g["t0"], "$.grid.t0"), _finite(g["tf"], "$.grid.tf"),
                              int(g["n_steps"]))  # the schema admits an integral float
    except ValidationError as exc:
        raise ValidationError(f"$.grid: {exc}") from None

    weights = _parse_cost(doc["cost"], d, "$.cost")
    fbs = FbsSettings(**{k: _finite(v, "$.fbs.tolerance") if k == "tolerance" else int(v)
                         for k, v in doc.get("fbs", {}).items()})
    sweep = _parse_sweep(doc["sweep"], "$.sweep") if "sweep" in doc else None

    config = ScenarioConfig(
        name=doc.get("name", "scenario"),
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
