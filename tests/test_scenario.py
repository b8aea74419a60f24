import copy
import inspect
import itertools
import json
import math
import operator
import re
from dataclasses import replace
from functools import reduce
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from tbctrl import (CostWeights, ModelId, builtin_scenarios, get_scenario, load_scenario,
                    load_scenario_file, save_scenario, scenario_to_dict,
                    validate_params)
from tbctrl import scenario
from tbctrl.core import TimeGrid, TimeTable, ValidationError
from tbctrl.solver import FbsSettings
from tbctrl.scenario import SCHEMA_ID, builtin_scenario_names, find_scenario, sweep_points

MAX_STEPS = TimeGrid.MAX_STEPS
SCHEMA_PATH = resources.files("tbctrl").joinpath("scenario-schema.json")
SCHEMA = json.loads(SCHEMA_PATH.read_text("utf-8"))

NAN, INF = math.nan, math.inf


def flagship_doc():
    return {
        "schema": SCHEMA_ID,
        "name": "test",
        "model": "seirs",
        "parameters": {"Lambda": 143.0, "beta": 13.0, "c": 1.0, "mu": 0.0143,
                       "sigma": 1.0, "k1": 1.0, "r1": 2.0, "r2": 1.0,
                       "d1": 0.0, "N": 10000.0},
        "initial_state": {"mode": "fractions",
                          "values": ["76/120", "38/120", "5/120", "1/120"]},
        "grid": {"t0": 0.0, "tf": 5.0, "n_steps": 100},
        "cost": {"a1": 1.0, "b": [100.0]},
    }


class TestBundledScenarios:
    def test_flagship_values(self):
        cfg = get_scenario("fig1")
        p = cfg.params
        assert cfg.model is ModelId.SEIRS
        assert p.value("mu") == 0.0143 and p.value("c") == 1.0 and p.value("beta") == 13.0
        assert p.value("sigma") == 1.0 and p.value("r1") == 2.0 and p.value("r2") == 1.0
        assert p.value("k1") == 1.0 and p.value("N") == 10000.0
        assert cfg.weights.a1 == 1.0 and cfg.weights.b == (100.0,)
        assert cfg.grid.tf == 5.0 and cfg.grid.n_steps == 5000
        x0 = cfg.initial_state()
        assert x0 == pytest.approx([6333.3333333333, 3166.6666666667, 416.6666667, 83.3333333])

    def test_all_builtins_valid(self):
        for name, cfg in builtin_scenarios().items():
            assert validate_params(cfg.model, cfg.params) == [], name
            if cfg.sweep is not None:
                pts = sweep_points(cfg)
                assert len(pts) >= 2

    def test_effort_weight_sweep(self):
        cfg = get_scenario("fig4-sweep")
        values = [point["cost.b1"] for point in cfg.sweep]
        assert values == [50.0, 100.0, 250.0, 500.0]
        pts = sweep_points(cfg)
        assert [sub.weights.b[0] for _, sub in pts] == values

    def test_population_sweep_keeps_recruitment_matched(self):
        cfg = get_scenario("fig3-sweep")
        for _, sub in sweep_points(cfg):
            assert sub.params.value("Lambda") == pytest.approx(
                sub.params.value("mu") * sub.params.value("N"), rel=1e-12)

    def test_progression_sweep(self):
        cfg = get_scenario("fig2-sweep")
        assert [sub.params.value("k1") for _, sub in sweep_points(cfg)] == [0.25, 0.5, 0.75, 1.0]

    def test_balanced_weight_variants(self):
        assert get_scenario("fig5-sweep").weights.a1 == 100.0
        assert get_scenario("fig6-sweep").weights.a1 == 100.0

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError):
            get_scenario("fig99")

    def test_names_are_the_shipped_files(self):
        assert builtin_scenario_names() == (
            "seirs-fig1", "seirs-fig2-sweep", "seirs-fig3-sweep", "seirs-fig4-sweep",
            "seirs-fig5-sweep", "seirs-fig6-sweep")


class TestLoadScenario:
    def test_valid_document(self):
        cfg = load_scenario(json.dumps(flagship_doc()))
        assert cfg.name == "test" and cfg.grid.n_steps == 100

    def test_missing_effort_weight_names_field(self):
        doc = flagship_doc()
        del doc["cost"]["b"]
        with pytest.raises(ValidationError, match=r"\$\.cost.*'b'"):
            load_scenario(json.dumps(doc))

    def test_fractions_must_sum_to_one(self):
        doc = flagship_doc()
        doc["initial_state"]["values"] = [0.5, 0.2, 0.1, 0.1]
        with pytest.raises(ValidationError, match="sum to 1"):
            load_scenario(json.dumps(doc))

    @pytest.mark.parametrize("values, expected", [
        (["76/120", "38/120", "5/120", "1/120"], (76 / 120, 38 / 120, 5 / 120, 1 / 120)),
        ([f"{10 ** 400}/{4 * 10 ** 400}"] * 4, (0.25,) * 4),  # integers past float range
        ([" 1 / 3 ", "1/3", "1 /3", "0"], (1 / 3, 1 / 3, 1 / 3, 0.0)),
    ], ids=["flagship", "long", "spaced"])
    def test_fraction_strings_read_as_the_nearest_double(self, values, expected):
        doc = flagship_doc()
        doc["initial_state"]["values"] = values
        assert load_scenario(doc).initial_values == expected

    def test_unknown_keys_rejected(self):
        doc = flagship_doc()
        doc["extra"] = 1
        with pytest.raises(ValidationError, match="unknown key"):
            load_scenario(json.dumps(doc))
        doc = flagship_doc()
        doc["cost"]["weight"] = 1
        with pytest.raises(ValidationError, match=r"\$\.cost"):
            load_scenario(json.dumps(doc))

    def test_unknown_keys_of_mixed_types_refused(self):
        # a Python mapping may mix key types: the refusal still lists them, sorted as strings
        doc = {**flagship_doc(), 1: "x", "zz": 2}
        with pytest.raises(ValidationError, match=r"^\$: unknown key\(s\) \[1, 'zz'\]; allowed: "):
            load_scenario(doc)

    def test_non_string_parameter_key_refused(self):
        # parameters allows any string key, so a non-string one is refused for its type
        doc = flagship_doc()
        doc["parameters"] = {1: 2.0}
        with pytest.raises(ValidationError, match=r"^\$\.parameters: key 1 is not a string$"):
            load_scenario(doc)

    @pytest.mark.parametrize("n_steps", [MAX_STEPS + 1, 10**30])
    def test_oversized_grid_refused_before_allocation(self, n_steps):
        doc = flagship_doc()
        doc["grid"]["n_steps"] = n_steps
        with pytest.raises(ValidationError,
                           match=rf"^\$\.grid\.n_steps: must be <= {MAX_STEPS}, got {n_steps}$"):
            load_scenario(json.dumps(doc))

    def test_schema_field_required(self):
        doc = flagship_doc()
        doc["schema"] = "something-else"
        with pytest.raises(ValidationError, match="schema"):
            load_scenario(json.dumps(doc))

    def test_parse_error_reported(self):
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_scenario("{not json")

    def test_model_parameter_mismatch(self):
        doc = flagship_doc()
        del doc["parameters"]["mu"]
        with pytest.raises(ValidationError, match="missing parameter 'mu'"):
            load_scenario(json.dumps(doc))

    def test_wrong_state_dimension(self):
        doc = flagship_doc()
        doc["initial_state"]["values"] = ["1/2", "1/2"]
        with pytest.raises(ValidationError, match="4 compartments"):
            load_scenario(json.dumps(doc))

    def test_effort_weight_count_checked(self):
        doc = flagship_doc()
        doc["cost"]["b"] = [100.0, 50.0]
        with pytest.raises(ValidationError, match="1 control"):
            load_scenario(json.dumps(doc))

    def test_isolated_weight_needs_an_isolated_compartment(self):
        doc = flagship_doc()
        doc["cost"]["a_isolated"] = 1.0
        with pytest.raises(ValidationError, match=r"^\$\.cost: seirs has no isolated compartment"):
            load_scenario(json.dumps(doc))

    def test_weights_state_the_objective(self):
        # a2 and a_isolated default to 0; any nonnegative a2 is an objective of its own
        assert load_scenario(flagship_doc()).weights == CostWeights(a1=1.0, b=(100.0,))
        doc = flagship_doc()
        doc["cost"]["a2"] = 1.0
        assert load_scenario(doc).weights == CostWeights(a1=1.0, a2=1.0, b=(100.0,))

    @pytest.mark.parametrize("key", ["a1", "b"])
    def test_required_cost_keys(self, key):
        doc = flagship_doc()
        del doc["cost"][key]
        with pytest.raises(ValidationError, match=rf"^\$\.cost: missing required key '{key}'$"):
            load_scenario(doc)

    def test_empty_sweep_rejected(self):
        doc = flagship_doc()
        doc["sweep"] = {"parameter": "k1", "values": []}
        with pytest.raises(ValidationError, match=r"^\$\.sweep\.values: needs at least 1 item\(s\), got 0$"):
            load_scenario(json.dumps(doc))

    def test_sweep_target_must_exist(self):
        doc = flagship_doc()
        doc["sweep"] = {"parameter": "nope", "values": [1.0]}
        with pytest.raises(ValidationError, match="sweep target"):
            load_scenario(json.dumps(doc))

    def test_scalar_and_mapping_forms_give_equal_points(self):
        doc = flagship_doc()
        doc["sweep"] = {"parameter": "k1", "values": [0.25, 1.0]}
        scalar = sweep_points(load_scenario(doc))
        doc["sweep"] = {"values": [{"k1": 0.25}, {"k1": 1.0}]}
        mapping = sweep_points(load_scenario(doc))
        assert [label for label, _ in scalar] == ["k1=0.25", "k1=1"]
        assert scalar == mapping

    @pytest.mark.parametrize("sweep, error", [
        ({"parameter": "cost.b1", "values": [50, -1]},
         r"sweep point 'cost\.b1=-1': every effort weight b_i must be > 0"),
        ({"parameter": "k1", "values": [0.5, -1.0]},
         r"sweep point 'k1=-1': seirs: invalid parameters: "),
        ({"parameter": "cost.a_isolated", "values": [1.0]},
         r"sweep point 'cost\.a_isolated=1': seirs has no isolated compartment"),
        ({"parameter": "nope", "values": [1.0]},
         r"sweep point 'nope=1': sweep target 'nope' is not a parameter of seirs"),
        ({"values": [{"k1": 0.5}, {}]}, r"\$\.sweep\.values\[1\]: needs at least 1 key\(s\), got 0$"),
        ({"parameter": "k1", "values": [0.1234561, 0.1234562]},
         r"\$\.sweep\.values\[1\]: label 'k1=0\.123456' repeats an earlier point's"),
        ({"values": [{"k1": 0.5, "c": 1.0}, {"k1": 0.5, "c": 1.0}]},
         r"\$\.sweep\.values\[1\]: label 'k1=0\.5,c=1' repeats"),
        ({"values": [{"cost.b\u00b9": 50}]},  # a superscript one: str.isdigit, but not int()
         r"sweep point 'cost\.b\u00b9=50': sweep target 'cost\.b\u00b9': unknown cost field"),
        ({"values": [{"cost.b1": 50}, {"cost.b01": 50}]},
         r"sweep point 'cost\.b01=50': sweep target 'cost\.b01': index has a leading zero"),
        ({"values": [{"k1": 0.5, "cost.b1": 50}, {"cost.b1": 50, "k1": 0.5}]},
         r"\$\.sweep\.values\[1\]: point 'cost\.b1=50,k1=0\.5' repeats an earlier point's overrides"),
        # the two forms do not mix
        ({"parameter": "k1", "values": [0.5, {"c": 1.0}]},
         r"\$\.sweep\.values\[1\]: expected a number, got dict$"),
        ({"parameter": "k1", "values": [{"c": 1.0}]}, r"\$\.sweep\.values\[0\]: expected a number, got dict$"),
        ({"values": [{"c": 1.0}, 0.5]}, r"\$\.sweep\.values\[1\]: expected an object, got 0\.5$"),
        # seirs has one control
        ({"parameter": "cost.b2", "values": [50]},
         r"sweep point 'cost\.b2=50': sweep target 'cost\.b2': index out of range$"),
        ({"parameter": "cost.b0", "values": [50]},
         r"sweep point 'cost\.b0=50': sweep target 'cost\.b0': index out of range$"),
    ])
    def test_sweep_point_refusals_are_located(self, sweep, error):
        doc = flagship_doc()
        doc["sweep"] = sweep
        with pytest.raises(ValidationError, match=rf"^{error}"):
            load_scenario(doc)

    def test_sweep_points_refuse_an_empty_point(self):
        # the schema refuses {} in a document; a config built in Python meets this check
        cfg = replace(load_scenario(flagship_doc()), sweep=({"k1": 0.5}, {}))
        with pytest.raises(ValidationError, match=r"^\$\.sweep\.values\[1\]: a sweep point must override"):
            sweep_points(cfg)

    def test_time_table_parameter(self):
        doc = flagship_doc()
        doc["model"] = "korea"
        doc["parameters"] = {"b": 0.02, "mu": 0.0143, "beta": 13.0, "alpha": 0.4,
                             "k": {"times": [0.0, 10.0], "values": [0.05, 0.2]},
                             "s": 0.3, "r": 2.0}
        doc["initial_state"] = {"mode": "fractions",
                                "values": [0.6, 0.2, 0.05, 0.15], "total": 10000.0}
        doc["cost"] = {"a1": 1.0, "a2": 1.0, "b": [50.0, 50.0, 50.0]}
        cfg = load_scenario(json.dumps(doc))
        assert isinstance(cfg.params.raw("k"), TimeTable)
        assert cfg.params.value("k", 5.0) == pytest.approx(0.125)

    def test_infinite_bounds_rejected(self):
        doc = flagship_doc()
        doc["cost"]["bounds"] = [0.0, "UPPER"]
        text = json.dumps(doc).replace('"UPPER"', "1e400")  # parses to inf
        with pytest.raises(ValidationError, match=r"^\$\.cost\.bounds\[1\]: expected a finite number, got inf$"):
            load_scenario(text)

    @pytest.mark.parametrize("edit, error", [
        ({"initial_state": {"values": [NAN, 0.5, 0.25, 0.25]}},
         r"initial_state\.values\[0\]: expected a finite number"),
        ({"initial_state": {"values": [0.5, INF, 0.25, 0.25]}},
         r"initial_state\.values\[1\]: expected a finite number"),
        ({"initial_state": {"mode": "counts", "values": [7000.0, NAN, 400.0, 100.0]}},
         r"initial_state\.values\[1\]: expected a finite number"),
        ({"initial_state": {"values": [0.5, 0.25, 0.25, 0.0], "total": INF}},
         r"initial_state\.total: expected a finite number"),
        ({"fbs": {"tolerance": INF}},  # would stop after one sweep
         r"fbs\.tolerance: expected a finite number"),
        ({"parameters": {"k1": {"times": [0.0, NAN], "values": [1.0, 1.0]}}},
         r"parameters\.k1\.times: expected a finite number"),
        ({"parameters": {"k1": {"times": [-INF, 0.0], "values": [1.0, 1.0]}}},
         r"parameters\.k1\.times: expected a finite number"),
        ({"initial_state": {"values": [str(10 ** 400), "0", "0", "0"]}},
         r"initial_state\.values\[0\]: number out of float range"),
        ({"initial_state": {"values": ["1" * 5000, "0", "0", "0"]}},  # past int()'s digit limit
         r"initial_state\.values\[0\]: too many digits$"),
        ({"initial_state": {"values": [str(10 ** 308)] * 2 + ["0", "0"]}},  # the sum overflows
         r"initial_state\.values: initial fractions must sum to 1, got inf"),
        ({"parameters": {"k1": {"times": 0.0, "values": [1.0]}}},
         r"parameters\.k1\.times: expected a list"),
        ({"parameters": {"k1": {"times": [0.0, 1.0], "values": 1.0}}},
         r"parameters\.k1\.values: expected a list"),
        ({"parameters": {"k1": {"times": [], "values": []}}},
         r"parameters\.k1\.times: needs at least 1 item\(s\), got 0$"),
        ({"parameters": {"k1": {"times": [0.0, 1.0], "values": [1.0]}}},
         r"parameters\.k1: time table needs equally many times and values"),
        ({"parameters": {"k1": {"times": [1.0, 0.0], "values": [1.0, 1.0]}}},
         r"parameters\.k1: time table times must be strictly increasing"),
        ({"sweep": {"parameter": 3, "values": [1.0]}}, r"sweep\.parameter: expected a string"),
        ({"grid": {"t0": 0.0, "tf": "5", "n_steps": 100}}, r"grid\.tf: expected a number"),
        ({"cost": {"a1": 1.0, "b": 10 ** 400}}, r"cost\.b: number out of float range$"),
        ({"cost": {"a1": 10 ** 400, "b": [100.0]}}, r"cost\.a1: number out of float range$"),
        ({"cost": {"a1": 1.0, "b": [NAN]}}, r"cost\.b\[0\]: expected a finite number, got nan$"),
    ])
    def test_non_finite_numbers_rejected(self, edit, error):
        # ... and other malformed values, each named by its JSON path
        doc = flagship_doc()
        for key, value in edit.items():
            doc[key] = value
        with pytest.raises(ValidationError, match=rf"^\$\.{error}"):
            load_scenario(json.dumps(doc))

    @pytest.mark.parametrize("n", [2.5, True, "3"])
    def test_non_integer_max_iterations_rejected(self, n):
        doc = flagship_doc()
        doc["fbs"] = {"max_iterations": n}
        with pytest.raises(ValidationError,
                           match=rf"^\$\.fbs\.max_iterations: expected an integer, got {n!r}$"):
            load_scenario(json.dumps(doc))

    def test_integral_floats_load_as_integers(self):
        # draft-7 "integer" admits 100.0; the Python classes still take only integers
        doc = flagship_doc()
        doc["grid"]["n_steps"] = 100.0
        doc["fbs"] = {"max_iterations": 500.0}
        cfg = load_scenario(json.dumps(doc))
        assert type(cfg.grid.n_steps) is int and cfg.grid.n_steps == 100
        assert type(cfg.fbs.max_iterations) is int and cfg.fbs.max_iterations == 500
        with pytest.raises(ValidationError, match=r"^n_steps must be an integer, got 100\.0$"):
            TimeGrid(0.0, 5.0, 100.0)
        with pytest.raises(ValidationError, match=r"^max_iterations must be an integer, got 500\.0$"):
            FbsSettings(max_iterations=500.0)

    def test_integer_beyond_float_range_rejected(self):
        doc = flagship_doc()
        doc["initial_state"] = {"mode": "counts", "values": [1.0, 2.0, 3.0, "HUGE"]}
        text = json.dumps(doc).replace('"HUGE"', "1" + "0" * 400)
        with pytest.raises(ValidationError, match=r"^\$\.initial_state\.values\[3\]: number out"):
            load_scenario(text)

    def test_fraction_mode_needs_population(self):
        doc = flagship_doc()
        doc["model"] = "reinfection"
        doc["parameters"] = {"Lambda": 143.0, "beta": 13.0, "c": 1.0, "mu": 0.0143,
                             "sigma": 1.0, "k1": 0.5, "r2": 2.0, "d1": 0.0, "rho": 0.4}
        with pytest.raises(ValidationError, match="population|total|'N'"):
            load_scenario(json.dumps(doc))


class TestRoundTrip:
    def test_serialize_load_equivalence(self, tmp_path):
        for name, cfg in builtin_scenarios().items():
            path = tmp_path / f"{name}.json"
            save_scenario(cfg, path)
            again = load_scenario_file(path)
            assert again.name == cfg.name
            assert again.model == cfg.model
            assert again.params == cfg.params
            assert again.initial_values == cfg.initial_values
            assert again.grid == cfg.grid
            assert again.weights == cfg.weights
            assert again.fbs == cfg.fbs
            assert again.sweep == cfg.sweep

    def test_dict_shape(self):
        doc = scenario_to_dict(get_scenario("fig1"))
        assert doc["schema"] == SCHEMA_ID
        assert doc["model"] == "seirs"

    def test_scalar_sweep_saved_as_mappings(self):
        doc = flagship_doc()
        doc["sweep"] = {"parameter": "k1", "values": [0.25, 1.0]}
        cfg = load_scenario(doc)
        saved = scenario_to_dict(cfg)
        assert saved["sweep"] == {"values": [{"k1": 0.25}, {"k1": 1.0}]}
        again = load_scenario(saved)
        assert again.sweep == cfg.sweep
        assert sweep_points(again) == sweep_points(cfg)


def schema_keywords(node):
    """Every (keyword, value) pair of a schema node and of the subschemas below it."""
    for key, value in node.items():
        yield key, value
        subs = value.values() if key == "properties" else value if key == "oneOf" else \
            [value] if key in ("items", "additionalProperties", "if", "then") else ()
        for sub in subs:
            if isinstance(sub, dict):
                yield from schema_keywords(sub)


# the draft-7 keywords scenario._conform interprets, and those that only annotate
CONFORM_KEYWORDS = {"type", "const", "enum", "pattern", "properties", "additionalProperties",
                    "required", "minProperties", "items", "minItems", "maxItems", "minimum",
                    "maximum", "exclusiveMinimum", "oneOf", "if", "then"}
ANNOTATIONS = {"$schema", "$id", "title", "default"}


class TestPackagedSchema:
    """The loader reads the structure rules from the packaged schema and nowhere else."""

    def test_interpreter_handles_every_keyword(self):
        # a keyword added to the schema must not be silently ignored by the loader
        pairs = list(schema_keywords(SCHEMA))
        assert {k for k, _ in pairs} <= CONFORM_KEYWORDS | ANNOTATIONS
        assert {v for k, v in pairs if k == "type"} <= scenario._KINDS.keys()
        assert all("type" in branch for k, v in pairs if k == "oneOf" for branch in v)
        source = inspect.getsource(scenario)
        assert [k for k in CONFORM_KEYWORDS if f'"{k}"' not in source] == []

    def test_models_are_the_catalog(self):
        assert SCHEMA["properties"]["model"]["enum"] == [m.value for m in ModelId]
        assert SCHEMA["properties"]["schema"]["const"] == SCHEMA_ID


class TestPublishedSchema:
    """The packaged schema accepts every bundled scenario, as shipped and as saved."""

    @pytest.fixture(scope="class")
    def validator(self):
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.Draft7Validator.check_schema(SCHEMA)
        return jsonschema.Draft7Validator(SCHEMA)

    @pytest.mark.parametrize("name", builtin_scenario_names())
    def test_bundled_and_saved_documents_validate(self, validator, name, tmp_path):
        bundled = resources.files("tbctrl.scenarios").joinpath(f"{name}.json").read_text("utf-8")
        validator.validate(json.loads(bundled))
        save_scenario(builtin_scenarios()[name], tmp_path / "saved.json")
        validator.validate(json.loads((tmp_path / "saved.json").read_text()))

    def test_saved_scalar_sweep_validates(self, validator):
        doc = flagship_doc()
        doc["sweep"] = {"parameter": "k1", "values": [0.25, 1.0]}
        validator.validate(doc)
        validator.validate(scenario_to_dict(load_scenario(doc)))

    @pytest.mark.parametrize("edit, error", [
        ({"name": {"a": 1}}, r"^\$\.name: expected a string"),
        ({"sweep": {"values": [{}]}}, r"^\$\.sweep\.values\[0\]: needs at least 1 key\(s\), got 0$"),
        ({"sweep": {"parameter": None, "values": [{"k1": 0.5}, {"k1": 1.0}]}},
         r"^\$\.sweep\.parameter: expected a string, got NoneType$"),
        ({"cost": {"a1": "x", "b": [100.0]}}, r"^\$\.cost\.a1: expected a number, got 'x'$"),
        # documents from before the weights alone stated the objective
        ({"cost": {"kind": "C2", "a1": 1.0, "b": [100.0]}},
         r"^\$\.cost: unknown key\(s\) \['kind'\]"),
        ({"cost": {"b": [100.0]}}, r"^\$\.cost: missing required key 'a1'"),
        ({"sweep": {"parameter": "k1", "values": [0.5, {"c": 1.0}]}},
         r"^\$\.sweep\.values\[1\]: expected a number, got dict$"),
        ({"sweep": {"values": [{"c": 1.0}, 0.5]}}, r"^\$\.sweep\.values\[1\]: expected an object, got 0\.5$"),
        ({"sweep": {"parameter": "k1", "values": [0.5], "x": 1}},
         r"^\$\.sweep: expected an object with keys \['parameter', 'values'\] or an object with keys "
         r"\['values'\], got dict$"),
        ({"cost": {"a1": 1.0, "b": "x"}}, r"^\$\.cost\.b: expected a number or a list, got 'x'$"),
        # strings are "n" or "n/m", and only in fraction mode
        ({"initial_state": {"values": ["0.5", "0.25", "1/4", "0"]}},
         r"^\$\.initial_state\.values\[0\]: '0\.5' does not match '.+'$"),
        ({"initial_state": {"mode": "counts", "values": ["7000", 1, 1, 1]}},
         r"^\$\.initial_state\.values\[0\]: expected a number"),
        ({"initial_state": {"values": ["1/0", 1, 0, 0]}},
         r"^\$\.initial_state\.values\[0\]: '1/0' does not match '.+'$"),
        ({"fbs": None}, r"^\$\.fbs: expected an object, got NoneType$"),
        ({"grid": {"t0": 0.0, "tf": 5.0, "n_steps": MAX_STEPS + 1}},
         rf"^\$\.grid\.n_steps: must be <= {MAX_STEPS}, got {MAX_STEPS + 1}$"),
    ])
    def test_refused_by_both(self, validator, edit, error):
        doc = {**flagship_doc(), **edit}
        assert not validator.is_valid(doc)
        with pytest.raises(ValidationError, match=error):
            load_scenario(doc)

    def test_grid_bound_is_the_loaders(self, validator):
        grid = SCHEMA["properties"]["grid"]["properties"]
        assert grid["n_steps"]["maximum"] == MAX_STEPS

    def test_fraction_strings_read_by_both(self, validator):
        doc = flagship_doc()
        doc["initial_state"]["values"] = [" 3 / 8 ", "1/4", "3/8", "0"]
        assert validator.is_valid(doc)
        assert load_scenario(doc).initial_values == (0.375, 0.25, 0.375, 0.0)

    def test_schema_rejects_unknown_key(self, validator):
        doc = flagship_doc()
        doc["extra"] = 1
        assert not validator.is_valid(doc)

    @pytest.mark.parametrize("key", ["relaxation", "initial_control"])
    def test_removed_fbs_keys_refused_by_both(self, validator, key):
        doc = flagship_doc()
        doc["fbs"] = {key: 0.5}
        assert not validator.is_valid(doc)
        with pytest.raises(ValidationError, match=rf"^\$\.fbs: unknown key\(s\) \['{key}'\]"):
            load_scenario(doc)


def edit_bases():
    """Every bundled document as a mapping, the flagship in counts mode with a total, and a
    korea document with a time table, a total, bounds and every cost weight: the documents that
    edits start from."""
    docs = {name: json.loads(resources.files("tbctrl.scenarios").joinpath(f"{name}.json")
                             .read_text("utf-8")) for name in builtin_scenario_names()}
    counts = copy.deepcopy(docs["seirs-fig1"])
    counts["initial_state"] = {"mode": "counts", "values": [7000.0, 2000.0, 600.0, 400.0],
                               "total": 10000.0}
    korea = {**flagship_doc(), "model": "korea",
             "parameters": {"b": 0.02, "mu": 0.0143, "beta": 13.0, "alpha": 0.4,
                            "k": {"times": [0.0, 10.0], "values": [0.05, 0.2]}, "s": 0.3,
                            "r": 2.0},
             "initial_state": {"mode": "fractions", "values": [0.6, 0.2, 0.05, 0.15],
                               "total": 10000.0},
             "cost": {"a1": 1.0, "a2": 1.0, "a_isolated": 0.0, "b": [50.0, 50.0, 50.0],
                      "bounds": [0.0, 0.9]},
             "fbs": {"tolerance": 1e-4, "max_iterations": 500}}
    return {**docs, "counts": counts, "korea": korea}


def node_paths(node, path=()):
    """The path of every object, list and value below a document's root."""
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for k, v in items:
        yield (*path, k)
        yield from node_paths(v, (*path, k))


def schema_nodes(path, node=SCHEMA):
    """The subschemas, oneOf branches and then-clauses included, that apply at path."""
    nodes = [node, *node.get("oneOf", ()), *([node["then"]] if "then" in node else ())]
    if not path:
        return nodes
    subs = [n.get("items") if isinstance(path[0], int) else
            n.get("properties", {}).get(path[0], n.get("additionalProperties")) for n in nodes]
    return [m for sub in subs if isinstance(sub, dict) for m in schema_nodes(path[1:], sub)]


def added_keys(doc, path):
    """The keys an "add" edit gives the object at path: 'extra', and every key the schema's
    properties name there that the object lacks."""
    node = reduce(operator.getitem, path, doc)
    named = {k for n in schema_nodes(path) for k in n.get("properties", {})}
    return ("extra", *sorted(named - node.keys()))


def edited(doc, path, op, value, key="extra"):
    """A copy of doc with the node at path dropped, replaced by value, or, for an object or a
    list, given value as one more entry (an object's under key)."""
    doc = copy.deepcopy(doc)
    node = reduce(operator.getitem, path, doc)
    if op == "add" and isinstance(node, dict):
        node[key] = copy.deepcopy(value)
    elif op == "add":
        node.append(copy.deepcopy(value))
    elif op == "drop":
        del reduce(operator.getitem, path[:-1], doc)[path[-1]]
    else:
        reduce(operator.getitem, path[:-1], doc)[path[-1]] = copy.deepcopy(value)
    return doc


def edits(node, path):
    """The edits ``edited`` can make to node at path; the root only takes additions."""
    ops = ("drop", "replace", "add") if isinstance(node, (dict, list)) else ("drop", "replace")
    return ops if path else ("add",)


# values of other types, non-finite values and huge values, as JSON text can spell them
ODD_VALUES = (None, True, "", "x", "1/0", [], {}, NAN, INF, -INF, -1, 0, 0.5, 2 ** 63, 10 ** 400,
              1e308, [1.0, "x"], {"x": 1.0})
VALUES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
                   st.lists(st.floats(), max_size=3),
                   st.dictionaries(st.text(max_size=3), st.floats(), max_size=2))


@st.composite
def edited_documents(draw):
    """A document after up to two random edits, and the path of one of its nodes or its root."""
    doc = draw(st.sampled_from(list(edit_bases().values())))
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from([(), *node_paths(doc)]))
        node = reduce(operator.getitem, path, doc)
        op = draw(st.sampled_from(edits(node, path)))
        key = draw(st.sampled_from(added_keys(doc, path))) if isinstance(node, dict) else None
        doc = edited(doc, path, op, draw(VALUES), key)
    return doc, draw(st.sampled_from([(), *node_paths(doc)]))


# Why the loader may refuse a document that the schema accepts: what a schema cannot state.
SEMANTIC_REASONS = re.compile("|".join((
    r"expected a finite number, got",                     # NaN and infinities
    r"number out of float range",                         # integers and fractions past 1.8e308
    r"too many digits",                                   # a fraction past int()'s digit limit
    r"initial fractions must sum to 1",
    r"(fractions|counts) must be nonnegative",
    r"\.values: \S+ has \d+ compartments",                 # model-dependent lengths
    r"^\$\.cost: \S+ has \d+ control\(s\), so needs",
    r"^\$\.cost: \S+ has no isolated compartment",
    r"^\$\.parameters: (missing parameter|parameter '[^']+' (must be|may not be)|"
    r"parameters must satisfy)",                          # parameter domains, time dependence
    r"time table needs equally many times and values",
    r"time table times must be strictly increasing",      # order of time-table entries
    r"control bounds must satisfy upper > lower",         # order of the bounds
    r"^\$\.grid: horizon must be positive",
    r"needs a 'total' population or an N parameter",      # the reference population
    r"^sweep point '",                                    # sweep targets
    r"^\$\.sweep\.values\[\d+\]: (label|point) '.*' repeats an earlier point's",  # sweep labels
)))


class TestLoaderAgreesWithSchema:
    """A differential test of the loader against the packaged schema on edited documents: the
    loader raises nothing but ValidationError, loads no document that the schema refuses, and
    refuses a document that the schema accepts only for one of the SEMANTIC_REASONS."""

    @pytest.fixture(scope="class")
    def validator(self):
        jsonschema = pytest.importorskip("jsonschema")
        return jsonschema.Draft7Validator(SCHEMA)

    @staticmethod
    def check_edits(validator, doc, path, values):
        """Every edit of the node at path: dropped, and replaced or extended by each value,
        an object's extension under each of its added_keys."""
        node = reduce(operator.getitem, path, doc)
        for op in edits(node, path):
            keys = added_keys(doc, path) if op == "add" and isinstance(node, dict) else (None,)
            for key, v in itertools.product(keys, (None,) if op == "drop" else values):
                new = edited(doc, path, op, v, key)
                try:
                    load_scenario(new)  # any exception but ValidationError fails the test
                except ValidationError as exc:
                    assert not validator.is_valid(new) or SEMANTIC_REASONS.search(str(exc)), \
                        f"refused a schema-valid document after {op} {key} {v!r} at {path}: {exc}"
                    continue
                assert validator.is_valid(new), f"loaded after {op} {key} {v!r} at {path}"

    @pytest.mark.parametrize("name", list(edit_bases()))
    def test_every_single_edit(self, validator, name):
        doc = edit_bases()[name]
        load_scenario(doc)
        validator.validate(doc)
        for path in [(), *node_paths(doc)]:
            self.check_edits(validator, doc, path, ODD_VALUES)

    @settings(max_examples=100, deadline=None)
    @given(case=edited_documents(), value=VALUES)
    def test_edits_after_random_edits(self, validator, case, value):
        self.check_edits(validator, *case, (*ODD_VALUES, value))


class TestFindScenario:
    def test_env_dir_resolution(self, tmp_path, monkeypatch):
        cfg = get_scenario("fig1")
        save_scenario(cfg, tmp_path / "mine.json")
        monkeypatch.setenv("TBCTRL_SCENARIO_DIR", str(tmp_path))
        got = find_scenario("mine")
        assert got.name == cfg.name

    def test_missing_reference_raises_file_not_found(self, monkeypatch):
        monkeypatch.delenv("TBCTRL_SCENARIO_DIR", raising=False)
        with pytest.raises(FileNotFoundError):
            find_scenario("does-not-exist")
