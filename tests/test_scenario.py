import copy
import json
import math
import operator
from functools import reduce
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tbctrl import (CostWeights, ModelId, builtin_scenarios, get_scenario, load_scenario,
                    load_scenario_file, save_scenario, scenario_to_dict,
                    validate_params)
from tbctrl.core import TimeGrid, TimeTable, ValidationError
from tbctrl.scenario import SCHEMA_ID, builtin_scenario_names, find_scenario, sweep_points

MAX_STEPS = TimeGrid.MAX_STEPS
SCHEMA_PATH = Path(__file__).resolve().parents[1] / "docs" / "scenario-schema.json"

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

    @pytest.mark.parametrize("n_steps", [MAX_STEPS + 1, 10**30])
    def test_oversized_grid_refused_before_allocation(self, n_steps):
        doc = flagship_doc()
        doc["grid"]["n_steps"] = n_steps
        with pytest.raises(ValidationError,
                           match=rf"^\$\.grid: n_steps must be <= {MAX_STEPS}, got {n_steps}$"):
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
        with pytest.raises(ValidationError, match="empty"):
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
        ({"values": [{"k1": 0.5}, {}]}, r"\$\.sweep\.values\[1\]: a sweep point must override"),
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
         r"\$\.sweep: a sweep with a 'parameter' takes only numbers, but values\[1\] is an object"),
        ({"parameter": "k1", "values": [{"c": 1.0}]},
         r"\$\.sweep: a sweep with a 'parameter' takes only numbers, but values\[0\] is an object"),
        ({"values": [{"c": 1.0}, 0.5]}, r"\$\.sweep: scalar sweep values need a 'parameter' name"),
    ])
    def test_sweep_point_refusals_are_located(self, sweep, error):
        doc = flagship_doc()
        doc["sweep"] = sweep
        with pytest.raises(ValidationError, match=rf"^{error}"):
            load_scenario(doc)

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
        with pytest.raises(ValidationError, match=r"^\$\.cost: control bounds must be finite"):
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
        ({"initial_state": {"values": [str(10 ** 308)] * 2 + ["0", "0"]}},  # the sum overflows
         r"initial_state\.values: initial fractions must sum to 1, got inf"),
        ({"parameters": {"k1": {"times": 0.0, "values": [1.0]}}},
         r"parameters\.k1\.times: expected a list"),
        ({"parameters": {"k1": {"times": [0.0, 1.0], "values": 1.0}}},
         r"parameters\.k1\.values: expected a list"),
        ({"parameters": {"k1": {"times": [], "values": []}}},
         r"parameters\.k1: time table needs equally many times and values"),
        ({"parameters": {"k1": {"times": [0.0, 1.0], "values": [1.0]}}},
         r"parameters\.k1: time table needs equally many times and values"),
        ({"parameters": {"k1": {"times": [1.0, 0.0], "values": [1.0, 1.0]}}},
         r"parameters\.k1: time table times must be strictly increasing"),
        ({"sweep": {"parameter": 3, "values": [1.0]}}, r"sweep\.parameter: expected a string"),
        ({"grid": {"t0": 0.0, "tf": "5", "n_steps": 100}}, r"grid\.tf: expected a number"),
        ({"cost": {"a1": 1.0, "b": 10 ** 400}}, r"cost\.b: number out of float range"),
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
        with pytest.raises(ValidationError, match=r"^\$\.fbs: max_iterations must be an integer"):
            load_scenario(json.dumps(doc))

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


class TestPublishedSchema:
    """docs/scenario-schema.json accepts every bundled scenario, as shipped and as saved."""

    @pytest.fixture(scope="class")
    def validator(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(SCHEMA_PATH.read_text())
        jsonschema.Draft7Validator.check_schema(schema)
        return jsonschema.Draft7Validator(schema)

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
        ({"sweep": {"values": [{}]}}, r"^\$\.sweep\.values\[0\]: a sweep point must override"),
        # documents from before the weights alone stated the objective
        ({"cost": {"kind": "C2", "a1": 1.0, "b": [100.0]}},
         r"^\$\.cost: unknown key\(s\) \['kind'\]"),
        ({"cost": {"b": [100.0]}}, r"^\$\.cost: missing required key 'a1'"),
        ({"sweep": {"parameter": "k1", "values": [0.5, {"c": 1.0}]}},
         r"^\$\.sweep: a sweep with a 'parameter' takes only numbers"),
        ({"sweep": {"values": [{"c": 1.0}, 0.5]}}, r"^\$\.sweep: scalar sweep values need a 'parameter'"),
        # strings are "n" or "n/m", and only in fraction mode
        ({"initial_state": {"values": ["0.5", "0.25", "1/4", "0"]}},
         r"^\$\.initial_state\.values\[0\]: expected a number or an 'n' or 'n/m' string, "
         r"got '0\.5'$"),
        ({"initial_state": {"mode": "counts", "values": ["7000", 1, 1, 1]}},
         r"^\$\.initial_state\.values\[0\]: expected a number"),
        ({"initial_state": {"values": ["1/0", 1, 0, 0]}},
         r"^\$\.initial_state\.values\[0\]: cannot parse fraction '1/0'$"),
        ({"fbs": None}, r"^\$\.fbs: expected an object, got NoneType$"),
        ({"grid": {"t0": 0.0, "tf": 5.0, "n_steps": MAX_STEPS + 1}},
         rf"^\$\.grid: n_steps must be <= {MAX_STEPS}, got {MAX_STEPS + 1}$"),
    ])
    def test_refused_by_both(self, validator, edit, error):
        doc = {**flagship_doc(), **edit}
        assert not validator.is_valid(doc)
        with pytest.raises(ValidationError, match=error):
            load_scenario(doc)

    def test_grid_bound_is_the_loaders(self, validator):
        grid = json.loads(SCHEMA_PATH.read_text())["properties"]["grid"]["properties"]
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


def edited(doc, path, op, value):
    """A copy of doc with the node at path dropped, replaced by value, or, for an object or a
    list, given value as one more entry (an object's under the key 'extra')."""
    doc = copy.deepcopy(doc)
    parent = reduce(operator.getitem, path[:-1], doc)
    if op == "drop":
        del parent[path[-1]]
    elif op == "replace":
        parent[path[-1]] = copy.deepcopy(value)
    elif isinstance(node := parent[path[-1]], dict):
        node["extra"] = copy.deepcopy(value)
    else:
        node.append(copy.deepcopy(value))
    return doc


def edits(node):
    """The edits ``edited`` can make to node."""
    return ("drop", "replace", "add") if isinstance(node, (dict, list)) else ("drop", "replace")


# values of other types, non-finite values and huge values, as JSON text can spell them
ODD_VALUES = (None, True, "", "x", "1/0", [], {}, NAN, INF, -INF, -1, 0, 0.5, 2 ** 63, 10 ** 400,
              1e308, [1.0, "x"], {"x": 1.0})
VALUES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
                   st.lists(st.floats(), max_size=3),
                   st.dictionaries(st.text(max_size=3), st.floats(), max_size=2))


@st.composite
def edited_documents(draw):
    """A document after up to two random edits, and the path of one of its nodes."""
    doc = draw(st.sampled_from(list(edit_bases().values())))
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(node_paths(doc))))
        node = reduce(operator.getitem, path, doc)
        doc = edited(doc, path, draw(st.sampled_from(edits(node))), draw(VALUES))
    return doc, draw(st.sampled_from(list(node_paths(doc))))


class TestLoaderAgreesWithSchema:
    """A differential test of the loader against docs/scenario-schema.json on edited documents:
    the loader raises nothing but ValidationError, and loads no document that the schema refuses.
    It may refuse more than the schema does, for semantic reasons (fraction sums,
    model-dependent lengths, parameter domains, weight counts)."""

    @pytest.fixture(scope="class")
    def validator(self):
        jsonschema = pytest.importorskip("jsonschema")
        return jsonschema.Draft7Validator(json.loads(SCHEMA_PATH.read_text()))

    @staticmethod
    def check_edits(validator, doc, path, values):
        """Every edit of the node at path: dropped, and replaced or extended by each value."""
        node = reduce(operator.getitem, path, doc)
        for op in edits(node):
            for v in (None,) if op == "drop" else values:
                new = edited(doc, path, op, v)
                try:
                    load_scenario(new)  # any exception but ValidationError fails the test
                except ValidationError:
                    continue
                assert validator.is_valid(new), f"loaded after {op} {v!r} at {path}"

    @pytest.mark.parametrize("name", list(edit_bases()))
    def test_every_single_edit(self, validator, name):
        doc = edit_bases()[name]
        load_scenario(doc)
        validator.validate(doc)
        for path in node_paths(doc):
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
