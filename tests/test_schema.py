"""The in-package config validator against jsonschema's Draft7Validator."""

import copy
import json
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folharm._schema import Schema

SCHEMA = json.loads(resources.files("folharm").joinpath("config_schema.json").read_text())
ORACLE = jsonschema.Draft7Validator(SCHEMA)
VALIDATOR = Schema(SCHEMA)
CONFIGS = [json.loads(path.read_text()) for path in
           sorted((Path(__file__).parents[1] / "scripts" / "configs").glob("*.json"))]


def _property_names(schema):
    if isinstance(schema, dict):
        yield from schema.get("properties", {})
        for value in schema.values():
            yield from _property_names(value)
    elif isinstance(schema, list):
        for value in schema:
            yield from _property_names(value)


# what a mutation may add or put in place of a value: every JSON type, bools,
# integral and fractional floats, the strings the enums and consts name, and
# a valid geometry of each kind; and the numbers on both sides of each bound
_KEYS = sorted(set(_property_names(SCHEMA))) + ["mystery"]
_VALUES = [None, True, False, 8.0, 8.5, -0.5, 1e-300, 2.5,
           "", "x", "flat_torus", "round_sphere", "hyperbolic_patch", "identity",
           "constant", "harmonic", "lemma_volume",
           [], [8], [8.0, 8], [True], [1.0, 2.0, 3.0], ["divergence"],
           {}, {"family": "linear"}, {"csv": "map.csv"},
           {"kind": "flat_torus", "periods": [1.0]},
           {"kind": "round_sphere"},
           {"kind": "hyperbolic_patch", "x_bounds": [-1.0, 1.0], "y_bounds": [1, 2]}]
_BOUNDS = [0, 0.0, -0.0, -1, 1, 2, 7, 8]


def _slots(container):
    """(container, key) of every value inside ``container``."""
    items = (container.items() if isinstance(container, dict)
             else enumerate(container) if isinstance(container, list) else ())
    for key, value in list(items):
        yield container, key
        yield from _slots(value)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_validator_accepts_and_rejects_what_draft7_does(data):
    """Mutations of the shipped configs drop keys, add known and unknown keys,
    swap in values of every type and cross the bounds."""
    box = [copy.deepcopy(data.draw(st.sampled_from(CONFIGS)))]
    for _ in range(data.draw(st.integers(1, 3))):
        container, key = data.draw(st.sampled_from(list(_slots(box))))
        value = container[key]
        op = data.draw(st.sampled_from(["drop", "add", "bound", "replace"]))
        if op == "drop" and container is not box:
            del container[key]
        elif op == "add" and isinstance(value, dict):
            value[data.draw(st.sampled_from(_KEYS))] = copy.deepcopy(
                data.draw(st.sampled_from(_VALUES + _BOUNDS)))
        elif op == "bound" and isinstance(value, list) and value:
            value.append(value[-1]) if data.draw(st.booleans()) else value.pop()
        elif op == "bound" and isinstance(value, (int, float)):
            container[key] = data.draw(st.sampled_from(_BOUNDS))
        else:
            container[key] = copy.deepcopy(data.draw(st.sampled_from(_VALUES + _BOUNDS)))
    assert (VALIDATOR.first_error(box[0]) is None) == ORACLE.is_valid(box[0])


@pytest.mark.parametrize("schema, instance", [
    ({"type": "integer"}, 8.0),
    ({"type": "integer"}, 8.5),
    ({"type": "integer"}, True),
    ({"type": "number"}, False),
    ({"type": ["number", "null"]}, None),
    ({"type": "boolean"}, 0),
    ({"enum": ["a"]}, ["a"]),
    ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 8),
    ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 8.5),
    ({"oneOf": [{"type": "string"}, {"type": "integer"}]}, 8.5),
    ({"minimum": 8, "exclusiveMinimum": 0, "items": {"type": "string"}}, [1]),
    ({"minimum": 8}, 7.5),
    ({"minimum": 8}, 8),
    ({"exclusiveMinimum": 0}, 0),
    ({"exclusiveMinimum": 0}, 1e-300),
    ({"minItems": 2, "maxItems": 2}, [1]),
    ({"minItems": 2, "maxItems": 2}, [1, 2]),
    ({"minItems": 2, "maxItems": 2}, [1, 2, 3]),
    ({"definitions": {"n": {"type": "number"}}, "items": {"$ref": "#/definitions/n"}}, [1, "1"]),
    ({"definitions": {"n": {"type": "number"}}, "$ref": "#/definitions/n", "type": "string"}, 1),
])
def test_draft7_semantics(schema, instance):
    """8.0 is an integer, a bool is no number, oneOf needs exactly one branch,
    keywords apply only to their own types, bounds are inclusive or exclusive
    as named, and $ref siblings are ignored."""
    assert (Schema(schema).first_error(instance) is None) == \
        jsonschema.Draft7Validator(schema).is_valid(instance)


def test_first_error_stops_at_its_path():
    assert VALIDATOR.first_error({"source": {"kind": "flat_torus", "periods": [1.0, 0]},
                                  "resolution": 8, "seed": -1}) == \
        (("source", "periods", 1), "0 is less than or equal to the minimum of 0")


def _with(path, key, value):
    schema = copy.deepcopy(SCHEMA)
    node = schema
    for step in path:
        node = node[step]
    node[key] = value
    return schema


@pytest.mark.parametrize("schema", [
    _with((), "maxProperties", 20),
    _with(("properties", "out"), "format", "uri"),
    _with(("definitions", "geometry"), "anyOf", [{}]),
    _with(("properties", "flow"), "additionalProperties", True),
    _with(("properties", "flow"), "additionalProperties", {"type": "number"}),
    _with(("properties", "flow", "properties", "dt"), "exclusiveMinimum", True),
    _with(("properties",), "source", {"$ref": "#/properties/target"}),
    _with(("properties",), "source", {"$ref": "#/definitions/missing"}),
    _with(("properties", "resolutions"), "items", [{"type": "integer"}]),
    _with(("properties", "seed"), "type", "float"),
    _with(("properties", "seed"), "enum", [0, 1]),
    _with(("properties", "verify"), "required", "checks"),
], ids=["maxProperties", "format", "anyOf", "additionalProperties true",
        "additionalProperties schema", "draft-04 exclusiveMinimum", "$ref outside definitions",
        "$ref to nothing", "items list", "type name", "enum of numbers", "required string"])
def test_unsupported_schema_keyword_raises_at_load(schema):
    with pytest.raises(ValueError, match="unsupported"):
        Schema(schema)
