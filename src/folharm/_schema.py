"""The part of JSON Schema draft 07 that ``config_schema.json`` uses.

Supported keywords: ``type`` (a name or a list of names), ``$ref``
(``#/definitions/<name>`` only; as in draft 07 its siblings are ignored),
``properties``, ``additionalProperties: false``, ``required``, ``items`` (one
schema), ``minItems``, ``maxItems``, ``minimum``, ``exclusiveMinimum`` (a
number), ``enum`` and ``const`` (of strings) and ``oneOf``.  ``$schema``,
``title``, ``description`` and ``definitions`` are annotations.  Any other
keyword, or another form of these, raises ``ValueError`` when the schema is
loaded, so an edit to the schema cannot go unchecked.

Validation stops at the first error.  Messages read as those of the
``jsonschema`` package.
"""

from __future__ import annotations

_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "null": type(None), "number": (int, float), "integer": int}
_ANNOTATIONS = ("$schema", "title", "description")
# keyword -> test of the values the validator supports for it
_VALID = {
    "type": lambda v: isinstance(v, (str, list)) and all(
        isinstance(n, str) and n in _TYPES for n in ([v] if isinstance(v, str) else v)),
    "additionalProperties": lambda v: v is False,
    "required": lambda v: isinstance(v, list) and all(isinstance(n, str) for n in v),
    "minItems": lambda v: _is_type(v, "integer") and v >= 0,
    "maxItems": lambda v: _is_type(v, "integer") and v >= 0,
    "minimum": lambda v: _is_type(v, "number"),
    "exclusiveMinimum": lambda v: _is_type(v, "number"),
    "enum": lambda v: isinstance(v, list) and all(isinstance(e, str) for e in v),
    "const": lambda v: isinstance(v, str),
}


def _is_type(value, name: str) -> bool:
    if isinstance(value, bool):  # an int subclass, but not a JSON number
        return name == "boolean"
    if name == "integer" and isinstance(value, float):
        return value.is_integer()  # draft 07: 8.0 is an integer
    return isinstance(value, _TYPES[name])


class Schema:
    """A checked schema document; ``first_error`` validates instances."""

    def __init__(self, doc: dict):
        self.doc = doc
        self._check(doc)

    def _resolve(self, ref: str) -> dict:
        prefix = "#/definitions/"
        name = ref[len(prefix):] if str(ref).startswith(prefix) else None
        if name not in self.doc.get("definitions", {}):
            raise ValueError(f"unsupported $ref {ref!r}")
        return self.doc["definitions"][name]

    def _check(self, schema) -> None:
        if not isinstance(schema, dict):
            raise ValueError(f"unsupported schema {schema!r}: not an object")
        for key, value in schema.items():
            subschemas = []
            if key in ("properties", "definitions") and isinstance(value, dict):
                subschemas = value.values()
            elif key == "items":
                subschemas = [value]
            elif key == "oneOf" and isinstance(value, list):
                subschemas = value
            elif key == "$ref":
                self._resolve(value)  # the definition is checked where it stands
            elif key not in _ANNOTATIONS and not (key in _VALID and _VALID[key](value)):
                raise ValueError(f"unsupported schema keyword {key}: {value!r}")
            for sub in subschemas:
                self._check(sub)

    def first_error(self, instance) -> tuple[tuple, str] | None:
        """``None`` if ``instance`` is valid, else the path to the first
        error (keys and indices) and its message."""
        error = self._first(instance, self.doc, ())
        return None if error is None else (error[0], error[2])

    def _first(self, x, schema: dict, path: tuple):
        # None, or (path, keyword, message) of the first error
        if "$ref" in schema:
            return self._first(x, self._resolve(schema["$ref"]), path)
        if "type" in schema:
            names = schema["type"]
            names = [names] if isinstance(names, str) else names
            if not any(_is_type(x, name) for name in names):
                return path, "type", f"{x!r} is not of type {', '.join(map(repr, names))}"
        if "enum" in schema and x not in schema["enum"]:
            return path, "enum", f"{x!r} is not one of {schema['enum']!r}"
        if "const" in schema and x != schema["const"]:
            return path, "const", f"{schema['const']!r} was expected"
        if _is_type(x, "number"):
            if x < schema.get("minimum", x):
                return path, "minimum", f"{x!r} is less than the minimum of {schema['minimum']!r}"
            if "exclusiveMinimum" in schema and x <= schema["exclusiveMinimum"]:
                return path, "exclusiveMinimum", (
                    f"{x!r} is less than or equal to the minimum of {schema['exclusiveMinimum']!r}")
        if isinstance(x, list):
            if len(x) < schema.get("minItems", 0):
                short = "should be non-empty" if schema["minItems"] == 1 else "is too short"
                return path, "minItems", f"{x!r} {short}"
            if len(x) > schema.get("maxItems", len(x)):
                return path, "maxItems", f"{x!r} is too long"
            for i, item in enumerate(x if "items" in schema else ()):
                if error := self._first(item, schema["items"], path + (i,)):
                    return error
        if isinstance(x, dict):
            properties = schema.get("properties", {})
            extras = sorted((k for k in x if k not in properties), key=str)
            if extras and "additionalProperties" in schema:
                listed = ", ".join(map(repr, extras))
                verb = "was" if len(extras) == 1 else "were"
                return path, "additionalProperties", (
                    f"Additional properties are not allowed ({listed} {verb} unexpected)")
            for name in schema.get("required", ()):
                if name not in x:
                    return path, "required", f"{name!r} is a required property"
            for name, sub in properties.items():
                if name in x and (error := self._first(x[name], sub, path + (name,))):
                    return error
        if "oneOf" in schema:
            return self._one_of(x, schema["oneOf"], path)
        return None

    def _one_of(self, x, branches: list, path: tuple):
        errors = [self._first(x, sub, path) for sub in branches]
        matched = errors.count(None)
        if matched == 1:
            return None
        if matched > 1:
            return path, "oneOf", f"{x!r} is valid under more than one of the given schemas"
        # A branch that fails on the type of x itself, or on a const, is meant
        # for another kind of value.  If one other branch failed deeper into x
        # than the rest, its error says what is wrong; otherwise the oneOf
        # error does.
        fits = [e for e in errors if e[1] != "const" and (e[1], e[0]) != ("type", path)]
        depths = [len(e[0]) for e in fits]
        if depths and depths.count(max(depths)) == 1:
            return fits[depths.index(max(depths))]
        return path, "oneOf", f"{x!r} is not valid under any of the given schemas"
