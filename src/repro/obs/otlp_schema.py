"""A checked-in schema for the OTLP-style JSON export, plus its validator.

Third-party schema validators are a dependency this repo does not take,
so :func:`validate` — the package's one schema validator — implements the
small JSON-Schema subset the checked-in documents need.  Every schema
exists once, as a JSON file under ``src/repro/schemas/`` shipped as
package data; :func:`load_schema` reads it, and :data:`OTLP_SCHEMA` is
``repro.obs.otlp.schema.json``.

``python -m repro otlp-validate <doc.json> [--schema <file>]`` runs the
validation from the command line and exits non-zero on a violation.
"""

from __future__ import annotations

import argparse
import functools
import importlib.resources
import json
import re
from typing import Any, Dict, List

from repro.cliargs import parse_args
from repro.errors import ReproError


def load_schema(name: str) -> Dict[str, Any]:
    """One checked-in schema, read from the package's ``schemas/`` data."""
    resource = importlib.resources.files("repro") / "schemas" / name
    return json.loads(resource.read_text(encoding="utf-8"))


#: ``$ref`` targets, read once per process (never handed to callers).
_referenced_schema = functools.lru_cache(maxsize=None)(load_schema)


#: The OTLP-style export document produced by :func:`repro.obs.exporters.to_otlp`.
OTLP_SCHEMA: Dict[str, Any] = load_schema("repro.obs.otlp.schema.json")

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: (isinstance(v, (int, float))
                         and not isinstance(v, bool)),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def validate(document: Any, schema: Dict[str, Any],
             path: str = "$") -> List[str]:
    """Violations of ``schema`` in ``document`` (empty list = valid).

    Supports ``type``, ``required``, ``properties``,
    ``additionalProperties`` (a subschema for every key outside
    ``properties``), ``items``, ``minItems``, ``enum``, ``minimum``,
    ``maximum``, ``pattern``, and ``$ref`` naming another packaged
    schema file (siblings ignored, as in draft-07).  Unknown document
    keys are allowed otherwise (OTLP is forward-extensible); unknown
    schema keywords are ignored.
    """
    if "$ref" in schema:
        return validate(document, _referenced_schema(schema["$ref"]), path)
    errors: List[str] = []
    expected = schema.get("type")
    if expected is not None:
        check = _TYPE_CHECKS.get(expected)
        if check is None:
            raise ReproError(f"unsupported schema type {expected!r}")
        if not check(document):
            errors.append(f"{path}: expected {expected}, "
                          f"got {type(document).__name__}")
            return errors  # structural mismatch; nothing deeper to check
    if "enum" in schema and document not in schema["enum"]:
        errors.append(f"{path}: {document!r} not in {schema['enum']!r}")
    number = _TYPE_CHECKS["number"](document)
    if number and document < schema.get("minimum", document):
        errors.append(f"{path}: {document} < minimum {schema['minimum']}")
    if number and document > schema.get("maximum", document):
        errors.append(f"{path}: {document} > maximum {schema['maximum']}")
    if "pattern" in schema and isinstance(document, str) \
            and not re.search(schema["pattern"], document):
        errors.append(f"{path}: {document!r} does not match "
                      f"{schema['pattern']!r}")
    if isinstance(document, dict):
        for key in schema.get("required", ()):
            if key not in document:
                errors.append(f"{path}: missing required key {key!r}")
        properties = schema.get("properties", {})
        for key, subschema in properties.items():
            if key in document:
                errors.extend(validate(document[key], subschema,
                                       f"{path}.{key}"))
        if "additionalProperties" in schema:
            for key, value in document.items():
                if key not in properties:
                    errors.extend(validate(
                        value, schema["additionalProperties"],
                        f"{path}.{key}"))
    if isinstance(document, list):
        if len(document) < schema.get("minItems", 0):
            errors.append(f"{path}: {len(document)} item(s) < minItems "
                          f"{schema['minItems']}")
        for index, item in enumerate(document if "items" in schema else ()):
            errors.extend(validate(item, schema["items"],
                                   f"{path}[{index}]"))
    return errors


def validate_otlp(document: Any) -> List[str]:
    """Violations of the export schema in ``document`` (empty = valid)."""
    return validate(document, OTLP_SCHEMA)


def _read_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        raise ValueError(f"cannot read {path}: {error}") from error


def schema_main(argv: Any = None) -> int:
    """``repro otlp-validate <doc.json> [--schema <file>]``.

    Exit codes: 0 — valid; 1 — violations; 2 — bad argument or an
    unreadable document or schema.
    """
    parser = argparse.ArgumentParser(
        prog="repro otlp-validate",
        description="Validate a JSON document against a checked-in "
                    "schema (default: the OTLP-style export's).")
    parser.add_argument("path", help="document to validate")
    parser.add_argument("--schema", default=None,
                        help="validate against this schema file instead of "
                             "the packaged OTLP schema (e.g. "
                             "src/repro/schemas/"
                             "repro.bench.cluster.schema.json)")
    args = parse_args(parser, argv)
    if isinstance(args, int):
        return args
    try:
        document = _read_json(args.path)
        schema = (OTLP_SCHEMA if args.schema is None
                  else _read_json(args.schema))
    except ValueError as error:
        print(error)
        return 2
    errors = validate(document, schema)
    if errors:
        for error in errors:
            print(f"INVALID {error}")
        return 1
    print(f"OK {args.path} conforms to {schema.get('$id', 'schema')}")
    return 0
