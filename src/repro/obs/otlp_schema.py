"""A checked-in schema for the OTLP-style JSON export, plus its validator.

Third-party schema validators are a dependency this repo does not take,
so :func:`validate` implements the small JSON-Schema subset the document
needs — ``type``, ``required``, ``properties``, ``items``, ``enum``,
``minimum``, ``pattern``.  Every schema exists once, as a JSON file under
``src/repro/schemas/`` shipped as package data; :func:`load_schema`
reads it, and :data:`OTLP_SCHEMA` is ``repro.obs.otlp.schema.json``.

``python -m repro otlp-validate <export.json>`` runs the validation from
the command line and exits non-zero on the first violation.
"""

from __future__ import annotations

import importlib.resources
import json
import re
from typing import Any, Dict, List

from repro.errors import ReproError


def load_schema(name: str) -> Dict[str, Any]:
    """One checked-in schema, read from the package's ``schemas/`` data."""
    resource = importlib.resources.files("repro") / "schemas" / name
    return json.loads(resource.read_text(encoding="utf-8"))


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

    Supports the JSON-Schema subset the OTLP export uses: ``type``,
    ``required``, ``properties``, ``items``, ``enum``, ``minimum``,
    ``pattern``.  Unknown keys in the document are allowed (OTLP is
    forward-extensible); unknown keywords in the *schema* are ignored.
    """
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
    if "minimum" in schema and isinstance(document, (int, float)) \
            and not isinstance(document, bool) \
            and document < schema["minimum"]:
        errors.append(f"{path}: {document} < minimum {schema['minimum']}")
    if "pattern" in schema and isinstance(document, str) \
            and not re.search(schema["pattern"], document):
        errors.append(f"{path}: {document!r} does not match "
                      f"{schema['pattern']!r}")
    if isinstance(document, dict):
        for key in schema.get("required", ()):
            if key not in document:
                errors.append(f"{path}: missing required key {key!r}")
        for key, subschema in schema.get("properties", {}).items():
            if key in document:
                errors.extend(validate(document[key], subschema,
                                       f"{path}.{key}"))
    if isinstance(document, list) and "items" in schema:
        for index, item in enumerate(document):
            errors.extend(validate(item, schema["items"],
                                   f"{path}[{index}]"))
    return errors


def validate_otlp(document: Any) -> List[str]:
    """Violations of the export schema in ``document`` (empty = valid)."""
    return validate(document, OTLP_SCHEMA)


def schema_main(argv: Any = None) -> int:
    """``repro otlp-validate <export.json> [--schema <file>]``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro otlp-validate",
        description="Validate an OTLP-style JSON export against the "
                    "checked-in schema.")
    parser.add_argument("path", help="export document to validate")
    parser.add_argument("--schema", default=None,
                        help="validate against this schema file instead of "
                             "the packaged OTLP schema")
    args = parser.parse_args(argv)
    with open(args.path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    schema = OTLP_SCHEMA
    if args.schema is not None:
        with open(args.schema, "r", encoding="utf-8") as handle:
            schema = json.load(handle)
    errors = validate(document, schema)
    if errors:
        for error in errors:
            print(f"INVALID {error}")
        return 1
    print(f"OK {args.path} conforms to {schema.get('$id', 'schema')}")
    return 0
