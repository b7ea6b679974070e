"""Schema of the ``BENCH_cluster.json`` regression document.

The benchmark trajectory only works if every change emits the *same
shape*: a diff between two runs must be a field-by-field comparison,
never a parser archaeology session.  The shape lives once, as the
checked-in ``src/repro/schemas/repro.bench.cluster.schema.json`` (its
``description`` fields document every run field), checked by the one
JSON-Schema validator of the package,
:func:`repro.obs.otlp_schema.validate`.  This module adds only the
cross-field identities JSON Schema cannot state, and the loader every
reader of bench documents shares.

Validate from the command line::

    PYTHONPATH=src python -m repro.perf.schema BENCH_cluster.json
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Dict, List, Optional

from repro.cliargs import parse_args
from repro.obs.otlp_schema import load_schema, validate

SCHEMA_ID = "repro.bench.cluster/1"

#: ``repro.bench.cluster.schema.json``, the document's checked-in schema.
BENCH_SCHEMA: Dict[str, Any] = load_schema("repro.bench.cluster.schema.json")


#: The identities JSON Schema cannot state: each ``(left, right)`` pair
#: of ``block.field`` paths (``.field`` is the run itself) must satisfy
#: ``sum(left) == right`` whenever every field is present.
_IDENTITIES = (
    ((".total_bits",), "traffic.total_bits"),
    ((".goodput_bits", ".retransmitted_bits"), ".total_bits"),
    (("client.reads", "client.writes", "client.deletes"), "client.ops"),
    ((".invariant_violations",), "health.invariant_violations"),
)


def _cross_field_errors(index: int, run: Dict[str, Any]) -> List[str]:
    def value(path: str) -> Any:
        block, name = path.split(".")
        return (run.get(block, {}) if block else run).get(name)

    errors = []
    for left, right in _IDENTITIES:
        values = [value(path) for path in (*left, right)]
        if None not in values and sum(values[:-1]) != values[-1]:
            terms = " + ".join(f"{path.lstrip('.')} ({found})"
                               for path, found in zip(left, values))
            errors.append(f"$.runs[{index}]: {terms} must equal "
                          f"{right.lstrip('.')} ({values[-1]})")
    return errors


def validate_bench(doc: Any) -> List[str]:
    """All schema violations in ``doc`` (empty list == valid).

    The cross-field identities are checked only on a document the JSON
    schema accepts, so every field they read has its schema type.
    """
    errors = validate(doc, BENCH_SCHEMA)
    if not errors:
        for index, run in enumerate(doc["runs"]):
            errors.extend(_cross_field_errors(index, run))
    return errors


class InvalidBenchDocument(ValueError):
    """A readable JSON file that is not a valid bench document."""

    def __init__(self, path: str, errors: List[str]) -> None:
        super().__init__(f"{path} is not a valid bench document: "
                         f"{'; '.join(errors)}")
        self.errors = errors


def load_bench(path: str) -> Dict[str, Any]:
    """One bench document from disk, validated.

    Raises ``OSError`` when the file cannot be read, ``ValueError`` when
    it is not JSON, and :class:`InvalidBenchDocument` (a ``ValueError``)
    when it violates the schema.
    """
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    errors = validate_bench(document)
    if errors:
        raise InvalidBenchDocument(path, errors)
    return document


def validate_file(path: str) -> List[str]:
    """Validate a JSON document on disk; parse errors are violations too."""
    try:
        load_bench(path)
    except InvalidBenchDocument as error:
        return error.errors
    except (OSError, ValueError) as error:
        return [f"cannot read {path}: {error}"]
    return []


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.perf.schema FILE [FILE...]`` — exit 1 on errors."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.schema",
        description="Validate bench documents: the checked-in JSON schema "
                    "plus the cross-field identities.")
    parser.add_argument("paths", nargs="+", metavar="BENCH_cluster.json")
    args = parse_args(parser, argv)
    if isinstance(args, int):
        return args
    status = 0
    for path in args.paths:
        errors = validate_file(path)
        if errors:
            status = 1
            print(f"{path}: INVALID")
            for error in errors:
                print(f"  - {error}")
        else:
            print(f"{path}: ok ({SCHEMA_ID})")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
