"""The one argument-parsing idiom of every ``python -m repro`` command.

Each command builds an :class:`argparse.ArgumentParser` and hands it to
:func:`parse_args`, which returns argparse's exit code instead of
raising ``SystemExit`` — 0 after ``--help``, 2 on a bad argument, with
the usage line and an ``error:`` message on stderr — so every
``*_main(argv)`` returns an int.  The value parsers below reject a bad
value at parse time.
"""

from __future__ import annotations

import argparse
from typing import Any, Callable, Optional, Sequence, Tuple, Union

#: The metadata schemes every fleet command accepts.
PROTOCOLS = ("brv", "crv", "srv")


def parse_args(parser: argparse.ArgumentParser,
               argv: Optional[Sequence[str]]
               ) -> Union[argparse.Namespace, int]:
    """The parsed flags, or argparse's exit code.

    Options and positionals may interleave (``A.json --gate B.json``).
    """
    try:
        return parser.parse_intermixed_args(argv)
    except SystemExit as stop:
        return stop.code if isinstance(stop.code, int) else 2


def checked(kind: Callable[[str], Any], ok: Callable[[Any], bool],
            requirement: str) -> Callable[[str], Any]:
    """An argparse type: ``kind(text)``, which must satisfy ``ok``."""
    def parse(text: str) -> Any:
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expects {'an integer' if kind is int else 'a number'}, "
                f"got {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(
                f"must be {requirement}, got {text!r}")
        return value
    return parse


def csv_list(item: Callable[[str], Any]) -> Callable[[str], Tuple[Any, ...]]:
    """An argparse type: comma-separated ``item`` values, no duplicates.

    Blank parts are skipped; a duplicate would run a grid cell twice.
    """
    def parse(text: str) -> Tuple[Any, ...]:
        values = tuple(item(part.strip()) for part in text.split(",")
                       if part.strip())
        if not values:
            raise argparse.ArgumentTypeError("expects at least one value")
        duplicates = sorted({str(value) for value in values
                             if values.count(value) > 1})
        if duplicates:
            raise argparse.ArgumentTypeError(
                f"duplicate values: {', '.join(duplicates)}")
        return values
    return parse


def _protocol(text: str) -> str:
    if text not in PROTOCOLS:
        raise argparse.ArgumentTypeError(
            f"unknown protocol {text!r}; expected {', '.join(PROTOCOLS)}")
    return text


def protocol_list(text: str) -> Tuple[str, ...]:
    """The ``--protocols brv,crv,srv`` type ``bench`` and ``monitor`` share."""
    return csv_list(_protocol)(text)
