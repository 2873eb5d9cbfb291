"""Exception hierarchy shared across the engine.

Every error carries a ``code`` used as the CLI exit status: 2 for input
the run cannot use (``SchemaError``, ``ConfigError``, ``DataError``), 3
for numerical or statistical failures (``DomainError``, ``NoEventError``).
The CLI's JSON error line names the class as its ``type``; the message
says what failed and where.

Settings, override entries, portfolio values and fitted-model fields are
read through one cast per invariant: ``integer`` (never a float or a bool),
``real`` (never a bool; text parses, as flags are text), ``finite`` (a real
in bounds), ``string`` (a JSON string, never a number, a bool or null) and
``file_name`` (a string that may stand in a file name).
``json_field`` applies a cast to one key of a JSON object.
"""

from __future__ import annotations

import math


class EngineError(Exception):
    """Base class for all engine failures."""

    code = 3


class SchemaError(EngineError):
    """Malformed input file: bad header, unparseable row, wrong shape."""

    code = 2


class ConfigError(EngineError):
    """Invalid run configuration: missing paths, bad flag values."""

    code = 2


class DataError(EngineError):
    """Input data violates a precondition (gaps, duplicates, empty sets)."""

    code = 2


class DomainError(EngineError):
    """Argument outside the mathematical domain of an operation, or data a
    model cannot be fit to: too few rows, a constant response, a rank
    deficient design, a matrix that is not positive definite."""


class NoEventError(EngineError):
    """No event months observed; use the peer-interval path instead."""


_REQUIRED = object()


def json_field(doc: dict, key: str, cast, default=_REQUIRED):
    """``cast(doc[key])`` for a JSON object read from a file.

    ``default``, when given, stands in for a missing or null value.  A
    missing key, or a value ``cast`` rejects, is a SchemaError naming the
    key.
    """
    try:
        value = doc[key]
    except KeyError:
        if default is _REQUIRED:
            raise SchemaError(f"missing key {key!r}") from None
        return default
    except TypeError as exc:
        raise SchemaError(f"expected a JSON object holding {key!r}, got {doc!r:.60}") from exc
    if value is None and default is not _REQUIRED:
        return default
    try:
        return cast(value)
    except SchemaError as exc:
        raise SchemaError(f"in {key!r}: {exc}") from exc
    except (TypeError, ValueError, OverflowError, IndexError, AttributeError) as exc:
        raise SchemaError(f"bad value for key {key!r}: {value!r:.60}") from exc


def json_bool(raw) -> bool:
    """Cast for ``json_field`` of a JSON value that must be true or false."""
    if not isinstance(raw, bool):
        raise ValueError(f"expected true or false, got {raw!r:.60}")
    return raw


def integer(raw) -> int:
    """Cast of a JSON integer or a flag's text to an int, never a float or a bool."""
    if isinstance(raw, (bool, float)):
        raise TypeError(f"expected an integer, got {raw!r:.60}")
    return int(raw)


def real(raw) -> float:
    """Cast of a JSON number or a flag's text to a float, never a bool."""
    if isinstance(raw, bool):
        raise TypeError(f"expected a number, got {raw!r:.60}")
    return float(raw)


def string(raw) -> str:
    """Cast of a JSON string, never a number, a bool or null."""
    if not isinstance(raw, str):
        raise TypeError(f"expected a string, got {raw!r:.60}")
    return raw


def file_name(raw) -> str:
    """Cast of a JSON string that may stand in a file name: no ``/``, no NUL
    and no leading ``.``, so neither ``.`` nor ``..``."""
    name = string(raw)
    if "/" in name or "\0" in name or name.startswith("."):
        raise ValueError(f"expected a name with no '/', NUL or leading '.', got {name!r:.60}")
    return name


def finite(low: float, high: float, above: bool = False):
    """Cast of a JSON number to a finite float in [low, high], or in (low, high]
    when ``above``."""

    def cast(raw) -> float:
        value = real(raw)
        inside = low < value <= high if above else low <= value <= high
        if not (inside and math.isfinite(value)):
            raise ValueError(f"expected a finite number in {'(' if above else '['}{low}, {high}]")
        return value

    return cast
