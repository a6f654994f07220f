"""Exception types, and the rules that check a JSON value by a config
dataclass, shared across the package; this module imports none of it."""

from __future__ import annotations

import dataclasses
import math


class DataError(Exception):
    """Raised when input data violates a contract (bad file, bad labels, empty result)."""


class ConfigError(Exception):
    """Raised when a configuration document is malformed or has invalid values."""


def _coerce(value, expected):
    """``value`` checked and converted by the type of the default ``expected``, else a TypeError."""
    if isinstance(expected, bool):
        if not isinstance(value, bool):
            raise TypeError(f"expected true/false, got {value!r}")
        return value
    if isinstance(expected, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"expected an integer, got {value!r}")
        return value
    if isinstance(expected, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"expected a number, got {value!r}")
        if not math.isfinite(value):  # JSON's NaN and Infinity parse
            raise TypeError(f"expected a finite number, got {value!r}")
        return float(value)
    if isinstance(expected, str):
        if not isinstance(value, str):
            raise TypeError(f"expected a string, got {value!r}")
        return value
    if isinstance(expected, tuple):
        if not isinstance(value, (list, tuple)) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in value
        ):
            raise TypeError(f"expected a list of integers, got {value!r}")
        return tuple(value)
    raise TypeError("unsupported value type")  # pragma: no cover


def _from_dict(proto, given: object, path: str):
    """``proto`` with the JSON object ``given`` applied by the config's rules
    (no unknown key, :func:`_coerce`, the dataclass's invariants), for each
    config section and a model file's manifest; a ConfigError names the
    fault by its dotted ``path``."""
    if not isinstance(given, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    names = [f.name for f in dataclasses.fields(proto)]
    for key in given:
        if key not in names:
            raise ConfigError(f"unknown config key {path}.{key!r}")
    kwargs = {}
    for name in names:
        if name in given:
            try:
                kwargs[name] = _coerce(given[name], getattr(proto, name))
            except TypeError as exc:
                raise ConfigError(f"{path}.{name}: {exc}") from exc
    try:
        return dataclasses.replace(proto, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
