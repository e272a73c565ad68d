"""Builds config dataclasses from JSON blocks, checking keys and types, and
reads the physical memory that bounds what a config may ask for."""

from __future__ import annotations

import dataclasses
import math
import os

from .errors import ConfigError


def physical_memory() -> float:
    """Bytes of physical memory, or inf where the system does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return math.inf


def from_json(cls, d, where: str, /, **overrides):
    """The config dataclass cls built from the JSON object d, whose keys must
    be fields of cls with values of their defaults' JSON type, and from the
    overrides (the program's own values, such as --epochs), which replace d's
    before cls checks itself. Nested configs recurse, so messages name
    train.gcn.hidden_dim. A list for a tuple field becomes a tuple; other
    values are kept as given (an int in a float field stays an int)."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object, got {type(d).__name__}")
    unknown = sorted(set(d) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(unknown)}")
    defaults = cls()
    values = {}
    for key, value in d.items():
        default = getattr(defaults, key)
        if dataclasses.is_dataclass(default):
            value = from_json(type(default), value, f"{where}.{key}")
        elif not _same_json_type(value, default):
            raise ConfigError(f"{where}.{key} must be of the type of its default "
                              f"{default!r}, got {value!r}")
        elif isinstance(default, tuple):
            value = tuple(value)
        values[key] = value
    return cls(**{**values, **overrides})


def _same_json_type(value, default) -> bool:
    """Whether a JSON value fits a field whose default is `default`.

    A float field takes an int too; bools are never numbers; a tuple field
    (seeds) takes a list of ints; a field whose default is None (an optional
    count, such as SyntheticSpec.d) takes null or an int.
    """
    if default is None:
        return value is None or _same_json_type(value, 0)
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(
            _same_json_type(v, 0) for v in value)
    if isinstance(value, bool) or isinstance(default, bool):
        return isinstance(value, bool) and isinstance(default, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))
