"""Checks of JSON config blocks against the dataclasses they fill."""

from __future__ import annotations

import dataclasses

from .errors import ConfigError


def _known_keys(cls, d, where: str) -> dict:
    """d itself, after checking it is a dict whose keys are all fields of cls
    and whose values have the JSON type of the field's default."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object, got {type(d).__name__}")
    unknown = sorted(set(d) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(unknown)}")
    defaults = cls()
    for key, value in d.items():
        default = getattr(defaults, key)
        if dataclasses.is_dataclass(default):
            continue  # a nested config, checked on its own
        if not _same_json_type(value, default):
            raise ConfigError(f"{where}.{key} must be of the type of its default "
                              f"{default!r}, got {value!r}")
    return d


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
