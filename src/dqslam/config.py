"""Declared types and ranges of config dataclass fields.

A field declared with `setting(default, ...)` has the type of its default
and the bounds or choices given there; a config dataclass derives from
`Settings`, whose `__post_init__` enforces them when it is built. The
command line derives its flags, name and help text included, from the same
declarations.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import field, fields

__all__ = ["ConfigError", "setting", "Settings"]

_BOUNDS = {
    "gt": (operator.gt, "greater than"),
    "ge": (operator.ge, "at least"),
    "lt": (operator.lt, "less than"),
    "le": (operator.le, "at most"),
}


class ConfigError(ValueError):
    """Config field `name` holds a value that does not meet `requirement`."""

    def __init__(self, name: str, requirement: str):
        super().__init__(f"{name} {requirement}")
        self.name, self.requirement = name, requirement


def setting(default, *, gt=None, ge=None, lt=None, le=None, choices=None, help=None,
            flag=None):
    """A dataclass field with its default, bounds or choices, and the name
    and help text of its command-line flag (the field name when not given)."""
    return field(
        default=default,
        metadata=dict(gt=gt, ge=ge, lt=lt, le=le, choices=choices, help=help, flag=flag),
    )


def _has_type(value, kind) -> bool:
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, numbers.Real) and math.isfinite(value)
    return isinstance(value, numbers.Integral if kind is int else kind)


class Settings:
    """Base of the config dataclasses. Building one raises ConfigError for
    the first field whose value is not of its default's type (a finite
    number for floats) or breaks its declared bounds or choices; a config
    with rules across fields checks them after super().__post_init__()."""

    def __post_init__(self):
        for f in fields(self):
            value, kind, meta = getattr(self, f.name), type(f.default), f.metadata
            if not _has_type(value, kind):
                expected = "a finite number" if kind is float else f"of type {kind.__name__}"
                raise ConfigError(f.name, f"must be {expected}, got {value!r}")
            if meta.get("choices") and value not in meta["choices"]:
                raise ConfigError(f.name,
                                  f"must be one of {', '.join(meta['choices'])}; got {value!r}")
            for key, (holds, wording) in _BOUNDS.items():
                if meta.get(key) is not None and not holds(value, meta[key]):
                    raise ConfigError(f.name, f"must be {wording} {meta[key]}, got {value!r}")
