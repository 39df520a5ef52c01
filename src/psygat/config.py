"""The one config layer: GenConfig, ModelConfig, TrainConfig and
CausalConfig share its field type check, JSON form and text form."""

from __future__ import annotations

import math
from dataclasses import fields

from .errors import ConfigError


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


# annotation -> (accepts a value, what it must be, parses config-file text)
KINDS = {
    "int": (_is_int, "an integer", int),
    "float": (lambda v: _is_int(v) or isinstance(v, float) and math.isfinite(v),
              "a finite number", float),
    "bool": (lambda v: isinstance(v, bool), "true or false", str),
    "str": (lambda v: isinstance(v, str), "a string", str),
    "tuple": (lambda v: isinstance(v, tuple) and all(map(_is_int, v)), "a list of integers",
              lambda raw: tuple(int(x) for x in raw.split(","))),
}


class Config:
    """Base of the config dataclasses, whose (postponed) annotations are the
    schema. Subclasses call super().__post_init__() before range checks."""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "tuple" and isinstance(value, list):
                value = tuple(value)
                setattr(self, f.name, value)
            accepts, must_be, _ = KINDS[f.type]
            if not accepts(value):
                raise ConfigError(f"{type(self).__name__}.{f.name} must be {must_be}, "
                                  f"got {value!r}")

    def _check(self, ok, must_be, *names):
        for name in names:
            if not ok(getattr(self, name)):
                raise ConfigError(f"{name} must be {must_be}, got {getattr(self, name)}")

    def to_json(self):
        obj = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: list(v) if isinstance(v, tuple) else v for k, v in obj.items()}

    @classmethod
    def from_json(cls, obj):
        """A JSON object holding every field, and nothing else: a field it
        left out would silently take today's default."""
        if not isinstance(obj, dict):
            raise ConfigError(f"{cls.__name__} must be a JSON object, got {obj!r}")
        cls._reject_unknown(obj)
        for f in fields(cls):
            if f.name not in obj:
                raise ConfigError(f"missing {cls.__name__} field {f.name!r}")
        return cls(**obj)

    @classmethod
    def _reject_unknown(cls, keys):
        names = {f.name for f in fields(cls)}
        for key in keys:
            if key not in names:
                raise ConfigError(f"unknown {cls.__name__} field {key!r}")

    @classmethod
    def from_text(cls, text):
        """``key = value`` lines, # comments; a bool field has no text form."""
        kinds = {f.name: f.type for f in fields(cls)}
        values = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            cls._reject_unknown([key])
            try:
                values[key] = KINDS[kinds[key]][2](val)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {key}: {exc}") from exc
        return cls(**values)
