"""The field contract of the two run recipes, TrainConfig and DataSpec.

Each recipe field states its kind once, as its annotation, and its range
once, as field metadata: bounds ``ge``, ``gt``, ``le`` and ``lt`` for a
number, ``choices`` for a string.  ``check_fields`` holds a built recipe to
both, and ``parse_field`` reads a field's text, from a config file or a
command-line flag, into its value.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import fields

import numpy as np

from .exceptions import ConfigError

# a seed feeds a numpy seed sequence, which takes no negative entry
SEED_RANGE = {"ge": 0}
# ranges that a recipe field and the library guard on its value share
UNIT_RANGE = {"ge": 0, "le": 1}  # the smoothing rates alpha_p and alpha_theta
WEIGHT_RANGE = {"ge": 0}  # the loss weights lambda_stu, lambda_tea and gamma
MOMENTUM_RANGE = {"ge": 0, "lt": 1}
ON_OFF = ("on", "off")


def _is_number(v) -> bool:
    # a bool is no number; a float skips the slow abstract-class test (per-step guards)
    return type(v) is float or (isinstance(v, numbers.Real) and not isinstance(v, bool))


# each part of an annotation: its test, the words an error names it by, and
# its text parser, which raises ValueError on a text it does not read (None:
# the part has no text form); tuple.index raises ValueError off the tuple
_KINDS = {
    "int": (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
            "an integer", int),
    "float": (_is_number, "a number", float),
    "bool": (lambda v: isinstance(v, bool), "on or off (a bool)",
             lambda raw: ON_OFF.index(raw) == 0),
    "str": (lambda v: isinstance(v, str), "a string", str),
    "None": (lambda v: v is None, "None", None),
}
_BOUNDS = {"ge": (operator.ge, ">="), "gt": (operator.gt, ">"),
           "le": (operator.le, "<="), "lt": (operator.lt, "<")}


@functools.cache
def _parts(kind: str, choices) -> tuple:
    """The (test, words, parser) of each part of an annotation, built once
    per annotation and choices; a string part with choices takes only those."""
    parts = []
    for part in kind.split(" | "):
        test, words, parse = _KINDS[part]
        if part == "str" and choices:
            test = lambda v: isinstance(v, str) and v in choices
            parse = lambda raw: choices[choices.index(raw)]
            words = " or ".join(map(repr, choices))
        parts.append((test, words, parse))
    return tuple(parts)


def check_value(name: str, kind: str, meta, value) -> None:
    """ConfigError naming `name` unless `value` is of the annotation `kind`,
    finite, and inside the bounds and choices of `meta`.

    The loss weights and the teacher rate are checked on every training
    step, so the passing path runs plain loops.
    """
    parts = _parts(kind, meta.get("choices"))
    for test, _, _ in parts:
        if test(value):
            break
    else:
        raise ConfigError(f"{name} must be {' or '.join(w for _, w, _ in parts)}, got {value!r}")
    # nan slips through every bound (nan < 0 is False), so test first
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    if not _is_number(value):
        return
    for key, bound in meta.items():
        if key in _BOUNDS and not _BOUNDS[key][0](value, bound):
            words = " and ".join(f"{sym} {meta[k]}" for k, (_, sym) in _BOUNDS.items() if k in meta)
            raise ConfigError(f"{name} must be {words}, got {value}")


def check_fields(recipe) -> None:
    """Hold every field of a built recipe to its annotation and metadata."""
    for f in fields(recipe):
        check_value(f.name, f.type, f.metadata, getattr(recipe, f.name))


def parse_text(key: str, kind: str, raw: str, choices=None):
    """The value of `raw` as the first part of the annotation `kind` that
    reads it; ranges are checked when the recipe is built."""
    raw = raw.strip()
    readers = [(words, parse) for _, words, parse in _parts(kind, choices) if parse]
    for _, parse in readers:
        try:
            return parse(raw)
        except ValueError:
            pass
    expected = " or ".join(words for words, _ in readers)
    raise ConfigError(f"config key '{key}' expects {expected}, got {raw!r}")


def parse_field(recipe, key: str, raw: str):
    """One field's value from its text; an unknown key is an error."""
    for f in fields(recipe):
        if f.name == key:
            return parse_text(key, f.type, raw, f.metadata.get("choices"))
    raise ConfigError(f"unknown config key '{key}'")
