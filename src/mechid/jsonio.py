"""JSON helpers: full-precision floats, order-independent digests, and field tables.

Floats are written with 17 significant digits so a reader recovers the
exact binary64 value; digests hash a canonical form (sorted keys, no
whitespace) so two files with reordered keys hash identically. A
dataclass renders as an object of its fields in declaration order, so each
result type is the one definition of its report form.

Reading is the twin of that: a JSON object is read by a table of `Field`
rows, each stating a key, a converter from its JSON form, a default and a
constraint. The reader rejects keys the table does not list, converts
present fields (a JSON null counts as absent), fills absent ones from their
defaults and checks each constraint. Every error is a `ConfigError` naming
the dotted path of the offending field (`mechanisms[0].M`).
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import ChainMap
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ConfigError, MechidError

__all__ = [
    "Field",
    "REQUIRED",
    "to_jsonable",
    "dump_json",
    "dumps_json",
    "load_json",
    "canonical_digest",
    "file_digest",
]


def _format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite value {x} cannot be serialized")
    return format(x, ".17g")


def to_jsonable(value):
    """Recursively convert dataclasses, numpy values, complex numbers and paths.

    A dataclass instance becomes {field: value} in declaration order and a
    complex number becomes [re, im].
    """
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: to_jsonable(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [to_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, Path):
        return str(value)
    return value


def _render(value, sort_keys: bool, indent: int | None, level: int = 0) -> str:
    """Hand-rolled renderer so floats always print with 17 digits."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _format_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    pad = "" if indent is None else "\n" + " " * indent * (level + 1)
    end = "" if indent is None else "\n" + " " * indent * level
    sep = "," + (pad if indent is not None else "")
    if isinstance(value, dict):
        items = sorted(value.items()) if sort_keys else list(value.items())
        if not items:
            return "{}"
        body = sep.join(
            f"{json.dumps(str(k))}: {_render(v, sort_keys, indent, level + 1)}" for k, v in items
        )
        return "{" + pad + body + end + "}"
    if isinstance(value, (list, tuple)):
        if not len(value):
            return "[]"
        body = sep.join(_render(v, sort_keys, indent, level + 1) for v in value)
        return "[" + pad + body + end + "]"
    raise TypeError(f"cannot serialize value of type {type(value).__name__}")


def dumps_json(value) -> str:
    """Fields in declaration order, indented by two spaces."""
    return _render(to_jsonable(value), sort_keys=False, indent=2)


def dump_json(value, path: str | Path) -> None:
    Path(path).write_text(dumps_json(value) + "\n")


def load_json(path: str | Path):
    return json.loads(Path(path).read_text())


def canonical_digest(value) -> str:
    """sha256 over the canonical rendering; stable under key reordering."""
    text = _render(to_jsonable(value), sort_keys=True, indent=None)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# reading JSON objects by field tables

REQUIRED = object()


@dataclass(frozen=True)
class Field:
    """One key of a config object.

    `convert(raw, path, ctx)` turns the JSON value into its typed form.
    `ctx` maps the fields read so far, in this object and then in the
    enclosing ones, to their values. An absent key takes `default`:
    `REQUIRED`, a value, `{}` (read as a written empty object), or a
    function of `ctx` that may return `REQUIRED`. `check(value)` returns a
    problem, or None when the value is acceptable.
    """

    name: str
    convert: Callable
    default: object = REQUIRED
    check: Callable | None = None


def _join(path: str, key) -> str:
    if isinstance(key, int):
        return f"{path}[{key}]"
    return f"{path}.{key}" if path else str(key)


def _read(table, raw, path: str, outer) -> dict:
    """The fields of one JSON object, read by its table in row order."""
    obj = _dict(raw, path)
    names = [f.name for f in table]
    for key in obj:
        if key not in names:
            raise ConfigError(_join(path, key), f"unknown field; known: {', '.join(names)}")
    got = {}
    ctx = ChainMap(got, outer)
    for f in table:
        raw_value = obj.get(f.name)
        if raw_value is not None:
            value = f.convert(raw_value, _join(path, f.name), ctx)
        elif isinstance(f.default, dict):
            value = f.convert({}, _join(path, f.name), ctx)
        else:
            value = f.default(ctx) if callable(f.default) else f.default
            if value is REQUIRED:
                raise ConfigError(_join(path, f.name), "missing required field")
        problem = None if f.check is None or value is None else f.check(value)
        if problem:
            raise ConfigError(_join(path, f.name), problem)
        got[f.name] = value
    return got


# ---------------------------------------------------------------------------
# converters (raw, path, ctx) -> value, and constraints value -> problem


def _typed(what: str, *types):
    """A JSON value of one of `types`; true and false pass only where bool is listed."""

    def convert(raw, path, ctx=None):
        if not isinstance(raw, types) or (isinstance(raw, bool) and bool not in types):
            raise ConfigError(path, f"expected {what}, got {type(raw).__name__}")
        return raw

    return convert


_dict = _typed("an object", dict)
_list = _typed("an array", list)
_int = _typed("an integer", int)
_str = _typed("a string", str)
_bool = _typed("true or false", bool)
_real = _typed("a number", int, float)


def _number(raw, path: str, ctx=None) -> float:
    try:
        value = float(_real(raw, path))
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(path, f"expected a finite number, got {raw!r}")
    return value


def _choice(*choices: str):
    def convert(raw, path, ctx=None):
        if _str(raw, path) not in choices:
            raise ConfigError(path, f"must be one of {', '.join(choices)}; got '{raw}'")
        return raw

    return convert


def _array(ndim: int, shape: str):
    """Finite numbers nested `ndim` deep; strings, booleans and ragged rows fail."""

    def convert(raw, path, ctx=None) -> np.ndarray:
        try:
            arr = np.array(_list(raw, path))
        except ValueError:
            raise ConfigError(path, f"expected {shape} of numbers") from None
        if arr.dtype.kind not in "iuf":
            raise ConfigError(path, f"expected {shape} of numbers")
        if arr.ndim != ndim:
            raise ConfigError(path, f"expected {shape}, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ConfigError(path, "expected finite numbers")
        return arr.astype(float)

    return convert


_vector = _array(1, "a flat vector")
_matrix = _array(2, "a matrix (array of rows)")


def _object(table, build, bare: str | None = None):
    """A nested object read by `table`, then built by `build(fields, ctx)`.

    A non-object value stands for `{bare: value}` when `bare` is given. An
    error of the built type names the object; a `ConfigError` raised by
    `build` names a field relative to the object.
    """

    def convert(raw, path, ctx):
        got = _read(table, {bare: raw} if bare and not isinstance(raw, dict) else raw, path, ctx)
        try:
            return build(got, ctx)
        except ConfigError as e:
            raise ConfigError(_join(path, e.field), e.problem) from None
        except (ValueError, MechidError) as e:
            raise ConfigError(path, str(e)) from None

    return convert


def _each(convert, label: str = "entry"):
    """A non-empty array; entry i may default its label to f"{label}{i + 1}"."""

    def read(raw, path, ctx):
        items = _list(raw, path)
        if not items:
            raise ConfigError(path, "at least one entry is required")
        return tuple(
            convert(item, _join(path, i), ChainMap({"item_label": f"{label}{i + 1}"}, ctx))
            for i, item in enumerate(items)
        )

    return read


def _count(low: int, high: int):
    """A count from `low` to `high`; the cap bounds what one document can cost."""
    return lambda v: None if low <= v <= high else f"must lie between {low} and {high}, got {v!r}"


def _positive(v):
    return None if v > 0 else f"must be positive, got {v!r}"


def _non_negative(v):
    return None if v >= 0 else f"must be non-negative, got {v!r}"


def _open_unit(v):
    return None if 0.0 < v < 1.0 else f"must lie strictly between 0 and 1, got {v!r}"
