"""JSON helpers: full-precision floats, order-independent digests, and field tables.

Writing is one pass from a value to bytes. `_render` walks the value once,
dispatching on its exact type: floats get 17 significant digits so a reader
recovers the exact binary64 value, and digests hash a canonical form (sorted
keys, no whitespace) so two documents with reordered keys hash identically.
A dataclass renders as an object of its fields in declaration order, so
each result type is the one definition of its report form. `write_text`
encodes a JSON document or a `table_text` CSV table once, writes the bytes
and returns their sha256, so no written file is read back to be digested. It
rewrites an existing file in place and then cuts it to length, which costs
far less than truncating it on open. A write that is interrupted can leave
new bytes followed by the rest of the old file, whose digest then disagrees
with the run's manifest; `replay` reads a recorded file only where a
regenerated digest differs from the manifest's, so it does not see it. A value
that cannot be written raises ValueError naming its field (`detail.a[1]`),
found by a second walk made only after the failure. `load_json` reads
UTF-8, the encoding `write_text` writes, whatever the locale.

Reading is the twin of that: a JSON object is read by a table of `Field`
rows, each stating a key, a converter from its JSON form, a default and a
constraint. The reader rejects keys the table does not list, converts
present fields (a JSON null counts as absent), fills absent ones from their
defaults and checks each constraint. Every error is a `ConfigError` naming
the dotted path of the offending field (`mechanisms[0].M`).
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
from collections import ChainMap
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ConfigError, MechidError

__all__ = [
    "Field",
    "REQUIRED",
    "dump_json",
    "dumps_json",
    "load_json",
    "canonical_digest",
    "file_digest",
    "table_text",
    "write_text",
]


_encode_str = json.encoder.encode_basestring_ascii  # the text json.dumps gives a str


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x} cannot be serialized")
    return format(x, ".17g")


@functools.cache
def _field_names(cls: type) -> tuple[str, ...] | None:
    """A dataclass's field names in declaration order; None for any other class."""
    return tuple(f.name for f in fields(cls)) if is_dataclass(cls) else None


def _render(value, nl: str | None) -> str:
    """JSON text of `value`, indented two spaces a level after the newline `nl`.

    For nl None the text is canonical: sorted keys and no whitespace but the
    space after each colon. A dataclass renders as an object of its fields
    in declaration order, an array or numpy scalar as its `tolist()`, a
    complex number as [re, im], a path as its string and a key that is no
    string as str(key).
    """
    t = type(value)
    if t is float:
        return _format_float(value)
    if t is int:
        return str(value)
    if t is str:
        return _encode_str(value)
    if t is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (list, tuple)):
        items = None
    elif isinstance(value, dict):
        items = value.items()
    elif (names := _field_names(t)) is not None:
        items = [(name, getattr(value, name)) for name in names]
    elif isinstance(value, (np.ndarray, np.generic)):
        return _render(value.tolist(), nl)
    elif isinstance(value, complex):
        return _render([value.real, value.imag], nl)
    elif isinstance(value, Path):
        return _encode_str(str(value))
    elif isinstance(value, int):
        return str(value)
    elif isinstance(value, float):
        return _format_float(value)
    elif isinstance(value, str):
        return _encode_str(value)
    else:
        raise TypeError(f"cannot serialize value of type {t.__name__}")
    if not value if items is None else not items:
        return "[]" if items is None else "{}"
    inner = None if nl is None else nl + "  "
    pad, end = ("", "") if nl is None else (inner, nl)
    if items is None:
        return "[" + pad + ("," + pad).join([_render(v, inner) for v in value]) + end + "]"
    if not all([type(k) is str for k, _ in items]):
        items = {str(k): v for k, v in items}.items()
    if nl is None:
        items = sorted(items)
    body = ("," + pad).join([_encode_str(k) + ": " + _render(v, inner) for k, v in items])
    return "{" + pad + body + end + "}"


def _culprit(value, path: str) -> str:
    """Path of the innermost part of `value` that fails to render; walked only after a failure."""
    if (names := _field_names(type(value))) is not None:
        parts = [(name, getattr(value, name)) for name in names]
    elif isinstance(value, dict):
        parts = [(str(k), v) for k, v in value.items()]
    elif isinstance(value, (list, tuple)) or isinstance(value, np.ndarray) and value.ndim:
        parts = enumerate(value)
    else:
        parts = []
    for key, part in parts:
        try:
            _render(part, None)
        except ValueError:
            return _culprit(part, _join(path, key))
    return path


def _text(value, nl: str | None) -> str:
    """`_render`, with the path of a value that cannot be written in its ValueError."""
    try:
        return _render(value, nl)
    except ValueError as e:
        path = _culprit(value, "")
        raise ValueError(f"{path}: {e}" if path else str(e)) from None


def dumps_json(value) -> str:
    """Fields in declaration order, indented by two spaces."""
    return _text(value, "\n")


def write_text(path: str | Path, text: str) -> str:
    """Write `text` to `path` as UTF-8; the sha256 of the bytes written.

    An existing file is rewritten in place and then cut to the new length; a
    new one is created with the mode the umask leaves.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)
    return hashlib.sha256(data).hexdigest()


def dump_json(value, path: str | Path) -> str:
    """Write `value` as `dumps_json` renders it, plus a newline; the file's sha256."""
    try:
        text = dumps_json(value)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    return write_text(path, text + "\n")


def _format_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def table_text(header, rows, newline: str = "\n") -> str:
    """CSV text of a table whose cells need no quoting; floats with 17 digits, booleans as true/false."""
    lines = [",".join([str(h) for h in header])]
    lines += [",".join([_format_cell(c) for c in row]) for row in rows]
    return newline.join(lines) + newline


def load_json(path: str | Path):
    return json.loads(Path(path).read_bytes())


def canonical_digest(value) -> str:
    """sha256 over the canonical rendering; stable under key reordering."""
    return hashlib.sha256(_text(value, None).encode("utf-8")).hexdigest()


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
