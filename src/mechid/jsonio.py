"""JSON helpers: full-precision floats and order-independent digests.

Floats are written with 17 significant digits so a reader recovers the
exact binary64 value; digests hash a canonical form (sorted keys, no
whitespace) so two files with reordered keys hash identically. A
dataclass renders as an object of its fields in declaration order, so each
result type is the one definition of its report form.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

__all__ = [
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


def dumps_json(value, sort_keys: bool = False, indent: int | None = 2) -> str:
    return _render(to_jsonable(value), sort_keys=sort_keys, indent=indent)


def dump_json(value, path: str | Path, sort_keys: bool = False) -> None:
    Path(path).write_text(dumps_json(value, sort_keys=sort_keys) + "\n")


def load_json(path: str | Path):
    return json.loads(Path(path).read_text())


def canonical_digest(value) -> str:
    """sha256 over the canonical rendering; stable under key reordering."""
    text = _render(to_jsonable(value), sort_keys=True, indent=None)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
