"""On-disk documents: colligations, tables, kernels, witnesses, values.

Every document is JSON with a ``kind`` tag.  Complex numbers are stored
as two-element arrays [re, im].  Writing goes through a canonical
serializer that prints every float with 17 significant digits, enough
to reproduce the double exactly, and emits keys in a fixed order, so
loading and re-saving a canonical file is byte identical.

The exact field names live in FORMATS.md at the repository root.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
from contextlib import contextmanager
from itertools import chain

import numpy as np

from .errors import FormatError, StructureError
from .factorization import VARIANT_TABLE
from .linalg import _adopted, _as_array, _check_finite, _is_integer
from .realization import Colligation, Representation
from .testfn import HermitianKernel, PointSet, TestFunctionTable

__all__ = [
    "dumps_canonical",
    "encode_matrix",
    "decode_matrix",
    "load_colligation",
    "save_colligation",
    "load_table",
    "save_table",
    "load_kernel",
    "save_kernel",
    "load_witness",
    "save_witness",
    "load_values",
    "save_values",
    "digest_file",
]

WITNESS_NAMES = tuple(name for v in VARIANT_TABLE.values() for name in v.witnesses)


def _fmt_scalar(x) -> str:
    """A value _is_scalar accepts, as JSON text."""
    if type(x) is int:
        # json.dumps's own spelling of an int, without its call
        return int.__repr__(x)
    if isinstance(x, np.integer):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        v = float(x)
        if math.isnan(v):
            return "NaN"
        if math.isinf(v):
            return "Infinity" if v > 0 else "-Infinity"
        # json reads -0 back as the integer 0, so + 0.0 writes -0.0 as 0
        return f"{v + 0.0:.17g}"
    return json.dumps(x)


def _is_scalar(x) -> bool:
    """The one list of the types _enc writes as scalars."""
    return x is None or isinstance(
        x, (bool, int, float, str, np.integer, np.floating)
    )


def _is_flat(x) -> bool:
    if isinstance(x, np.ndarray):
        # laid out as its encode_matrix list, which is flat only with no rows
        return x.ndim == 2 and not len(x)
    return isinstance(x, (list, tuple)) and all(_is_scalar(e) for e in x)


def _enc_matrix(m: np.ndarray, indent: int) -> str:
    """A matrix laid out as _enc lays out its encode_matrix list.

    A finite matrix is printed by one %-format over all its floats;
    '%.17g' % x and f"{x:.17g}" give the same digits, and + 0.0 turns
    -0.0 into 0.0 as _fmt_scalar does.
    """
    a = np.ascontiguousarray(m, dtype=np.complex128)
    if not a.size or not np.isfinite(a).all():
        # NaN and Infinity are spelled by the scalar walk alone
        return _enc(encode_matrix(a), indent)
    row = "[" + ", ".join(["[%.17g, %.17g]"] * a.shape[1]) + "]"
    rows = ",\n".join(["  " * (indent + 1) + row] * a.shape[0])
    return ("[\n" + rows + "\n" + "  " * indent + "]") % tuple(
        (a.view(np.float64).ravel() + 0.0).tolist()
    )


def _enc(x, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if _is_scalar(x):
        return _fmt_scalar(x)
    if isinstance(x, np.ndarray) and x.ndim == 2:
        return _enc_matrix(x, indent)
    if isinstance(x, dict):
        if not x:
            return "{}"
        rows = [f"{inner}{json.dumps(str(k))}: {_enc(v, indent + 1)}" for k, v in x.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(x, (list, tuple)):
        if not len(x):
            return "[]"
        if _is_flat(x):
            return "[" + ", ".join(_fmt_scalar(e) for e in x) + "]"
        if all(_is_flat(e) for e in x):
            return "[" + ", ".join(_enc(e, indent) for e in x) + "]"
        rows = [f"{inner}{_enc(e, indent + 1)}" for e in x]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    raise FormatError(f"cannot serialize {type(x).__name__}")


def dumps_canonical(obj) -> str:
    """Serialize to canonical JSON: fixed key order, 17-digit floats."""
    return _enc(obj, 0) + "\n"


def encode_matrix(m) -> list:
    """Matrix to nested lists of [re, im] pairs."""
    a = _as_array(m, "matrix")
    return [
        [[float(z.real), float(z.imag)] for z in row] for row in a
    ]


def decode_matrix(obj, where: str) -> np.ndarray:
    """Nested lists of [re, im] pairs back to a complex matrix.

    A plainly well-formed matrix is converted by numpy in one step; any
    other input takes the per-entry walk, which names what is wrong.
    """
    pairs = _float_pairs(obj)
    if pairs is None:
        return _decode_entries(obj, where)
    return pairs.view(np.complex128)[:, :, 0]


def _float_pairs(obj) -> np.ndarray | None:
    """obj as an (r, c, 2) finite float array, or None to take the walk.

    The leaf types are checked on one flat list at a time, rows, then
    pairs, then numbers, and numpy converts the flat numbers in one step.
    Only lists and exact int or float leaves qualify: numpy would also
    accept tuples, convert numeric strings and fold booleans into floats.
    """
    if type(obj) is not list or set(map(type, obj)) != {list} or len(set(map(len, obj))) != 1:
        return None
    pairs = list(chain.from_iterable(obj))
    if set(map(type, pairs)) != {list} or set(map(len, pairs)) != {2}:
        return None
    numbers = list(chain.from_iterable(pairs))
    if not set(map(type, numbers)) <= {int, float}:
        return None
    try:
        a = np.array(numbers, dtype=np.float64)
    except OverflowError:
        return None
    if not np.isfinite(a).all():
        return None
    return a.reshape(len(obj), -1, 2)


def _decode_entries(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise FormatError(f"{where}: expected a non-empty list of rows")
    rows = []
    width = None
    for r, row in enumerate(obj):
        if not isinstance(row, list):
            raise FormatError(f"{where}: row {r} is not a list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise FormatError(f"{where}: row {r} has length {len(row)}, expected {width}")
        entries = []
        for c, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in entry)
            ):
                raise FormatError(
                    f"{where}: entry ({r}, {c}) must be a [re, im] number pair"
                )
            try:
                entries.append(complex(entry[0], entry[1]))
            except OverflowError as exc:
                raise FormatError(
                    f"{where}: entry ({r}, {c}) does not fit in a double"
                ) from exc
        rows.append(entries)
    a = np.asarray(rows, dtype=np.complex128)
    _check_finite(a, f"{where}:")
    return a


@contextmanager
def _collector_paused():
    """Keep the cyclic garbage collector off while a document is decoded.

    A parsed document can be a tree of some 10^5 fresh lists, which
    trigger collections that sweep the whole tree again and again, yet
    it holds no cycle: reference counting frees it before the loader
    returns.  The collector is turned back on only if it was on.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _path(path: str) -> str:
    """``path`` itself if it is a str or an os.PathLike: open() would take
    an int, a bool included, as a file descriptor and close it."""
    if not isinstance(path, (str, os.PathLike)):
        raise StructureError(f"a path must be a str or os.PathLike, got {type(path).__name__}")
    return path


def _read_json(path: str):
    try:
        with open(_path(path), "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise FormatError(f"{where}: missing field '{key}'")
    return obj[key]


def _positive_int(x) -> bool:
    return _is_integer(x) and x >= 1


def _decode_stack(raw, where: str, count: int, refusal: str, shape=None) -> np.ndarray:
    """The list ``raw`` of ``count`` matrices as one fresh (count, r, r)
    stack, item i decoded at ``where[i]``.  Refused with the message
    ``refusal`` unless it is such a list, and at the first item whose shape
    is not ``shape``, by default the square of the first item's rows."""
    if not isinstance(raw, list) or len(raw) != count:
        raise FormatError(refusal)
    mats = []
    for i, item in enumerate(raw):
        m = decode_matrix(item, f"{where}[{i}]")
        shape = shape or (m.shape[0], m.shape[0])
        if m.shape != shape:
            raise FormatError(f"{where}[{i}]: shape {m.shape}, expected {shape}")
        mats.append(m)
    return np.array(mats)


def _check_kind(obj, path: str, kind: str) -> dict:
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: document must be a JSON object")
    found = _require(obj, "kind", path)
    if found != kind:
        raise FormatError(f"{path}: kind is '{found}', expected '{kind}'")
    return obj


def _labels(obj, where: str) -> PointSet:
    if not isinstance(obj, list) or not all(isinstance(s, str) for s in obj):
        raise FormatError(f"{where}: labels must be a list of strings")
    return PointSet(tuple(obj))


def _table_from(obj, where: str) -> TestFunctionTable:
    if not isinstance(obj, dict):
        raise FormatError(f"{where}: expected an object")
    points = _labels(_require(obj, "labels", where), f"{where}.labels")
    values = decode_matrix(_require(obj, "values", where), f"{where}.values")
    if values.shape[1] != points.n:
        raise FormatError(
            f"{where}: {values.shape[1]} value columns for {points.n} labels"
        )
    return TestFunctionTable(points, values)


def _table_doc(t: TestFunctionTable) -> dict:
    return {"labels": list(t.points.labels), "values": t.values}


@_collector_paused()
def load_table(path: str) -> TestFunctionTable:
    obj = _check_kind(_read_json(path), path, "table")
    return _table_from(obj, path)


def save_table(t: TestFunctionTable, path: str) -> None:
    doc = {"kind": "table"}
    doc.update(_table_doc(t))
    _write(doc, path)


@_collector_paused()
def load_colligation(path: str) -> Colligation:
    obj = _check_kind(_read_json(path), path, "colligation")
    value_dim = _require(obj, "value_dim", path)
    if not _positive_int(value_dim):
        raise FormatError(f"{path}: value_dim must be a positive integer")
    split = _require(obj, "split", path)
    if split is not None:
        if (
            not isinstance(split, list)
            or len(split) != 2
            or not all(_positive_int(s) for s in split)
        ):
            raise FormatError(f"{path}: split must be null or two positive integers")
        split = (split[0], split[1])
    table = _table_from(_require(obj, "table", path), f"{path}.table")
    raw = _require(obj, "projections", path)
    refusal = f"{path}: need one projection per test function ({table.m})"
    stack = _decode_stack(raw, f"{path}.projections", table.m, refusal)
    rep = _adopted(Representation, stack, split)
    blocks = {
        name: decode_matrix(_require(obj, name, path), f"{path}.{name}")
        for name in ("A", "B", "C", "D")
    }
    if blocks["A"].shape != (value_dim, value_dim):
        raise FormatError(
            f"{path}: value_dim is {value_dim} but A has shape {blocks['A'].shape}"
        )
    return _adopted(Colligation, rep, table, *blocks.values())


def save_colligation(col: Colligation, path: str) -> None:
    doc = {
        "kind": "colligation",
        "value_dim": col.value_dim,
        "split": list(col.rep.split) if col.rep.split else None,
        "table": _table_doc(col.table),
        "projections": list(col.rep.projections),
        "A": col.A,
        "B": col.B,
        "C": col.C,
        "D": col.D,
    }
    _write(doc, path)


@_collector_paused()
def load_kernel(path: str) -> HermitianKernel:
    obj = _check_kind(_read_json(path), path, "kernel")
    points = _labels(_require(obj, "labels", path), f"{path}.labels")
    block_dim = _require(obj, "block_dim", path)
    if not _positive_int(block_dim):
        raise FormatError(f"{path}: block_dim must be a positive integer")
    raw = _require(obj, "blocks", path)
    if not isinstance(raw, list) or len(raw) != points.n:
        raise FormatError(f"{path}: blocks must be an {points.n}-row grid")
    # the grid is sized from the decoded blocks, never from block_dim alone
    grid = [
        _decode_stack(row, f"{path}.blocks[{i}]", points.n,
                      f"{path}.blocks[{i}]: expected {points.n} blocks", (block_dim, block_dim))
        for i, row in enumerate(raw)
    ]
    return _adopted(HermitianKernel, points, np.array(grid))


def save_kernel(k: HermitianKernel, path: str) -> None:
    doc = {
        "kind": "kernel",
        "labels": list(k.points.labels),
        "block_dim": k.block_dim,
        "blocks": [[k.block(i, j) for j in range(k.n)] for i in range(k.n)],
    }
    _write(doc, path)


@_collector_paused()
def load_witness(path: str) -> dict[str, np.ndarray]:
    obj = _check_kind(_read_json(path), path, "witness")
    out: dict[str, np.ndarray] = {}
    for key, value in obj.items():
        if key == "kind":
            continue
        if key not in WITNESS_NAMES:
            raise FormatError(
                f"{path}: unknown witness '{key}', expected one of {WITNESS_NAMES}"
            )
        out[key] = decode_matrix(value, f"{path}.{key}")
    if not out:
        raise FormatError(f"{path}: witness document holds no matrices")
    return out


def save_witness(witnesses: dict[str, np.ndarray], path: str) -> None:
    doc: dict = {"kind": "witness"}
    for name in WITNESS_NAMES:
        if name in witnesses:
            doc[name] = _as_array(witnesses[name], f"witness {name}")
    _write(doc, path)


@_collector_paused()
def load_values(path: str) -> tuple[PointSet, np.ndarray]:
    """Per-point square function values: (points, stack of shape (n, d, d))."""
    obj = _check_kind(_read_json(path), path, "values")
    points = _labels(_require(obj, "labels", path), f"{path}.labels")
    raw = _require(obj, "values", path)
    refusal = f"{path}: need one value matrix per label"
    return points, _decode_stack(raw, f"{path}.values", points.n, refusal)


def save_values(points: PointSet, stack, path: str) -> None:
    doc = {
        "kind": "values",
        "labels": list(points.labels),
        "values": list(_as_array(stack, "values")),
    }
    _write(doc, path)


def _write(doc: dict, path: str) -> None:
    with open(_path(path), "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(doc))


def digest_file(path: str) -> str:
    with open(_path(path), "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()
