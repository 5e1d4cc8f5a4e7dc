"""Text interchange format for Hermitian matrices.

A matrix file is JSON with explicit real/imaginary pairs so fixtures and
counterexample archives stay diffable:

    {"dim": n, "label": "...", "entries": [[[re, im], ...], ...]}

Files failing the Hermitian check (1e-9 relative) are rejected on load.

This module also owns the reading of every JSON input of the package
(matrix files, replayed records, saved reports): :func:`_read_json` names
a file it cannot parse, and :func:`_field` and :func:`_payload_entries`
raise ValueError naming the path of the first malformed field, such as
``triple.a.entries[0]`` or ``map.conjugator.dim``.  It also owns the one
JSON writer, :func:`_json_text`, through which matrix files and every
report are written: ``json.dumps`` writes the text, and only the grids of
finite floats are written here and spliced in.
"""

from __future__ import annotations

import functools
import json
import math
from itertools import chain
from pathlib import Path

import numpy as np

from .hermitian import as_hermitian

__all__ = ["load_matrix", "matrix_to_payload", "payload_to_matrix", "save_matrix"]

HERMITIAN_FILE_TOLERANCE = 1e-9
# The Python types json.loads gives JSON numbers (booleans are JSON booleans).
_NUMBERS = {int, float}
_REQUIRED = object()  # the default of a field that must be present


def matrix_to_payload(m: np.ndarray, label: str | None = None) -> dict:
    """JSON-ready dict for one matrix; one numpy call converts the grid."""
    m = np.asarray(m, dtype=complex)
    payload = {"dim": int(m.shape[0]), "entries": np.stack([m.real, m.imag], axis=-1).tolist()}
    if label is not None:
        payload["label"] = label
    return payload


_INDENT = "  "
_GRID = "\x00float grid\x00"  # what a grid is written as before its text is spliced in
_GRID_TEXT = json.dumps(_GRID)


def _json_text(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte.

    The stdlib writes the text, except for each grid of finite floats (a
    matrix payload's ``entries``): the walk puts a stand-in string in its
    place, and the grid's text, written with one ``%`` formatting call, is
    spliced in where the stand-in's text appears.  The walk visits dict
    items in sorted order, so the grids are spliced in the order they are
    written.  A value that holds the stand-in string itself is written by
    the stdlib alone.  The walk does not detect a value that contains itself.
    """
    grids = []

    def walk(item, level):
        if isinstance(item, dict):
            return {key: walk(x, level + 1) for key, x in sorted(item.items())}
        if isinstance(item, (list, tuple)) and item:
            floats = _float_grid(item)
            if floats is None:
                return [walk(x, level + 1) for x in item]
            grids.append(_grid_template(len(item), len(item[0]), level) % floats)
            return _GRID
        return item

    parts = json.dumps(walk(value, 0), indent=2, sort_keys=True).split(_GRID_TEXT)
    if len(parts) != len(grids) + 1:
        return json.dumps(value, indent=2, sort_keys=True)
    return parts[0] + "".join(chain.from_iterable(zip(grids, parts[1:])))


def _block(items: list[str], level: int) -> str:
    """The text of a nonempty JSON array of item texts opened at ``level``,
    as ``json.dumps`` writes it with ``indent=2``."""
    inner = "\n" + _INDENT * (level + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + _INDENT * level + "]"


def _float_grid(rows) -> tuple | None:
    """The floats of ``rows``, in order, if it is a rows x cols x 2 grid of
    finite Python floats (a matrix payload's ``entries``); else None.  Every
    check runs at C speed."""
    if type(rows[0]) is not list or set(map(type, rows)) != {list} \
            or len(set(map(len, rows))) != 1:
        return None
    pairs = list(chain.from_iterable(rows))
    if set(map(type, pairs)) != {list} or set(map(len, pairs)) != {2}:
        return None
    floats = tuple(chain.from_iterable(pairs))
    if set(map(type, floats)) != {float} or not all(map(math.isfinite, floats)):
        return None
    return floats


@functools.lru_cache(maxsize=64)
def _grid_template(rows: int, cols: int, level: int) -> str:
    """The text of a rows x cols x 2 grid opened at ``level``, with a ``%r``
    field for each float, which writes ``float.__repr__(x)`` as json does."""
    pair = _block(["%r", "%r"], level + 2)
    return _block([_block([pair] * cols, level + 1)] * rows, level)


def _json_type(value) -> str:
    """The JSON type of a parsed value, with its article."""
    if isinstance(value, bool):
        return "a boolean"
    if isinstance(value, (int, float)):
        return "a number"
    return {dict: "an object", list: "an array", str: "a string"}.get(type(value), "null")


def _checked(value, kind: str, label: str):
    """``value`` if it is JSON of type ``kind`` (as :func:`_json_type` names
    it); else ValueError naming the field ``label`` ("" for a document)."""
    if _json_type(value) != kind:
        field = f"field {label!r}" if label else "the document"
        raise ValueError(f"{field} must be {kind}, got {_json_type(value)}")
    return value


def _path(where: str, name: str) -> str:
    return f"{where}.{name}" if where else name


def _field(payload: dict, name: str, kind: str, where: str = "", default=_REQUIRED):
    """``payload[name]``, checked by :func:`_checked`; ``where`` is the path
    of ``payload``.  A missing field gives ``default``, or ValueError naming
    its path when no default is given."""
    label = _path(where, name)
    if name not in payload:
        if default is not _REQUIRED:
            return default
        raise ValueError(f"field {label!r} is missing")
    return _checked(payload[name], kind, label)


def _payload_entries(payload: dict, where: str = "") -> np.ndarray:
    """The complex entry grid of the matrix payload at path ``where``,
    checked against its ``dim`` row by row and pair by pair (ValueError
    naming the first malformed field), then converted in one call."""
    _checked(payload, "an object", where)
    dim = _field(payload, "dim", "a number", where)
    if isinstance(dim, float) or dim < 1:
        raise ValueError(f"field {_path(where, 'dim')!r} must be a positive integer, got {dim!r}")
    rows, label = _field(payload, "entries", "an array", where), _path(where, "entries")
    if len(rows) != dim:
        raise ValueError(f"field {label!r} must hold {dim} rows, got {len(rows)}")
    for i, row in enumerate(rows):
        if type(row) is not list or len(row) != dim:
            got = f"an array of {len(row)}" if type(row) is list else _json_type(row)
            raise ValueError(f"field '{label}[{i}]' must be an array of {dim} [re, im] pairs, "
                             f"got {got}")
        for j, pair in enumerate(row):
            if type(pair) is not list or len(pair) != 2 or not set(map(type, pair)) <= _NUMBERS:
                raise ValueError(f"field '{label}[{i}][{j}]' must be a [re, im] pair of "
                                 f"numbers, got {json.dumps(pair)}")
    return np.array(rows, dtype=float).view(complex)[..., 0]


def payload_to_matrix(payload: dict, where: str = "") -> np.ndarray:
    """The symmetrized matrix of the payload at path ``where``, validated."""
    return as_hermitian(_payload_entries(payload, where), rel=HERMITIAN_FILE_TOLERANCE)


def save_matrix(path, m: np.ndarray, label: str | None = None) -> None:
    Path(path).write_text(_json_text(matrix_to_payload(m, label)) + "\n")


def _read_json(path):
    """The JSON document of a file; ValueError naming a file that is unreadable or not JSON."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # JSONDecodeError and UnicodeDecodeError included
        raise ValueError(f"unreadable JSON file {path}: {exc}") from exc


def load_matrix(path) -> np.ndarray:
    """The validated matrix of a matrix file; ValueError naming the file."""
    payload = _read_json(path)
    try:
        return payload_to_matrix(payload)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
