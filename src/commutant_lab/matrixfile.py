"""Text interchange format for Hermitian matrices.

A matrix file is JSON with explicit real/imaginary pairs so fixtures and
counterexample archives stay diffable:

    {"dim": n, "label": "...", "entries": [[[re, im], ...], ...]}

Files failing the Hermitian check (1e-9 relative) are rejected on load.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .hermitian import as_hermitian

__all__ = ["load_matrix", "matrix_to_payload", "payload_to_matrix", "save_matrix"]

HERMITIAN_FILE_TOLERANCE = 1e-9


def matrix_to_payload(m: np.ndarray, label: str | None = None) -> dict:
    """JSON-ready dict for one matrix."""
    m = np.asarray(m, dtype=complex)
    payload = {
        "dim": int(m.shape[0]),
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in m],
    }
    if label is not None:
        payload["label"] = label
    return payload


def _payload_entries(payload: dict) -> np.ndarray:
    """The complex entry grid of a payload, checked against its ``dim``."""
    if not isinstance(payload, dict) or "dim" not in payload or "entries" not in payload:
        raise ValueError("matrix payload needs 'dim' and 'entries'")
    try:
        dim = int(payload["dim"])
        rows = payload["entries"]
        if len(rows) != dim or any(len(row) != dim for row in rows):
            raise ValueError(f"entry grid does not match dim={dim}")
        return np.array([[complex(re, im) for re, im in row] for row in rows])
    except TypeError as exc:  # e.g. a number where a row or a [re, im] pair belongs
        raise ValueError(f"malformed matrix payload: {exc}") from None


def payload_to_matrix(payload: dict) -> np.ndarray:
    """Validate a payload dict and return the (symmetrized) matrix."""
    return as_hermitian(_payload_entries(payload), rel=HERMITIAN_FILE_TOLERANCE)


def save_matrix(path, m: np.ndarray, label: str | None = None) -> None:
    Path(path).write_text(json.dumps(matrix_to_payload(m, label), indent=2) + "\n")


def load_matrix(path) -> np.ndarray:
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"unreadable matrix file {path}: {exc}") from exc
    return payload_to_matrix(payload)
