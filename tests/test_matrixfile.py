"""Matrix interchange format: round trips and rejection of bad input."""

import json

import numpy as np
import pytest

from commutant_lab import (
    load_matrix,
    matrix_to_payload,
    payload_to_matrix,
    random_hermitian,
    save_matrix,
)


def test_round_trip(tmp_path):
    a = random_hermitian(4, 0)
    path = tmp_path / "a.json"
    save_matrix(path, a, label="sample")
    back = load_matrix(path)
    assert np.allclose(back, a, atol=1e-15)
    payload = json.loads(path.read_text())
    assert payload["dim"] == 4
    assert payload["label"] == "sample"
    assert payload["entries"][0][1] == [a[0, 1].real, a[0, 1].imag]


def test_payload_round_trip():
    a = random_hermitian(3, 1)
    assert np.allclose(payload_to_matrix(matrix_to_payload(a)), a)


def test_rejects_non_hermitian(tmp_path):
    path = tmp_path / "bad.json"
    payload = {"dim": 2, "entries": [[[0.0, 0.0], [1.0, 0.0]], [[0.5, 0.0], [0.0, 0.0]]]}
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="not Hermitian"):
        load_matrix(path)


def test_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="field 'entries' must hold 3 rows, got 2"):
        payload_to_matrix({"dim": 3, "entries": [[[0.0, 0.0]] * 2] * 2})


def test_rejects_missing_keys():
    with pytest.raises(ValueError, match="field 'dim' is missing"):
        payload_to_matrix({"entries": []})


def test_rejects_unreadable(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="unreadable"):
        load_matrix(path)


def test_symmetrizes_within_tolerance(tmp_path):
    a = random_hermitian(3, 2)
    a[0, 1] += 1e-12  # below the 1e-9 file tolerance
    path = tmp_path / "near.json"
    path.write_text(json.dumps(matrix_to_payload(a)))
    back = load_matrix(path)
    assert np.linalg.norm(back - back.conj().T) == 0.0


def test_rejects_non_object_document(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[[1, 0], [0, 1]]")
    with pytest.raises(ValueError) as info:
        load_matrix(path)
    assert str(info.value) == f"{path}: the document must be an object, got an array"
