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
from commutant_lab.matrixfile import _payload_entries
from oracles import per_entry_payload


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


@pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe\x00", None],
                         ids=["not JSON", "not UTF-8", "missing"])
def test_unreadable_file_is_named(tmp_path, content):
    path = tmp_path / "junk.json"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(ValueError) as info:
        load_matrix(path)
    assert str(info.value).startswith(f"unreadable JSON file {path}: ")


def signed_grid(n):
    """A Hermitian grid with integer-valued diagonal entries, a negative
    zero on the diagonal and a negative-zero imaginary part off it."""
    a = random_hermitian(n, [40, n])
    a[np.diag_indices(n)] = np.arange(n) - n // 2
    a[0, 0] = complex(-0.0, 0.0)
    if n > 1:
        a[0, -1], a[-1, 0] = complex(3.0, -0.0), complex(3.0, 0.0)
    return a


@pytest.mark.parametrize("n", [1, 3, 16, 32])
def test_payload_equals_the_per_entry_writer(n):
    """One numpy conversion gives the floats, and so the JSON bytes, of a
    conversion entry by entry, negative zeros and integer values included."""
    a = signed_grid(n)
    payload = matrix_to_payload(a, label="grid")
    assert json.dumps(payload, indent=2) == json.dumps(per_entry_payload(a, label="grid"),
                                                       indent=2)
    assert all(type(x) is float for row in payload["entries"] for pair in row for x in pair)
    assert payload["entries"][0][0] == [-0.0, 0.0] and str(payload["entries"][0][0][0]) == "-0.0"


@pytest.mark.parametrize("n", [1, 3, 16, 32])
def test_read_grid_is_the_written_grid(n):
    """The checked rows convert to the very entries that were written."""
    a = signed_grid(n)
    back = _payload_entries(json.loads(json.dumps(matrix_to_payload(a))))
    assert back.shape == (n, n) and back.tobytes() == a.tobytes()


def test_integer_entries_are_read_as_floats():
    back = _payload_entries({"dim": 2, "entries": [[[1, 0], [2, -3]], [[2, 3], [-1, 0]]]})
    want = np.array([[1, 2 - 3j], [2 + 3j, -1]])
    assert back.dtype == complex and back.tobytes() == want.tobytes()


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
