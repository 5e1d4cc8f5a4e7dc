"""Matrix interchange format: round trips and rejection of bad input."""

import json
from pathlib import Path

import numpy as np
import pytest

from commutant_lab import (
    load_matrix,
    matrix_to_payload,
    payload_to_matrix,
    random_hermitian,
    random_unitary,
    save_matrix,
)
from commutant_lab import cli
from commutant_lab.matrixfile import _GRID, _float_grid, _json_text, _payload_entries
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


# --------------------------------------------------------------------------
# The JSON writer against its oracle, the stdlib encoder
# --------------------------------------------------------------------------


def stdlib_text(value):
    return json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("n", [1, 3, 16])
@pytest.mark.parametrize("label", [None, "grid"])
def test_save_matrix_writes_the_stdlib_bytes(tmp_path, n, label):
    """The payload's keys are already sorted, so the one writer leaves the
    bytes of a matrix file as the unsorted stdlib encoder wrote them."""
    a = signed_grid(n)
    save_matrix(tmp_path / "m.json", a, label=label)
    want = json.dumps(matrix_to_payload(a, label), indent=2) + "\n"
    assert (tmp_path / "m.json").read_text() == want == stdlib_text(json.loads(want)) + "\n"


def spectrum_matrix(n, kind):
    """A generic Hermitian matrix, or one whose eigenvalues 1, -1, 2, 0
    repeat, so that its anticommutant is not zero."""
    if kind == "generic":
        return random_hermitian(n, [41, n])
    u = random_unitary(n, [42, n])
    return (u * np.resize([1.0, -1.0, 2.0, 0.0], n)) @ u.conj().T


@pytest.fixture
def written(monkeypatch, capsys, tmp_path):
    """Run CLI calls with ``--format json`` and an ``--out`` file; returns
    the report objects that ``cli`` hands its writer, after checking that
    each stdout and ``--out`` file hold the same bytes, the stdlib's text of
    its report."""
    reports = []
    write = cli._json_text
    monkeypatch.setattr(cli, "_json_text", lambda value: reports.append(value) or write(value))

    def run(*calls):
        for argv in calls:
            if "--out" not in argv:
                argv = [*argv, "--out", str(tmp_path / "written.json")]
            cli.main([*argv, "--format", "json"])
            out = Path(argv[argv.index("--out") + 1]).read_text()
            assert capsys.readouterr().out == out == stdlib_text(reports[-1]) + "\n", argv
        return reports[-len(calls):]
    return run


@pytest.mark.parametrize("kind", ["generic", "degenerate"])
@pytest.mark.parametrize("n", [4, 16])
def test_writer_matches_stdlib_on_commutant_reports(tmp_path, written, n, kind):
    path = tmp_path / "a.json"
    save_matrix(path, spectrum_matrix(n, kind))
    reports = written(*(["commutant", "--input", str(path), "--which", which]
                        for which in ("c", "anti", "cc", "quasi")))
    assert reports[3]["parts"]["anticommutant"] == (0 if kind == "generic" else 3 * (n // 4) ** 2)
    for report in reports:
        assert _json_text(report) == stdlib_text(report)


def test_writer_matches_stdlib_on_verify_reports(written):
    """The failing theorem runs nest grids in counterexample triples and
    map conjugators."""
    passing, *failing = written(["verify", "all", "--seed", "0"],
                                *(["verify", suite, "--tol-zero", "0.5", "--dims", "3",
                                   "--trials", "100"] for suite in ("theorem-4", "theorem-5")))
    assert passing["passed"] and not any(report["passed"] for report in failing)
    for report in failing:
        assert report["suites"][0]["counterexamples"][0]["triple"]["a"]["entries"]
    for report in (passing, *failing):
        assert _json_text(report) == stdlib_text(report)


def test_writer_matches_stdlib_on_search_and_replay_reports(tmp_path, written):
    save_matrix(tmp_path / "a.json", spectrum_matrix(4, "generic"))
    reports = written(["search", "necessity-f", "--out", str(tmp_path / "v.json")],
                      ["search", "lemma7-refute", "--input", str(tmp_path / "a.json"),
                       "--budget", "4"],
                      ["search", "scalar-witness", "--input", str(tmp_path / "a.json")],
                      ["replay", str(tmp_path / "v.json")])
    assert [r["kind"] for r in reports] == ["search", "search", "search", "replay"]
    for report in reports:
        assert _json_text(report) == stdlib_text(report)


EDGE_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e16]


@pytest.mark.parametrize("x", EDGE_FLOATS, ids=repr)
def test_writer_matches_stdlib_on_edge_floats(x):
    """A non-finite float sends its grid to the general walk; the others
    stay on the grid path.  Both write what the stdlib writes."""
    grid = [[[x, 1.0], [0.5, x]], [[2.0, -0.0], [x, 3.0]]]
    assert (_float_grid(grid) is not None) == np.isfinite(x)
    for value in (x, [x], (x, x), {"x": x}, {x: "key"}, grid, {"dim": 2, "entries": grid},
                  [[grid]]):
        assert _json_text(value) == stdlib_text(value)


ODD_VALUES = {
    "ragged rows": [[[1.0, 2.0]], [[1.0, 2.0], [3.0, 4.0]]],
    "short pair": [[[1.0, 2.0], [3.0]]],
    "long pair": [[[1.0, 2.0, 3.0]]],
    "int in grid": [[[1, 2.0]]],
    "bool in grid": [[[True, 2.0]]],
    "numpy float in grid": [[[np.float64(0.1), 2.0]]],
    "tuple pair in grid": [[(1.0, 2.0)]],
    "dict in grid": [[[1.0, 2.0]], {"a": 1}],
    "empty rows": [[], []],
    "empty pairs": [[[]]],
    "empty containers": {"a": [], "b": {}, "c": (), "d": [[], {}]},
    "tuples": (1, (2.5, "x"), [(None, True, False)]),
    "numbers": [0, -7, 2 ** 70, True, np.float64(1e16), np.float64(-0.0), 0.1],
    "non-ASCII strings": {"clé": "ünï\u2603\U0001f600", "\u00e9": ["\u2028"]},
    "control characters": {"\x00\x1f": "\t\n\r\x7f\"\\/", "b": "\x08\x0c"},
    "number keys": {1: "one", 2.5: "float", False: "bool"},
    "null key": {None: "null"},
}


@pytest.mark.parametrize("value", list(ODD_VALUES.values()), ids=list(ODD_VALUES))
def test_writer_matches_stdlib_on_odd_values(value):
    assert _json_text(value) == stdlib_text(value)
    assert _json_text({"entries": value}) == stdlib_text({"entries": value})


GRID = [[[1.0, -0.5], [0.25, 2.0]], [[0.25, -2.0], [3.0, 0.0]]]
STAND_IN_VALUES = {
    "value": {"label": _GRID},
    "key": {_GRID: 1.0},
    "next to a grid": {"a": GRID, "b": _GRID, "c": [GRID, [_GRID]]},
    "key next to a grid": {_GRID: GRID, "entries": GRID},
    "inside a longer string": [GRID, '"' + _GRID, _GRID + '"'],
}


@pytest.mark.parametrize("value", list(STAND_IN_VALUES.values()), ids=list(STAND_IN_VALUES))
def test_writer_matches_stdlib_where_the_stand_in_string_appears(value):
    """A grid is written as a stand-in string before its text is spliced in;
    a value that holds that string itself is still written as the stdlib
    writes it."""
    assert _json_text(value) == stdlib_text(value)
    assert _json_text({"entries": value}) == stdlib_text({"entries": value})


def test_payload_grid_takes_the_grid_path():
    for n in (1, 4):
        assert _float_grid(matrix_to_payload(signed_grid(n))["entries"]) is not None
    for name in ("ragged rows", "short pair", "int in grid", "bool in grid",
                 "numpy float in grid", "tuple pair in grid"):
        assert _float_grid(ODD_VALUES[name]) is None, name


@pytest.mark.parametrize("value", [object(), [np.int64(1)], {(1, 2): 0}, {"a": {1, 2}}],
                         ids=["object", "numpy int", "tuple key", "set"])
def test_writer_rejects_what_stdlib_rejects(value):
    with pytest.raises(TypeError) as ours:
        _json_text(value)
    with pytest.raises(TypeError) as theirs:
        stdlib_text(value)
    assert str(ours.value) == str(theirs.value)
