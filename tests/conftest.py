import os
import pathlib
import sys

# One BLAS thread, as in benchmarks/workloads.py: on a small shared host,
# BLAS threads competing with another process slowed the suites by more
# than 10x, enough to trip the wall-time bounds in test_acceptance.py.
# This must run before numpy is first imported.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS"):
    os.environ[_variable] = "1"

import numpy as np  # noqa: E402
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from commutant_lab import Tolerance, random_unitary  # noqa: E402
from oracles import serial_rel_c, serial_rel_j  # noqa: E402


@pytest.fixture
def tol():
    return Tolerance()


def diag(*values) -> np.ndarray:
    return np.diag(np.asarray(values, dtype=float)).astype(complex)


def spectrum_matrix(rng, dim, values):
    v = random_unitary(dim, rng)
    m = (v * np.asarray(values, dtype=float)) @ v.conj().T
    return (m + m.conj().T) / 2.0


def strip_elapsed(obj):
    """A report without its ``elapsed_seconds`` fields, at every depth."""
    if isinstance(obj, dict):
        return {k: strip_elapsed(v) for k, v in obj.items() if k != "elapsed_seconds"}
    if isinstance(obj, list):
        return [strip_elapsed(v) for v in obj]
    return obj


SWAP2 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def exact_flip(index, x, y) -> tuple[Tolerance, Tolerance]:
    """The two consecutive ``rel_zero`` values around ``norm / max(1, scale)``
    at which the serial oracle of ``rel_stack`` verdict ``index`` (0:
    ``serial_rel_c``, 1: ``serial_rel_j``) changes its verdict on (x, y):
    it fails at the first and holds at the second."""
    oracle = (serial_rel_c, serial_rel_j)[index]
    product = x @ y + (-1) ** (index + 1) * (y @ x)
    r = float(np.linalg.norm(product) / max(1.0, np.linalg.norm(x) * np.linalg.norm(y)))
    while oracle(x, y, Tolerance(rel_zero=r)):
        r = float(np.nextafter(r, 0.0))
    while not oracle(x, y, Tolerance(rel_zero=r)):
        r = float(np.nextafter(r, np.inf))
    return Tolerance(rel_zero=float(np.nextafter(r, 0.0))), Tolerance(rel_zero=r)
