"""Span recorder for the traced benchmark run.

The tracer wraps the public functions of each layer of ``commutant_lab``
in place, at every module of the package that holds a reference to them:
``from .commutant import bicommutant`` gives ``suites`` and ``spectral``
their own name for the function, so patching only the defining module
would miss those callers.  Each wrapped call records one span (name,
start, end, parent) in flat in-memory arrays; per-layer metrics are
derived from the spans after the run, and :meth:`Tracer.uninstall`
restores every original.  Untraced runs never construct a tracer, so the
package stays untouched.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from array import array
from pathlib import Path

import numpy as np

PACKAGE = "commutant_lab"
LAYERS = ("hermitian", "spectral", "commutant", "preservers", "suites", "matrixfile", "cli")

# Frobenius norms run about a million times in a verify-all pass; they are
# counted, not spanned, so their time stays in the caller's self time.
COUNTED_ONLY = {"hermitian.frobenius"}

RELATION_SPANS = ("hermitian.rel_c", "hermitian.rel_j", "hermitian.rel_q",
                  "hermitian.triadic_relation", "hermitian.commutator",
                  "hermitian.jordan_product")
SAMPLE_SPANS = ("hermitian.random_hermitian", "hermitian.random_unitary",
                "hermitian.random_projection", "hermitian.random_scalar",
                "hermitian.sample")
ORACLE_SPANS = ("spectral.lemma18_minimality", "spectral.lemma181_oracle")
COMPARE_SPANS = ("commutant.subspace_leq", "commutant.subspace_eq",
                 "commutant.subspace_proper_lt")
FROM_PAYLOAD_SPANS = ("matrixfile.payload_to_matrix", "matrixfile.load_matrix")


def _subspace_size(args, result):
    return (int(np.asarray(args[0]).shape[0]), result.real_dimension)


# Per-span attributes kept for the computed counts.
ATTRIBUTES = {
    "commutant.commutant": _subspace_size,
    "commutant.anticommutant": _subspace_size,
    "commutant.bicommutant": _subspace_size,
    "commutant.refute_biquasi_membership": lambda args, result: result is not None,
    "suites.run_suite": lambda args, result: result["name"],
}


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_bytes"):
        return "B"
    return "count"


def layer_functions() -> dict[str, object]:
    """Public functions of every layer, keyed ``layer.function``.

    A layer's public functions are those in its ``__all__`` that it defines
    itself; ``cli`` has no ``__all__`` and is entered through ``main``.
    """
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        names = getattr(module, "__all__", ("main",))
        for name in names:
            fn = getattr(module, name)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                found[f"{layer}.{name}"] = fn
    return found


class Tracer:
    """In-memory span store plus the patching that feeds it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.attributes: dict[int, object] = {}
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block of the benchmark's own code."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        if name in COUNTED_ONLY:
            self.counts[name] = 0
            counts = self.counts

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        name_id = self._name_id(name)
        attribute = ATTRIBUTES.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if attribute is not None:
                self.attributes[idx] = attribute(args, result)
            return result

        return spanned

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Replace every reference to a layer function inside the package."""
        functions = layer_functions()
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in functions.items()}
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def save(self, path: Path, environment: dict) -> None:
        """Write every span, the name table and the counters to ``path`` (.npz)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, **self.arrays(),
            names=np.array(self.names),
            meta=np.array(json.dumps({"counts": self.counts, "environment": environment})),
        )

    def layer_metrics(self, passes: int, report_bytes: int,
                      suite_names: tuple[str, ...]) -> dict[str, float]:
        """Per-layer metrics per traced pass, derived from the spans.

        ``_calls`` and the computed counts are exact; ``_s`` is self time
        (span duration minus the duration of its direct children), except
        ``suites.<suite>_s``, which is the whole suite run, children
        included, so that the suites break a pass down.
        ``refute_hit_ratio`` is witnesses found per refutation call (0 when
        there are no calls).
        """
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        duration = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent],
                            minlength=name.size)
        self_time = duration - child

        def mask(*names):
            ids = [i for i, n in enumerate(self.names) if n in names]
            return np.isin(name, ids)

        def calls(*names):
            return int(mask(*names).sum())

        def self_s(*names):
            return float(self_time[mask(*names)].sum())

        def layer_self(layer):
            return self_s(*(n for n in self.names if n.startswith(layer + ".")))

        def kernel_entries(idx):
            if idx not in self.attributes:  # the solve raised
                return 0
            n, k = self.attributes[idx]
            if self.names[name[idx]] == "commutant.bicommutant":
                # k is the dimension of the commutant solved inside this call.
                inner = np.flatnonzero((parent == idx) & commutants)[0]
                k = self.attributes[int(inner)][1]
                return 2 * k * n**4
            return 2 * n**4

        def under_oracle(idx):
            idx = int(parent[idx])
            while idx >= 0:
                if oracles[idx]:
                    return True
                idx = int(parent[idx])
            return False

        commutants = mask("commutant.commutant")
        oracles = mask(*ORACLE_SPANS)
        solves = np.flatnonzero(mask("commutant.commutant", "commutant.anticommutant",
                                     "commutant.bicommutant"))
        refutes = np.flatnonzero(mask("commutant.refute_biquasi_membership"))
        witnesses = sum(bool(self.attributes[int(i)]) for i in refutes)
        runs = np.flatnonzero(mask("suites.run_suite"))

        m = {
            "hermitian.rel_calls": calls("hermitian.rel_c", "hermitian.rel_j"),
            "hermitian.rel_s": self_s(*RELATION_SPANS),
            "hermitian.norm_calls": self.counts.get("hermitian.frobenius", 0),
            "hermitian.sample_calls": calls(*SAMPLE_SPANS),
            "hermitian.sample_s": self_s(*SAMPLE_SPANS),
            "spectral.decompose_calls": calls("spectral.spectral_decompose"),
            "spectral.decompose_s": self_s("spectral.spectral_decompose"),
            "spectral.oracle_calls": calls(*ORACLE_SPANS),
            "spectral.oracle_s": self_s(*ORACLE_SPANS),
            "spectral.oracle_candidates": sum(
                under_oracle(i) for i in np.flatnonzero(mask("commutant.bicommutant"))),
            "commutant.commutant_calls": calls("commutant.commutant"),
            "commutant.commutant_s": self_s("commutant.commutant"),
            "commutant.anticommutant_calls": calls("commutant.anticommutant"),
            "commutant.anticommutant_s": self_s("commutant.anticommutant"),
            "commutant.bicommutant_calls": calls("commutant.bicommutant"),
            "commutant.bicommutant_s": self_s("commutant.bicommutant"),
            "commutant.kernel_entries": sum(kernel_entries(int(i)) for i in solves),
            "commutant.refute_calls": int(refutes.size),
            "commutant.refute_s": self_s("commutant.refute_biquasi_membership"),
            "commutant.refute_hit_ratio": witnesses / refutes.size if refutes.size else 0.0,
            "commutant.compare_s": self_s(*COMPARE_SPANS),
            "preservers.triples": calls("preservers.check_triadic"),
            "preservers.apply_map_calls": calls("preservers.apply_map"),
            "preservers.apply_map_s": self_s("preservers.apply_map"),
            "preservers.check_triadic_s": self_s("preservers.check_triadic"),
            "preservers.property_run_s": self_s("preservers.property_run"),
            "preservers.lemma4_s": self_s("preservers.lemma4_check"),
            "matrixfile.to_payload_calls": calls("matrixfile.matrix_to_payload"),
            "matrixfile.to_payload_s": self_s("matrixfile.matrix_to_payload"),
            "matrixfile.from_payload_s": self_s(*FROM_PAYLOAD_SPANS),
            "matrixfile.report_bytes": report_bytes,
        }
        m["commutant.kernel_bytes"] = 8 * m["commutant.kernel_entries"]
        for suite in suite_names:
            m[f"suites.{suite}_s"] = float(sum(duration[i] for i in runs
                                               if self.attributes[int(i)] == suite))
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self(layer)
        return {key: value if key.endswith("_ratio") else value / passes
                for key, value in m.items()}
