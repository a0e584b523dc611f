"""Span tracer for the library's layers, installed from outside the package.

``LAYER_TABLE`` lists (module, attribute, layer, meter): each attribute is
replaced by a wrapper on the module (or class) where its callers look it up,
so no file under ``src/`` changes.  An attribute that no longer exists is
reported as "layer not present" instead of failing the run.

A span is (layer, parent span, start, end).  A layer's self time is the sum
over its spans of the duration minus the direct children's durations.
``calls`` counts entries into a layer, i.e. spans whose parent belongs to
another layer, so nested helpers of one layer are not counted twice.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

CLIENT = "client"  # root span of one benchmark call; spans below it share its id


def _nbytes(x) -> int:
    return int(getattr(x, "nbytes", 0))


def _spectrum(tracer, stats, args, result):
    n = len(args[0])
    stats["dim_max"] = max(stats.get("dim_max", 0), n)
    stats["n3_sum"] = stats.get("n3_sum", 0) + n**3


def _reduce_bytes(tracer, stats, args, result):
    # computed from array sizes: the operand read plus the reduced state written
    stats["bytes"] = stats.get("bytes", 0) + _nbytes(args[0]) + _nbytes(result)


def _compose_bytes(tracer, stats, args, result):
    stats["bytes"] = stats.get("bytes", 0) + _nbytes(result.density)


def _trials(tracer, stats, args, result):
    stats["trials"] = stats.get("trials", 0) + int(args[0].trials)


class _StateKeys:
    """Content digest of a pure state; identity for anything without amplitudes.

    Requests on one state come back to back, so only the last key is kept.
    Networks are keyed by object: each call composes a fresh one, and hashing
    a dense network density would cost more than the call.
    """

    def __init__(self):
        self._last = None
        self._last_key = None
        self._objects = 0

    def __call__(self, state):
        if state is self._last:
            return self._last_key
        amps = getattr(state, "amplitudes", None)
        if amps is None:
            self._objects += 1  # a serial, since id() values are reused after collection
            key = ("object", self._objects)
        else:
            h = hashlib.blake2b(digest_size=16)
            h.update(repr(tuple(state.dims)).encode())
            h.update(np.ascontiguousarray(amps).tobytes())
            key = h.digest()
        self._last, self._last_key = state, key
        return key


def _request(sites_of):
    def meter(tracer, stats, args, result):
        stats["spectrum_requests"] = stats.get("spectrum_requests", 0) + 1
        tracer.request_keys.add((tracer.state_key(args[0]), sites_of(args)))
    return meter


_SITES = _request(lambda a: tuple(a[1]))
_CUT_B = _request(lambda a: ("pt",) + tuple(a[1].side_b))
_PARTY_CUT = _request(lambda a: ("net",) + tuple(a[1].side_a))

# (module, attribute, layer, meter); see the module docstring.
LAYER_TABLE = (
    ("entpoly.search", "haar_random", "states.construct", None),
    ("entpoly.states", "generalized_ghz3", "states.construct", None),
    ("entpoly.states", "star4", "states.construct", None),
    ("entpoly.states", "ghz", "states.construct", None),
    ("entpoly.search", "state_to_dict", "states.serialize", None),
    ("entpoly.states", "compose_network", "states.compose", _compose_bytes),
    ("entpoly.measures", "reduced_of_pure", "tensor.reduce", _reduce_bytes),
    ("entpoly.states", "partial_trace", "tensor.reduce", _reduce_bytes),
    ("entpoly.measures", "partial_transpose", "tensor.transpose", None),
    ("entpoly.measures", "hermitian_eigenvalues", "tensor.spectrum", _spectrum),
    ("entpoly.entropies", "hermitian_eigenvalues", "tensor.spectrum", _spectrum),
    ("entpoly.measures", "density_spectrum", "entropies", None),
    ("entpoly.entropies", "EntropyParams.of_spectrum", "entropies", None),
    ("entpoly.search", "marginal_vector", "measures", None),
    ("entpoly.inequalities", "marginal_vector", "measures", None),
    ("entpoly.inequalities", "cut_spectrum", "measures", None),
    ("entpoly.inequalities", "value_from_spectrum", "measures", None),
    ("entpoly.inequalities", "measure_pure", "measures", None),
    ("entpoly.measures", "site_spectra", "measures", None),
    ("entpoly.measures", "cut_spectrum", "measures", None),
    ("entpoly.measures", "sites_spectrum", "measures", _SITES),
    ("entpoly.measures", "_negativity", "measures", _CUT_B),
    ("entpoly.measures", "value_from_spectrum", "measures", None),
    ("entpoly.measures", "network_marginal_vector", "measures", None),
    ("entpoly.measures", "measure_network", "measures", _PARTY_CUT),
    ("entpoly.inequalities", "tau_indicator", "inequalities", None),
    ("entpoly.inequalities", "tau_hat_indicator", "inequalities", None),
    ("entpoly.search", "fuzz_polygon", "search", _trials),
)

LAYERS = ("states.construct", "states.serialize", "states.compose", "tensor.reduce",
          "tensor.transpose", "tensor.spectrum", "entropies", "measures",
          "inequalities", "search")

# Extra counters each layer reports next to calls and self_s, with units.
LAYER_EXTRAS = {
    "states.compose": {"bytes": "B"},
    "tensor.reduce": {"bytes": "B"},
    "tensor.spectrum": {"dim_max": "count", "n3_sum": "count"},
    "measures": {"spectrum_requests": "count", "spectrum_unique_ratio": "ratio"},
    "search": {"trials": "count"},
}


def _resolve(module: str, attr: str):
    """(owner, name) for ``module`` plus a dotted attribute, or None if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, name):
        return None
    return owner, name


class Tracer:
    """Installs the layer wrappers and records spans while ``active``."""

    def __init__(self, table=LAYER_TABLE):
        self.table = table
        self.layer_names = [CLIENT, *LAYERS]
        self._layer_id = {name: i for i, name in enumerate(self.layer_names)}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.stats = {name: {} for name in self.layer_names}
        self.request_keys: set = set()
        self.state_key = _StateKeys()
        self.active = False
        self.present: list[tuple[str, str]] = []
        self.absent: list[tuple[str, str]] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module, attr, layer, meter in self.table:
            found = _resolve(module, attr)
            if found is None:
                self.absent.append((module, attr))
                continue
            owner, name = found
            self._saved.append((owner, name, inspect.getattr_static(owner, name)))
            setattr(owner, name, self._wrap(getattr(owner, name), layer, meter))
            self.present.append((module, attr))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def _open(self, layer_id: int) -> int:
        idx = len(self.start)
        self.layer.append(layer_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, layer: str, meter):
        layer_id = self._layer_id[layer]
        stats = self.stats[layer]

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(layer_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if meter is not None:
                meter(self, stats, args, result)
            return result

        return traced

    def call(self, fn):
        """Run one benchmark call under a client root span, recording its layers."""
        idx = self._open(0)
        self.active = True
        try:
            return fn()
        finally:
            self.active = False
            self._close(idx)

    def spans(self):
        """Span arrays: layer id, parent index (-1 for a root), start, end."""
        return (np.asarray(self.layer, dtype=np.int32), np.asarray(self.parent, dtype=np.int32),
                np.asarray(self.start, dtype=np.float64), np.asarray(self.end, dtype=np.float64))

    def self_times(self) -> np.ndarray:
        """Per-span duration minus the durations of its direct children."""
        layer, parent, start, end = self.spans()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur - child

    def nesting_errors(self) -> int:
        """Spans that start before or end after their parent, or have negative self time."""
        layer, parent, start, end = self.spans()
        has_parent = parent >= 0
        p = parent[has_parent]
        outside = (start[has_parent] < start[p]) | (end[has_parent] > end[p])
        return int(np.count_nonzero(outside) + np.count_nonzero(self.self_times() < -1e-12))

    def summary(self) -> dict:
        """Per layer: calls, self_s and the layer's extra counters."""
        layer, parent, _, _ = self.spans()
        selfs = self.self_times()
        parent_layer = np.where(parent >= 0, layer[np.maximum(parent, 0)], -1)
        entries = layer != parent_layer
        present = {CLIENT} | {row[2] for row in self.table if (row[0], row[1]) in self.present}
        out = {}
        for lid, name in enumerate(self.layer_names):
            mine = layer == lid
            row = {"present": name in present,
                   "calls": int(np.count_nonzero(mine & entries)),
                   "self_s": float(np.sum(selfs[mine]))}
            for key in LAYER_EXTRAS.get(name, {}):
                row[key] = self.stats[name].get(key, 0)
            if name == "measures":
                req = row["spectrum_requests"]
                row["spectrum_unique_ratio"] = len(self.request_keys) / req if req else 0.0
            out[name] = row
        return out
