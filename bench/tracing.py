"""Spans around triphoton's layer functions, recorded from outside the package.

Each traced function is replaced, for the duration of a ``Tracer.installed()``
block, at every module binding that refers to it (``triphoton.experiment``
calls ``evolve_and_measure`` through its own import of the name, so patching
``triphoton.oracle`` alone would miss it).  Spans are kept in memory as
``(name, start, end, parent, request)`` and written out once, at the end.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from pathlib import Path

# (module, attribute, span name).  The attribute may be ``Class.method``.
TRACED = (
    ("cli", "load_config", "cli.load_config"),
    ("cli", "write_series", "cli.write_series"),
    ("experiment", "simulate_counts", "experiment.simulate_counts"),
    ("experiment", "DetectionCascade.click_distribution", "experiment.click_distribution"),
    ("source", "enumerate_terms", "source.enumerate_terms"),
    ("source", "heralded_ensemble", "source.heralded_ensemble"),
    ("mixedstate", "build_densities", "mixedstate.build_densities"),
    ("mixedstate", "mixed_event_distribution", "mixedstate.mixed_event_distribution"),
    ("interference", "event_distribution", "interference.event_distribution"),
    ("interference", "event_probability", "interference.event_probability"),
    ("oracle", "expand_from_vectors", "oracle.expand_from_vectors"),
    ("oracle", "evolve_and_measure", "oracle.evolve_and_measure"),
    ("modes", "gram_matrix", "modes.gram_matrix"),
    ("modes", "temporal_overlap", "modes.temporal_overlap"),
)


def _series_bytes(args, kwargs, result) -> int:
    path = kwargs["path"] if "path" in kwargs else args[1]
    return os.path.getsize(path)


# Work counts read from a traced call: counter name -> (span name, reader).
COUNTERS = {
    "oracle.fock_amplitudes": ("oracle.expand_from_vectors", lambda a, k, r: len(r.amplitudes)),
    "source.terms": ("source.enumerate_terms", lambda a, k, r: len(r)),
    "source.heralded_terms": ("source.heralded_ensemble", lambda a, k, r: len(r)),
    "experiment.points": ("experiment.simulate_counts", lambda a, k, r: len(r.x_values)),
    "cli.write_series.bytes": ("cli.write_series", _series_bytes),
}

REQUEST = "request"


class Tracer:
    """Collects spans and counters for the requests run while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {name: 0 for name in COUNTERS}
        self._stack: list[int] = []
        self._request = -1

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._request])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        readers = [(c, read) for c, (span, read) in COUNTERS.items() if span == name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            for counter, read in readers:
                self.counts[counter] += read(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of the traced functions; restore them on exit."""
        modules = [m for n, m in sys.modules.items() if n == "triphoton" or n.startswith("triphoton.")]
        patches = []  # (owner, attribute, original, wrapper)
        for module_name, attr, name in TRACED:
            owner = sys.modules[f"triphoton.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                patches.append((cls, method, original, self._wrap(original, name)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name)
            for module in modules:
                patches.extend((module, key, original, wrapper) for key, value in vars(module).items() if value is original)
        for owner, attr, _, wrapper in patches:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _ in patches:
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def request(self, request_id: int):
        """Root span of one request; every span opened inside carries its id."""
        self._request = request_id
        index = self._open(REQUEST)
        try:
            yield
        finally:
            self._close(index)
            self._request = -1

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - covered
        return out

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request in self.spans:
                record = {"name": name, "start": start - t0, "end": end - t0, "parent": parent, "request": request}
                fh.write(json.dumps(record) + "\n")
