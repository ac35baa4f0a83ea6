"""Span tracing of the graph_deconv layers, installed from outside the library.

The layers are the package's modules. ``Tracer.install`` replaces every public
module-level function of each layer module with a timing wrapper, in every
``graph_deconv`` module namespace that binds it, so calls made from inside
``run_simulation`` and the CLI are seen too. ``Tracer.uninstall`` puts the
original functions back. While ``Tracer.active`` is false a wrapper only
forwards the call, so checks made between traced operations are not counted.

Spans are kept in memory as ``(op, parent, key, start, end)`` tuples, where
``key`` is ``"<layer>.<function>"`` and ``parent`` the index of the enclosing
span (-1 at the top). ``write`` saves them at the end of a run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import os
import statistics
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("spectral", "channel", "covariance", "estimation", "deconv", "io", "simulate", "cli")

# Per-element scalar helpers: wrapping them would time the wrapper, not the work.
UNTRACED = frozenset({"sign_of", "normalize_edge"})

SETUP_OP = -1

# Calls whose arguments and result the benchmark derives counters from.
CAPTURED = ("covariance.build_observation_graph", "estimation.assign_signs")


def _gft_flops(args, kwargs):
    m, n = args[1].signals.shape
    return 2 * m * n * n


def _cov_flops(args, kwargs):
    m, n = args[0].signals.shape
    return m * n * n


# Operation counts computed from argument shapes, not measured: key -> (metric, count).
FLOPS = {
    "spectral.gft": ("spectral.gft_flops", _gft_flops),
    "covariance.empirical_covariance": ("covariance.cov_flops", _cov_flops),
}


def _file_bytes(args, kwargs) -> int:
    total = 0
    for value in (*args, *kwargs.values()):
        if isinstance(value, (str, os.PathLike)) and os.path.isfile(value):
            total += os.path.getsize(value)
    return total


def io_kind(key: str) -> str | None:
    """``"read"`` or ``"write"`` for file functions of the io layer, else None."""
    layer, name = key.split(".", 1)
    if layer != "io":
        return None
    if name.startswith("read_") or name == "load_raw_dataset":
        return "read"
    if name.startswith("write_"):
        return "write"
    return None


class Tracer:
    def __init__(self):
        self.active = False
        self.op = SETUP_OP
        self.spans: list[tuple | None] = []
        self.flops: dict[int, int] = {}
        self.bytes_read: dict[int, int] = {}
        self.bytes_written: dict[int, int] = {}
        self.captured: dict[str, tuple] = {}
        self._stack = [-1]
        self._patches: list[tuple] = []

    def _wrap(self, key: str, fn):
        flops = FLOPS.get(key, (None, None))[1]
        kind = io_kind(key)
        capture = key in CAPTURED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1]
            self._stack.append(sid)
            if flops is not None:
                self.flops[sid] = flops(args, kwargs)
            if kind == "read":
                self.bytes_read[sid] = _file_bytes(args, kwargs)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[sid] = (self.op, parent, key, start, end)
            if kind == "write":
                self.bytes_written[sid] = _file_bytes(args, kwargs)
            if capture:
                self.captured[key] = (args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the layer functions in every loaded graph_deconv namespace."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"graph_deconv.{layer}")
            for name, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not name.startswith("_")
                    and name not in UNTRACED
                ):
                    wrappers[value] = self._wrap(f"{layer}.{name}", value)
        namespaces = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "graph_deconv" or name.startswith("graph_deconv."))
        ]
        for module in namespaces:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((module, name, value))
                    setattr(module, name, wrappers[value])

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def write(self, path) -> None:
        """Save every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for sid, (op, parent, key, start, end) in enumerate(self.spans):
                fh.write(json.dumps([sid, op, parent, key, start, end]) + "\n")


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


# Inclusive time of one function, as seconds per traced op.
FUNCTION_TIMES = {
    "covariance.build_observation_graph_s": "covariance.build_observation_graph",
    "covariance.build_source_graph_s": "covariance.build_source_graph",
    "covariance.bound_mc_s": "covariance.validate_bound_monte_carlo",
    "covariance.empirical_covariance_s": "covariance.empirical_covariance",
    "estimation.assign_signs_s": "estimation.assign_signs",
    "estimation.estimate_magnitudes_s": "estimation.estimate_magnitudes",
    "simulate.transmit_s": "simulate.transmit",
    "simulate.simulation_graph_s": "simulate.simulation_graph",
    "spectral.eigendecompose_s": "spectral.eigendecompose",
    "spectral.gft_s": "spectral.gft",
    "io.load_raw_dataset_s": "io.load_raw_dataset",
    "deconv.blind_deconvolve_s": "deconv.blind_deconvolve",
}

# Inclusive time of one function during the traced set-up.
SETUP_TIMES = {
    "covariance.build_source_graph_setup_s": "covariance.build_source_graph",
    "spectral.eigendecompose_setup_s": "spectral.eigendecompose",
    "simulate.simulation_graph_setup_s": "simulate.simulation_graph",
    "simulate.write_bundle_setup_s": "simulate.write_bundle",
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers from the spans: medians over traced ops of per-op sums.

    A span's self time is its duration minus the durations of its child
    spans; a layer's self time is the sum over its spans. Calls in one thread
    nest, so child spans never overlap.
    """
    spans = tracer.spans
    child_time = defaultdict(float)
    for op, parent, key, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start

    per_op: dict[int, defaultdict] = defaultdict(lambda: defaultdict(float))
    gft_flops = gft_self = 0.0
    for sid, (op, parent, key, start, end) in enumerate(spans):
        acc = per_op[op]
        duration = end - start
        self_time = duration - child_time[sid]
        layer = key.split(".", 1)[0]
        acc[f"{layer}.self_s"] += self_time
        acc[f"{layer}.calls"] += 1
        acc[key] += duration
        kind = io_kind(key)
        if kind is not None:
            acc[f"io.{kind}_s"] += self_time
        if sid in tracer.bytes_read:
            acc["io.bytes_read"] += tracer.bytes_read[sid]
        if sid in tracer.bytes_written:
            acc["io.bytes_written"] += tracer.bytes_written[sid]
        if sid in tracer.flops:
            acc[FLOPS[key][0]] += tracer.flops[sid]
            if key == "spectral.gft" and op != SETUP_OP:
                gft_flops += tracer.flops[sid]
                gft_self += self_time

    ops = [acc for op, acc in per_op.items() if op != SETUP_OP]
    setup = per_op.get(SETUP_OP, {})
    out: dict[str, float] = {}
    for layer in LAYERS:
        for suffix in ("self_s", "calls"):
            name = f"{layer}.{suffix}"
            out[name] = median(acc.get(name, 0.0) for acc in ops)
    for name, key in FUNCTION_TIMES.items():
        out[name] = median(acc.get(key, 0.0) for acc in ops)
    for name, key in SETUP_TIMES.items():
        out[name] = float(setup.get(key, 0.0))
    for name in ("io.read_s", "io.write_s", "io.bytes_read", "io.bytes_written",
                 "spectral.gft_flops", "covariance.cov_flops"):
        out[name] = median(acc.get(name, 0.0) for acc in ops)
    out["spectral.gft_gflops"] = gft_flops / gft_self / 1e9 if gft_self > 0 else 0.0
    return out


def largest_self_layer(metrics: dict[str, float]) -> str:
    return max(LAYERS, key=lambda layer: metrics[f"{layer}.self_s"])
