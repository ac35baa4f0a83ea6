"""Tests of the benchmark itself: tiny runs of every workload, tracing and metric names.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import inspect
import json
import math
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def library_bindings():
    """Every function bound in a graph_deconv namespace, by (module, name)."""
    return {
        (mod_name, name): value
        for mod_name, mod in sys.modules.items()
        if mod_name == "graph_deconv" or mod_name.startswith("graph_deconv.")
        for name, value in vars(mod).items()
        if inspect.isfunction(value)
    }


def assert_numbers(metrics):
    for name, metric in metrics.items():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_is_correct_and_reports_every_end_to_end_metric(workload):
    result, meta = run.run_workload(workload, seed=1, seconds=0, trace=False, size="tiny")
    assert result["correct"], meta["failures"]
    assert result["attempted"] == meta["ops"] == 1 and result["failed"] == 0
    assert set(result["metrics"]) == END_TO_END
    assert_numbers(result["metrics"])
    assert result["metrics"]["success_rate"]["value"] == 1.0
    assert meta["digest"] and meta["blas"]["threads_requested"] == run.BLAS_THREADS


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_matches_untraced_outputs_and_unwraps(workload):
    run.load_library()
    before = library_bindings()
    result, meta = run.run_workload(workload, seed=1, seconds=0, trace=True, size="tiny")
    # The traced op's digest is compared with the untraced op's inside the run.
    assert result["correct"], meta["failures"]
    assert result["attempted"] == 2
    assert set(result["metrics"]) == PER_LAYER
    assert_numbers(result["metrics"])
    assert result["metrics"]["covariance.calls"]["value"] > 0
    assert meta["spans"] > 0 and (run.ROOT / meta["spans_file"]).is_file()
    assert library_bindings() == before


def test_tracer_sees_calls_made_inside_the_library():
    _, tracing = run.load_library()
    import graph_deconv as gd

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        config = gd.SimulationConfig(n_vertices=6, sample_count=40, noise_sigma=0.5, seed=1, trials=1)
        gd.run_simulation(config)
    finally:
        tracer.uninstall()
    keys = {span[2] for span in tracer.spans}
    # run_simulation binds these by name in graph_deconv.simulate.
    inner = {"estimation.assign_signs", "covariance.validate_bound_monte_carlo"}
    assert {"simulate.run_simulation", *inner} <= keys
    assert not keys & {"estimation.sign_of", "spectral.normalize_edge"}


def test_layout_defect_shows_as_failed_simulate_ops():
    # At N=96 this seed's unweighted layouts never reach a distinct spectrum.
    result, meta = run.run_workload("station_files", seed=99991, seconds=0, trace=False)
    assert not result["correct"] and result["failed"] == result["attempted"] == 1
    assert meta["failures"][0]["stage"] == "simulate"


def test_declared_metrics_follow_the_naming_rules():
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(name.fullmatch(n) for n in names)
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOAD_NAMES)
