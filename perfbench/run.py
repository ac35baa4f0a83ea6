#!/usr/bin/env python3
"""Benchmark of graph-deconv: three closed-loop workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload large_n --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One client runs one operation (op) at a time; the next op starts when the
previous one returns, until ``--seconds`` have passed (at least one op). BLAS
runs on one thread. With ``--trace 0`` the last line of standard output is
the result with the end-to-end metrics; with ``--trace 1`` the run alternates
untraced and traced ops on the same inputs and reports the per-layer metrics.
The line before the result holds the run's metadata (machine, versions, op
count, output digest, failures). ``--workload all`` runs every workload in its
own process and prints a table.

Metric names, units and bounds are declared in BENCHMARK.json at the root.
It declares ``large_n`` and ``station_files`` only. ``reference`` runs the same
way but is not declared: its 1000-trial Python loop follows the shared host's
slow and fast phases, which last longer than a run, so its run-to-run spread
exceeds the largest bound a declared metric may have.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
WORKLOAD_NAMES = ("reference", "large_n", "station_files")

# Set-up is repeated this many times per run and its median reported.
IMPORT_REPEATS = 5
SETUP_REPEATS = 3

# Counters of a traced op, from captured calls and warnings.
COUNTER_NAMES = (
    "covariance.source_edges",
    "covariance.kept_edges",
    "covariance.kept_edge_ratio",
    "covariance.components",
    "estimation.support_ratio",
    "estimation.clamped_radicands",
    "estimation.zero_ratio_tree_edges",
    "estimation.sign_violations",
)

CLAMPED = re.compile(r"clamped negative radicand on (\d+) edge")
ZERO_RATIO = "zero covariance ratio on tree edge"


class LibraryMissing(Exception):
    pass


def load_library():
    """Import graph_deconv from this checkout's src/ and the workload module."""
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import graph_deconv
    except ImportError as exc:
        raise LibraryMissing(f"cannot import graph_deconv from {SRC}: {exc}") from exc
    location = Path(graph_deconv.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise LibraryMissing(f"graph_deconv resolved to {location}, not under {SRC}")
    import tracing
    import workloads

    return workloads, tracing


def import_seconds() -> float:
    """Wall time of importing the package in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import graph_deconv.cli; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True,
        check=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def blas_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads_requested": BLAS_THREADS}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def git_sha() -> str:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown: not a git checkout"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown: {name}"


def run_metadata(name, seed, seconds, trace, size) -> dict:
    import numpy as np

    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas_info(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "clients": 1,
        "loop": "closed",
    }


def op_counters(tracer, wl_mod, messages) -> dict:
    """Graph and sign counters of the op's last observation graph and estimate.

    Taken from the arguments and results the tracer captured at the layer
    boundary and from the library's RuntimeWarnings, not from internals.
    """
    counts = {
        "estimation.clamped_radicands": sum(
            int(m.group(1)) for m in map(CLAMPED.search, messages) if m
        ),
        "estimation.zero_ratio_tree_edges": sum(ZERO_RATIO in msg for msg in messages),
    }
    obs_call = tracer.captured.get("covariance.build_observation_graph")
    signs_call = tracer.captured.get("estimation.assign_signs")
    if obs_call is None or signs_call is None:
        return counts
    obs_args = bound_arguments(wl_mod.gd.covariance.build_observation_graph, obs_call)
    sign_args = bound_arguments(wl_mod.gd.estimation.assign_signs, signs_call)
    obs, source, est = obs_call[2], obs_args["source"], signs_call[2]
    violations = wl_mod.gd.sign_consistency_report(est, obs, sign_args["cov_x"], sign_args["cov_ym"])
    counts.update({
        "covariance.source_edges": len(source.edges),
        "covariance.kept_edges": len(obs.edges),
        "covariance.kept_edge_ratio": len(obs.edges) / len(source.edges) if source.edges else 0.0,
        "covariance.components": len(obs.components),
        "estimation.support_ratio": len(obs.support) / obs.n_vertices,
        "estimation.sign_violations": len(violations),
    })
    return counts


def bound_arguments(fn, call) -> dict:
    args, kwargs, _ = call
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def run_op(wl, wl_mod, k, tracer=None) -> dict:
    """Run and check op ``k``; with a tracer, trace the op and derive its counters."""
    inputs = wl.inputs(k)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.op = k
            tracer.captured.clear()
            tracer.active = True
        start = perf_counter()
        try:
            outputs = wl.run(inputs)
            error = None
        except Exception as exc:  # a failed op is counted and reported, not fatal
            error = exc
        seconds = perf_counter() - start
        if tracer is not None:
            tracer.active = False
    rec = {"op": k, "seconds": seconds, "ok": False, "traced": tracer is not None}
    if error is not None:
        rec.update(stage=getattr(error, "stage", "op"), reason=f"{type(error).__name__}: {error}")
        return rec
    try:
        check = wl.check(inputs, outputs)
    except Exception as exc:  # unreadable or malformed outputs fail the op
        rec.update(stage=getattr(exc, "stage", "check"), reason=f"{type(exc).__name__}: {exc}")
        return rec
    rec.update(
        ok=check.ok, digest=check.digest, sign_recovery=check.sign_recovery, mag_err=check.mag_err
    )
    if not check.ok:
        rec.update(stage="check", reason=check.reason)
    if tracer is not None:
        counts = op_counters(tracer, wl_mod, [str(w.message) for w in caught])
        rec["counters"] = counts
        facts = check.facts
        if "components" in facts and (
            counts.get("covariance.components") != facts["components"]
            or round(counts.get("estimation.support_ratio", 0.0) * wl.p["n"]) != facts["support"]
        ):
            rec.update(
                ok=False, stage="check", reason="traced counters disagree with the written estimate"
            )
    return rec


def run_workload(name, seed, seconds, trace, size="full"):
    """Set up, measure and check one workload; returns (result, metadata)."""
    wl_mod, tracing = load_library()
    meta = run_metadata(name, seed, seconds, trace, size)
    RUNS.mkdir(exist_ok=True)
    wl = wl_mod.WORKLOADS[name](seed, size, RUNS / f"{name}-{os.getpid()}")
    tracer = None
    records = []
    meta["setup"] = {"import_s": [], "workload_s": []}
    try:
        try:
            if trace:
                tracer = tracing.Tracer()
                tracer.install()
                tracer.active = True
                wl.setup()
                tracer.active = False
            else:
                for _ in range(SETUP_REPEATS):
                    start = perf_counter()
                    wl.setup()
                    meta["setup"]["workload_s"].append(perf_counter() - start)
                for _ in range(IMPORT_REPEATS):
                    meta["setup"]["import_s"].append(import_seconds())
        except wl_mod.OpFailed as exc:
            # Nothing can run without the set-up: report it as one failed op.
            records.append(
                {"op": "setup", "seconds": 0.0, "ok": False, "traced": False,
                 "stage": exc.stage, "reason": str(exc)}
            )
        if not records:
            start = perf_counter()
            k = 0
            while k == 0 or perf_counter() - start < seconds:
                records.append(run_op(wl, wl_mod, k))
                if trace:
                    traced = run_op(wl, wl_mod, k, tracer)
                    if traced["ok"] and traced["digest"] != records[-1].get("digest"):
                        traced.update(
                            ok=False, stage="trace", reason="traced outputs differ from untraced"
                        )
                    records.append(traced)
                k += 1
    finally:
        if tracer is not None:
            tracer.uninstall()
        wl.close()

    plain = [r for r in records if not r["traced"]]
    good = [r for r in plain if r["ok"]]
    failed = sum(not r["ok"] for r in records)
    meta.update(
        ops=len(plain),
        ops_ok=len(good),
        op_seconds=[r["seconds"] for r in plain],
        digest=records[0].get("digest"),
        failures=[
            {k: r[k] for k in ("op", "traced", "stage", "reason")} for r in records if not r["ok"]
        ][:10],
    )
    if trace:
        traced = [r for r in records if r["traced"]]
        metrics = tracing.layer_metrics(tracer)
        # Counters of the first traced op, so that they repeat exactly for a seed.
        first = next((r["counters"] for r in traced if "counters" in r), {})
        for key in COUNTER_NAMES:
            metrics[key] = first.get(key, 0.0)
        metrics["trace.overhead_s"] = tracing.median(r["seconds"] for r in traced) - tracing.median(
            r["seconds"] for r in plain
        )
        meta["largest_self_layer"] = tracing.largest_self_layer(metrics)
        meta["spans"] = len(tracer.spans)
        spans_path = RUNS / f"spans-{name}-seed{seed}.jsonl.gz"
        tracer.write(spans_path)
        meta["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {
            "run_s": tracing.median(r["seconds"] for r in plain),
            "setup_s": tracing.median(meta["setup"]["import_s"])
            + tracing.median(meta["setup"]["workload_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": (len(records) - failed) / len(records),
            "sign_recovery_rate": statistics.fmean(r["sign_recovery"] for r in good) if good else 0.0,
            "mag_err_max": tracing.median(r["mag_err"] for r in good),
        }
    declared = declared_metrics("per_layer" if trace else "end_to_end")
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in declared.items()},
    }
    return result, meta


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def declared_metrics(section: str) -> dict:
    return {m["name"]: m["unit"] for m in load_spec()[section]}


def run_all(args) -> int:
    """Run every workload in its own process and print its metrics as a table."""
    all_correct = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if len(lines) < 2:
            print(f"{name}: exit {proc.returncode}, no result\n{proc.stderr}", file=sys.stderr)
            all_correct = False
            continue
        meta, result = json.loads(lines[-2])["meta"], json.loads(lines[-1])
        all_correct &= result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} ops={meta['ops']} digest={meta['digest']}")
        for key, metric in result["metrics"].items():
            print(f"  {key:42s} {metric['value']:>16.6g} {metric['unit']}")
        for failure in meta["failures"]:
            print(f"  failed op {failure['op']} at {failure['stage']}: {failure['reason']}")
    return 0 if all_correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result, meta = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except LibraryMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
