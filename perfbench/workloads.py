"""The benchmark's workloads, each driving graph_deconv through its public API.

A workload makes its inputs from the benchmark seed, runs one operation at a
time and checks each operation's outputs. ``setup`` is the timed set-up that
``setup_s`` counts besides importing the package; ``inputs(k)`` generates the
inputs of op ``k`` untimed; ``run(inputs)`` is the timed op; ``check`` returns
an ``OpCheck`` or raises ``OpFailed``.

Library calls go through module attributes (``gd.run_simulation``, not a
name imported into this module), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io as text_io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import graph_deconv as gd
import graph_deconv.cli  # noqa: F401  (binds gd.cli for cli_dispatch)
from graph_deconv import io as gio

# Sizes per workload. "full" is the benchmark; "tiny" keeps the smoke tests fast.
SIZES = {
    "full": {
        "reference": dict(n=32, m=744, sigma=0.5, trials=1000),
        "large_n": dict(n=1024, m=2000, sigma=0.5, pearson=0.01, delta=0.001),
        "station_files": dict(n=96, days=31, hours=24, sigma=0.5, pearson=0.62, delta=0.62),
    },
    "tiny": {
        "reference": dict(n=8, m=64, sigma=0.5, trials=3),
        "large_n": dict(n=48, m=300, sigma=0.5, pearson=0.01, delta=0.001),
        "station_files": dict(n=12, days=4, hours=24, sigma=0.5, pearson=0.3, delta=0.3),
    },
}

# Seed-stream purposes for the benchmark's own inputs.
_SHIFT, _CHANNEL, _NOISE, _RAW = 1, 2, 3, 4


def input_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


class Digest:
    """sha256 over arrays, numbers and strings, fed in order."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *items) -> "Digest":
        for item in items:
            if isinstance(item, np.ndarray):
                arr = np.ascontiguousarray(item)
                self._h.update(f"{arr.dtype.str}{arr.shape}".encode())
                self._h.update(arr.tobytes())
            elif isinstance(item, bytes):
                self._h.update(item)
            else:
                self._h.update(repr(item).encode())
        return self

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def estimate_items(est) -> list:
    comps = [(c.vertices, c.anchor, c.anchor_sign, sorted(c.parents.items())) for c in est.components]
    return [est.gamma_m, sorted(est.support), comps]


def signs_agree(est, gamma) -> bool:
    """True when the estimate equals the truth up to one sign per component."""
    for comp in est.components:
        idx = np.array(comp.vertices) - 1
        rel = np.sign(est.gamma_m[idx]) * np.sign(gamma[idx])
        if np.any(rel != rel[0]) or rel[0] == 0:
            return False
    return True


@dataclass
class OpCheck:
    ok: bool
    digest: str
    sign_recovery: float = 0.0
    mag_err: float = 0.0
    reason: str = ""
    facts: dict = field(default_factory=dict)


class OpFailed(Exception):
    """An op step that exited non-zero or raised; ``stage`` names the step."""

    def __init__(self, stage: str, detail: str):
        super().__init__(f"{stage}: {detail}")
        self.stage = stage


class Reference:
    """The paper's operating point: one seeded 1000-trial ``run_simulation``."""

    name = "reference"

    def __init__(self, seed: int, size: str, workdir: Path):
        self.p = SIZES[size][self.name]
        self.seed = seed
        self.first_digest: str | None = None

    def setup(self) -> None:
        pass

    def inputs(self, k: int):
        return gd.SimulationConfig(
            n_vertices=self.p["n"],
            sample_count=self.p["m"],
            noise_sigma=self.p["sigma"],
            seed=self.seed,
            trials=self.p["trials"],
        )

    def run(self, config):
        return gd.run_simulation(config)

    def check(self, config, result) -> OpCheck:
        bounds = [(b.n, b.nprime, b.eps, b.empirical, b.bound, b.flag) for b in result.bound_report]
        digest = Digest().add(
            *estimate_items(result.estimate),
            result.avg_diagnostics.abs_diff_db,
            result.avg_diagnostics.rel_diff_db,
            result.avg_diagnostics.diagonal_inflation,
            bounds,
            result.sign_recovery_rate,
            result.magnitude_error_max,
            result.magnitude_error_mean,
        ).hexdigest()
        # Every op runs the same seeded config, so every op must give the same bytes.
        if self.first_digest is None:
            self.first_digest = digest
        flags = sum(b.flag for b in result.bound_report)
        reason = ""
        if flags:
            reason = f"{flags} bound flag(s)"
        elif digest != self.first_digest:
            reason = "outputs differ from the first op of the same seed"
        return OpCheck(
            ok=not reason,
            digest=digest,
            sign_recovery=result.sign_recovery_rate,
            mag_err=result.magnitude_error_max,
            reason=reason,
        )

    def close(self) -> None:
        pass


class LargeN:
    """N=1024 estimation and deconvolution on a seeded random symmetric shift.

    Unweighted random geometric graphs cannot reach a distinct Laplacian
    spectrum from N of about 128 up, so this workload uses a random symmetric
    shift, which the library accepts as long as its eigenvalues are distinct.
    """

    name = "large_n"

    def __init__(self, seed: int, size: str, workdir: Path):
        self.p = SIZES[size][self.name]
        self.seed = seed
        rng = np.random.default_rng(input_seed(seed, _SHIFT))
        a = rng.standard_normal((self.p["n"], self.p["n"]))
        self.shift = (a + a.T) / 2.0

    def setup(self) -> None:
        # Drop the previous set-up first, so repeats do not raise the peak RSS.
        self.basis = self.xhat = self.cov_x = self.source = self.sources = None
        n, m = self.p["n"], self.p["m"]
        self.basis = gd.eigendecompose(self.shift)
        _, self.xhat = gd.synthetic_source(n, m, self.seed)
        self.cov_x = gd.empirical_covariance(self.xhat)
        self.source = gd.build_source_graph(self.cov_x, self.p["pearson"])

    def inputs(self, k: int):
        if self.sources is None:
            self.sources = gd.igft(self.basis, self.xhat)
        gamma = gd.random_channel(self.p["n"], 0.2, input_seed(self.seed, _CHANNEL, k))
        noise_seed = input_seed(self.seed, _NOISE, k)
        y = gd.transmit(self.sources, gamma, self.basis, self.p["sigma"], noise_seed)
        return gamma, y

    def run(self, inputs):
        _, y = inputs
        est = gd.estimate_channel(self.cov_x, y, self.basis, self.source, self.p["delta"])
        result = gd.blind_deconvolve(est, y, self.basis)
        recon = gd.reconstructed_covariance(result)
        diag = gd.covariance_diagnostics(recon, self.cov_x)
        return est, recon, diag

    def check(self, inputs, outputs) -> OpCheck:
        gamma, _ = inputs
        est, recon, diag = outputs
        digest = Digest().add(*estimate_items(est), recon, diag.abs_diff_db, diag.rel_diff_db)
        agree = signs_agree(est, gamma)
        reason = ""
        if len(est.support) != self.p["n"]:
            reason = f"support {len(est.support)} of {self.p['n']}"
        elif not agree:
            reason = "estimate differs from the true channel by more than one sign per component"
        return OpCheck(
            ok=not reason,
            digest=digest.hexdigest(),
            sign_recovery=float(agree),
            mag_err=float(np.max(np.abs(np.abs(est.gamma_m) - np.abs(gamma)))),
            reason=reason,
        )

    def close(self) -> None:
        pass


def write_raw_dataset(path: Path, values: np.ndarray) -> None:
    """Long-format station CSV (station,day,hour,value) of a station x hour x day array."""
    n, t, d = values.shape
    grid = values.tolist()
    lines = ["station,day,hour,value\n"]
    for s in range(n):
        for day in range(d):
            for hour in range(t):
                lines.append(f"{s + 1},{day + 1},{hour},{grid[s][hour][day]!r}\n")
    path.write_text("".join(lines))


class StationFiles:
    """The file-based user path at N=96: a raw station CSV, then the CLI on files.

    Set-up runs the CLI ``simulate`` once, which writes the bundle (layout,
    sources, source covariance) the ops read. Its layout search redraws
    layouts whose Laplacian spectrum repeats an eigenvalue, a seed-dependent
    number of times (it fails outright on some seeds), so it is timed in
    ``setup_s`` and not in every op. Each op gets its own channel and noise,
    like ``large_n``, so its accuracy is a sample over ops, not one draw.

    The source's pairwise correlations cluster near 0.6, so the 0.62 source
    and observation thresholds keep only part of the source graph: a small
    support split into several components, the sparse path the other
    workloads never take.
    """

    name = "station_files"

    def __init__(self, seed: int, size: str, workdir: Path):
        self.p = SIZES[size][self.name]
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        n, t, d = self.p["n"], self.p["hours"], self.p["days"]
        rng = np.random.default_rng(input_seed(seed, _RAW))
        daily = 4.0 * np.sin(2.0 * np.pi * np.arange(t) / t)
        self.values = (
            rng.normal(15.0, 3.0, size=(n, 1, 1))
            + daily[None, :, None]
            + rng.normal(0.0, 1.5, size=(n, t, d))
        )
        self.raw_csv = workdir / "raw.csv"
        write_raw_dataset(self.raw_csv, self.values)
        centered = self.values - self.values.mean(axis=2, keepdims=True)
        self.expected_samples = centered.transpose(2, 1, 0).reshape(d * t, n)
        self.sim_json = workdir / "sim.json"
        self.sim_json.write_text(
            json.dumps(
                {
                    "n_vertices": n,
                    "sample_count": d * t,
                    "noise_sigma": self.p["sigma"],
                    "seed": seed,
                    "trials": 1,
                }
            )
        )
        self.bundle = workdir / "bundle"
        self.sources = None

    def setup(self) -> None:
        shutil.rmtree(self.bundle, ignore_errors=True)
        self.sources = None
        self._cli("simulate", ["--config", self.sim_json, "--out", self.bundle])

    def _load_bundle(self) -> None:
        with open(self.bundle / "summary.json") as fh:
            self.radius = repr(json.load(fh)["radius"])
        coords = gio.read_coordinates(self.bundle / "coords.csv")
        self.basis = gd.eigendecompose(gd.laplacian(gd.build_radius_graph(coords, float(self.radius))))
        self.sources = gio.read_signals(self.bundle / "sources.csv")

    def inputs(self, k: int):
        """A fresh output directory and observations through channel k."""
        if self.sources is None:
            self._load_bundle()
        out = self.workdir / "op"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        gamma = gd.random_channel(self.p["n"], 0.2, input_seed(self.seed, _CHANNEL, k))
        noise_seed = input_seed(self.seed, _NOISE, k)
        y = gd.transmit(self.sources, gamma, self.basis, self.p["sigma"], noise_seed)
        gio.write_signals(out / "observations.csv", y)
        return out, gamma

    def _cli(self, stage: str, argv) -> None:
        stdout, stderr = text_io.StringIO(), text_io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = gd.cli.cli_dispatch([stage, *map(str, argv)])
        except Exception as exc:
            raise OpFailed(stage, f"raised {type(exc).__name__}: {exc}") from exc
        if code != 0:
            raise OpFailed(stage, f"exit {code}: {stderr.getvalue().strip()}")

    def run(self, inputs):
        out, _ = inputs
        raw = gd.load_raw_dataset(self.raw_csv)
        samples = gd.center_dataset(raw)
        b = self.bundle
        graph = ["--coords", b / "coords.csv", "--radius", self.radius]
        self._cli(
            "validate-bounds", ["--config", self.sim_json, "--trials", 100, "--out", out / "bounds"]
        )
        self._cli(
            "estimate",
            ["--signals", out / "observations.csv", "--cov-x", b / "cov_x.csv", *graph,
             "--pearson-threshold", self.p["pearson"], "--delta", self.p["delta"],
             "--out", out / "est"],
        )
        self._cli(
            "deconvolve",
            ["--signals", out / "observations.csv", "--estimate", out / "est" / "channel_estimate.csv",
             "--components", out / "est" / "components.json", *graph, "--out", out / "dec"],
        )
        self._cli(
            "diagnose",
            ["--cov-recon", out / "dec" / "recon_cov.csv", "--cov-x", b / "cov_x.csv",
             "--out", out / "diag"],
        )
        return samples

    def check(self, inputs, samples) -> OpCheck:
        out, gamma = inputs
        digest = Digest().add(samples.signals)
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            digest.add(str(path.relative_to(out)), path.read_bytes())

        n, m = self.p["n"], self.p["days"] * self.p["hours"]
        with open(out / "bounds" / "bound_report.csv", newline="") as fh:
            header = next(csv.reader(fh))
        if header != ["n", "nprime", "eps", "empirical", "bound", "flag"]:
            raise OpFailed("check", f"bound report header {header}")
        est = gio.read_channel_estimate(
            out / "est" / "channel_estimate.csv", out / "est" / "components.json"
        )
        reconstructed = gio.read_signals(out / "dec" / "reconstructed.csv").signals
        assert_shape(reconstructed, (m, n), "reconstructed.csv")
        recon = gio.read_covariance(out / "dec" / "recon_cov.csv")
        assert_shape(recon, (n, n), "recon_cov.csv")
        for name in ("abs_diff_db.csv", "rel_diff_db.csv"):
            assert_shape(gio.read_covariance(out / "diag" / name), (n, n), name)
        with open(out / "diag" / "diagnostics_summary.json") as fh:
            json.load(fh)

        off = np.array([k not in est.support for k in range(1, n + 1)])
        reason = ""
        if not np.allclose(samples.signals, self.expected_samples, rtol=0.0, atol=1e-9):
            reason = "centered samples differ from the per-hour centering of the raw grid"
        elif np.any(recon[off]) or np.any(recon[:, off]):
            reason = "reconstructed covariance is nonzero off the support"
        return OpCheck(
            ok=not reason,
            digest=digest.hexdigest(),
            sign_recovery=float(signs_agree(est, gamma)),
            mag_err=float(np.max(np.abs(np.abs(est.gamma_m) - np.abs(gamma)))),
            reason=reason,
            facts={"support": len(est.support), "components": len(est.components)},
        )

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def assert_shape(array: np.ndarray, shape: tuple, path) -> None:
    if array.shape != shape:
        raise OpFailed("check", f"{path} has shape {array.shape}, expected {shape}")


WORKLOADS = {cls.name: cls for cls in (Reference, LargeN, StationFiles)}
