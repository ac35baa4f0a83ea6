"""Seeded end-to-end simulation harness.

A run builds a random geometric graph, draws a dense nonstationary source with
a decaying spectral variance profile, pushes the samples through a random
channel with additive Gaussian noise, estimates the channel, deconvolves, and
scores everything against the ground truth. Each trial transforms its
observations once and forms their spectral covariance once, kept on the
spectral ensemble. ``estimate_channel``'s covariance-level core estimates
from it and returns the trial's one observation graph; the reconstructed
covariance D C_y D and trial 0's sign report read the same covariance, and
the report reads that graph too. Every random draw is keyed on (seed,
purpose, trial), so re-running a configuration gives byte-identical
artifacts.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import io as gio
from .channel import apply_channel, operator_norm, random_channel
from .covariance import (
    BoundCheck,
    _check_threshold,
    _spectral_covariance,
    build_source_graph,
    empirical_covariance,
    validate_bound_monte_carlo,
)
from .deconv import (
    DeconvolutionResult,
    DiagnosticMatrices,
    GapSummary,
    _scaled_covariance,
    align_component_signs,
    blind_deconvolve,
    covariance_diagnostics,
    reconstructed_covariance,
    summarize_gap,
)
from .errors import DegenerateSpectrum, FileFormatError
from .estimation import ChannelEstimate, _estimate_from_covariance, sign_consistency_report
from .spectral import (
    SPECTRAL,
    Graph,
    SignalEnsemble,
    SpectralBasis,
    _as_spectral,
    _Taken,
    build_radius_graph,
    eigendecompose,
    gft,
    igft,
    laplacian,
)

# Seed-stream tags. Trial-dependent streams are keyed (seed, tag, trial); the
# bound Monte Carlo's two streams, chi-squares and normals, (seed, _BOUNDS, 0|1).
_MIXING = 1
_CHANNEL = 2
_NOISE = 3
_COORDS = 4
_SOURCE = 5
_BOUNDS = 6

# Share of every source direction pointing along one common random direction.
# Keeps all pairwise spectral correlations comfortably above the edge
# thresholds, so sign propagation stays statistically identifiable; with fully
# independent random directions some pairs are near-uncorrelated and their
# tree-edge signs degenerate to coin flips.
COMMON_DIRECTION_WEIGHT = 0.6

_GRAPH_ATTEMPTS = 256
_RADIUS_MARGIN = 1.05


def derive_seed(*parts: int) -> int:
    """Collapse an integer key path into one 64-bit seed."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of one synthetic run; mirrors the JSON config format."""

    n_vertices: int
    sample_count: int
    noise_sigma: float
    channel_amplitude: float = 0.2
    pearson_threshold: float = 0.01
    delta: float = 0.001
    seed: int = 0
    trials: int = 1

    def __post_init__(self):
        for name in ("n_vertices", "sample_count", "seed", "trials"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("noise_sigma", "channel_amplitude", "pearson_threshold", "delta"):
            value = getattr(self, name)
            # False for nan, infinities and ints beyond the float range alike.
            finite = isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max
            if isinstance(value, bool) or not finite:
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        # The counts size arrays, so they must fit int64.
        if not 2 <= self.n_vertices < 2**63:
            raise ValueError(f"n_vertices must be in [2, 2**63), got {self.n_vertices}")
        if not 1 <= self.sample_count < 2**63:
            raise ValueError(f"sample_count must be in [1, 2**63), got {self.sample_count}")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if not (0 <= self.channel_amplitude < 1):
            raise ValueError(f"channel_amplitude must be in [0, 1), got {self.channel_amplitude}")
        _check_threshold("pearson_threshold", self.pearson_threshold)
        _check_threshold("delta", self.delta)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 1 <= self.trials < 2**63:
            raise ValueError(f"trials must be in [1, 2**63), got {self.trials}")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "SimulationConfig":
        try:
            return cls(**data)
        except TypeError as exc:
            raise ValueError(f"bad simulation config: {exc}") from exc

    @classmethod
    def from_json_file(cls, path) -> "SimulationConfig":
        data = gio.read_json(path)
        if not isinstance(data, dict):
            raise FileFormatError(f"{path}: simulation config must be a JSON object")
        return cls.from_json(data)

    def to_json_file(self, path) -> None:
        gio.write_json(path, self.to_json())


def variance_profile(n: int) -> np.ndarray:
    """Decaying spectral variance targets: one dominant mode, then a long tail.

    The head is (177.8017, 5.1511, 5.0201) and the tail decays geometrically
    from 3.0401 down to 0.2584, the shape typical of spatially correlated
    measurement fields dominated by their smoothest mode.
    """
    head = np.array([177.8017, 5.1511, 5.0201])
    if n <= 3:
        return head[:n].copy()
    return np.concatenate([head, np.geomspace(3.0401, 0.2584, n - 3)])


def mixing_matrix(n: int, seed: int) -> np.ndarray:
    """Dense mixing whose rows share a common direction and hit the variance profile.

    Row k is sqrt(v_k) times a unit vector combining one common random
    direction (weight COMMON_DIRECTION_WEIGHT) with a per-row random direction
    orthogonal to it. The resulting population covariance has diagonal v and
    all pairwise correlations near the common weight, hence a connected source
    graph.

    The common direction is drawn first, then every row's direction in one
    n x n block. A row whose projection off the common direction has norm
    below 1e-12 (probability about 1e-12 per row) is drawn again, in row
    order, from the stream after the block.
    """
    rng = np.random.default_rng(seed)
    v = variance_profile(n)
    if n == 1:
        return np.array([[math.sqrt(v[0])]])
    q = rng.standard_normal(n)
    q /= np.linalg.norm(q)
    c = COMMON_DIRECTION_WEIGHT

    def project(g: np.ndarray) -> float:
        """Remove from row ``g``, in place, its component along q; return the norm left."""
        g -= (g @ q) * q
        return np.linalg.norm(g)

    rows = rng.standard_normal((n, n))
    norms = np.array([project(g) for g in rows])
    for k in np.flatnonzero(norms < 1e-12):
        while norms[k] < 1e-12:
            rows[k] = rng.standard_normal(n)
            norms[k] = project(rows[k])
    rows /= norms[:, None]
    rows *= math.sqrt(1.0 - c)
    rows += math.sqrt(c) * q
    rows *= np.sqrt(v)[:, None]
    return rows


def synthetic_source(n: int, m: int, seed: int) -> tuple[np.ndarray, SignalEnsemble]:
    """Draw M spectral samples xhat = A z with z standard normal.

    Returns the mixing matrix and the spectral ensemble. The seed fixes both.
    """
    mixing = mixing_matrix(n, derive_seed(seed, _MIXING))
    rng = np.random.default_rng(derive_seed(seed, _SOURCE))
    samples = rng.standard_normal((m, n)) @ mixing.T
    return mixing, SignalEnsemble(signals=_Taken(samples), domain=SPECTRAL)


def transmit(
    sources: SignalEnsemble, gamma, basis: SpectralBasis, sigma: float, seed: int
) -> SignalEnsemble:
    """Filter sources, in either domain, through the channel and add white spectral noise.

    Returns vertex-domain samples. By orthogonality of the basis, the noise is
    white on the vertex samples too. ``sigma`` must be a finite number >= 0.
    The filtered samples are added into the scaled noise's own buffer, which
    the noisy ensemble then takes without a copy, and no M x N array but the
    spectral ensemble is held while ``igft`` runs.
    """
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be a finite number >= 0, got {sigma}")
    spectral = apply_channel(gamma, _as_spectral(basis, sources))
    if sigma > 0:
        noisy = np.random.default_rng(seed).standard_normal(spectral.signals.shape)
        noisy *= sigma
        noisy += spectral.signals
        spectral = SignalEnsemble(signals=_Taken(noisy), domain=SPECTRAL)
    return igft(basis, spectral)


def connectivity_radius(xy: np.ndarray) -> float:
    """Smallest radius at which the radius graph on these points is connected.

    That is the longest edge of the Euclidean minimum spanning tree, grown here
    with Prim's algorithm in O(N^2).
    """
    n = xy.shape[0]
    if n < 2:
        raise ValueError("could not connect the points")
    in_tree = np.zeros(n, dtype=bool)
    best = np.full(n, np.inf)
    k, radius = 0, 0.0
    for _ in range(n - 1):
        in_tree[k] = True
        best = np.minimum(best, np.hypot(xy[:, 0] - xy[k, 0], xy[:, 1] - xy[k, 1]))
        best[in_tree] = np.inf
        k = int(np.argmin(best))
        radius = max(radius, float(best[k]))
    return radius


def simulation_graph(n: int, seed: int) -> tuple[list[tuple[str, float, float]], float, Graph, SpectralBasis]:
    """Seeded random geometric graph with a distinct Laplacian spectrum.

    Points are uniform in the unit square and the radius is 1.05 times the
    connectivity threshold. Layouts whose Laplacian has a repeated eigenvalue
    (vertices with the same neighbours produce them) are redrawn, up to a
    bounded number of attempts; every redraw is itself seed-deterministic.
    """
    last_error: str | None = None
    for attempt in range(_GRAPH_ATTEMPTS):
        rng = np.random.default_rng(derive_seed(seed, _COORDS, attempt))
        xy = rng.random((n, 2))
        radius = _RADIUS_MARGIN * connectivity_radius(xy)
        coords = [(str(k + 1), float(xy[k, 0]), float(xy[k, 1])) for k in range(n)]
        graph = build_radius_graph(coords, radius)
        try:
            basis = eigendecompose(laplacian(graph))
        except DegenerateSpectrum as exc:
            # Text only: the traceback would pin the callers' frames until a full GC.
            last_error = str(exc)
            continue
        return coords, radius, graph, basis
    raise DegenerateSpectrum(
        f"no layout with a distinct spectrum in {_GRAPH_ATTEMPTS} attempts: {last_error}"
    )


@dataclass(frozen=True)
class SimulationResult:
    """Everything one run produces; ``write_bundle`` serializes it."""

    config: SimulationConfig
    coords: list[tuple[str, float, float]]
    radius: float
    graph: Graph
    basis: SpectralBasis
    sources: SignalEnsemble
    cov_x: np.ndarray
    source_graph: Graph
    channel: np.ndarray
    observations: SignalEnsemble
    estimate: ChannelEstimate
    deconv: DeconvolutionResult
    flips: tuple[int, ...]
    max_reconstruction_error: float
    avg_diagnostics: DiagnosticMatrices
    gap: GapSummary
    sign_recovery_rate: float
    magnitude_error_max: float
    magnitude_error_mean: float
    consistency_violations: list[tuple[int, int]]
    bound_report: list[BoundCheck]


@dataclass
class PopulationModel:
    """Known ground-truth quantities of the synthetic population."""

    mixing: np.ndarray
    gamma: np.ndarray
    cov_x: np.ndarray
    c4: float
    h_norm: float


def population_model(config: SimulationConfig) -> PopulationModel:
    """Population source covariance, kurtosis, and channel norm implied by a config.

    Sources are Gaussian, so the population kurtosis is three times the
    squared largest spectral variance: the largest entry of the variance
    profile the mixing rows are scaled to hit, not of the rounded diagonal of
    ``mixing @ mixing.T``, so it is the same under every BLAS kernel. The
    channel is the trial-0 draw.
    """
    mixing = mixing_matrix(config.n_vertices, derive_seed(config.seed, _MIXING))
    gamma = random_channel(
        config.n_vertices, config.channel_amplitude, derive_seed(config.seed, _CHANNEL, 0)
    )
    cov_x = mixing @ mixing.T
    return PopulationModel(
        mixing=mixing,
        gamma=gamma,
        cov_x=cov_x,
        c4=3.0 * float(np.max(variance_profile(config.n_vertices))) ** 2,
        h_norm=operator_norm(gamma),
    )


def signs_match(estimate: ChannelEstimate, gamma_true: np.ndarray) -> bool:
    """True when every component's sign pattern equals the truth up to one flip.

    Zero counts as positive, as in ``sign_of``.
    """
    gamma_true = np.asarray(gamma_true)
    for comp in estimate.components:
        idx = np.array(comp.vertices, dtype=np.intp) - 1
        flipped = (estimate.gamma_m[idx] < 0) != (gamma_true[idx] < 0)
        if flipped.any() and not flipped.all():
            return False
    return True


def run_simulation(config: SimulationConfig, out_dir=None) -> SimulationResult:
    """Run the full pipeline; trial 0 supplies the artifacts, all trials the statistics.

    The clean source samples are drawn once and held fixed, like a recorded
    dataset; each trial draws a fresh channel and noise realization. Averaged
    dB diagnostics, the sign-recovery rate, and magnitude error statistics
    aggregate over trials. A concentration-bound Monte Carlo report (at least
    100 trials) is always attached. With ``out_dir`` set, the bundle is
    written there.
    """
    n, m = config.n_vertices, config.sample_count
    coords, radius, graph, basis = simulation_graph(n, config.seed)
    _, xhat = synthetic_source(n, m, config.seed)
    sources = igft(basis, xhat)
    sent = gft(basis, sources)  # what trials filter; it differs from xhat by rounding
    cov_x = empirical_covariance(xhat)
    source_graph = build_source_graph(cov_x, config.pearson_threshold)

    first: dict = {}
    sign_hits = 0
    mag_errors = np.empty(config.trials)
    abs_db = np.zeros((n, n))
    rel_db = np.zeros((n, n))
    inflation = np.zeros(n)
    for t in range(config.trials):
        gamma_t = random_channel(n, config.channel_amplitude, derive_seed(config.seed, _CHANNEL, t))
        y_t = transmit(
            sent, gamma_t, basis, config.noise_sigma, derive_seed(config.seed, _NOISE, t)
        )
        yhat_t = gft(basis, y_t)
        cov_ym = _spectral_covariance(basis, yhat_t)
        est, obs = _estimate_from_covariance(cov_x, cov_ym, source_graph, config.delta)

        if signs_match(est, gamma_t):
            sign_hits += 1
        mag_errors[t] = float(np.max(np.abs(np.abs(est.gamma_m) - np.abs(gamma_t))))

        result = blind_deconvolve(est, yhat_t, basis)
        diag = covariance_diagnostics(_scaled_covariance(result.inverse, cov_ym), cov_x)
        abs_db += diag.abs_diff_db
        rel_db += diag.rel_diff_db
        inflation += diag.diagonal_inflation

        if t == 0:
            aligned, flips = align_component_signs(result, xhat, est.components)
            error = np.max(np.abs(aligned.reconstructed.signals - sources.signals))
            first = dict(
                channel=gamma_t,
                observations=y_t,
                estimate=est,
                deconv=result,
                flips=flips,
                max_reconstruction_error=float(error),
                consistency_violations=sign_consistency_report(est, obs, cov_x, cov_ym),
            )

    avg = DiagnosticMatrices(
        abs_diff_db=abs_db / config.trials,
        rel_diff_db=rel_db / config.trials,
        diagonal_inflation=inflation / config.trials,
    )
    bound_report = validate_bound_monte_carlo(config, max(config.trials, 100))

    result = SimulationResult(
        config=config,
        coords=coords,
        radius=radius,
        graph=graph,
        basis=basis,
        sources=sources,
        cov_x=cov_x,
        source_graph=source_graph,
        **first,
        avg_diagnostics=avg,
        gap=summarize_gap(avg),
        sign_recovery_rate=sign_hits / config.trials,
        magnitude_error_max=float(mag_errors.max()),
        magnitude_error_mean=float(mag_errors.mean()),
        bound_report=bound_report,
    )
    if out_dir is not None:
        write_bundle(result, out_dir)
    return result


def write_bundle(result: SimulationResult, out_dir) -> None:
    """Serialize every artifact of a run into ``out_dir``."""
    out = Path(out_dir)
    result.config.to_json_file(out / "config.json")
    gio.write_coordinates(out / "coords.csv", result.coords)
    gio.write_edge_list(out / "edges.csv", result.graph.edges)
    gio.write_signals(out / "sources.csv", result.sources)
    gio.write_signals(out / "observations.csv", result.observations)
    gio.write_covariance(out / "cov_x.csv", result.cov_x)
    gio.write_response(out / "true_channel.csv", result.channel)
    gio.write_channel_estimate(out / "channel_estimate.csv", result.estimate)
    gio.write_signals(out / "reconstructed.csv", result.deconv.reconstructed)
    gio.write_covariance(out / "recon_cov.csv", reconstructed_covariance(result.deconv))
    gio.write_covariance(out / "abs_diff_db.csv", result.avg_diagnostics.abs_diff_db)
    gio.write_covariance(out / "rel_diff_db.csv", result.avg_diagnostics.rel_diff_db)
    gio.write_bound_report(out / "bound_report.csv", result.bound_report)
    summary = {
        "radius": result.radius,
        "n_edges": len(result.graph.edges),
        "source_graph_connected": result.source_graph.connected,
        "source_graph_edges": len(result.source_graph.edges),
        "support_size": len(result.estimate.support),
        "n_components": len(result.estimate.components),
        "sign_recovery_rate": result.sign_recovery_rate,
        "magnitude_error_max": result.magnitude_error_max,
        "magnitude_error_mean": result.magnitude_error_mean,
        "max_reconstruction_error_aligned": result.max_reconstruction_error,
        "component_flips": list(result.flips),
        **asdict(result.gap),
        "diagonal_inflation": result.avg_diagnostics.diagonal_inflation.tolist(),
        "consistency_violations": [list(e) for e in result.consistency_violations],
        "bound_flags": sum(check.flag for check in result.bound_report),
    }
    gio.write_json(out / "summary.json", summary)
