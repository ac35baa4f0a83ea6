"""Blind deconvolution through the spectral pseudo-inverse, plus dB diagnostics.

Recovery inverts the estimated response on its support and zeroes everything
outside it, so frequency content at unsupported indices is unrecoverable by
construction. Observations may come in either domain, and only vertex-domain
ones are transformed. The result holds the spectral reconstruction; its
vertex-domain form is one inverse GFT, run the first time ``reconstructed``
is read, so callers that only need covariances never pay for it. Because the
channel is only identified up to one sign per observation-graph component,
reconstruction errors against a known ground truth are only meaningful after
choosing the best sign per component, which ``align_component_signs`` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import apply_channel, pseudo_inverse
from .covariance import empirical_covariance, ensure_positive_diagonal
from .estimation import ChannelEstimate, Component
from .spectral import SPECTRAL, SignalEnsemble, SpectralBasis, _as_spectral, igft

DB_OFFSET = 1e-5
DIAGNOSTIC_FLOOR_DB = -20.0
DISPLAY_FLOOR_DB = -30.0


@dataclass(frozen=True)
class DeconvolutionResult:
    """Reconstructed spectral coefficients, the support that was inverted, and the basis.

    The vertex-domain reconstruction, ``reconstructed``, is the inverse GFT
    of ``spectral``; it is computed the first time it is read and kept.
    """

    spectral: SignalEnsemble
    support: frozenset[int]
    basis: SpectralBasis

    @cached_property
    def reconstructed(self) -> SignalEnsemble:
        """Vertex-domain reconstruction, ``igft(basis, spectral)``."""
        return igft(self.basis, self.spectral)


@dataclass(frozen=True)
class DiagnosticMatrices:
    """dB-scale covariance discrepancies and the raw diagonal excess."""

    abs_diff_db: np.ndarray
    rel_diff_db: np.ndarray
    diagonal_inflation: np.ndarray


@dataclass(frozen=True)
class GapSummary:
    mean_diagonal_db: float
    mean_offdiagonal_db: float
    gap_db: float


def blind_deconvolve(
    estimate: ChannelEstimate, observations: SignalEnsemble, basis: SpectralBasis
) -> DeconvolutionResult:
    """Invert the estimated channel on its support.

    ``observations`` are vertex-domain samples or their GFT. Spectrally, each
    reconstructed coefficient is the observed coefficient divided by the
    estimated response, and exactly zero off support.
    """
    if not estimate.support:
        raise ValueError("estimate has empty support, nothing can be reconstructed")
    dagger = pseudo_inverse(estimate.gamma_m, estimate.support)
    xhat = apply_channel(dagger, _as_spectral(basis, observations))
    return DeconvolutionResult(spectral=xhat, support=estimate.support, basis=basis)


def reconstructed_covariance(result: DeconvolutionResult) -> np.ndarray:
    """Empirical spectral covariance of the reconstruction; zero off the support."""
    return empirical_covariance(result.spectral)


def db_scale(matrix: np.ndarray, floor_db: float = DISPLAY_FLOOR_DB) -> np.ndarray:
    """Entrywise max(10 log10(|m| + 1e-5), floor), the display scale for covariances."""
    return np.maximum(10.0 * np.log10(np.abs(np.asarray(matrix, dtype=float)) + DB_OFFSET), floor_db)


def covariance_diagnostics(
    c_recon: np.ndarray, c_source: np.ndarray, floor_db: float = DIAGNOSTIC_FLOOR_DB
) -> DiagnosticMatrices:
    """Absolute and source-normalized covariance discrepancies in dB.

    The relative matrix divides each discrepancy by the geometric mean of the
    two source variances, so it needs a strictly positive source diagonal.
    """
    if not math.isfinite(floor_db):
        raise ValueError(f"floor_db must be a finite number, got {floor_db}")
    c_recon = np.asarray(c_recon, dtype=float)
    c_source = ensure_positive_diagonal(c_source, "source covariance")
    if c_recon.shape != c_source.shape:
        raise ValueError(f"shape mismatch: {c_recon.shape} vs {c_source.shape}")
    delta = c_recon - c_source
    scale = np.sqrt(np.diag(c_source))
    return DiagnosticMatrices(
        abs_diff_db=db_scale(delta, floor_db),
        rel_diff_db=db_scale(delta / np.outer(scale, scale), floor_db),
        diagonal_inflation=np.diag(delta).copy(),
    )


def summarize_gap(d: DiagnosticMatrices) -> GapSummary:
    """Mean diagonal and off-diagonal dB error of the absolute-difference matrix.

    The gap (off-diagonal minus diagonal) is negative when cross-covariances
    are recovered better than individual variances, the signature behavior of
    pseudo-inverse deconvolution under additive noise.
    """
    m = d.abs_diff_db
    n = m.shape[0]
    if n < 2:
        raise ValueError("gap needs at least a 2 x 2 diagnostic matrix")
    diag_mask = np.eye(n, dtype=bool)
    mean_diag = float(m[diag_mask].mean())
    mean_off = float(m[~diag_mask].mean())
    return GapSummary(
        mean_diagonal_db=mean_diag,
        mean_offdiagonal_db=mean_off,
        gap_db=mean_off - mean_diag,
    )


def align_component_signs(
    result: DeconvolutionResult,
    reference: SignalEnsemble,
    components: tuple[Component, ...],
) -> tuple[DeconvolutionResult, tuple[int, ...]]:
    """Flip each component's sign to best match a spectral reference ensemble.

    For every component the flip minimizing that component's squared error is
    chosen (equivalently the sign of the inner product with the reference,
    +1 on a tie). Off-support coefficients are untouched. Returns the aligned
    result and the per-component flips, ordered like ``components``.
    """
    if reference.domain != SPECTRAL:
        raise ValueError("reference ensemble must be spectral")
    xhat = result.spectral.signals
    if reference.signals.shape != xhat.shape:
        raise ValueError(
            f"reference shape {reference.signals.shape} != reconstruction shape {xhat.shape}"
        )
    aligned = xhat.copy()
    flips = []
    for comp in components:
        cols = [v - 1 for v in comp.vertices]
        inner = float(np.sum(aligned[:, cols] * reference.signals[:, cols]))
        flip = -1 if inner < 0 else 1
        if flip < 0:
            aligned[:, cols] = -aligned[:, cols]
        flips.append(flip)
    spectral = SignalEnsemble(signals=aligned, domain=SPECTRAL)
    return DeconvolutionResult(spectral, result.support, result.basis), tuple(flips)
