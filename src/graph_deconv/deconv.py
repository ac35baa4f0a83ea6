"""Blind deconvolution through the spectral pseudo-inverse, plus dB diagnostics.

Recovery inverts the estimated response on its support and zeroes everything
outside it, so frequency content at unsupported indices is unrecoverable by
construction. The result holds the observations as given, in either domain,
and the inverted response d. Their spectral form y, the GFT of vertex-domain
observations, is computed at most once, the first time ``spectral``,
``reconstructed`` or ``align_component_signs`` needs it, kept on the result
and handed to the aligned result. The spectral reconstruction y * d and its
vertex-domain form, one inverse GFT, are computed the first time
``spectral`` and ``reconstructed`` are read. The reconstructed covariance is
D C_y D with D = diag(d), where C_y is the spectral covariance kept on the
observations (``estimate_channel`` keeps it), so callers that only need
covariances never touch an M x N array. It and the two dB matrices are
formed whole and updated in place, with no row slabs; only the Pearson masks
and ``estimation.estimate_magnitudes`` run a slab at a time. Because the
channel is only identified up to one sign per observation-graph component,
reconstruction errors against a known ground truth are only meaningful after
choosing the best sign per component, which ``align_component_signs`` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import pseudo_inverse
from .covariance import _spectral_covariance, ensure_positive_diagonal
from .estimation import ChannelEstimate, Component
from .spectral import (
    SPECTRAL,
    SignalEnsemble,
    SpectralBasis,
    _as_spectral,
    _check_width,
    _owned,
    _Taken,
    _Value,
    igft,
)

DB_OFFSET = 1e-5
DIAGNOSTIC_FLOOR_DB = -20.0


@dataclass(frozen=True)
class DeconvolutionResult(_Value):
    """Observations as given, the inverted response, the support that was inverted, and the basis.

    ``observations`` is in either domain. ``inverse`` is a read-only copy of
    the reciprocal response on ``support``, zero elsewhere. The spectral
    observations, the spectral reconstruction ``spectral`` and the
    vertex-domain one, ``reconstructed``, are computed the first time they
    are needed and kept.
    """

    observations: SignalEnsemble
    inverse: np.ndarray
    support: frozenset[int]
    basis: SpectralBasis

    def __post_init__(self):
        object.__setattr__(self, "inverse", _owned(self.inverse, float))

    @cached_property
    def _observed(self) -> SignalEnsemble:
        """The spectral observations: the GFT of vertex-domain ones, formed at most once."""
        return _as_spectral(self.basis, self.observations)

    @cached_property
    def spectral(self) -> SignalEnsemble:
        """Spectral reconstruction: each observed coefficient times the inverted response."""
        product = self._observed.signals * self.inverse
        return SignalEnsemble(signals=_Taken(product), domain=SPECTRAL)

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

    ``observations`` are vertex-domain samples or their GFT, kept as given;
    nothing is transformed until an output needs it. Spectrally, each
    reconstructed coefficient is the observed coefficient divided by the
    estimated response, and exactly zero off support. An estimate of another
    length than the basis raises ValueError naming both.
    """
    if estimate.n_vertices != basis.n_vertices:
        raise ValueError(
            f"estimate has {estimate.n_vertices} responses, basis dimension is {basis.n_vertices}"
        )
    if not estimate.support:
        raise ValueError("estimate has empty support, nothing can be reconstructed")
    _check_width(basis, observations)
    return DeconvolutionResult(
        observations=observations,
        inverse=pseudo_inverse(estimate.gamma_m, estimate.support),
        support=estimate.support,
        basis=basis,
    )


def reconstructed_covariance(result: DeconvolutionResult) -> np.ndarray:
    """Empirical spectral covariance of the reconstruction, D C_y D with D = diag(inverse).

    C_y is the spectral covariance kept on the observations for this basis,
    as ``estimate_channel`` keeps it, so no M x N product is formed. Without
    it, C_y is formed from the spectral observations the result keeps, so
    ``reconstructed`` and this transform the observations once, read in
    either order. The result equals ``empirical_covariance(result.spectral)``
    up to rounding, is exactly symmetric, and is exactly +0.0 off the support.
    """
    cov_y = _spectral_covariance(result.basis, result.observations, lambda: result._observed)
    return _scaled_covariance(result.inverse, cov_y)


def _scaled_covariance(d: np.ndarray, cov_y: np.ndarray) -> np.ndarray:
    """D C_y D with D = diag(d), exactly symmetric and +0.0 wherever d is zero."""
    cov = np.outer(d, d)
    cov *= cov_y
    cov += 0.0  # turns the -0.0 of a zero times a negative entry into +0.0
    return cov


def _db_in_place(a: np.ndarray, floor_db: float) -> np.ndarray:
    """Overwrite ``a`` with max(10 log10(|a| + 1e-5), floor), operation for operation."""
    np.abs(a, out=a)
    a += DB_OFFSET
    np.log10(a, out=a)
    a *= 10.0
    return np.maximum(a, floor_db, out=a)


def covariance_diagnostics(
    c_recon: np.ndarray, c_source: np.ndarray, floor_db: float = DIAGNOSTIC_FLOOR_DB
) -> DiagnosticMatrices:
    """Absolute and source-normalized covariance discrepancies in dB.

    The relative matrix divides each discrepancy by the geometric mean of the
    two source variances, so it needs a strictly positive source diagonal.
    The discrepancy and the relative matrix are formed in the two outputs and
    scaled to dB there, so they are the only N x N arrays formed. The raw
    diagonal excess is the difference of the diagonals.
    """
    if not math.isfinite(floor_db):
        raise ValueError(f"floor_db must be a finite number, got {floor_db}")
    c_recon = np.asarray(c_recon, dtype=float)
    c_source = ensure_positive_diagonal(c_source, "source covariance")
    if c_recon.shape != c_source.shape:
        raise ValueError(f"shape mismatch: {c_recon.shape} vs {c_source.shape}")
    abs_db = c_recon - c_source
    scale = np.sqrt(np.diag(c_source))
    rel_db = np.outer(scale, scale)
    np.divide(abs_db, rel_db, out=rel_db)
    _db_in_place(abs_db, floor_db)
    _db_in_place(rel_db, floor_db)
    return DiagnosticMatrices(
        abs_diff_db=abs_db,
        rel_diff_db=rel_db,
        diagonal_inflation=np.diag(c_recon) - np.diag(c_source),
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
    +1 on a tie). A flip negates the component's entries of the inverted
    response, so off-support coefficients are untouched and no M x N array is
    copied. A component vertex outside 1..N raises ValueError naming it.
    The aligned result shares the input's spectral observations, so reading
    its outputs transforms nothing. Returns the aligned result and the
    per-component flips, ordered like ``components``.
    """
    if reference.domain != SPECTRAL:
        raise ValueError("reference ensemble must be spectral")
    y = result._observed.signals
    if reference.signals.shape != y.shape:
        raise ValueError(
            f"reference shape {reference.signals.shape} != reconstruction shape {y.shape}"
        )
    n = y.shape[1]
    inverse = result.inverse.copy()
    flips = []
    for comp in components:
        outside = [v for v in comp.vertices if not 1 <= v <= n]
        if outside:
            raise ValueError(f"component vertex {outside[0]} out of range 1..{n}")
        cols = [v - 1 for v in comp.vertices]
        inner = float(np.sum(y[:, cols] * inverse[cols] * reference.signals[:, cols]))
        flip = -1 if inner < 0 else 1
        if flip < 0:
            inverse[cols] = -inverse[cols]
        flips.append(flip)
    aligned = DeconvolutionResult(result.observations, inverse, result.support, result.basis)
    vars(aligned)["_observed"] = result._observed  # fills the cached property
    return aligned, tuple(flips)
