"""Shift-invariant channels in spectral form.

A shift-invariant channel commutes with the graph shift and is therefore
diagonalized by the shift's eigenbasis. It is represented here by its vector
of frequency responses gamma(1..N), never by a dense N x N matrix (the dense
form only shows up in test oracles).
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import NearZeroResponse
from .spectral import SPECTRAL, SignalEnsemble, _Taken

RESPONSE_FLOOR = 1e-12


def as_response(gamma) -> np.ndarray:
    gamma = np.asarray(gamma, dtype=float).reshape(-1)
    if gamma.size == 0:
        raise ValueError("frequency response must be non-empty")
    if not np.all(np.isfinite(gamma)):
        raise ValueError("frequency response has non-finite entries")
    return gamma


def apply_channel(gamma, e: SignalEnsemble) -> SignalEnsemble:
    """Multiply each spectral coefficient by its frequency response."""
    gamma = as_response(gamma)
    if e.domain != SPECTRAL:
        raise ValueError(f"apply_channel expects a spectral ensemble, got {e.domain!r}")
    if e.n_vertices != gamma.size:
        raise ValueError(f"response length {gamma.size} != signal length {e.n_vertices}")
    return SignalEnsemble(signals=_Taken(e.signals * gamma), domain=SPECTRAL)


def operator_norm(gamma) -> float:
    """Operator norm of the channel, max_n |gamma(n)|."""
    return float(np.max(np.abs(as_response(gamma))))


def pseudo_inverse(gamma, support) -> np.ndarray:
    """Entrywise inverse of the response on ``support`` (1-based vertex indices), zero elsewhere.

    Raises ValueError for a support index that is not an integer or lies
    outside 1..N, and NearZeroResponse when some supported entry has magnitude
    at or below 1e-12, which would blow up the inversion; a range error or a
    NearZeroResponse names the lowest offending vertex.
    """
    gamma = as_response(gamma)
    idx = np.array(_support_labels(support, gamma.size), dtype=np.intp) - 1
    small = idx[np.abs(gamma[idx]) <= RESPONSE_FLOOR]
    if small.size:
        k = small[0]
        raise NearZeroResponse(
            f"response at vertex {k + 1} is {gamma[k]:.3e}, too close to zero to invert"
        )
    dagger = np.zeros_like(gamma)
    dagger[idx] = 1.0 / gamma[idx]
    return dagger


def _support_labels(support, n: int) -> list[int]:
    """``support`` as ascending Python-int labels in 1..n.

    A label that is not an integer (a bool is not one) or lies outside 1..n
    raises ValueError; a range error names the lowest such label.
    """
    labels = list(support)
    for v in labels:
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise ValueError(f"support index {v!r} is not an integer")
    vertices = sorted({int(v) for v in labels})
    outside = [v for v in vertices if not 1 <= v <= n]
    if outside:
        raise ValueError(f"support index {outside[0]} out of range 1..{n}")
    return vertices


def random_channel(n: int, amplitude: float, seed) -> np.ndarray:
    """Draw a random response with |gamma(n)| in [1 - amplitude, 1 + amplitude].

    Magnitude offsets are uniform on [-amplitude, amplitude] and signs are
    independent fair coin flips, all from a single PRNG stream so a fixed seed
    reproduces the channel exactly.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not (0 <= amplitude < 1):
        raise ValueError(f"amplitude must lie in [0, 1), got {amplitude}")
    rng = np.random.default_rng(seed)
    u = rng.uniform(-amplitude, amplitude, size=n)
    signs = rng.integers(0, 2, size=n) * 2 - 1
    return signs * (1.0 + u)


def stationarity_residual(cov_vertex: np.ndarray, shift: np.ndarray) -> float:
    """Max-norm of the commutator between a vertex covariance and the shift.

    Zero exactly when the covariance commutes with the shift, the defining
    property of a stationary signal.
    """
    cov_vertex = np.asarray(cov_vertex, dtype=float)
    shift = np.asarray(shift, dtype=float)
    if cov_vertex.shape != shift.shape or cov_vertex.ndim != 2:
        raise ValueError(f"shape mismatch: cov {cov_vertex.shape} vs shift {shift.shape}")
    return float(np.max(np.abs(cov_vertex @ shift - shift @ cov_vertex)))
