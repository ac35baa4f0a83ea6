"""Spectral covariances, source and observation graphs, and concentration bounds.

The source graph lives on frequency indices 1..N and has an edge wherever the
source spectral covariance is (significantly) nonzero; the observation graph
is the subgraph of it that survives thresholding of the empirical observation
correlations. Both are ``spectral.Graph``s built from the threshold mask on
the upper triangle of a correlation matrix, so their degrees, connectivity,
support, components and breadth-first spanning trees all come from that mask.
Each tree is rooted at its component's lowest vertex with neighbours visited
in ascending order, and sign recovery propagates along them.

Once the covariance product is formed, every elementwise pass over an N x N
matrix here, in ``estimation`` and in ``deconv`` runs a row slab at a time
(``spectral._row_slabs``), each step as the whole-matrix expression would run
it, so the results are bit-for-bit the same and the temporaries stay in cache.
"""

from __future__ import annotations

import math
import numbers
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import NonpositiveVariance
from .spectral import (
    VERTEX,
    EdgeSet,
    Graph,
    SignalEnsemble,
    SpectralBasis,
    _as_spectral,
    _check_width,
    _row_slabs,
)


def empirical_covariance(e: SignalEnsemble) -> np.ndarray:
    """Empirical second-moment matrix (1/M) sum_m s_m s_m^T of an ensemble.

    Symmetric by construction and positive semidefinite with rank at most M;
    the product is symmetrised a row slab at a time. Overflow raises no
    warning: it leaves a non-finite variance, and an off-diagonal entry
    cannot exceed the larger variance of its pair, so the checks on the
    diagonal downstream see every overflow.
    """
    y = e.signals
    m, n = y.shape
    with np.errstate(over="ignore", invalid="ignore"):
        cov = y.T @ y
        # Bit-equal to ((y.T @ y) / M + its transpose) / 2, a row slab and the
        # column slab it mirrors at a time: * 0.5 rounds like / 2, and each
        # pair of mirrored entries gets the same sum in either order.
        for r in _row_slabs(n):
            top, side = cov[r, r.start :], cov[r.start :, r].T
            half = top / m
            half += side / m
            half *= 0.5
            top[...] = half
            side[...] = half
    return cov


def _spectral_covariance(basis: SpectralBasis, e: SignalEnsemble, spectral=None) -> np.ndarray:
    """``empirical_covariance`` of ``e``'s GFT under ``basis``, or of ``e`` itself when spectral.

    The covariance is formed once and kept on ``e`` read-only, for this basis
    object when ``e`` is vertex-domain, and the M x N transform is let go:
    observations estimated from are transformed and squared once, whoever
    holds them next. ``spectral``, when given, returns the transform a
    caller already holds, so a miss does not transform ``e`` again.
    """
    _check_width(basis, e)
    kept = e._covariance
    if kept is None or (kept[1] is not None and kept[1]() is not basis):
        cov = empirical_covariance(spectral() if spectral else _as_spectral(basis, e))
        cov.flags.writeable = False
        kept = cov, (weakref.ref(basis) if e.domain == VERTEX else None)
        object.__setattr__(e, "_covariance", kept)
    return kept[0]


def ensure_positive_diagonal(cov: np.ndarray, what: str) -> np.ndarray:
    """``cov`` as a float array once it is square with a positive, finite diagonal.

    Raises NonpositiveVariance naming the first vertex whose variance is zero,
    negative, infinite or NaN; only the diagonal is read.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError(f"{what} must be square, got shape {cov.shape}")
    diag = np.diag(cov)
    bad = np.flatnonzero(~((diag > 0) & (diag < np.inf)))
    if bad.size:
        k = bad[0]
        kind = "nonpositive" if diag[k] <= 0 else "non-finite"
        raise NonpositiveVariance(f"{what} has {kind} variance at vertex {k + 1} ({diag[k]:.3e})")
    return cov


def _pearson_mask(cov: np.ndarray, threshold: float, within=None) -> np.ndarray:
    """Strict upper triangle of the Pearson magnitudes ``>= threshold``, and of ``within`` if given.

    The Pearson magnitude of a pair is |C_pq| / (s_p s_q), s the square roots
    of the variances. ``cov`` has passed ``ensure_positive_diagonal``, and
    ``within`` is a strictly upper-triangular mask. The magnitudes are formed
    a row slab of the upper triangle at a time, as ``np.abs(cov) /
    np.outer(s, s)`` forms them, so no N x N of magnitudes exists.
    """
    n = cov.shape[0]
    scale = np.sqrt(np.diag(cov))
    upper = np.zeros((n, n), dtype=bool)
    for r in _row_slabs(n):
        rho = np.abs(cov[r, r.start :])
        rho /= np.outer(scale[r], scale[r.start :])
        block = np.greater_equal(rho, threshold, out=upper[r, r.start :])
        if within is None:
            square = block[:, : r.stop - r.start]
            square &= ~np.tri(*square.shape, dtype=bool)
        else:
            block &= within[r, r.start :]
    return upper


def _check_threshold(name: str, value: float) -> None:
    """Reject a correlation threshold outside [0, 1]; no Pearson magnitude exceeds 1."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number in [0, 1], got {value}")
    if not 0 <= value <= 1:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


def build_source_graph(cov_x: np.ndarray, pearson_threshold: float) -> Graph:
    """Edges at pairs whose source correlation magnitude reaches the threshold.

    Estimation works per component either way, but a disconnected source graph
    (``connected`` false) means responses are only identifiable up to one sign
    per component.
    """
    _check_threshold("pearson_threshold", pearson_threshold)
    cov_x = ensure_positive_diagonal(cov_x, "source covariance")
    return Graph(n_vertices=cov_x.shape[0], edges=EdgeSet(_pearson_mask(cov_x, pearson_threshold)))


def build_observation_graph(cov_ym: np.ndarray, source: Graph, delta: float) -> Graph:
    """Keep the source edges whose empirical observation correlation reaches ``delta``.

    The support W holds every index whose best surviving incident correlation
    reaches delta, so W is exactly the set of endpoints of kept edges (plus
    nothing else). The result is always a subgraph of the source graph.
    """
    _check_threshold("delta", delta)
    cov_ym = ensure_positive_diagonal(cov_ym, "observation covariance")
    if cov_ym.shape[0] != source.n_vertices:
        raise ValueError(
            f"covariance size {cov_ym.shape[0]} != source graph size {source.n_vertices}"
        )
    upper = _pearson_mask(cov_ym, delta, source.edges.upper)
    return Graph(n_vertices=source.n_vertices, edges=EdgeSet(upper))


def concentration_bound(
    c4: float, h_norm: float, sigma: float, m: int, eps: float, diagonal: bool
) -> float:
    """Chebyshev-type tail bound on one empirical observation-covariance entry.

    Bounds the probability that the M-sample estimate deviates from the true
    entry by at least ``eps``. The diagonal bound carries the larger fourth
    moment of squared coefficients; off-diagonal entries get the tighter
    product-moment bound. ``m`` must be an integer >= 1, ``eps`` a finite
    number > 0 and the moments finite and nonnegative; anything else raises
    ValueError.
    """
    if isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 1:
        raise ValueError(f"m must be an integer >= 1, got {m!r}")
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be a finite number > 0, got {eps}")
    if not all(math.isfinite(v) and v >= 0 for v in (c4, h_norm, sigma)):
        raise ValueError(f"c4, h_norm and sigma must be finite and >= 0, got {(c4, h_norm, sigma)}")
    if diagonal:
        numerator = c4 * h_norm**4 + 6.0 * math.sqrt(c4) * h_norm**2 * sigma**2 + 3.0 * sigma**4
    else:
        numerator = (math.sqrt(c4) * h_norm**2 + sigma**2) ** 2
    return numerator / (m * eps**2)


def delta_cap(cov_x: np.ndarray, source: Graph, h_norm: float) -> float:
    """Largest safe observation threshold, ||H||^2 * delta0 / 8.

    delta0 is the smallest source covariance magnitude over source edges. Only
    computable when the channel norm is known, so this is a simulation-side
    helper; on real data delta stays a user parameter.
    """
    cov_x = np.asarray(cov_x, dtype=float)
    upper = source.edges.upper
    if not upper.any():
        raise ValueError("source graph has no edges")
    return h_norm**2 * np.abs(cov_x[upper]).min() / 8.0


@dataclass(frozen=True)
class BoundCheck:
    """One probed entry of the Monte Carlo bound validation."""

    n: int
    nprime: int
    eps: float
    empirical: float
    bound: float
    flag: bool

    @property
    def diagonal(self) -> bool:
        return self.n == self.nprime

    @property
    def informative(self) -> bool:
        return self.bound < 1.0


def _probe_pair(probe, n: int) -> tuple[int, int]:
    """One probe as a pair of Python ints in 1..n; anything else raises ValueError."""
    try:
        p, q = probe
    except (TypeError, ValueError):
        raise ValueError(f"probe {probe!r} must be a pair of integers") from None
    if any(isinstance(v, bool) or not isinstance(v, numbers.Integral) for v in (p, q)):
        raise ValueError(f"probe {probe!r} must be a pair of integers")
    if not (1 <= p <= n and 1 <= q <= n):
        raise ValueError(f"probe ({p}, {q}) out of range 1..{n}")
    return int(p), int(q)


def validate_bound_monte_carlo(
    config,
    trials: int,
    probes=None,
    bound_targets: tuple[float, ...] = (0.1, 0.3, 0.6),
) -> list[BoundCheck]:
    """Measure empirical covariance exceedance rates against the tail bounds.

    ``config`` is a SimulationConfig; its seed fixes the population (mixing
    matrix A and channel gamma). The sorted distinct probed columns P of the
    spectral observations have covariance B B^T + sigma^2 I, B = gamma[P] A[P].
    With R from qr(B^T), so that B B^T = R^T R even when B is singular, trial t
    draws them exactly in distribution as ``w @ R + sigma * v``: w, then v (not
    at sigma = 0), are M x len(P) standard normals from the stream seeded with
    ``seed + t``. For each probed entry, epsilons are chosen so the theoretical
    bound lands on ``bound_targets``; a check is flagged when the empirical
    frequency exceeds the bound by more than three binomial standard errors.
    ``trials`` must be an integer >= 100 and every target a finite number
    > 0; anything else raises ValueError.
    """
    from .simulate import population_model

    if isinstance(trials, bool) or not isinstance(trials, numbers.Integral):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials < 100:
        raise ValueError(f"need at least 100 trials, got {trials}")
    for target in bound_targets:
        if not (math.isfinite(target) and target > 0):
            raise ValueError(f"bound target must be a finite number > 0, got {target}")
    pop = population_model(config)
    n = config.n_vertices
    m = config.sample_count
    sigma = config.noise_sigma

    if probes is None:
        off = np.abs(pop.cov_x - np.diag(np.diag(pop.cov_x)))
        i, j = np.unravel_index(int(np.argmax(off)), off.shape)
        probes = [(1, 1), (min(i, j) + 1, max(i, j) + 1)]
    probes = [_probe_pair(probe, n) for probe in probes]

    checks: list[tuple[int, int, float, float]] = []
    for p, q in probes:
        diagonal = p == q
        numerator = concentration_bound(pop.c4, pop.h_norm, sigma, 1, 1.0, diagonal)
        for target in bound_targets:
            eps = math.sqrt(numerator / (m * target))
            bound = concentration_bound(pop.c4, pop.h_norm, sigma, m, eps, diagonal)
            checks.append((p, q, eps, bound))

    pq = np.array([(p, q) for p, q, _, _ in checks], dtype=int).reshape(-1, 2) - 1
    cols, at = np.unique(pq, return_inverse=True)
    at = at.reshape(pq.shape)
    r = np.linalg.qr((pop.gamma[cols, None] * pop.mixing[cols]).T, mode="r")
    truth = pop.cov_y[pq[:, 0], pq[:, 1]]
    eps_each = np.array([eps for _, _, eps, _ in checks])
    exceed = np.zeros(len(checks), dtype=int)
    for t in range(trials):
        rng = np.random.default_rng(config.seed + t)
        yhat = rng.standard_normal((m, cols.size)) @ r
        if sigma > 0:
            yhat += sigma * rng.standard_normal((m, cols.size))
        gram = yhat.T @ yhat / m
        exceed += np.abs(gram[at[:, 0], at[:, 1]] - truth) >= eps_each

    report = []
    for k, (p, q, eps, bound) in enumerate(checks):
        freq = float(exceed[k]) / trials
        se = math.sqrt(freq * (1.0 - freq) / trials)
        report.append(
            BoundCheck(
                n=p, nprime=q, eps=eps, empirical=freq, bound=bound, flag=bool(freq > bound + 3 * se)
            )
        )
    return report
