"""Spectral covariances, source and observation graphs, and concentration bounds.

The source graph lives on frequency indices 1..N and has an edge wherever the
source spectral covariance is (significantly) nonzero; the observation graph
is the subgraph of it that survives thresholding of the empirical observation
correlations. Both are ``spectral.Graph``s built from the threshold mask on
the upper triangle of a correlation matrix, so their degrees, connectivity,
support, components and breadth-first spanning trees all come from that mask.
Each tree is rooted at its component's lowest vertex with neighbours visited
in ascending order, and sign recovery propagates along them.

Two passes over N x N matrices run a row slab at a time (``_row_slabs``,
the one slab policy): the Pearson masks of the graph builders and the
per-edge magnitude system of ``estimation.estimate_magnitudes``. Each slab
runs every step as the whole-matrix expression would, so the results are
bit-for-bit the same and the temporaries stay in cache. The other N x N
outputs are formed whole and updated in place.
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
    _pair,
)

_SLAB_BYTES = 1 << 18

# Trials the bound Monte Carlo draws at once; its memory does not grow with trials.
_TRIAL_BLOCK = 1024


def _row_slabs(n: int) -> list[slice]:
    """The rows of an N x N float64 matrix, in order, as slices of about 256 KiB each.

    A pass run one slab at a time keeps its temporaries in cache instead of
    streaming whole matrices from memory. Up to N = 181 one slab holds all.
    """
    step = max(1, _SLAB_BYTES // (8 * max(n, 1)))
    return [slice(a, min(a + step, n)) for a in range(0, n, step)]


def empirical_covariance(e: SignalEnsemble) -> np.ndarray:
    """Empirical second-moment matrix (1/M) sum_m s_m s_m^T of an ensemble.

    Exactly symmetric, as numpy forms ``Y^T Y`` with a symmetric rank-k
    update and mirrors it, and positive semidefinite with rank at most M.
    Overflow raises no warning: it leaves a non-finite variance, and an
    off-diagonal entry cannot exceed the larger variance of its pair, so the
    checks on the diagonal downstream see every overflow.
    """
    y = e.signals
    with np.errstate(over="ignore", invalid="ignore"):
        cov = y.T @ y
        cov /= y.shape[0]
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


def _pearson_mask(cov: np.ndarray, threshold: float, within: np.ndarray) -> np.ndarray:
    """The Pearson magnitudes ``>= threshold`` on the strictly upper-triangular mask ``within``.

    The Pearson magnitude of a pair is |C_pq| / (s_p s_q), s the square roots
    of the variances. ``cov`` has passed ``ensure_positive_diagonal``. The
    magnitudes are formed a row slab of the upper triangle at a time, as
    ``np.abs(cov) / np.outer(s, s)`` forms them, so no N x N of magnitudes
    exists.
    """
    n = cov.shape[0]
    scale = np.sqrt(np.diag(cov))
    upper = np.zeros((n, n), dtype=bool)
    for r in _row_slabs(n):
        rho = np.abs(cov[r, r.start :])
        rho /= np.outer(scale[r], scale[r.start :])
        block = np.greater_equal(rho, threshold, out=upper[r, r.start :])
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
    n = cov_x.shape[0]
    upper = _pearson_mask(cov_x, pearson_threshold, ~np.tri(n, dtype=bool))
    return Graph(n_vertices=n, edges=EdgeSet(upper))


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


def _bartlett_blocks(factor: np.ndarray, m: int, trials: int, chi2, normal):
    """Yield, a block of trials at a time, G_t = R_t F with G_t^T G_t ~ Wishart(m, F^T F).

    ``factor`` is a k x k F. R_t is trial t's Bartlett factor of Wishart(m, I),
    with min(m, k) rows: R_ii = sqrt(chi^2(m - i)) counting i from 0, R_ij
    standard normal for j > i and zero below the diagonal (Odell and Feiveson,
    JASA 1966). At m < k its m rows are distributed as the triangular factor
    of the QR of an m x k standard normal, so m < k needs no second branch.
    The chi-squares come from the generator ``chi2`` and the normals from
    ``normal``, each consumed in trial order, and G is formed by elementwise
    products and sums, not BLAS, so no value depends on the block size.
    """
    k = factor.shape[0]
    rows = min(m, k)
    diag = np.arange(rows)
    above = np.triu_indices(rows, 1, k)
    for start in range(0, trials, _TRIAL_BLOCK):
        b = min(_TRIAL_BLOCK, trials - start)
        r = np.zeros((b, rows, k))
        r[:, diag, diag] = np.sqrt(chi2.chisquare(m - diag, (b, rows)))
        r[:, above[0], above[1]] = normal.standard_normal((b, above[0].size))
        g = r[:, :, :1] * factor[0]
        for j in range(1, k):
            g += r[:, :, j : j + 1] * factor[j]
        yield g


def validate_bound_monte_carlo(
    config,
    trials: int,
    probes=None,
    bound_targets: tuple[float, ...] = (0.1, 0.3, 0.6),
) -> list[BoundCheck]:
    """Measure empirical covariance exceedance rates against the tail bounds.

    ``config`` is a SimulationConfig; its seed fixes the population (mixing
    matrix A and channel gamma) and the draws. The sorted distinct probed
    columns P of the spectral observations have covariance
    Sigma = B B^T + sigma^2 I, B = gamma[P] A[P], so the M-sample Gram of a
    trial is Wishart(M, Sigma) / M. With F the triangular factor of the QR of
    B^T stacked on sigma I, F^T F = Sigma even when B is singular at
    sigma = 0, and each trial draws M times that Gram exactly in distribution
    as (R F)^T (R F), R a Bartlett factor (``_bartlett_blocks``): min(M, |P|)
    chi-squares and at most |P| (|P| - 1) / 2 normals a trial, not 2 M |P|
    normals, whatever M and N. For each
    probed entry, epsilons are chosen so the theoretical bound lands on
    ``bound_targets``; a check is flagged when the empirical frequency
    exceeds the bound by more than three binomial standard errors.
    ``trials`` must be an integer >= 100 and every target a finite number
    > 0; anything else raises ValueError.
    """
    from .simulate import _BOUNDS, derive_seed, population_model

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
        off = np.abs(pop.cov_x)
        np.fill_diagonal(off, 0.0)
        i, j = np.unravel_index(int(np.argmax(off)), off.shape)
        probes = [(1, 1), (min(i, j) + 1, max(i, j) + 1)]
    probes = [_pair(probe, n, "probe") for probe in probes]

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
    b = pop.gamma[cols, None] * pop.mixing[cols]
    f = np.linalg.qr(np.vstack([b.T, sigma * np.eye(cols.size)]), mode="r")
    first, second = pq.T
    truth = pop.gamma[first] * pop.gamma[second] * pop.cov_x[first, second] + sigma**2 * (first == second)
    eps_each = np.array([eps for _, _, eps, _ in checks])
    exceed = np.zeros(len(checks), dtype=int)
    streams = [np.random.default_rng(derive_seed(config.seed, _BOUNDS, s)) for s in (0, 1)]
    for g in _bartlett_blocks(f, m, trials, *streams):
        gram = g[:, 0, at[:, 0]] * g[:, 0, at[:, 1]]
        for i in range(1, g.shape[1]):
            gram += g[:, i, at[:, 0]] * g[:, i, at[:, 1]]
        gram /= m
        exceed += np.count_nonzero(np.abs(gram - truth) >= eps_each, axis=0)

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
