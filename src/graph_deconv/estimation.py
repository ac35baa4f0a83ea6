"""Covariance-driven estimation of a shift-invariant channel.

The observer knows the source spectral covariance and sees only noisy filtered
samples, in either domain; ``estimate_channel`` is the one pipeline. The CLI
and the demos call it, and the simulation runs its covariance-level core,
``_estimate_from_covariance``, on each trial's covariance, so each trial
builds one observation graph. It reads the observations only
through ``covariance._spectral_covariance``, which transforms and squares
them once, keeps the covariance on the observations the caller passed and
lets the transform go, so ``deconv.reconstructed_covariance`` of the same
observations reads it back and transforms nothing. Diagonal and
off-diagonal entries of the two covariances are tied together by a per-edge
quadratic system whose closed-form solution yields the response magnitude at
every frequency; magnitudes are averaged over all source edges incident to
the frequency, read from the source graph's ``adjacency`` and ``degrees``,
and the system is solved a row slab at a time. Signs are then fixed per
connected component of the observation graph: pick the lowest-index vertex
as anchor, give it the requested sign, and propagate along the component's
tree in the graph's ``trees``, one tree level at a time, using the sign of
the ratio between observed and source covariance on each tree edge.
The result is the true channel up to one sign per component, which is the best
any observer of second-order statistics can do.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import RESPONSE_FLOOR, _support_labels
from .covariance import (
    _row_slabs,
    _spectral_covariance,
    build_observation_graph,
    ensure_positive_diagonal,
)
from .errors import IsolatedVertex, NonpositiveVariance
from .spectral import Graph, SignalEnsemble, SpectralBasis, _owned, _Value


@dataclass(frozen=True)
class Component:
    """One connected component of the observation graph with its sign metadata.

    ``parents`` maps every non-anchor vertex to its parent in the breadth-first
    spanning tree rooted at the anchor.
    """

    vertices: tuple[int, ...]
    anchor: int
    anchor_sign: int
    parents: dict[int, int]


@dataclass(frozen=True)
class ChannelEstimate(_Value):
    """Estimated frequency responses with support and component structure.

    Plain data, whichever way it was made (``estimate_channel``, a file or
    ``from_response``): ``gamma_m`` is stored as a read-only copy, and no
    observation is kept.
    """

    gamma_m: np.ndarray
    support: frozenset[int]
    components: tuple[Component, ...]

    def __post_init__(self):
        object.__setattr__(self, "gamma_m", _owned(self.gamma_m, float))

    @property
    def n_vertices(self) -> int:
        return self.gamma_m.size

    @classmethod
    def from_response(cls, gamma, support=None) -> "ChannelEstimate":
        """Wrap a known response as an estimate, for deconvolving with ground truth.

        Default support is every index with a response magnitude above
        ``channel.RESPONSE_FLOOR`` (1e-12), so ``pseudo_inverse`` inverts it;
        a given support index that is not an integer or lies outside 1..N
        raises ValueError naming it. The single pseudo-component carries no
        spanning tree.
        """
        gamma = np.asarray(gamma, dtype=float).reshape(-1)
        if support is None:
            support = {n for n in range(1, gamma.size + 1) if abs(gamma[n - 1]) > RESPONSE_FLOOR}
        support = frozenset(_support_labels(support, gamma.size))
        components: tuple[Component, ...] = ()
        if support:
            anchor = min(support)
            components = (
                Component(
                    vertices=tuple(sorted(support)),
                    anchor=anchor,
                    anchor_sign=sign_of(gamma[anchor - 1]),
                    parents={},
                ),
            )
        return cls(gamma_m=gamma, support=support, components=components)


def sign_of(x: float) -> int:
    """Sign with the convention that zero counts as positive."""
    return -1 if x < 0 else 1


def estimate_magnitudes(cov_x: np.ndarray, cov_ym: np.ndarray, source: Graph) -> np.ndarray:
    """Response magnitudes from source and observation spectral covariances.

    For each source edge (n, n') the two covariances give one equation pair:
    the observed variance gap alpha(n,n') and the covariance ratio
    beta(n,n') = C_obs(n,n') / C_src(n,n'). Solving for |gamma(n)| gives

        sqrt((sqrt(mu) + alpha) / (2 C_src(n,n))),
        mu = 4 C_src(n,n) C_src(n',n') beta^2 + alpha^2,

    and the estimate averages this over the theta(n) edges incident to n.
    Sampling noise can push the inner radicand sqrt(mu) + alpha slightly below
    zero (mathematically it cannot be); such values are clamped to zero and
    one RuntimeWarning reports how many edges were affected, over every row
    slab the system is solved in, and the smallest radicand. A NaN or infinite
    variance in either covariance raises NonpositiveVariance naming its vertex
    (a zero observation variance is allowed); a magnitude that still comes out
    infinite or NaN, from finite entries whose squares overflow, raises
    ValueError naming its vertex.
    """
    cov_x = ensure_positive_diagonal(cov_x, "source covariance")
    cov_ym = np.asarray(cov_ym, dtype=float)
    n = source.n_vertices
    if cov_x.shape != (n, n) or cov_ym.shape != (n, n):
        raise ValueError(
            f"covariance shapes {cov_x.shape}, {cov_ym.shape} do not match graph size {n}"
        )
    diag_y = np.diag(cov_ym)
    non_finite = np.flatnonzero(~np.isfinite(diag_y))
    if non_finite.size:
        k = non_finite[0]
        raise NonpositiveVariance(
            f"observation covariance has non-finite variance at vertex {k + 1} ({diag_y[k]:.3e})"
        )
    isolated = np.nonzero(source.degrees == 0)[0]
    if isolated.size:
        raise IsolatedVertex(
            f"vertex {isolated[0] + 1} has no incident source edge, magnitude undefined"
        )

    adjacent = source.adjacency
    diag_x = np.diag(cov_x)
    sums = np.empty(n)
    clamped, minima = 0, []
    for r in _row_slabs(n):
        adj = adjacent[r]
        zero = adj & (cov_x[r] == 0)
        if zero.any():
            i, j = np.argwhere(zero)[0]
            raise ValueError(f"source covariance is zero on edge ({r.start + i + 1}, {j + 1})")
        alpha = diag_y[r, None] - diag_y[None, :]
        # mu = 4 C_src(n,n) C_src(n',n') beta^2 + alpha^2 is evaluated in
        # place, operation for operation as written, so it is bit-equal to
        # the plain expression; beta's buffer is reused for the squares and
        # the per-edge values, which are zero off the source edges.
        beta = np.divide(cov_ym[r], cov_x[r], out=np.zeros(adj.shape), where=adj)
        mu = np.outer(diag_x[r], diag_x)
        mu *= 4.0
        mu *= np.square(beta, out=beta)
        mu += np.square(alpha, out=beta)
        inner = np.sqrt(mu, out=mu)
        inner += alpha

        negative = inner < 0
        negative &= adj
        count = int(np.count_nonzero(negative))
        # Only slabs with a negative radicand are clamped. Elsewhere that
        # leaves a -0.0 radicand at most, whose root changes no row sum, as
        # every row also sums the +0.0 of its diagonal. Those radicands are
        # >= 0 or NaN, so the clamped slabs hold the smallest one unless a
        # NaN, which makes its row sum NaN, is anywhere.
        if count:
            clamped += count
            minima.append(np.min(inner[adj]))
            np.maximum(inner, 0.0, out=inner)
        beta.fill(0.0)
        np.sqrt(inner, out=beta, where=adj).sum(axis=1, out=sums[r])

    if clamped:
        worst = np.nan if np.isnan(sums).any() else float(min(minima))
        warnings.warn(
            f"clamped negative radicand on {clamped} edge(s) (min {worst:.3e}); "
            "the two covariances are inconsistent, likely from sampling noise",
            RuntimeWarning,
            stacklevel=2,
        )
    magnitudes = sums / (source.degrees * np.sqrt(2.0 * diag_x))
    bad = np.flatnonzero(~np.isfinite(magnitudes))
    if bad.size:
        raise ValueError(
            f"magnitude at vertex {bad[0] + 1} is {magnitudes[bad[0]]}; "
            "the covariances hold non-finite entries or overflow"
        )
    return magnitudes


def assign_signs(
    magnitudes,
    obs: Graph,
    cov_x: np.ndarray,
    cov_ym: np.ndarray,
    anchor_signs=None,
) -> ChannelEstimate:
    """Fix signs per component by anchored breadth-first propagation.

    The anchor of each component is its lowest-index vertex and receives the
    corresponding entry of ``anchor_signs`` (all +1 by default), an integral
    -1 or +1 that is not a bool; any other entry raises ``ValueError``
    naming it. Every other supported vertex gets the sign that makes the
    product of endpoint signs match the sign of the observed/source
    covariance ratio on its edge of the component's spanning tree in
    ``obs.trees``, set one tree level at a time. A zero ratio counts as
    positive and warns once per tree edge, in visit order. Off-support
    vertices keep sign +1.
    """
    mags = np.asarray(magnitudes, dtype=float).reshape(-1)
    n = obs.n_vertices
    if mags.size != n:
        raise ValueError(f"got {mags.size} magnitudes for {n} vertices")
    cov_x = np.asarray(cov_x, dtype=float)
    cov_ym = np.asarray(cov_ym, dtype=float)
    trees = obs.trees
    if anchor_signs is None:
        anchor_signs = [1] * len(trees)
    anchor_signs = list(anchor_signs)
    if len(anchor_signs) != len(trees):
        raise ValueError(f"got {len(anchor_signs)} anchor signs for {len(trees)} components")
    for s in anchor_signs:  # a bool is not a sign, nor 1.7 nor "1"
        if isinstance(s, bool) or not isinstance(s, numbers.Real) or s not in (-1, 1):
            raise ValueError(f"anchor signs must be -1 or +1, got {s!r}")
    anchor_signs = [int(s) for s in anchor_signs]

    signs = np.ones(n)
    components = []
    for eps_k, tree in zip(anchor_signs, trees):
        signs[tree.root - 1] = eps_k
        for new, parent in tree.levels:
            ratio = cov_ym[new, parent] / cov_x[new, parent]
            zero = ratio == 0
            for w, v in zip((new[zero] + 1).tolist(), (parent[zero] + 1).tolist()):
                warnings.warn(
                    f"zero covariance ratio on tree edge ({w}, {v}), using sign +1",
                    RuntimeWarning,
                    stacklevel=2,
                )
            signs[new] = signs[parent] * np.where(ratio < 0, -1.0, 1.0)
        components.append(
            Component(
                vertices=tree.vertices, anchor=tree.root, anchor_sign=eps_k, parents=tree.parents
            )
        )

    return ChannelEstimate(
        gamma_m=signs * mags, support=obs.support, components=tuple(components)
    )


def estimate_channel(
    cov_x: np.ndarray,
    observations: SignalEnsemble,
    basis: SpectralBasis,
    source: Graph,
    delta: float,
) -> ChannelEstimate:
    """Full channel estimation pipeline from observations in either domain.

    Transforms vertex-domain observations, forms their empirical spectral
    covariance, recovers magnitudes from the per-edge quadratic solution,
    thresholds the observation graph at ``delta``, and assigns signs
    component by component with every anchor set to +1. The spectral
    covariance is kept on ``observations`` for this basis object, and the
    transform of vertex-domain observations is let go.
    """
    cov_ym = _spectral_covariance(basis, observations)
    return _estimate_from_covariance(cov_x, cov_ym, source, delta)[0]


def _estimate_from_covariance(
    cov_x: np.ndarray, cov_ym: np.ndarray, source: Graph, delta: float
) -> tuple[ChannelEstimate, Graph]:
    """The estimate from the spectral covariance ``cov_ym``, and the observation graph it signs along.

    Magnitudes, then the observation graph at ``delta``, then signs with
    every anchor +1: the whole of ``estimate_channel`` once the covariance is
    formed, and what ``run_simulation`` runs on each trial's covariance.
    """
    magnitudes = estimate_magnitudes(cov_x, cov_ym, source)
    obs = build_observation_graph(cov_ym, source, delta)
    return assign_signs(magnitudes, obs, cov_x, cov_ym), obs


def sign_consistency_report(
    estimate: ChannelEstimate,
    obs: Graph,
    cov_x: np.ndarray,
    cov_ym: np.ndarray,
) -> list[tuple[int, int]]:
    """Observation-graph edges whose sign relation the estimate violates.

    Spanning-tree edges are consistent by construction, so anything reported
    here is a non-tree edge; a long list signals heavy noise. Returns sorted
    (n, n') pairs with n < n'.
    """
    cov_x = np.asarray(cov_x, dtype=float)
    cov_ym = np.asarray(cov_ym, dtype=float)
    i, j = np.nonzero(obs.edges.upper)
    signs = np.where(estimate.gamma_m < 0, -1, 1)
    ratio = cov_ym[i, j] / cov_x[i, j]
    bad = signs[i] * signs[j] != np.where(ratio < 0, -1, 1)
    return list(zip((i[bad] + 1).tolist(), (j[bad] + 1).tolist()))
