"""Graphs, the Laplacian shift, its eigendecomposition, and the graph Fourier transform.

Vertices are labelled 1..N everywhere in the public interface. Arrays are
positional, so entry ``k`` of a length-N vector belongs to vertex ``k + 1``.
A label a caller passes in (an edge, probe, support or component vertex) is
a Python or numpy integer that is not a bool, checked by ``_labels`` or ``_pair``.

``Graph`` is the package's one graph type: the shift's graph, the source graph
and the observation graph are all ``Graph``s. A graph stores its vertex count
and its edges, one strictly upper-triangular boolean mask that ``edges`` reads
as a set of (i, j) pairs, an ``EdgeSet``. Everything else (the symmetric
``adjacency`` matrix, degrees, connectivity, support, components and their
spanning trees) is derived from that mask on first read, so no stored fact
can contradict the edges.
``bfs`` is the one traversal. It is level-synchronous: each level of the
breadth-first tree comes from one block of ``adjacency``, so its cost in
Python calls grows with the tree's depth, not its size. ``bfs_forest`` runs
it once per connected component.

Every value that holds an array copies a caller's array in its constructor,
also when unpickled, and stores the copy read-only (``_owned``), so no alias
can change it after the fact. An ensemble the library has just computed, a
product no one else holds, is taken as is (``_Taken``) instead of copied.
An ensemble keeps one memo, its spectral covariance, which only
``covariance._spectral_covariance`` reads or writes; no transform is kept.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Set
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import DegenerateSpectrum

SYMMETRY_TOL = 1e-10
DISTINCTNESS_TOL = 1e-9
SIGN_PIVOT_TOL = 1e-12
_TINY = float(np.finfo(float).tiny)  # the smallest normal float64

VERTEX = "vertex"
SPECTRAL = "spectral"


class _Value:
    """Base of the dataclass values that own arrays: they unpickle through their constructor."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


def _is_integer(v) -> bool:
    """True for a Python or numpy integer; a bool is not one, nor is 2.0."""
    return type(v) is int or isinstance(v, np.integer) or (
        isinstance(v, numbers.Integral) and not isinstance(v, bool)
    )


def _labels(values, n: int, what: str) -> list[int]:
    """``values`` in order as Python ints, once each is an integer in 1..n (a vertex label).

    Else ValueError names the first value that is not an integer,
    "{what} {v!r} is not an integer", or the lowest label outside 1..n.
    """
    labels = []
    for v in values:
        if not _is_integer(v):
            raise ValueError(f"{what} {v!r} is not an integer")
        labels.append(int(v))
    if labels and not 1 <= min(labels) <= max(labels) <= n:
        low = min(v for v in labels if not 1 <= v <= n)
        raise ValueError(f"{what} {low} out of range 1..{n}")
    return labels


def _pair(pair, n: int, what: str) -> tuple[int, int]:
    """``pair`` as two Python ints, once it is exactly two labels in 1..n; else ValueError naming it."""
    try:
        p, q = pair
    except (TypeError, ValueError):
        p = q = None
    if not (_is_integer(p) and _is_integer(q)):
        raise ValueError(f"{what} {pair!r} must be a pair of integers")
    if not (1 <= p <= n and 1 <= q <= n):
        raise ValueError(f"{what} {pair!r} out of range 1..{n}")
    return int(p), int(q)


def edge_mask(n_vertices: int, edges) -> np.ndarray:
    """Strictly upper-triangular boolean N x N mask of ``edges``, pairs (``_pair``) in either order."""
    if isinstance(edges, np.ndarray) and edges.ndim == 2 and edges.shape[1] == 2:
        edges = zip(*edges.T.tolist())  # pairs of Python scalars check faster than numpy rows
    ends = np.array([_pair(e, n_vertices, "edge") for e in edges], dtype=np.intp).reshape(-1, 2) - 1
    low, high = ends.min(axis=1), ends.max(axis=1)
    for k in np.flatnonzero(low == high)[:1]:
        raise ValueError(f"self loop at vertex {low[k] + 1}")
    upper = np.zeros((n_vertices, n_vertices), dtype=bool)
    upper[low, high] = True
    return upper


class EdgeSet(Set):
    """Read-only set of the edges (i, j), i < j, at the true entries of an upper-triangular mask.

    It compares, subtracts and hashes like the frozenset of the same pairs.
    Iteration yields Python-int pairs in row-major, hence sorted, order. The
    mask is copied and stored read-only.
    """

    def __init__(self, upper: np.ndarray):
        self.upper = _owned(upper, bool)

    def __reduce__(self):
        return EdgeSet, (self.upper,)

    def __len__(self) -> int:
        return int(np.count_nonzero(self.upper))

    def __contains__(self, pair) -> bool:
        if not (isinstance(pair, tuple) and len(pair) == 2):
            return False
        i, j = pair
        try:
            if not (1 <= i < j <= self.upper.shape[0] and i == int(i) and j == int(j)):
                return False
        except (TypeError, ValueError):
            return False
        return bool(self.upper[int(i) - 1, int(j) - 1])

    def __iter__(self):
        i, j = np.nonzero(self.upper)
        return zip((i + 1).tolist(), (j + 1).tolist())

    def __repr__(self) -> str:
        return f"EdgeSet({sorted(self)})"

    @classmethod
    def _from_iterable(cls, it) -> frozenset:
        return frozenset(it)

    __hash__ = Set._hash


@dataclass(frozen=True, eq=False)
class BfsTree:
    """Breadth-first spanning tree, stored one level at a time.

    ``root`` is a 1-based label. ``levels[d]`` is a pair of position arrays:
    the vertices at depth ``d + 1`` in visit order and, entry for entry,
    their parents.
    """

    root: int
    levels: tuple[tuple[np.ndarray, np.ndarray], ...]

    @property
    def order(self) -> list[int]:
        """1-based labels in visit order, root first."""
        order = [self.root]
        for new, _ in self.levels:
            order.extend((new + 1).tolist())
        return order

    @property
    def vertices(self) -> tuple[int, ...]:
        """1-based labels in ascending order."""
        return tuple(sorted(self.order))

    @property
    def parents(self) -> dict[int, int]:
        """Parent of every non-root vertex, as 1-based labels, in visit order."""
        parents: dict[int, int] = {}
        for new, parent in self.levels:
            parents.update(zip((new + 1).tolist(), (parent + 1).tolist()))
        return parents


def bfs(adj: np.ndarray, root: int, members=None) -> BfsTree:
    """Level-synchronous breadth-first spanning tree of the component of vertex ``root``.

    ``adj`` is a boolean adjacency matrix and ``members``, when given, a
    boolean mask over vertex positions that confines the search (``root`` must
    be a member). Each level comes from one block of ``adj``, the frontier's
    rows against the unseen columns: a new vertex's parent is the first
    frontier vertex adjacent to it, and the next frontier is sorted by
    (parent position, vertex). That is the visit order and the parents of a
    queue BFS that visits neighbours in ascending order (Beamer, Asanovic and
    Patterson, "Direction-optimizing breadth-first search", SC 2012, give the
    frontier form).
    """
    unseen = np.ones(adj.shape[0], dtype=bool) if members is None else np.array(members, dtype=bool)
    unseen[root - 1] = False
    frontier = np.array([root - 1])
    levels = []
    while True:
        candidates = np.flatnonzero(unseen)
        hits = adj[np.ix_(frontier, candidates)]
        reached = hits.any(axis=0)
        new = candidates[reached]
        if not new.size:
            return BfsTree(root=root, levels=tuple(levels))
        first = hits[:, reached].argmax(axis=0)
        visit = np.lexsort((new, first))
        new, parent = new[visit], frontier[first[visit]]
        unseen[new] = False
        levels.append((new, parent))
        frontier = new


def bfs_forest(adj: np.ndarray, members: np.ndarray) -> tuple[BfsTree, ...]:
    """One ``bfs`` tree per connected component of the vertices in the ``members`` mask.

    Each tree is rooted at its component's lowest vertex, and the trees are
    ordered by root.
    """
    left = np.array(members, dtype=bool)
    trees = []
    while left.any():
        tree = bfs(adj, int(np.argmax(left)) + 1, left)
        left[tree.root - 1] = False
        for new, _ in tree.levels:
            left[new] = False
        trees.append(tree)
    return tuple(trees)


@dataclass(frozen=True)
class Graph(_Value):
    """Undirected, unweighted, finite graph on vertices 1..N.

    ``edges`` may be given as an ``EdgeSet``, kept as is, or as any iterable
    of vertex pairs in either order, each two Python or numpy integers (not
    bools, not 2.0) in 1..N; a duplicate pair is the same edge, and a self
    loop or any other pair raises ValueError naming it. Edges are read back
    as tuples (i, j) with i < j. The other attributes are read-only and
    computed from the edge mask the first time they are read.
    """

    n_vertices: int
    edges: Set[tuple[int, int]]

    def __post_init__(self):
        n = self.n_vertices
        if n < 1:
            raise ValueError(f"graph needs at least one vertex, got {n}")
        if not isinstance(self.edges, EdgeSet):
            object.__setattr__(self, "edges", EdgeSet(edge_mask(n, self.edges)))
        if self.edges.upper.shape != (n, n):
            raise ValueError(f"edge mask {self.edges.upper.shape} does not fit {n} vertices")

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Symmetric boolean adjacency matrix; row ``k`` is vertex ``k + 1``."""
        upper = self.edges.upper
        return _read_only(upper | upper.T)

    @cached_property
    def degrees(self) -> np.ndarray:
        """Number of edges at each vertex, by position."""
        return _read_only(self.adjacency.sum(axis=1))

    @cached_property
    def connected(self) -> bool:
        """True when every vertex reaches every other: one vertex, or one tree over them all."""
        return self.n_vertices == 1 or (len(self.trees) == 1 and len(self.support) == self.n_vertices)

    @cached_property
    def support(self) -> frozenset[int]:
        """Labels of the vertices with at least one edge."""
        return frozenset((np.flatnonzero(self.adjacency.any(axis=1)) + 1).tolist())

    @cached_property
    def trees(self) -> tuple[BfsTree, ...]:
        """``bfs_forest`` over the support: one spanning tree per component, ordered by root."""
        return bfs_forest(self.adjacency, self.adjacency.any(axis=1))

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """The support's components as ascending tuples, entry for entry with ``trees``."""
        return tuple(tree.vertices for tree in self.trees)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _owned(a, dtype) -> np.ndarray:
    """A read-only copy of ``a`` as ``dtype`` in ``a``'s memory layout, so products round alike."""
    return _read_only(np.array(a, dtype=dtype))


class _Taken:
    """An array the library has just computed and holds nowhere else.

    ``SignalEnsemble`` takes the wrapped array as its own, with no copy;
    every check of the constructor runs all the same. A caller's array is
    never wrapped, so it is always copied.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


@dataclass(frozen=True)
class SpectralBasis(_Value):
    """Orthonormal eigenmodes of a symmetric graph shift.

    ``modes`` holds the eigenvectors as columns; ``eigenvalues`` is sorted by
    ascending magnitude, with a (lambda, -lambda) tie ordered negative first.
    Both are copied and stored read-only, like an ensemble's signals.
    """

    modes: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "modes", _owned(self.modes, float))
        object.__setattr__(self, "eigenvalues", _owned(self.eigenvalues, float))

    @property
    def n_vertices(self) -> int:
        return self.modes.shape[0]


@dataclass(frozen=True)
class SignalEnsemble(_Value):
    """M real signals of dimension N, rows are samples.

    ``domain`` is "vertex" or "spectral" and records which side of the graph
    Fourier transform the rows live on. ``signals`` is a read-only copy of
    the input. ``_covariance`` is a memo, never compared or pickled, that
    only ``covariance._spectral_covariance`` reads or writes: the read-only
    spectral covariance with a weak reference to the basis object it was
    formed under, or with None when the ensemble is spectral.
    """

    signals: np.ndarray
    domain: str = VERTEX
    _covariance: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        signals = self.signals
        if isinstance(signals, _Taken):
            arr = _read_only(np.atleast_2d(np.asarray(signals.array, dtype=float)))
        else:
            arr = _owned(np.atleast_2d(signals), float)
        if arr.ndim != 2:
            raise ValueError(f"signals must be a 2-D array, got ndim={arr.ndim}")
        if arr.shape[0] < 1:
            raise ValueError("ensemble needs at least one signal")
        if self.domain not in (VERTEX, SPECTRAL):
            raise ValueError(f"unknown domain {self.domain!r}")
        object.__setattr__(self, "signals", arr)

    @property
    def n_signals(self) -> int:
        return self.signals.shape[0]

    @property
    def n_vertices(self) -> int:
        return self.signals.shape[1]


def build_radius_graph(coords, radius: float) -> Graph:
    """Connect every pair of points within Euclidean distance ``radius``.

    ``coords`` is a sequence of (id, x, y) rows. Ids may be arbitrary but must
    be distinct; vertices are numbered 1..N in input order. A NaN or infinite
    x or y raises ValueError naming its row.
    """
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be a finite number > 0, got {radius}")
    rows = list(coords)
    if len(rows) < 2:
        raise ValueError(f"need at least 2 coordinates, got {len(rows)}")
    ids = [r[0] for r in rows]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ValueError(f"duplicate coordinate ids: {dupes}")
    xy = np.array([[float(r[1]), float(r[2])] for r in rows])
    for k in np.flatnonzero(~np.isfinite(xy))[:1]:
        row, col = divmod(int(k), 2)
        raise ValueError(f"coordinate row {row + 1} has {'xy'[col]} = {xy.flat[k].item()!r}, not a finite number")
    diff = xy[:, None, :] - xy[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", diff, diff)
    return Graph(n_vertices=len(rows), edges=EdgeSet(np.triu(dist2 <= float(radius) ** 2, 1)))


def laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian D - A. Rows sum to zero."""
    adj = g.adjacency.astype(float)
    return np.diag(adj.sum(axis=1)) - adj


def eigendecompose(shift: np.ndarray) -> SpectralBasis:
    """Eigendecompose a symmetric graph shift with distinct eigenvalues.

    Eigenpairs come back sorted by ascending |lambda|; when lambda and -lambda
    tie in magnitude the negative one goes first. Each eigenvector is flipped
    so that its first entry of magnitude above 1e-12 is positive, which makes
    spectra reproducible across solver versions.

    Both tolerances are relative to the shift's own scale, max|lambda|, so a
    shift and any rescaling of it are accepted or refused alike. Raises
    ``ValueError`` for a shift that is not square, is empty, holds a NaN or
    an infinity (naming its row and column), has eigenvalues beyond
    float64's range or below its normal range (a positive max|lambda| under
    ``np.finfo(float).tiny``, where eigh loses relative precision), or is not
    symmetric within ``1e-10 * max|lambda|``, and DegenerateSpectrum when
    any two eigenvalues coincide within ``1e-9 * max|lambda|``. The
    eigenpairs are ``np.linalg.eigh``'s, which is normwise backward stable
    (LAPACK Users' Guide, 3rd ed., section 4.7), so they are not checked
    again here.
    """
    shift = np.asarray(shift, dtype=float)
    if shift.ndim != 2 or shift.shape[0] != shift.shape[1]:
        raise ValueError(f"shift must be square, got shape {shift.shape}")
    if not shift.size:
        raise ValueError(f"shift must have at least one vertex, got shape {shift.shape}")
    with np.errstate(invalid="ignore"):  # inf - inf is NaN.
        asym = float(np.abs(shift - shift.T).max())
    if not math.isfinite(asym):  # A non-finite entry, or finite ones whose difference overflows.
        for k in np.flatnonzero(~np.isfinite(shift))[:1]:
            i, j = divmod(int(k), shift.shape[1])
            raise ValueError(f"shift entry ({i + 1}, {j + 1}) is {float(shift[i, j])!r}, not a finite number")
        raise ValueError(f"shift is not symmetric (max |S - S^T| = {asym:.3e})")

    vals, vecs = np.linalg.eigh(shift)  # eigh reads one triangle and returns lambda ascending.
    scale = float(np.max(np.abs(vals)))
    if not math.isfinite(scale):
        raise ValueError(f"shift's eigenvalues overflow float64 (max |lambda| = {scale!r})")
    if 0.0 < scale < _TINY:
        raise ValueError(f"shift's eigenvalues are subnormal (max |lambda| = {scale!r} is below {_TINY!r})")
    if asym > SYMMETRY_TOL * scale:
        raise ValueError(
            f"shift is not symmetric (max |S - S^T| = {asym:.3e} exceeds tolerance {SYMMETRY_TOL * scale:.3e})"
        )
    gaps = np.diff(vals)
    if gaps.size and np.min(gaps) <= DISTINCTNESS_TOL * scale:
        k = int(np.argmin(gaps))
        raise DegenerateSpectrum(
            f"eigenvalues {vals[k]:.12g} and {vals[k + 1]:.12g} coincide within tolerance "
            f"{DISTINCTNESS_TOL * scale:.3e}"
        )

    # |lambda| ascending; a magnitude tie (lambda, -lambda) orders negative first.
    order = np.lexsort((vals, np.abs(vals)))
    vals = vals[order]
    vecs = vecs[:, order]
    # Flip each column whose first entry above SIGN_PIVOT_TOL is negative; a
    # unit column has one. A product with -1.0 is an exact negation.
    first = (np.abs(vecs) > SIGN_PIVOT_TOL).argmax(axis=0)
    vecs *= np.where(vecs[first, np.arange(vecs.shape[1])] < 0, -1.0, 1.0)
    return SpectralBasis(modes=vecs, eigenvalues=vals)


def _check_width(basis: SpectralBasis, e: SignalEnsemble) -> None:
    if e.n_vertices != basis.n_vertices:
        raise ValueError(f"signal length {e.n_vertices} != basis dimension {basis.n_vertices}")


def gft(basis: SpectralBasis, e: SignalEnsemble) -> SignalEnsemble:
    """Graph Fourier transform of a vertex-domain ensemble: each row x -> U^T x."""
    if e.domain != VERTEX:
        raise ValueError(f"gft expects a vertex-domain ensemble, got {e.domain!r}")
    _check_width(basis, e)
    return SignalEnsemble(signals=_Taken(e.signals @ basis.modes), domain=SPECTRAL)


def igft(basis: SpectralBasis, e: SignalEnsemble) -> SignalEnsemble:
    """Inverse graph Fourier transform: each row xhat -> U xhat."""
    if e.domain != SPECTRAL:
        raise ValueError(f"igft expects a spectral-domain ensemble, got {e.domain!r}")
    _check_width(basis, e)
    return SignalEnsemble(signals=_Taken(e.signals @ basis.modes.T), domain=VERTEX)


def _as_spectral(basis: SpectralBasis, e: SignalEnsemble) -> SignalEnsemble:
    """The GFT of a vertex-domain ensemble; a spectral one as is, once its width fits the basis."""
    if e.domain == VERTEX:
        return gft(basis, e)
    _check_width(basis, e)
    return e
