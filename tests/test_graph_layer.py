"""The graph layer against the loop implementations it replaced.

Each ``reference_*`` function below is the earlier pure-Python version of a
graph routine: adjacency lists and a ``list.pop(0)`` breadth-first search,
Kruskal's algorithm with union-find, double loops over vertex pairs or edges,
and the frozenset of edge tuples that graphs used to store. Hypothesis draws
random graphs, covariances and point sets, and the array versions must agree
with them exactly: the same components, spanning trees, edges, set algebra,
hashes, degrees, Laplacian entries, radii and warnings.
"""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_in_place import pearson_matrix

from graph_deconv import (
    ChannelEstimate,
    Graph,
    GraphDeconvError,
    SignalEnsemble,
    SpectralBasis,
    assign_signs,
    build_observation_graph,
    build_radius_graph,
    build_source_graph,
    center_dataset,
    empirical_covariance,
    estimate_channel,
    laplacian,
    sign_consistency_report,
)
from graph_deconv.estimation import _estimate_from_covariance, sign_of
from graph_deconv.io import RawDataset, write_edge_list
from graph_deconv.simulate import connectivity_radius
from graph_deconv.spectral import SPECTRAL, EdgeSet, bfs

SETTINGS = settings(max_examples=150, deadline=None)


def reference_edge_set(upper):
    """Edges (i, j), i < j, at the true entries of a strictly upper-triangular mask."""
    labels = np.arange(1, upper.shape[0] + 1).astype(object)
    i, j = np.nonzero(upper)
    return frozenset(zip(labels[i], labels[j]))


def reference_neighbor_lists(n, edges):
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i - 1].append(j)
        adj[j - 1].append(i)
    for lst in adj:
        lst.sort()
    return adj


def reference_bfs(n, edges, members, root):
    """Visit order and parents of a queue BFS confined to ``members``."""
    adj = reference_neighbor_lists(n, edges)
    order, parents = [root], {}
    queue, visited = [root], {root}
    while queue:
        v = queue.pop(0)
        for w in adj[v - 1]:
            if w in members and w not in visited:
                visited.add(w)
                parents[w] = v
                order.append(w)
                queue.append(w)
    return order, parents


def reference_components(vertices, n, edges):
    members = set(vertices)
    seen = set()
    comps = []
    for start in sorted(members):
        if start not in seen:
            order, _ = reference_bfs(n, edges, members - seen, start)
            seen.update(order)
            comps.append(tuple(sorted(order)))
    return tuple(comps)


def reference_assign_signs(mags, obs, cov_x, cov_ym, anchor_signs):
    adj = reference_neighbor_lists(obs.n_vertices, obs.edges)
    signs = np.ones(obs.n_vertices)
    trees = []
    for eps_k, vertices in zip(anchor_signs, obs.components):
        members = set(vertices)
        anchor = min(vertices)
        signs[anchor - 1] = eps_k
        parents = {}
        queue, visited = [anchor], {anchor}
        while queue:
            v = queue.pop(0)
            for w in adj[v - 1]:
                if w in members and w not in visited:
                    visited.add(w)
                    parents[w] = v
                    ratio = cov_ym[w - 1, v - 1] / cov_x[w - 1, v - 1]
                    if ratio == 0:
                        warnings.warn(
                            f"zero covariance ratio on tree edge ({w}, {v}), using sign +1",
                            RuntimeWarning,
                        )
                    signs[w - 1] = signs[v - 1] * sign_of(ratio)
                    queue.append(w)
        trees.append((vertices, anchor, eps_k, parents))
    return signs * mags, trees


def reference_source_graph(cov_x, threshold):
    rho = pearson_matrix(cov_x)
    n = rho.shape[0]
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rho[i, j] >= threshold:
                edges.add((i + 1, j + 1))
    degrees = np.zeros(n, dtype=int)
    for i, j in edges:
        degrees[i - 1] += 1
        degrees[j - 1] += 1
    return edges, degrees, len(reference_components(range(1, n + 1), n, edges)) == 1


def reference_radius_edges(xy, radius):
    n = len(xy)
    diff = xy[:, None, :] - xy[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", diff, diff)
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if dist2[i, j] <= float(radius) ** 2:
                edges.add((i + 1, j + 1))
    return edges


def reference_laplacian(n, edges):
    lap = np.zeros((n, n))
    for i, j in edges:
        lap[i - 1, j - 1] = -1.0
        lap[j - 1, i - 1] = -1.0
        lap[i - 1, i - 1] += 1.0
        lap[j - 1, j - 1] += 1.0
    return lap


def reference_connectivity_radius(xy):
    """Kruskal: the distance at which union-find merges the last two clusters."""
    n = xy.shape[0]
    dists = sorted(
        (float(np.hypot(*(xy[i] - xy[j]))), i, j) for i in range(n) for j in range(i + 1, n)
    )
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    merged = 0
    for d, i, j in dists:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            merged += 1
            if merged == n - 1:
                return d
    raise ValueError("could not connect the points")


def reference_sign_report(gamma, obs, cov_x, cov_ym):
    violated = []
    for i, j in sorted(obs.edges):
        ratio = cov_ym[i - 1, j - 1] / cov_x[i - 1, j - 1]
        if sign_of(gamma[i - 1]) * sign_of(gamma[j - 1]) != sign_of(ratio):
            violated.append((i, j))
    return violated


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return n, edges


def random_covariance(rng, n, rank, decimals=None):
    """PSD with a positive diagonal; rounding plants exact zeros and ties."""
    a = rng.standard_normal((n, rank))
    cov = a @ a.T + 0.1 * np.eye(n)
    if decimals is not None:
        cov = np.round(cov, decimals)
        cov[np.diag_indices(n)] = np.maximum(np.diag(cov), 0.1)
    return (cov + cov.T) / 2.0


seeds = st.integers(0, 2**32 - 1)
thresholds = st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7, 0.9]) | st.floats(0.0, 1.0)


@st.composite
def rooted_graphs(draw):
    """A graph, a nonempty set of member vertices, and a root among them."""
    n, edges = draw(graphs())
    members = draw(st.sets(st.integers(1, n), min_size=1))
    return n, edges, members, draw(st.sampled_from(sorted(members)))


class TestTraversal:
    @SETTINGS
    @given(graphs())
    @example(graph=(1, set()))
    @example(graph=(6, set()))
    def test_components_and_support_match_reference(self, graph):
        n, edges = graph
        g = Graph(n_vertices=n, edges=frozenset(edges))
        support = {v for edge in edges for v in edge}
        assert g.support == support
        assert g.components == reference_components(support, n, edges)
        for tree, vertices in zip(g.trees, g.components, strict=True):
            order, parents = reference_bfs(n, edges, set(vertices), min(vertices))
            assert tree.order == order and tree.parents == parents

    @SETTINGS
    @given(rooted_graphs())
    @example(graph=(1, set(), {1}, 1))
    @example(graph=(4, set(), {1, 2, 3, 4}, 3))
    def test_bfs_matches_reference(self, graph):
        n, edges, members, root = graph
        mask = np.zeros(n, dtype=bool)
        mask[[v - 1 for v in members]] = True
        tree = bfs(Graph(n_vertices=n, edges=frozenset(edges)).adjacency, root, mask)
        ref_order, ref_parents = reference_bfs(n, edges, members, root)
        assert tree.order == ref_order
        assert list(tree.parents.items()) == list(ref_parents.items())

    @SETTINGS
    @given(graphs())
    @example(graph=(1, set()))
    @example(graph=(2, set()))
    @example(graph=(5, set()))
    @example(graph=(3, {(1, 2)}))
    @example(graph=(5, {(1, 2), (2, 3), (3, 4)}))
    @example(graph=(4, {(1, 2), (3, 4)}))
    def test_connected_matches_reference(self, graph):
        n, edges = graph
        expected = len(reference_components(range(1, n + 1), n, edges)) == 1
        assert Graph(n_vertices=n, edges=frozenset(edges)).connected == expected

    @SETTINGS
    @given(graphs())
    def test_derived_facts_are_read_only(self, graph):
        n, edges = graph
        g = Graph(n_vertices=n, edges=frozenset(edges))
        assert not g.degrees.flags.writeable
        for name in ("adjacency", "degrees", "connected", "support", "trees", "components"):
            with pytest.raises(AttributeError):
                setattr(g, name, None)

    @SETTINGS
    @given(graphs())
    def test_adjacency_is_the_symmetric_edge_mask(self, graph):
        n, edges = graph
        adj = Graph(n_vertices=n, edges=frozenset(edges)).adjacency
        assert not adj.flags.writeable
        assert {(i + 1, j + 1) for i, j in zip(*np.nonzero(np.triu(adj)))} == edges
        np.testing.assert_array_equal(adj, adj.T)


def upper_mask(n, edges):
    upper = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        upper[i - 1, j - 1] = True
    return upper


def probes(n):
    """Hashable membership probes: pairs in and out of range, reversed, non-integer or not pairs."""
    ints = st.integers(-2, n + 2)
    return st.one_of(
        st.tuples(ints, ints),
        st.tuples(st.floats(0, n + 1), st.floats(0, n + 1)),
        st.tuples(ints.map(float), ints.map(float)),
        st.tuples(st.floats(), st.floats()),
        st.tuples(ints, ints, ints),
        st.tuples(ints),
        st.tuples(st.text(max_size=2), ints),
        st.integers(),
        st.text(max_size=3),
        st.none(),
    )


@st.composite
def labelled_pairs(draw):
    """A vertex count and valid edges in either order, repeats allowed."""
    n = draw(st.integers(2, 12))
    ends = st.integers(1, n)
    return n, draw(st.lists(st.tuples(ends, ends).filter(lambda e: e[0] != e[1]), max_size=40))


# One pair spoilt: a float label, an integral float, a third label, one label, a string.
SPOIL = [
    lambda e: (e[0] + 0.5, e[1]),
    lambda e: (e[0], float(e[1])),
    lambda e: (*e, e[0]),
    lambda e: e[:1],
    lambda e: f"{e[0]}{e[1]}",
]


class TestEdgeLabels:
    @SETTINGS
    @given(labelled_pairs(), st.sampled_from([np.int64, np.int32, np.uint8, np.intp]), st.data())
    def test_graph_is_the_scatter_of_the_sorted_pairs(self, graph, dtype, data):
        """Python-int pairs, numpy integer rows, tuples of numpy integers and
        one (k, 2) array all build the mask a numpy scatter of the sorted pairs
        sets; the same pairs with one spoilt raise a ValueError naming it."""
        n, pairs = graph
        rows = np.array(pairs, dtype=dtype).reshape(-1, 2)
        ends = np.sort(rows.astype(np.intp), axis=1) - 1
        want = np.zeros((n, n), dtype=bool)
        want[ends[:, 0], ends[:, 1]] = True
        for edges in (pairs, list(rows), [tuple(row) for row in rows], rows):
            assert np.array_equal(Graph(n, edges).edges.upper, want)
        if pairs:
            k = data.draw(st.integers(0, len(pairs) - 1))
            spoilt = data.draw(st.sampled_from(SPOIL))(pairs[k])
            with pytest.raises(ValueError, match=re.escape(f"edge {spoilt!r} must be a pair of integers")):
                Graph(n, pairs[:k] + [spoilt] + pairs[k + 1 :])


class TestEdgeSetView:
    @SETTINGS
    @given(graphs(), graphs(), st.data())
    def test_behaves_like_the_frozenset(self, graph, other_graph, data):
        n, edges = graph
        view = EdgeSet(upper_mask(n, edges))
        frozen = reference_edge_set(upper_mask(n, edges))
        other = frozenset(other_graph[1])

        assert view == frozen and frozen == view and not view != frozen
        assert (view == other) == (frozen == other) and (view != other) == (frozen != other)
        assert (view <= other) == (frozen <= other) and (other <= view) == (other <= frozen)
        assert view - other == frozen - other and other - view == other - frozen
        assert len(view) == len(frozen)
        assert list(view) == sorted(frozen)
        assert all(type(v) is int for edge in view for v in edge)
        assert hash(view) == hash(frozen)
        for probe in data.draw(st.lists(probes(n), max_size=20)) + sorted(frozen):
            assert (probe in view) == (probe in frozen)

    @SETTINGS
    @given(graphs())
    def test_graph_from_pairs_equals_graph_from_view(self, graph):
        n, edges = graph
        from_pairs = Graph(n_vertices=n, edges=frozenset(edges))
        from_view = Graph(n_vertices=n, edges=EdgeSet(upper_mask(n, edges)))
        assert from_pairs == from_view and hash(from_pairs) == hash(from_view)

    def test_view_copies_the_mask_and_the_graph_keeps_the_view(self):
        upper = np.triu(np.ones((4, 4), dtype=bool), 1)
        edges = EdgeSet(upper)
        graph = Graph(n_vertices=4, edges=edges)
        assert graph.edges is edges and not np.shares_memory(edges.upper, upper)
        assert upper.flags.writeable and not edges.upper.flags.writeable
        with pytest.raises(ValueError, match="does not fit 5 vertices"):
            Graph(n_vertices=5, edges=EdgeSet(upper))

    @SETTINGS
    @given(graphs())
    def test_edge_list_file_is_the_same(self, tmp_path_factory, graph):
        n, edges = graph
        out = tmp_path_factory.mktemp("edges")
        write_edge_list(out / "view.csv", EdgeSet(upper_mask(n, edges)))
        write_edge_list(out / "frozen.csv", reference_edge_set(upper_mask(n, edges)))
        assert (out / "view.csv").read_bytes() == (out / "frozen.csv").read_bytes()


def test_dense_graph_builders_allocate_no_edge_tuples():
    """N=512 with every pair an edge (130,816): the builders keep masks, not tuples.

    Storing the edges as a frozenset of tuples kept about 22 MB here and
    peaked near 29 MB; the masks keep about 1 MB.
    """
    n = 512
    a = np.random.default_rng(0).standard_normal((n, 4))
    cov = a @ a.T + np.eye(n)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        source = build_source_graph(cov, 0.0)
        obs = build_observation_graph(cov, source, 0.0)
        assert len(obs.edges) == n * (n - 1) // 2
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    assert current - before < 4 * 2**20
    assert peak - before < 10 * 2**20


class TestBuilders:
    @SETTINGS
    @given(seeds, st.integers(1, 12), st.integers(1, 4), thresholds)
    def test_source_graph_matches_double_loop(self, seed, n, rank, threshold):
        cov_x = random_covariance(np.random.default_rng(seed), n, rank, decimals=1)
        source = build_source_graph(cov_x, threshold)
        edges, degrees, connected = reference_source_graph(cov_x, threshold)
        assert source.edges == edges
        np.testing.assert_array_equal(source.degrees, degrees)
        assert source.connected == connected

    @SETTINGS
    @given(seeds, st.integers(1, 12), thresholds, thresholds)
    def test_observation_graph_is_the_kept_subgraph(self, seed, n, threshold, delta):
        rng = np.random.default_rng(seed)
        cov_x = random_covariance(rng, n, 2)
        cov_ym = random_covariance(rng, n, 3, decimals=1)
        source = build_source_graph(cov_x, threshold)
        obs = build_observation_graph(cov_ym, source, delta)
        rho = pearson_matrix(cov_ym)
        assert obs.edges == {(i, j) for i, j in source.edges if rho[i - 1, j - 1] >= delta}
        assert obs.edges <= source.edges
        assert obs.support == {v for edge in obs.edges for v in edge}
        assert obs.components == reference_components(obs.support, n, obs.edges)

    @SETTINGS
    @given(
        st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=2, max_size=30),
        st.floats(1e-3, 1.5),
    )
    def test_radius_graph_matches_double_loop(self, points, radius):
        coords = [(str(k), x, y) for k, (x, y) in enumerate(points)]
        graph = build_radius_graph(coords, radius)
        assert graph.edges == reference_radius_edges(np.array(points), radius)

    @SETTINGS
    @given(graphs(max_n=14))
    def test_laplacian_matches_edge_loop(self, graph):
        n, edges = graph
        lap = laplacian(Graph(n_vertices=n, edges=frozenset(edges)))
        assert np.array_equal(lap, reference_laplacian(n, edges))


class TestConnectivityRadius:
    @SETTINGS
    @given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=2, max_size=40))
    def test_equals_kruskal_on_drawn_points(self, points):
        xy = np.array(points)
        assert connectivity_radius(xy) == reference_connectivity_radius(xy)

    @SETTINGS
    @given(seeds, st.integers(2, 96))
    def test_equals_kruskal_on_uniform_layouts(self, seed, n):
        xy = np.random.default_rng(seed).random((n, 2))
        assert connectivity_radius(xy) == reference_connectivity_radius(xy)

    def test_single_point_cannot_connect(self):
        with pytest.raises(ValueError, match="could not connect"):
            connectivity_radius(np.zeros((1, 2)))


class TestSigns:
    @SETTINGS
    @given(seeds, st.integers(2, 12), thresholds, thresholds)
    @example(seed=12, n=12, threshold=0.0, delta=0.0)  # two zero-ratio tree edges
    def test_assign_signs_and_report_match_reference(self, seed, n, threshold, delta):
        rng = np.random.default_rng(seed)
        cov_x = random_covariance(rng, n, 2)
        cov_ym = random_covariance(rng, n, 3, decimals=1)
        source = build_source_graph(cov_x, threshold)
        obs = build_observation_graph(cov_ym, source, delta)
        mags = rng.uniform(0.5, 2.0, n)
        mags[rng.random(n) < 0.2] = 0.0  # a zero response has sign +1
        anchor_signs = rng.choice([-1, 1], len(obs.components)).tolist()

        with warnings.catch_warnings(record=True) as ours:
            warnings.simplefilter("always")
            est = assign_signs(mags, obs, cov_x, cov_ym, anchor_signs)
        with warnings.catch_warnings(record=True) as theirs:
            warnings.simplefilter("always")
            gamma, trees = reference_assign_signs(mags, obs, cov_x, cov_ym, anchor_signs)
        assert np.array_equal(est.gamma_m, gamma)
        assert [(c.vertices, c.anchor, c.anchor_sign, c.parents) for c in est.components] == trees
        assert [str(w.message) for w in ours] == [str(w.message) for w in theirs]
        assert all(w.filename == __file__ for w in ours)  # each warning points at its caller

        flipped = est.gamma_m * rng.choice([-1.0, 1.0], n)
        noisy = ChannelEstimate(gamma_m=flipped, support=est.support, components=est.components)
        assert sign_consistency_report(noisy, obs, cov_x, cov_ym) == reference_sign_report(
            flipped, obs, cov_x, cov_ym
        )


def outcome(call):
    """What ``call()`` returns, or the type and text of the error it raises, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = call()
        except (ValueError, GraphDeconvError) as exc:
            value = (type(exc), str(exc))
    return value, [str(w.message) for w in caught]


class TestCovarianceCore:
    """``estimate_channel`` is ``_spectral_covariance`` then the covariance-level core."""

    DRAWS = ("ints", "normal", "tiny")

    @SETTINGS
    @given(seeds, st.integers(2, 40), st.floats(0.0, 0.3), thresholds, st.sampled_from(DRAWS))
    @example(seed=0, n=6, threshold=0.1, delta=0.0, draw="ints")  # a zero-ratio tree edge
    @example(seed=15, n=40, threshold=0.1, delta=0.5, draw="tiny")  # clamped, several components
    def test_core_is_estimate_channel(self, seed, n, threshold, delta, draw):
        rng = np.random.default_rng(seed)
        cov_x = random_covariance(rng, n, 2)
        if draw == "ints":  # exact zero covariances, so zero ratios on tree edges
            y = rng.integers(-1, 2, (n + 2, n)).astype(float)
        else:  # "tiny" underflows the squared terms, so radicands clamp
            y = rng.standard_normal((n + 2, n)) * (1e-150 if draw == "tiny" else 1.0)
        source = build_source_graph(cov_x, threshold)
        observations = SignalEnsemble(signals=y, domain=SPECTRAL)
        basis = SpectralBasis(modes=np.eye(n), eigenvalues=np.arange(1.0, n + 1))
        cov_ym = empirical_covariance(observations)

        ours, our_warnings = outcome(lambda: _estimate_from_covariance(cov_x, cov_ym, source, delta))
        theirs, their_warnings = outcome(lambda: estimate_channel(cov_x, observations, basis, source, delta))
        assert our_warnings == their_warnings
        if isinstance(theirs, tuple):
            assert ours == theirs
            return
        est, obs = ours
        assert np.array_equal(est.gamma_m, theirs.gamma_m)
        assert est.support == theirs.support and est.components == theirs.components
        fresh = build_observation_graph(cov_ym, source, delta)
        assert obs.edges == fresh.edges and obs.support == fresh.support
        assert [(t.root, t.order, t.parents) for t in obs.trees] == [
            (t.root, t.order, t.parents) for t in fresh.trees
        ]


def test_center_dataset_matches_sample_loop():
    values = np.random.default_rng(5).normal(size=(4, 3, 5))
    centered = values - values.mean(axis=2, keepdims=True)
    expected = np.empty((15, 4))
    for day in range(5):
        for hour in range(3):
            expected[day * 3 + hour] = centered[:, hour, day]
    assert np.array_equal(center_dataset(RawDataset(values=values)).signals, expected)
