"""Every value that holds an array owns a read-only copy of it, also after unpickling.

A value's constructor copies its input array, so the caller's array stays
writable and nothing the caller still holds can reach the value. Hypothesis
draws an input array and a view of it taken before construction; writing
through either afterwards must leave the value, and every memo or cached
fact derived from it, unchanged. A pickle round trip rebuilds each value
through its constructor: its arrays come back equal and read-only, and its
memos empty.
"""

import pickle
from functools import cache, cached_property
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from graph_deconv import (
    ChannelEstimate,
    DeconvolutionResult,
    Graph,
    RawDataset,
    SignalEnsemble,
    SpectralBasis,
    blind_deconvolve,
    eigendecompose,
    empirical_covariance,
    gft,
    laplacian,
    reconstructed_covariance,
)
from graph_deconv.covariance import _spectral_covariance
from graph_deconv.estimation import sign_of
from graph_deconv.spectral import EdgeSet

SETTINGS = settings(max_examples=100, deadline=None)

# Views a caller may take of the input before constructing a value from it.
VIEWS = {
    "whole": lambda a: a[...],
    "reversed": lambda a: a[::-1],
    "leading": lambda a: a[:1],
    "transposed": lambda a: a.T,
    "flat": lambda a: a.reshape(-1),
    "strided": lambda a: a[..., ::2],
}


def floats(shape):
    return hnp.arrays(np.float64, shape, elements=st.floats(-100, 100))


def overwrite(a):
    """Write every entry of the caller's ``a``, which must still be writable."""
    assert a.flags.writeable
    a[...] = ~a if a.dtype == bool else a + 1000.0


@cache
def path_basis(n):
    return eigendecompose(laplacian(Graph(n_vertices=n, edges={(k, k + 1) for k in range(1, n)})))


def writes():
    """Which array the caller writes after construction: the view or the input itself."""
    return st.tuples(st.sampled_from(sorted(VIEWS)), st.booleans())


@SETTINGS
@given(floats(hnp.array_shapes(min_dims=2, max_dims=2, max_side=5)), writes())
def test_ensemble_and_its_memos_ignore_later_writes(a, write):
    view, through_view = VIEWS[write[0]](a), write[1]
    basis = path_basis(a.shape[1])
    e = SignalEnsemble(signals=a)
    cov = _spectral_covariance(basis, e)
    before = e.signals.copy()
    overwrite(view if through_view else a)
    np.testing.assert_array_equal(e.signals, before)
    assert _spectral_covariance(basis, e) is cov and not cov.flags.writeable
    np.testing.assert_array_equal(cov, empirical_covariance(gft(basis, e)))


@SETTINGS
@given(st.integers(1, 5).flatmap(lambda n: floats((n, n))), writes())
def test_basis_ignores_later_writes(modes, write):
    view, through_view = VIEWS[write[0]](modes), write[1]
    eigenvalues = modes[0]  # itself a view of the modes
    basis = SpectralBasis(modes=modes, eigenvalues=eigenvalues)
    before = basis.modes.copy(), basis.eigenvalues.copy()
    overwrite(view if through_view else modes)
    overwrite(eigenvalues)
    np.testing.assert_array_equal(basis.modes, before[0])
    np.testing.assert_array_equal(basis.eigenvalues, before[1])


def trees(g):
    return [(t.order, t.parents) for t in g.trees]


@SETTINGS
@given(st.integers(1, 6).flatmap(lambda n: hnp.arrays(bool, (n, n))), writes())
def test_graph_and_its_cached_facts_ignore_later_writes(bits, write):
    mask = np.triu(bits, 1)
    view, through_view = VIEWS[write[0]](mask), write[1]
    n = mask.shape[0]
    g = Graph(n_vertices=n, edges=EdgeSet(mask))
    adjacency, degrees, before = g.adjacency, g.degrees, trees(g)
    edges = sorted(g.edges)
    overwrite(view if through_view else mask)
    assert sorted(g.edges) == edges
    assert g.adjacency is adjacency and g.degrees is degrees and trees(g) == before
    fresh = Graph(n_vertices=n, edges=frozenset(edges))
    np.testing.assert_array_equal(adjacency, fresh.adjacency)
    np.testing.assert_array_equal(degrees, fresh.degrees)
    assert before == trees(fresh)


@SETTINGS
@given(floats(st.integers(1, 6)), writes())
def test_estimate_ignores_later_writes(gamma, write):
    view, through_view = VIEWS[write[0]](gamma), write[1]
    wrapped = ChannelEstimate.from_response(gamma)
    built = ChannelEstimate(gamma_m=gamma, support=wrapped.support, components=wrapped.components)
    before = wrapped.gamma_m.copy()
    overwrite(view if through_view else gamma)
    for est in (wrapped, built):
        np.testing.assert_array_equal(est.gamma_m, before)
        for comp in est.components:
            assert comp.anchor_sign == sign_of(est.gamma_m[comp.anchor - 1])


class TestAliasingSnippets:
    """The ways a caller could change a value before every value copied its input."""

    def test_view_taken_before_construction(self):
        a = np.zeros((2, 3))
        v = a[0]
        e = SignalEnsemble(signals=a)
        v[0] = 5.0
        assert e.signals[0, 0] == 0.0

    def test_caller_re_enables_writes(self):
        a = np.zeros((2, 3))
        e = SignalEnsemble(signals=a)
        a.flags.writeable = True
        a[0, 0] = 5.0
        assert e.signals[0, 0] == 0.0

    def test_edge_mask_view(self):
        m = np.triu(np.ones((3, 3), bool), 1)
        v = m[0]
        g = Graph(3, EdgeSet(m))
        g.adjacency
        v[2] = False
        assert sorted(g.edges) == [(1, 2), (1, 3), (2, 3)]
        assert g.adjacency[0, 2] and g.degrees.tolist() == [2, 2, 2]

    def test_response_of_an_estimate(self):
        gam = np.array([1.0, -2.0, 3.0])
        est = ChannelEstimate.from_response(gam)
        gam[0] = -9.0
        assert est.gamma_m[0] == 1.0 and est.components[0].anchor_sign == 1

    def test_inverse_of_a_result(self):
        basis = path_basis(3)
        result = blind_deconvolve(
            ChannelEstimate.from_response([1.0, -2.0, 3.0]), SignalEnsemble(np.ones((2, 3))), basis
        )
        inverse = np.array(result.inverse)
        aligned = DeconvolutionResult(result.observations, inverse, result.support, basis)
        inverse[0] = 7.0
        assert aligned.inverse[0] == 1.0 and not aligned.inverse.flags.writeable

    def test_dataset_values(self):
        values = np.ones((2, 3, 4))
        raw = RawDataset(values=values)
        values[0, 0, 0] = 7.0
        assert raw.values[0, 0, 0] == 1.0 and not raw.values.flags.writeable


def memos(value):
    """The memo fields that are set and the cached properties that have been read."""
    cached = {k for k, v in vars(type(value)).items() if isinstance(v, cached_property)}
    held = {"_covariance"} if getattr(value, "_covariance", None) is not None else set()
    return {k for k in cached if k in vars(value)} | held


def pickled_values():
    """Each value type with its memos filled: name -> (value, array paths, memo-holding paths)."""
    basis = path_basis(4)
    y = SignalEnsemble(signals=np.arange(8.0).reshape(2, 4))
    est = ChannelEstimate.from_response([1.0, -2.0, 3.0, 4.0])
    result = blind_deconvolve(est, y, basis)
    reconstructed_covariance(result)
    result.reconstructed
    graph = Graph(4, {(1, 2), (2, 3)})
    graph.trees, graph.degrees
    raw = RawDataset(values=np.arange(24.0).reshape(2, 3, 4))
    return {
        "ensemble": (y, ["signals"], [""]),
        "basis": (basis, ["modes", "eigenvalues"], []),
        "edge set": (graph.edges, ["upper"], []),
        "graph": (graph, ["edges.upper", "adjacency", "degrees"], [""]),
        "estimate": (est, ["gamma_m"], []),
        "result": (
            result, ["inverse", "observations.signals", "basis.modes"], ["", "observations"]
        ),
        "dataset": (raw, ["values"], []),
    }


@pytest.mark.parametrize("name", list(pickled_values()))
def test_pickle_round_trip_keeps_arrays_read_only_and_drops_memos(name):
    value, arrays, memo_paths = pickled_values()[name]
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is type(value)
    for path in memo_paths:
        held = attrgetter(path)(value) if path else value
        assert memos(held)
        assert not memos(attrgetter(path)(back) if path else back)
    for path in arrays:
        before, after = attrgetter(path)(value), attrgetter(path)(back)
        np.testing.assert_array_equal(after, before)
        assert after is not before and not after.flags.writeable
