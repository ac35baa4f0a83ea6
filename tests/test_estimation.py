"""Channel estimation: magnitude recovery, anchored sign propagation, pipeline.

Ground truth:
- the 2-vertex fixture is solved by hand from the covariance relations
- noiseless runs must reproduce the planted channel exactly (the observation
  covariance factors through the source covariance when sigma = 0)
- exhaustive check over every connected labeled graph on up to 5 vertices
"""

import itertools
import re
import sys
import warnings
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from graph_deconv import (
    ChannelEstimate,
    Graph,
    IsolatedVertex,
    NonpositiveVariance,
    SignalEnsemble,
    assign_signs,
    blind_deconvolve,
    build_observation_graph,
    build_source_graph,
    eigendecompose,
    empirical_covariance,
    estimate_channel,
    estimate_magnitudes,
    gft,
    igft,
    random_channel,
    reconstructed_covariance,
    sign_consistency_report,
    transmit,
)
from graph_deconv import covariance, spectral
from graph_deconv.io import read_channel_estimate, write_channel_estimate
from graph_deconv.simulate import simulation_graph, synthetic_source


def exact_observation_cov(gamma, cov_x, sigma=0.0):
    cov = np.outer(gamma, gamma) * cov_x
    if sigma:
        cov = cov + sigma**2 * np.eye(len(gamma))
    return cov


class TestEstimateMagnitudes:
    def test_two_vertex_fixture_by_hand(self):
        """cov_x = [[1, .5], [.5, 1]], gamma = (2, 1), sigma = 0.

        Exact observation covariance is [[4, 1], [1, 1]]. For vertex 1 the
        variance gap is 3, the covariance ratio 2, the discriminant 25, and
        sqrt((5 + 3) / 2) = 2; vertex 2 mirrors it with gap -3 and value 1.
        """
        cov_x = np.array([[1.0, 0.5], [0.5, 1.0]])
        cov_y = np.array([[4.0, 1.0], [1.0, 1.0]])
        source = Graph(n_vertices=2, edges=[(1, 2)])
        mags = estimate_magnitudes(cov_x, cov_y, source)
        np.testing.assert_allclose(mags, [2.0, 1.0], atol=1e-12)

    def test_identity_channel(self):
        rng = np.random.default_rng(30)
        a = rng.standard_normal((5, 5))
        cov_x = a @ a.T + np.eye(5)
        source = build_source_graph(cov_x, 0.0)
        mags = estimate_magnitudes(cov_x, cov_x, source)
        np.testing.assert_allclose(mags, np.ones(5), atol=1e-10)

    def test_noiseless_exact_recovery_n8(self):
        mixing, xhat = synthetic_source(8, 500, 31)
        cov_x = empirical_covariance(xhat)
        gamma = random_channel(8, 0.2, 32)
        yhat = SignalEnsemble(xhat.signals * gamma, domain="spectral")
        source = build_source_graph(cov_x, 0.01)
        mags = estimate_magnitudes(cov_x, empirical_covariance(yhat), source)
        assert np.max(np.abs(mags - np.abs(gamma))) <= 1e-8

    def test_all_connected_graphs_up_to_five_vertices(self):
        """Exact covariances recover |gamma| on every connected labeled graph."""
        rng = np.random.default_rng(33)
        for n in (2, 3, 4, 5):
            pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            for mask in itertools.product((False, True), repeat=len(pairs)):
                edges = [p for p, keep in zip(pairs, mask) if keep]
                source = Graph(n_vertices=n, edges=edges)
                if not source.connected:
                    continue
                a = rng.standard_normal((n, n))
                cov_x = a @ a.T + n * np.eye(n)
                gamma = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
                cov_y = exact_observation_cov(gamma, cov_x)
                mags = estimate_magnitudes(cov_x, cov_y, source)
                assert np.max(np.abs(mags - np.abs(gamma))) <= 1e-10

    def test_isolated_vertex_rejected(self):
        cov_x = np.eye(3) + 0.5
        source = Graph(n_vertices=3, edges=[(1, 2)])
        with pytest.raises(IsolatedVertex, match="vertex 3"):
            estimate_magnitudes(cov_x, cov_x, source)

    def test_nonpositive_variance_rejected(self):
        cov_x = np.array([[1.0, 0.5], [0.5, -1.0]])
        source = Graph(n_vertices=2, edges=[(1, 2)])
        with pytest.raises(NonpositiveVariance):
            estimate_magnitudes(cov_x, np.eye(2), source)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_observation_covariance_names_the_vertex(self, bad):
        """Without the check an infinite variance gave a NaN magnitude that the
        observation graph then silently dropped from the support."""
        cov_x = np.full((3, 3), 0.5) + np.eye(3)
        cov_ym = cov_x.copy()
        cov_ym[1, 1] = bad
        source = build_source_graph(cov_x, 0.01)
        with pytest.raises(NonpositiveVariance, match="observation covariance has non-finite "
                           "variance at vertex 2"):
            estimate_magnitudes(cov_x, cov_ym, source)

    def test_overflowing_magnitude_names_the_vertex(self):
        """Finite covariances whose squared ratio overflows give an infinite magnitude."""
        cov_x = np.array([[1.0, 0.5], [0.5, 1.0]])
        source = Graph(n_vertices=2, edges=[(1, 2)])
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="vertex 1 is inf"):
            estimate_magnitudes(cov_x, 1e200 * cov_x, source)

    def test_zero_source_covariance_on_edge_rejected(self):
        cov_x = np.eye(2)
        source = Graph(n_vertices=2, edges=[(1, 2)])
        with pytest.raises(ValueError, match="zero"):
            estimate_magnitudes(cov_x, np.eye(2), source)

    def test_zero_radicand_is_not_clamped(self):
        """A zero observed covariance on an edge gives the endpoint with the
        smaller variance a radicand sqrt(alpha^2) + alpha of exactly 0: its
        magnitude is 0, and nothing was clamped, so nothing warns."""
        cov_x = np.array([[1.0, 0.5], [0.5, 1.0]])
        cov_y = np.diag([1.0, 4.0])
        source = Graph(n_vertices=2, edges=[(1, 2)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mags = estimate_magnitudes(cov_x, cov_y, source)
        assert np.array_equal(mags, [0.0, np.sqrt(6.0) / np.sqrt(2.0)])

    def test_inconsistent_inputs_clamp_with_warning(self):
        """The inner radicand is nonnegative in exact arithmetic and IEEE
        round-to-nearest preserves that for normal floats, so the clamp only
        fires when the squared terms underflow; fabricate such an input."""
        cov_x = np.array([[1.0, 0.9], [0.9, 1.0]])
        tiny = 1e-300
        cov_y = np.array([[0.0, 0.9 * tiny], [0.9 * tiny, tiny]])
        source = Graph(n_vertices=2, edges=[(1, 2)])
        with pytest.warns(RuntimeWarning, match="clamped") as caught:
            mags = estimate_magnitudes(cov_x, cov_y, source)
        assert [w.filename for w in caught] == [__file__]  # the warning points at its caller
        assert np.all(mags >= 0)
        assert np.all(np.isfinite(mags))


class TestAssignSigns:
    def test_chained_path_fixture(self):
        """Path 1-2-3 with negative ratios on both edges gives (+1, -1, +1)."""
        cov_x = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.5], [0.0, 0.5, 1.0]])
        cov_y = np.array([[1.0, -0.5, 0.0], [-0.5, 1.0, -0.5], [0.0, -0.5, 1.0]])
        source = Graph(n_vertices=3, edges=[(1, 2), (2, 3)])
        obs = build_observation_graph(cov_y, source, 0.001)
        est = assign_signs(np.array([1.0, 1.0, 1.0]), obs, cov_x, cov_y)
        np.testing.assert_array_equal(np.sign(est.gamma_m), [1.0, -1.0, 1.0])
        assert est.components[0].anchor == 1
        assert est.components[0].parents == {2: 1, 3: 2}

    def test_anchor_flip_negates_whole_component(self):
        mixing, xhat = synthetic_source(8, 400, 34)
        cov_x = empirical_covariance(xhat)
        gamma = random_channel(8, 0.2, 35)
        cov_y = exact_observation_cov(gamma, cov_x)
        source = build_source_graph(cov_x, 0.01)
        obs = build_observation_graph(cov_y, source, 0.001)
        mags = estimate_magnitudes(cov_x, cov_y, source)
        plus = assign_signs(mags, obs, cov_x, cov_y, anchor_signs=[1] * len(obs.components))
        minus = assign_signs(mags, obs, cov_x, cov_y, anchor_signs=[-1] * len(obs.components))
        np.testing.assert_allclose(minus.gamma_m, -plus.gamma_m)
        np.testing.assert_allclose(np.abs(minus.gamma_m), np.abs(plus.gamma_m))

    def test_components_are_independent(self):
        """Flipping one component's anchor leaves the other untouched."""
        cov_x = np.eye(4)
        cov_x[0, 1] = cov_x[1, 0] = 0.8
        cov_x[2, 3] = cov_x[3, 2] = 0.8
        gamma = np.array([1.0, -1.0, 1.0, 1.0])
        cov_y = exact_observation_cov(gamma, cov_x)
        source = build_source_graph(cov_x, 0.01)
        obs = build_observation_graph(cov_y, source, 0.001)
        assert len(obs.components) == 2
        mags = np.ones(4)
        base = assign_signs(mags, obs, cov_x, cov_y, anchor_signs=[1, 1])
        flipped = assign_signs(mags, obs, cov_x, cov_y, anchor_signs=[1, -1])
        np.testing.assert_array_equal(base.gamma_m[:2], flipped.gamma_m[:2])
        np.testing.assert_array_equal(base.gamma_m[2:], -flipped.gamma_m[2:])

    def test_off_support_gets_positive_sign(self):
        cov_x = np.eye(3)
        cov_x[0, 1] = cov_x[1, 0] = 0.9
        source = Graph(n_vertices=3, edges=[(1, 2), (2, 3)])
        cov_y = cov_x.copy()
        cov_y[1, 2] = cov_y[2, 1] = 0.0
        obs = build_observation_graph(cov_y, source, 0.01)
        assert 3 not in obs.support
        est = assign_signs(np.array([2.0, 2.0, 2.0]), obs, cov_x, cov_y)
        assert est.gamma_m[2] == 2.0

    def test_anchor_sign_validation(self):
        cov_x = np.eye(2) + 0.5 - 0.5 * np.eye(2)
        cov_x = np.array([[1.0, 0.5], [0.5, 1.0]])
        source = Graph(n_vertices=2, edges=[(1, 2)])
        obs = build_observation_graph(cov_x, source, 0.01)
        with pytest.raises(ValueError, match="anchor signs"):
            assign_signs(np.ones(2), obs, cov_x, cov_x, anchor_signs=[2])

    @pytest.mark.parametrize("sign", [1.7, True, False, "1", np.True_, 0, -0.5, None, np.nan])
    def test_anchor_sign_that_is_not_an_integral_unit_is_refused(self, sign):
        cov_x = np.array([[1.0, 0.5], [0.5, 1.0]])
        obs = build_observation_graph(cov_x, Graph(n_vertices=2, edges=[(1, 2)]), 0.01)
        with pytest.raises(ValueError, match=f"anchor signs must be -1 or \\+1, got {re.escape(repr(sign))}"):
            assign_signs(np.ones(2), obs, cov_x, cov_x, anchor_signs=[sign])

    @pytest.mark.parametrize("sign", [-1, -1.0, np.int8(-1), np.float64(-1.0)])
    def test_integral_anchor_signs_of_any_number_type_are_kept(self, sign):
        cov_x = np.array([[1.0, 0.5], [0.5, 1.0]])
        obs = build_observation_graph(cov_x, Graph(n_vertices=2, edges=[(1, 2)]), 0.01)
        est = assign_signs(np.ones(2), obs, cov_x, cov_x, anchor_signs=[sign])
        assert est.gamma_m.tolist() == [-1.0, -1.0]
        assert type(est.components[0].anchor_sign) is int and est.components[0].anchor_sign == -1


class TestEstimateChannel:
    def run_noiseless(self, n=8, m=500, seed=36):
        coords, radius, graph, basis = simulation_graph(n, seed)
        mixing, xhat = synthetic_source(n, m, seed)
        sources = igft(basis, xhat)
        cov_x = empirical_covariance(xhat)
        gamma = random_channel(n, 0.2, seed + 1)
        yhat = SignalEnsemble(xhat.signals * gamma, domain="spectral")
        observations = igft(basis, yhat)
        source = build_source_graph(cov_x, 0.01)
        est = estimate_channel(cov_x, observations, basis, source, 0.001)
        return est, gamma, cov_x, source, observations, basis

    def test_noiseless_recovery_up_to_component_sign(self):
        est, gamma, *_ = self.run_noiseless()
        assert est.support == frozenset(range(1, 9))
        for comp in est.components:
            idx = [v - 1 for v in comp.vertices]
            rel = est.gamma_m[idx] / gamma[idx]
            assert np.max(np.abs(np.abs(rel) - 1.0)) <= 1e-8
            assert np.max(np.abs(rel - rel[0])) <= 1e-8

    def test_identity_channel_recovered_with_positive_anchor(self):
        coords, radius, graph, basis = simulation_graph(6, 37)
        mixing, xhat = synthetic_source(6, 300, 37)
        cov_x = empirical_covariance(xhat)
        observations = igft(basis, xhat)
        source = build_source_graph(cov_x, 0.01)
        est = estimate_channel(cov_x, observations, basis, source, 0.001)
        np.testing.assert_allclose(est.gamma_m, np.ones(6), atol=1e-8)

    def test_sign_relation_holds_on_every_tree_edge(self):
        """The defining sign product holds exactly along each spanning tree."""
        est, gamma, cov_x, source, observations, basis = self.run_noiseless(seed=38)
        cov_ym = empirical_covariance(gft(basis, observations))
        for comp in est.components:
            for child, parent in comp.parents.items():
                ratio = cov_ym[child - 1, parent - 1] / cov_x[child - 1, parent - 1]
                lhs = np.sign(est.gamma_m[child - 1]) * np.sign(est.gamma_m[parent - 1])
                assert lhs == np.sign(ratio)

    def test_overflowing_observations_rejected(self):
        """Observations scaled by 1e160 square to infinity in their covariance;
        without the check the estimate came back with an empty support."""
        _, _, cov_x, source, observations, basis = self.run_noiseless()
        big = SignalEnsemble(signals=observations.signals * 1e160)
        with np.errstate(all="ignore"), pytest.raises(
            NonpositiveVariance, match="observation covariance has non-finite variance at vertex 1"
        ):
            estimate_channel(cov_x, big, basis, source, 0.001)

    def test_deterministic(self):
        a, *_ = self.run_noiseless(seed=39)
        b, *_ = self.run_noiseless(seed=39)
        np.testing.assert_array_equal(a.gamma_m, b.gamma_m)
        assert a.support == b.support

    def test_estimation_and_deconvolution_share_one_gft_and_one_covariance(self, calls):
        """Vertex observations passed to both calls are transformed and squared once."""
        cov_x, y, basis, source = noisy_inputs()
        calls.clear()
        est = estimate_channel(cov_x, y, basis, source, 0.001)
        result = blind_deconvolve(est, y, basis)
        reconstructed_covariance(result)
        assert dict(calls) == {"gft": 1, "empirical_covariance": 1}
        assert [f.name for f in fields(ChannelEstimate)] == ["gamma_m", "support", "components"]

    @pytest.mark.parametrize("recon_first", [True, False], ids=["recon-first", "cov-first"])
    def test_file_estimate_outputs_cost_one_gft_in_either_read_order(self, calls, tmp_path, recon_first):
        """An estimate from a CSV knows nothing of the observations, so the
        result transforms them once and both outputs read that transform."""
        cov_x, y, basis, source = noisy_inputs()
        path = tmp_path / "channel_estimate.csv"
        write_channel_estimate(path, estimate_channel(cov_x, y, basis, source, 0.001))
        y = SignalEnsemble(signals=y.signals)  # a copy that keeps nothing of the estimation
        calls.clear()
        result = blind_deconvolve(read_channel_estimate(path), y, basis)
        if recon_first:
            result.reconstructed
            reconstructed_covariance(result)
        else:
            reconstructed_covariance(result)
            result.reconstructed
        assert dict(calls) == {"gft": 1, "empirical_covariance": 1}


@pytest.fixture
def calls(monkeypatch):
    """Counts of ``gft`` and ``empirical_covariance`` calls, wherever the package calls them."""
    counts = Counter()
    originals = {"gft": spectral.gft, "empirical_covariance": covariance.empirical_covariance}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    modules = [m for name, m in sys.modules.items() if name.startswith("graph_deconv.")]
    for module, (name, fn) in itertools.product(modules, originals.items()):
        if getattr(module, name, None) is fn:
            monkeypatch.setattr(module, name, counted(name, fn))
    return counts


def noisy_inputs():
    """Source covariance, noisy vertex observations, basis and source graph at N=8."""
    coords, radius, graph, basis = simulation_graph(8, 40)
    _, xhat = synthetic_source(8, 500, 40)
    cov_x = empirical_covariance(xhat)
    source = build_source_graph(cov_x, 0.01)
    y = transmit(igft(basis, xhat), random_channel(8, 0.2, 41), basis, 0.5, 42)
    return cov_x, y, basis, source


class TestFromResponse:
    @pytest.mark.parametrize(
        "support, bad",
        [({0, 2}, 0), ({1, 5}, 5), ({-1, 4}, -1), ([1.5, 2], 1.5), ([True, 2], True), (["2"], "2"), ([2.0], 2.0)],
    )
    def test_out_of_range_support_rejected(self, support, bad):
        problem = "out of range 1..3" if type(bad) is int else "is not an integer"
        with pytest.raises(ValueError, match=re.escape(f"support index {bad!r} {problem}")):
            ChannelEstimate.from_response(np.ones(3), support=support)

    def test_holds_nothing_but_its_fields(self):
        est = ChannelEstimate.from_response(np.ones(3))
        assert vars(est).keys() == {"gamma_m", "support", "components"}


class TestSignConsistencyReport:
    def test_noiseless_run_has_no_violations(self):
        cov_x = np.array([[1.0, 0.5, 0.4], [0.5, 1.0, 0.6], [0.4, 0.6, 1.0]])
        gamma = np.array([1.5, -0.9, 1.1])
        cov_y = exact_observation_cov(gamma, cov_x)
        source = build_source_graph(cov_x, 0.01)
        obs = build_observation_graph(cov_y, source, 0.001)
        mags = estimate_magnitudes(cov_x, cov_y, source)
        est = assign_signs(mags, obs, cov_x, cov_y)
        assert sign_consistency_report(est, obs, cov_x, cov_y) == []

    def test_tree_edges_never_reported(self):
        """Corrupt one non-tree observation entry: only that edge is flagged."""
        cov_x = np.array([[1.0, 0.5, 0.4], [0.5, 1.0, 0.6], [0.4, 0.6, 1.0]])
        gamma = np.array([1.0, 1.0, 1.0])
        cov_y = exact_observation_cov(gamma, cov_x)
        cov_y[1, 2] = cov_y[2, 1] = -cov_y[1, 2]
        source = build_source_graph(cov_x, 0.01)
        obs = build_observation_graph(cov_y, source, 0.001)
        mags = np.ones(3)
        est = assign_signs(mags, obs, cov_x, cov_y)
        tree_edges = set()
        for comp in est.components:
            for child, parent in comp.parents.items():
                tree_edges.add((min(child, parent), max(child, parent)))
        violated = sign_consistency_report(est, obs, cov_x, cov_y)
        assert violated == [(2, 3)]
        assert not tree_edges.intersection(violated)


def estimate_channel_calls(n, m=2000):
    """Python and C call events inside one ``estimate_channel`` on a random symmetric shift."""
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    basis = eigendecompose((a + a.T) / 2.0)
    _, xhat = synthetic_source(n, m, 1)
    cov_x = empirical_covariance(xhat)
    source = build_source_graph(cov_x, 0.01)
    y = transmit(igft(basis, xhat), random_channel(n, 0.2, 2), basis, 0.5, 3)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        est = estimate_channel(cov_x, y, basis, source, 0.001)
    finally:
        sys.setprofile(previous)
    assert len(est.support) == n
    return calls


def test_call_count_does_not_grow_with_n():
    """Traversal and sign propagation run one array operation per BFS level.

    A loop over vertices makes the call count linear in N, about 19,000
    calls at N=512 against 2,600 at N=64.
    """
    small, large = estimate_channel_calls(64), estimate_channel_calls(512)
    assert large < 2 * small
