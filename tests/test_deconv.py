"""Pseudo-inverse deconvolution, reconstructed covariance, and dB diagnostics.

Ground truth:
- noiseless deconvolution with the true channel must reproduce the sources
- the dB arithmetic is checked against hand-evaluated logarithms
- the diagonal-excess law is checked by Monte Carlo against sigma^2/gamma^2
"""

import itertools
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graph_deconv import (
    ChannelEstimate,
    NearZeroResponse,
    NonpositiveVariance,
    SignalEnsemble,
    align_component_signs,
    DegenerateSpectrum,
    blind_deconvolve,
    build_source_graph,
    covariance_diagnostics,
    eigendecompose,
    empirical_covariance,
    estimate_channel,
    gft,
    igft,
    random_channel,
    reconstructed_covariance,
    summarize_gap,
    transmit,
)
from graph_deconv import channel, deconv, spectral
from graph_deconv.deconv import DiagnosticMatrices
from graph_deconv.estimation import Component
from graph_deconv.simulate import derive_seed, simulation_graph, synthetic_source


def noiseless_setup(n=8, m=200, seed=50):
    coords, radius, graph, basis = simulation_graph(n, seed)
    mixing, xhat = synthetic_source(n, m, seed)
    sources = igft(basis, xhat)
    gamma = random_channel(n, 0.2, seed + 1)
    observations = transmit(sources, gamma, basis, 0.0, seed + 2)
    return basis, xhat, sources, gamma, observations


class TestBlindDeconvolve:
    def test_true_channel_reproduces_sources(self):
        basis, xhat, sources, gamma, observations = noiseless_setup()
        est = ChannelEstimate.from_response(gamma)
        result = blind_deconvolve(est, observations, basis)
        assert np.max(np.abs(result.reconstructed.signals - sources.signals)) <= 1e-10

    def test_negated_channel_reproduces_negated_sources(self):
        basis, xhat, sources, gamma, observations = noiseless_setup(seed=51)
        est = ChannelEstimate.from_response(-gamma)
        result = blind_deconvolve(est, observations, basis)
        assert np.max(np.abs(result.reconstructed.signals + sources.signals)) <= 1e-10

    def test_off_support_coefficients_are_exactly_zero(self):
        basis, xhat, sources, gamma, observations = noiseless_setup(seed=52)
        support = {1, 3, 5}
        est = ChannelEstimate.from_response(gamma, support=support)
        result = blind_deconvolve(est, observations, basis)
        outside = [n - 1 for n in range(1, 9) if n not in support]
        assert np.all(result.spectral.signals[:, outside] == 0.0)

    def test_empty_support_rejected(self):
        basis, xhat, sources, gamma, observations = noiseless_setup(seed=53)
        est = ChannelEstimate(gamma_m=gamma, support=frozenset(), components=())
        with pytest.raises(ValueError, match="empty support"):
            blind_deconvolve(est, observations, basis)

    @pytest.mark.parametrize("n", [7, 9])
    def test_estimate_of_another_length_rejected(self, n):
        basis, xhat, sources, gamma, observations = noiseless_setup(seed=53)
        est = ChannelEstimate.from_response(np.ones(n))
        with pytest.raises(ValueError, match=f"estimate has {n} responses, basis dimension is 8"):
            blind_deconvolve(est, observations, basis)

    def test_near_zero_response_on_support_rejected(self):
        basis, xhat, sources, gamma, observations = noiseless_setup(seed=54)
        bad = gamma.copy()
        bad[2] = 1e-14
        est = ChannelEstimate(
            gamma_m=bad, support=frozenset(range(1, 9)), components=()
        )
        with pytest.raises(NearZeroResponse):
            blind_deconvolve(est, observations, basis)

    def test_default_support_stops_at_the_floor_the_inversion_refuses(self):
        floor = channel.RESPONSE_FLOOR
        gamma = np.array([floor, -floor, np.nextafter(floor, 1.0), -np.nextafter(floor, 1.0), 1.0])
        est = ChannelEstimate.from_response(gamma)
        assert est.support == frozenset({3, 4, 5})
        np.testing.assert_array_equal(channel.pseudo_inverse(gamma, est.support)[:2], 0.0)


class TestReconstructedCovariance:
    def test_noiseless_equals_source_covariance(self):
        basis, xhat, sources, gamma, observations = noiseless_setup(seed=55)
        est = ChannelEstimate.from_response(gamma)
        result = blind_deconvolve(est, observations, basis)
        cov = reconstructed_covariance(result)
        np.testing.assert_allclose(cov, empirical_covariance(xhat), atol=1e-10)

    def test_single_sample_is_rank_one(self):
        basis, xhat, sources, gamma, _ = noiseless_setup(seed=56)
        one = SignalEnsemble(signals=sources.signals[:1], domain="vertex")
        est = ChannelEstimate.from_response(gamma)
        result = blind_deconvolve(est, transmit(one, gamma, basis, 0.0, 1), basis)
        cov = reconstructed_covariance(result)
        x = result.spectral.signals[0]
        np.testing.assert_allclose(cov, np.outer(x, x), atol=1e-12)
        assert np.linalg.matrix_rank(cov, tol=1e-10) == 1

    @pytest.mark.parametrize("n", [32, 96])
    def test_equals_covariance_of_the_reconstruction(self, n):
        """D C_y D matches the covariance of y * d, is exactly symmetric and exactly +0.0 off support."""
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n))
        basis = eigendecompose((a + a.T) / 2.0)
        _, xhat = synthetic_source(n, 3 * n, n)
        gamma = random_channel(n, 0.2, n + 1)
        y = transmit(igft(basis, xhat), gamma, basis, 0.5, n + 2)
        support = {k for k in range(1, n + 1) if k % 3}
        result = blind_deconvolve(ChannelEstimate.from_response(gamma, support=support), y, basis)
        cov = reconstructed_covariance(result)
        reference = empirical_covariance(result.spectral)
        assert np.max(np.abs(cov - reference)) <= 1e-12 * np.max(np.abs(reference))
        assert np.array_equal(cov, cov.T)
        off = np.array([k not in support for k in range(1, n + 1)])
        assert np.all(cov[off] == 0.0) and np.all(cov[:, off] == 0.0)
        assert not np.signbit(cov[off]).any() and not np.signbit(cov[:, off]).any()

    def test_covariance_limit_diagonal_excess_and_offdiagonal_match(self):
        """sigma = 0.5, known channel: on average over trials the reconstructed
        variance exceeds the source variance by sigma^2/gamma(n)^2 while the
        cross-covariances converge to the source's (small version of the
        acceptance run)."""
        n, m, sigma, trials = 8, 4000, 0.5, 40
        coords, radius, graph, basis = simulation_graph(n, 57)
        rng = np.random.default_rng(57)
        mixing = rng.standard_normal((n, n)) / np.sqrt(n)
        gamma = random_channel(n, 0.2, 58)
        est = ChannelEstimate.from_response(gamma)
        diff = np.zeros((n, n))
        for t in range(trials):
            trng = np.random.default_rng(derive_seed(57, 90, t))
            xhat = SignalEnsemble(trng.standard_normal((m, n)) @ mixing.T, domain="spectral")
            sources = igft(basis, xhat)
            y = transmit(sources, gamma, basis, sigma, derive_seed(57, 91, t))
            cov = reconstructed_covariance(blind_deconvolve(est, y, basis))
            diff += cov - empirical_covariance(xhat)
        diff /= trials
        excess = np.diag(diff)
        expected = sigma**2 / gamma**2
        assert np.max(np.abs(excess - expected) / expected) <= 0.1
        off = diff[~np.eye(n, dtype=bool)]
        assert np.max(np.abs(off)) <= 0.03


class TestSignEquivariance:
    def test_per_component_flip_negates_only_that_component(self):
        """Flipping one component's estimated signs negates exactly its
        spectral coefficients; within-component covariance blocks are
        unchanged and cross-component entries flip sign."""
        basis, xhat, sources, gamma, observations = noiseless_setup(seed=59)
        comp_a = (1, 2, 3, 4)
        comp_b = (5, 6, 7, 8)
        est = ChannelEstimate(
            gamma_m=gamma,
            support=frozenset(range(1, 9)),
            components=(
                Component(vertices=comp_a, anchor=1, anchor_sign=1, parents={}),
                Component(vertices=comp_b, anchor=5, anchor_sign=1, parents={}),
            ),
        )
        flipped_gamma = gamma.copy()
        cols_b = [v - 1 for v in comp_b]
        flipped_gamma[cols_b] = -flipped_gamma[cols_b]
        est_flipped = ChannelEstimate(
            gamma_m=flipped_gamma, support=est.support, components=est.components
        )
        base = blind_deconvolve(est, observations, basis)
        flip = blind_deconvolve(est_flipped, observations, basis)
        cols_a = [v - 1 for v in comp_a]
        np.testing.assert_array_equal(
            flip.spectral.signals[:, cols_a], base.spectral.signals[:, cols_a]
        )
        np.testing.assert_array_equal(
            flip.spectral.signals[:, cols_b], -base.spectral.signals[:, cols_b]
        )
        cov_base = reconstructed_covariance(base)
        cov_flip = reconstructed_covariance(flip)
        np.testing.assert_allclose(
            cov_flip[np.ix_(cols_a, cols_a)], cov_base[np.ix_(cols_a, cols_a)], atol=1e-14
        )
        np.testing.assert_allclose(
            cov_flip[np.ix_(cols_b, cols_b)], cov_base[np.ix_(cols_b, cols_b)], atol=1e-14
        )
        np.testing.assert_allclose(
            cov_flip[np.ix_(cols_a, cols_b)], -cov_base[np.ix_(cols_a, cols_b)], atol=1e-14
        )


class TestAlignComponentSigns:
    def test_alignment_recovers_flipped_components(self):
        basis, xhat, sources, gamma, observations = noiseless_setup(seed=60)
        comp_a = (1, 2, 3, 4)
        comp_b = (5, 6, 7, 8)
        flipped = gamma.copy()
        flipped[[v - 1 for v in comp_b]] *= -1
        est = ChannelEstimate(
            gamma_m=flipped,
            support=frozenset(range(1, 9)),
            components=(
                Component(vertices=comp_a, anchor=1, anchor_sign=1, parents={}),
                Component(vertices=comp_b, anchor=5, anchor_sign=1, parents={}),
            ),
        )
        raw = blind_deconvolve(est, observations, basis)
        aligned, flips = align_component_signs(raw, xhat, est.components)
        assert flips == (1, -1)
        assert np.max(np.abs(aligned.reconstructed.signals - sources.signals)) <= 1e-10
        # A flip negates entries of the inverse; the observations are shared.
        assert aligned.observations is raw.observations
        np.testing.assert_array_equal(aligned.inverse, raw.inverse * np.repeat([1, -1], 4))
        np.testing.assert_array_equal(aligned.spectral.signals[:, :4], raw.spectral.signals[:, :4])
        np.testing.assert_array_equal(aligned.spectral.signals[:, 4:], -raw.spectral.signals[:, 4:])

    @pytest.mark.parametrize("bad", [0, 9])
    def test_out_of_range_component_vertex_rejected(self, bad):
        basis, xhat, sources, gamma, observations = noiseless_setup(seed=63)
        result = blind_deconvolve(ChannelEstimate.from_response(gamma), observations, basis)
        comp = Component(vertices=(1, 2, bad), anchor=1, anchor_sign=1, parents={})
        with pytest.raises(ValueError, match=f"component vertex {bad} out of range 1..8"):
            align_component_signs(result, xhat, (comp,))

    @pytest.mark.parametrize("bad", [1.5, True, 2.0, np.bool_(True)])
    def test_non_integer_component_vertex_rejected(self, bad):
        basis, xhat, sources, gamma, observations = noiseless_setup(seed=63)
        result = blind_deconvolve(ChannelEstimate.from_response(gamma), observations, basis)
        comp = Component(vertices=(1, bad, 3), anchor=1, anchor_sign=1, parents={})
        with pytest.raises(ValueError, match=re.escape(f"component vertex {bad!r} is not an integer")):
            align_component_signs(result, xhat, (comp,))


class TestLazyReconstruction:
    """The vertex-domain reconstruction is one inverse GFT, run on first read only."""

    @pytest.fixture
    def igft_calls(self, monkeypatch):
        calls = []

        def counted(basis, e):
            calls.append(e)
            return igft(basis, e)

        monkeypatch.setattr(deconv, "igft", counted)
        return calls

    def check_lazy(self, result, basis, igft_calls):
        assert igft_calls == []
        first = result.reconstructed
        assert len(igft_calls) == 1
        assert result.reconstructed is first
        assert len(igft_calls) == 1
        assert np.array_equal(first.signals, igft(basis, result.spectral).signals)
        assert first.domain == "vertex"

    def test_blind_deconvolve_defers_the_inverse_gft(self, igft_calls):
        basis, xhat, sources, gamma, observations = noiseless_setup(seed=61)
        result = blind_deconvolve(ChannelEstimate.from_response(gamma), observations, basis)
        reconstructed_covariance(result)
        self.check_lazy(result, basis, igft_calls)

    def test_align_component_signs_defers_the_inverse_gft(self, igft_calls):
        basis, xhat, sources, gamma, observations = noiseless_setup(seed=62)
        est = ChannelEstimate.from_response(-gamma)
        aligned, flips = align_component_signs(
            blind_deconvolve(est, observations, basis), xhat, est.components
        )
        assert flips == (-1,)
        self.check_lazy(aligned, basis, igft_calls)

    def test_aligned_result_reads_the_one_gft_of_vertex_observations(self, monkeypatch):
        basis, xhat, sources, gamma, observations = noiseless_setup(seed=64)
        made = []

        def counted(basis, e):
            made.append(e)
            return gft(basis, e)

        monkeypatch.setattr(spectral, "gft", counted)
        est = ChannelEstimate.from_response(-gamma)
        result = blind_deconvolve(est, observations, basis)
        result.reconstructed
        aligned, _ = align_component_signs(result, xhat, est.components)
        assert np.max(np.abs(aligned.reconstructed.signals - sources.signals)) <= 1e-10
        assert made == [observations]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.integers(1, 20), st.integers(0, 2**32 - 1))
def test_outputs_do_not_depend_on_domain_read_order_or_a_prior_estimate(n, m, seed):
    """Vertex observations or their GFT, either output read first, with or
    without ``estimate_channel`` having kept their covariance: the
    reconstruction and its covariance are the same bits."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    try:
        basis = eigendecompose((a + a.T) / 2.0)
    except DegenerateSpectrum:
        assume(False)
    samples = rng.standard_normal((m, n))
    est = ChannelEstimate.from_response(random_channel(n, 0.2, seed))
    cov_x = 0.5 + np.eye(n)  # every pair correlated: a complete source graph
    source = build_source_graph(cov_x, 0.01)
    outputs = []
    for spectral, recon_first, estimated in itertools.product([False, True], repeat=3):
        y = SignalEnsemble(signals=samples)
        if spectral:
            y = gft(basis, y)
        if estimated:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                estimate_channel(cov_x, y, basis, source, 0.001)
        result = blind_deconvolve(est, y, basis)
        if recon_first:
            recon = result.reconstructed
            cov = reconstructed_covariance(result)
        else:
            cov = reconstructed_covariance(result)
            recon = result.reconstructed
        outputs.append((recon.signals, cov))
    for recon, cov in outputs[1:]:
        assert np.array_equal(recon, outputs[0][0]) and np.array_equal(cov, outputs[0][1])


class TestDiagnostics:
    def test_zero_difference_clamps_to_floor(self):
        """10 log10(1e-5) = -50 sits below the -20 floor everywhere."""
        cov = np.array([[1.0, 0.2], [0.2, 1.0]])
        d = covariance_diagnostics(cov, cov, floor_db=-20.0)
        np.testing.assert_array_equal(d.abs_diff_db, np.full((2, 2), -20.0))
        np.testing.assert_array_equal(d.rel_diff_db, np.full((2, 2), -20.0))
        np.testing.assert_array_equal(d.diagonal_inflation, [0.0, 0.0])

    def test_point_one_discrepancy_is_minus_ten_db(self):
        source = np.eye(2)
        recon = source + np.array([[0.1, 0.0], [0.0, 0.1]])
        d = covariance_diagnostics(recon, source)
        assert d.abs_diff_db[0, 0] == pytest.approx(10 * np.log10(0.1 + 1e-5), abs=1e-12)
        assert d.abs_diff_db[0, 0] == pytest.approx(-10.0, abs=1e-3)

    def test_relative_mode_scales_by_source_variances(self):
        source = np.diag([4.0, 1.0])
        recon = source + np.array([[0.0, 0.2], [0.2, 0.0]])
        d = covariance_diagnostics(recon, source)
        np.testing.assert_allclose(
            d.rel_diff_db[0, 1], 10 * np.log10(0.2 / 2.0 + 1e-5), atol=1e-12
        )

    def test_relative_mode_requires_positive_variance(self):
        with pytest.raises(NonpositiveVariance):
            covariance_diagnostics(np.eye(2), np.diag([1.0, 0.0]))

    def test_floor_is_configurable(self):
        cov = np.eye(2)
        d = covariance_diagnostics(cov, cov, floor_db=-30.0)
        np.testing.assert_array_equal(d.abs_diff_db, np.full((2, 2), -30.0))

    def test_db_arithmetic_matches_hand_values(self):
        # Against unit source variances both matrices are the dB scale of c_recon - I.
        m = np.array([[0.1, 0.0], [1.0, 10.0]])
        d = covariance_diagnostics(m + np.eye(2), np.eye(2), floor_db=-30.0)
        out = d.abs_diff_db
        assert out[0, 0] == pytest.approx(10 * np.log10(0.10001))
        assert out[0, 1] == -30.0
        assert out[1, 0] == pytest.approx(10 * np.log10(1.00001))
        assert out[1, 1] == pytest.approx(10 * np.log10(10.00001))
        assert np.array_equal(d.rel_diff_db, out)


class TestSummarizeGap:
    def test_constant_matrix_has_zero_gap(self):
        d = DiagnosticMatrices(
            abs_diff_db=np.full((3, 3), -7.0),
            rel_diff_db=np.full((3, 3), -7.0),
            diagonal_inflation=np.zeros(3),
        )
        gap = summarize_gap(d)
        assert gap.gap_db == 0.0

    def test_hand_example(self):
        m = np.full((4, 4), -16.0)
        np.fill_diagonal(m, -6.0)
        d = DiagnosticMatrices(abs_diff_db=m, rel_diff_db=m, diagonal_inflation=np.zeros(4))
        gap = summarize_gap(d)
        assert gap.mean_diagonal_db == -6.0
        assert gap.mean_offdiagonal_db == -16.0
        assert gap.gap_db == -10.0

    def test_needs_two_vertices(self):
        d = DiagnosticMatrices(
            abs_diff_db=np.array([[-5.0]]),
            rel_diff_db=np.array([[-5.0]]),
            diagonal_inflation=np.zeros(1),
        )
        with pytest.raises(ValueError):
            summarize_gap(d)
