"""Invariants of the spectral transform and the estimator, on hypothesis-drawn inputs.

- the graph Fourier transform is orthonormal, so ``igft(gft(x))`` returns x
- second-order statistics cannot tell a channel from its negation: with no
  noise and the same sources, channels gamma and -gamma give the same
  estimate up to one sign per observation-graph component, and each equals
  gamma up to that sign
- the estimate CSV holds every estimate ``estimate_channel`` makes: it reads
  back equal, but for the spanning-tree parent maps, which are not written
- estimation and deconvolution take observations in either domain: vertex
  samples and their GFT give bit-equal results, and a spectral ensemble of
  the wrong width is rejected there and by ``transmit``
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graph_deconv import (
    ChannelEstimate,
    SignalEnsemble,
    blind_deconvolve,
    build_source_graph,
    eigendecompose,
    empirical_covariance,
    estimate_channel,
    gft,
    igft,
    random_channel,
    transmit,
)
from graph_deconv import io as gio
from graph_deconv.simulate import synthetic_source
from graph_deconv.spectral import SPECTRAL, VERTEX

SETTINGS = settings(max_examples=100, deadline=None)
seeds = st.integers(0, 2**32 - 1)


def random_basis(rng, n):
    """Eigenbasis of a random symmetric shift, whose spectrum is distinct almost surely."""
    a = rng.standard_normal((n, n))
    return eigendecompose((a + a.T) / 2.0)


def equal_up_to_sign(a, b, atol):
    return np.allclose(a, b, rtol=0, atol=atol) or np.allclose(a, -b, rtol=0, atol=atol)


@SETTINGS
@given(st.integers(1, 12), st.integers(1, 6), seeds)
def test_gft_round_trip_returns_the_signals(n, m, seed):
    rng = np.random.default_rng(seed)
    basis = random_basis(rng, n)
    x = SignalEnsemble(signals=rng.standard_normal((m, n)))
    back = igft(basis, gft(basis, x))
    assert back.domain == VERTEX
    # eigendecompose guarantees |U^T U - I| <= 1e-10 entrywise.
    atol = 1e-10 * n * np.abs(x.signals).max()
    np.testing.assert_allclose(back.signals, x.signals, rtol=0, atol=atol)


@SETTINGS
@given(st.integers(2, 10), seeds, st.sampled_from([0.0, 0.2, 0.4, 0.6]) | st.floats(0.0, 0.9))
def test_negated_channel_gives_the_estimate_up_to_one_sign_per_component(n, seed, delta):
    rng = np.random.default_rng(seed)
    basis = random_basis(rng, n)
    _, xhat = synthetic_source(n, 8 * n, seed)
    cov_x = empirical_covariance(xhat)
    source = build_source_graph(cov_x, 0.0)
    gamma = random_channel(n, 0.5, seed)

    ours, negated = (
        estimate_channel(
            cov_x,
            igft(basis, SignalEnsemble(signals=xhat.signals * g, domain=SPECTRAL)),
            basis,
            source,
            delta,
        )
        for g in (gamma, -gamma)
    )
    assert ours.support == negated.support
    assert [c.vertices for c in ours.components] == [c.vertices for c in negated.components]
    for comp in ours.components:
        idx = np.array(comp.vertices) - 1
        assert equal_up_to_sign(negated.gamma_m[idx], ours.gamma_m[idx], 1e-8)
        assert equal_up_to_sign(ours.gamma_m[idx], gamma[idx], 1e-8)
    off = np.array([v not in ours.support for v in range(1, n + 1)])
    np.testing.assert_allclose(negated.gamma_m[off], ours.gamma_m[off], rtol=0, atol=1e-8)


@SETTINGS
@given(st.integers(2, 12), seeds, st.floats(0.6, 0.9))
def test_every_estimate_reads_back_from_its_csv(tmp_path_factory, n, seed, delta):
    # A delta from 0.6 up splits the observation graph into several components,
    # and near 0.9 often leaves no support at all.
    rng = np.random.default_rng(seed)
    basis = random_basis(rng, n)
    _, xhat = synthetic_source(n, 4 * n, seed)
    cov_x = empirical_covariance(xhat)
    y = SignalEnsemble(signals=xhat.signals * random_channel(n, 0.5, seed), domain=SPECTRAL)
    est = estimate_channel(cov_x, y, basis, build_source_graph(cov_x, 0.0), delta)
    path = tmp_path_factory.mktemp("estimate") / "channel_estimate.csv"
    gio.write_channel_estimate(path, est)
    back = gio.read_channel_estimate(path)
    np.testing.assert_array_equal(back.gamma_m, est.gamma_m)
    assert back.support == est.support
    assert back.components == tuple(replace(c, parents={}) for c in est.components)


@SETTINGS
@given(st.integers(2, 10), seeds, st.floats(0.0, 0.9))
def test_vertex_observations_and_their_gft_give_bit_equal_results(n, seed, delta):
    rng = np.random.default_rng(seed)
    basis = random_basis(rng, n)
    _, xhat = synthetic_source(n, 8 * n, seed)
    cov_x = empirical_covariance(xhat)
    source = build_source_graph(cov_x, 0.0)
    y = transmit(xhat, random_channel(n, 0.5, seed), basis, 0.1, seed)
    yhat = gft(basis, y)

    ours, spectral = (estimate_channel(cov_x, obs, basis, source, delta) for obs in (y, yhat))
    assert np.array_equal(ours.gamma_m, spectral.gamma_m)
    assert ours.support == spectral.support
    assert ours.components == spectral.components
    if ours.support:
        a, b = (blind_deconvolve(ours, obs, basis) for obs in (y, yhat))
        assert np.array_equal(a.spectral.signals, b.spectral.signals)
        assert np.array_equal(a.reconstructed.signals, b.reconstructed.signals)


@pytest.mark.parametrize("width", [3, 5])
def test_spectral_observations_of_the_wrong_width_are_rejected(width):
    n = 4
    rng = np.random.default_rng(width)
    basis = random_basis(rng, n)
    _, xhat = synthetic_source(n, 40, width)
    cov_x = empirical_covariance(xhat)
    wrong = SignalEnsemble(signals=rng.standard_normal((40, width)), domain=SPECTRAL)
    message = f"signal length {width} != basis dimension {n}"
    with pytest.raises(ValueError, match=message):
        estimate_channel(cov_x, wrong, basis, build_source_graph(cov_x, 0.0), 0.001)
    with pytest.raises(ValueError, match=message):
        blind_deconvolve(ChannelEstimate.from_response(np.ones(n)), wrong, basis)
    with pytest.raises(ValueError, match=message):
        transmit(wrong, np.ones(n), basis, 0.1, 1)
