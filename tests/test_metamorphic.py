"""Metamorphic relations of ``estimate_channel``: transformed inputs, predictable outputs.

Scaling by a power of two is exact in floating point, so it must carry
through the covariances, the Pearson thresholds, the per-edge magnitudes and
the sign ratios bit for bit: doubling the observations doubles the
estimate, and quadrupling the source covariance with them changes nothing.
Relabelling the frequencies permutes the estimate, to rounding, since only
the order of the sums changes; each component's signs may flip as a whole,
as its anchor is its lowest-index vertex.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import graph_deconv as gd
from graph_deconv.spectral import SPECTRAL, SignalEnsemble, SpectralBasis

SETTINGS = settings(max_examples=40, deadline=None)
# Noisy draws may clamp a radicand; the relations hold through the clamp too.
pytestmark = pytest.mark.filterwarnings("ignore:clamped negative radicand:RuntimeWarning")


def draw(n, m, seed, sigma):
    """Source covariance and spectral observations of the simulation model at size n."""
    _, xhat = gd.synthetic_source(n, m, seed)
    gamma = gd.random_channel(n, 0.5, seed + 1)
    noise = np.random.default_rng(seed + 2).standard_normal((m, n))
    return gd.empirical_covariance(xhat), xhat.signals * gamma + sigma * noise


def estimate(cov_x, y, delta=0.001):
    n = cov_x.shape[0]
    basis = SpectralBasis(modes=np.eye(n), eigenvalues=np.arange(1.0, n + 1))
    source = gd.build_source_graph(cov_x, 0.01)
    assume(source.degrees.min() > 0)  # a magnitude needs an incident source edge
    return gd.estimate_channel(cov_x, SignalEnsemble(signals=y, domain=SPECTRAL), basis, source, delta)


sizes = st.integers(2, 24)
samples = st.integers(20, 200)
seeds = st.integers(0, 2**31)
sigmas = st.sampled_from([0.0, 0.1, 0.5])


@SETTINGS
@given(sizes, samples, seeds, sigmas)
def test_doubling_the_observations_doubles_the_estimate(n, m, seed, sigma):
    cov_x, y = draw(n, m, seed, sigma)
    est, doubled = estimate(cov_x, y), estimate(cov_x, 2.0 * y)
    assert doubled.gamma_m.tobytes() == (2.0 * est.gamma_m).tobytes()
    assert doubled.support == est.support and doubled.components == est.components


@SETTINGS
@given(sizes, samples, seeds, sigmas)
def test_quadrupled_sources_and_doubled_observations_change_no_bit(n, m, seed, sigma):
    cov_x, y = draw(n, m, seed, sigma)
    est, scaled = estimate(cov_x, y), estimate(4.0 * cov_x, 2.0 * y)
    assert scaled.gamma_m.tobytes() == est.gamma_m.tobytes()
    assert scaled.support == est.support and scaled.components == est.components


@SETTINGS
@given(sizes, samples, seeds, sigmas, st.sampled_from([0.001, 0.5, 0.7, 0.8]), st.randoms(use_true_random=False))
def test_relabelled_frequencies_permute_the_estimate(n, m, seed, sigma, delta, rnd):
    """Vertex k + 1 of the relabelled problem is vertex perm[k] + 1 of the
    original. Skipped are draws with a Pearson magnitude within rounding of
    ``delta``, whose edge the permuted sums may keep or drop, and draws
    whose observation graph holds an edge that disagrees with the
    estimate's signs: there the signs depend on which spanning tree carried
    them, not only on the anchor."""
    cov_x, y = draw(n, m, seed, sigma)
    est = estimate(cov_x, y, delta=delta)
    cov_y = gd.empirical_covariance(SignalEnsemble(signals=y, domain=SPECTRAL))
    scale = np.sqrt(np.diag(cov_y))
    assume(np.all(np.abs(np.abs(cov_y) / np.outer(scale, scale) - delta) > 1e-9))
    obs = gd.build_observation_graph(cov_y, gd.build_source_graph(cov_x, 0.01), delta)
    assume(not gd.sign_consistency_report(est, obs, cov_x, cov_y))
    perm = list(range(n))
    rnd.shuffle(perm)
    relabelled = estimate(cov_x[np.ix_(perm, perm)], y[:, perm], delta=delta)

    original = est.gamma_m[perm]
    np.testing.assert_allclose(np.abs(relabelled.gamma_m), np.abs(original), rtol=1e-12, atol=0)
    back = {k + 1: perm[k] + 1 for k in range(n)}
    assert {back[v] for v in relabelled.support} == est.support
    assert sorted(sorted(back[v] for v in c.vertices) for c in relabelled.components) == sorted(
        list(c.vertices) for c in est.components
    )
    for comp in relabelled.components:
        at = [v - 1 for v in comp.vertices]
        agree = np.sign(relabelled.gamma_m[at]) * np.sign(original[at])
        assert np.all(agree == agree[0])
