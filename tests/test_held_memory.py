"""What the library keeps of an M x N ensemble once it is done with it.

An ensemble the library computes is taken without the constructor's copy,
and estimation reads the observations only through their spectral
covariance, which it keeps on the caller's ensemble. So a GFT holds one
M x N array at its peak, an estimate-and-deconvolve pass holds N x N
arrays only, and an estimate pickles to little more than its responses.
"""

import gc
import pickle
import tracemalloc

import numpy as np
import pytest

import graph_deconv as gd

N, M = 256, 1024
MN, NN = M * N * 8, N * N * 8


@pytest.fixture(scope="module")
def inputs():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((N, N))
    basis = gd.eigendecompose((a + a.T) / 2.0)
    _, xhat = gd.synthetic_source(N, M, 22)
    cov_x = gd.empirical_covariance(xhat)
    source = gd.build_source_graph(cov_x, 0.01)
    return basis, xhat, cov_x, source


def observations(inputs, seed):
    basis, xhat, _, _ = inputs
    return gd.transmit(gd.igft(basis, xhat), gd.random_channel(N, 0.2, seed), basis, 0.5, seed + 1)


def test_gft_peaks_at_the_ensemble_it_returns(inputs):
    """The product is the result's own array; a copy of it would double the peak."""
    basis = inputs[0]
    y = observations(inputs, 23)
    gc.collect()
    tracemalloc.start()
    try:
        yhat = gd.gft(basis, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert yhat.signals.shape == (M, N)
    assert peak <= 1.1 * MN, f"peak {peak / MN:.3f} M x N"


def test_estimate_and_deconvolve_hold_no_ensemble(inputs):
    """With the result dropped, what stays is N x N: the covariance kept on
    ``y``, the reconstructed covariance and the estimate's graphs; the GFT
    of ``y`` (M x N = 4 N x N here) is let go."""
    basis, _, cov_x, source = inputs
    y = observations(inputs, 25)
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        est = gd.estimate_channel(cov_x, y, basis, source, 0.001)
        result = gd.blind_deconvolve(est, y, basis)
        recon = gd.reconstructed_covariance(result)
        del result
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(est.support) == N and recon.shape == (N, N)
    assert held <= 3 * NN, f"held {held / NN:.2f} N x N"


def test_estimate_pickles_to_little_more_than_its_responses(inputs):
    basis, _, cov_x, source = inputs
    est = gd.estimate_channel(cov_x, observations(inputs, 27), basis, source, 0.001)
    size, responses = len(pickle.dumps(est)), len(pickle.dumps(est.gamma_m))
    assert size <= 2 * responses, f"estimate pickles to {size} bytes, its responses to {responses}"


def test_covariance_diagnostics_forms_only_its_two_outputs(inputs):
    """The discrepancy and the relative matrix are formed and scaled to dB in
    the two N x N outputs, a peak of 2.26 N x N at this N. Any N x N
    temporary, such as a dB-scaled copy of ``c_recon - c_source``, adds a
    whole N x N to it."""
    basis, _, cov_x, source = inputs
    y = observations(inputs, 29)
    est = gd.estimate_channel(cov_x, y, basis, source, 0.001)
    recon = gd.reconstructed_covariance(gd.blind_deconvolve(est, y, basis))
    gc.collect()
    tracemalloc.start()
    try:
        diag = gd.covariance_diagnostics(recon, cov_x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert diag.abs_diff_db.shape == diag.rel_diff_db.shape == (N, N)
    assert peak <= 2.5 * NN, f"peak {peak / NN:.3f} N x N"
