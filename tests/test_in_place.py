"""The in-place evaluations against the full-matrix bodies they replaced.

``covariance_diagnostics`` scales its own buffers to dB in place,
``transmit`` adds the filtered samples into the noise's buffer, and
``empirical_covariance`` symmetrises its product in place. The
``reference_*`` functions below are the bodies they replaced, each forming
its N x N (or M x N) temporaries whole. Every output must be bit-equal. The
memory tests bound what one estimate-to-diagnostics pass and one ``transmit``
allocate, and one ``empirical_covariance``.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graph_deconv as gd
from graph_deconv.covariance import ensure_positive_diagonal
from graph_deconv.deconv import DB_OFFSET, DiagnosticMatrices
from graph_deconv.spectral import SPECTRAL, VERTEX, SignalEnsemble, _as_spectral

SETTINGS = settings(max_examples=40, deadline=None)
SIZES = st.sampled_from([1, 2, 5, 33, 70])
seeds = st.integers(0, 2**32 - 1)


def reference_db_scale(matrix, floor_db):
    out = np.array(matrix, dtype=float)
    np.abs(out, out=out)
    out += DB_OFFSET
    np.log10(out, out=out)
    out *= 10.0
    return np.maximum(out, floor_db, out=out)


def reference_covariance_diagnostics(c_recon, c_source, floor_db):
    c_recon = np.asarray(c_recon, dtype=float)
    c_source = ensure_positive_diagonal(c_source, "source covariance")
    delta = c_recon - c_source
    scale = np.sqrt(np.diag(c_source))
    relative = np.outer(scale, scale)
    np.divide(delta, relative, out=relative)
    return DiagnosticMatrices(
        abs_diff_db=reference_db_scale(delta, floor_db),
        rel_diff_db=reference_db_scale(relative, floor_db),
        diagonal_inflation=np.diag(delta).copy(),
    )


def reference_transmit(sources, gamma, basis, sigma, seed):
    filtered = gd.apply_channel(gamma, _as_spectral(basis, sources)).signals
    if sigma > 0:
        filtered = filtered + sigma * np.random.default_rng(seed).standard_normal(filtered.shape)
    return gd.igft(basis, SignalEnsemble(signals=filtered, domain=SPECTRAL))


def reference_empirical_covariance(e):
    y = e.signals
    cov = (y.T @ y) / y.shape[0]
    return (cov + cov.T) / 2.0


def psd(rng, n, scale=1.0):
    """A random covariance with a positive diagonal and off-diagonal entries of either sign."""
    b = rng.standard_normal((n, n + 2))
    return (b @ b.T) * scale


@SETTINGS
@given(SIZES, seeds, st.sampled_from([-20.0, -30.0, 0.0, 5.0]))
def test_diagnostics_bit_equal(n, seed, floor_db):
    rng = np.random.default_rng(seed)
    c_source = psd(rng, n)
    c_recon = c_source + rng.standard_normal((n, n)) * rng.choice([1e-9, 1e-3, 1.0], (n, n))
    got = gd.covariance_diagnostics(c_recon, c_source, floor_db)
    want = reference_covariance_diagnostics(c_recon, c_source, floor_db)
    assert np.array_equal(got.abs_diff_db, want.abs_diff_db)
    assert np.array_equal(got.rel_diff_db, want.rel_diff_db)
    assert np.array_equal(got.diagonal_inflation, want.diagonal_inflation)
    assert np.array_equal(gd.db_scale(c_recon, floor_db), reference_db_scale(c_recon, floor_db))


@SETTINGS
@given(SIZES, st.integers(1, 40), seeds, st.sampled_from([VERTEX, SPECTRAL]),
       st.sampled_from([0.0, 0.5]) | st.floats(0.0, 3.0))
def test_transmit_bit_equal(n, m, seed, domain, sigma):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    basis = gd.eigendecompose((a + a.T) / 2.0)
    sources = SignalEnsemble(signals=rng.standard_normal((m, n)), domain=domain)
    gamma = gd.random_channel(n, 0.2, seed)
    got = gd.transmit(sources, gamma, basis, sigma, seed)
    want = reference_transmit(sources, gamma, basis, sigma, seed)
    assert got.domain == want.domain == VERTEX
    assert np.array_equal(got.signals, want.signals)


@SETTINGS
@given(SIZES, st.integers(1, 40), seeds, st.sampled_from(["C", "F", "strided"]),
       st.sampled_from([1.0, 1e-170, 1e160]))
def test_empirical_covariance_bit_equal(n, m, seed, layout, scale):
    """Also for strided and Fortran-ordered samples, 1 x 1 ones, and products
    that underflow or overflow."""
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((2 * m, 2 * n)) * scale
    y = {"C": y[:m, :n], "F": np.asfortranarray(y[:m, :n]), "strided": y[::2, ::2]}[layout]
    e = SignalEnsemble(signals=y, domain=SPECTRAL)
    with np.errstate(all="ignore"):
        want = reference_empirical_covariance(e)
    assert np.array_equal(gd.empirical_covariance(e), want, equal_nan=True)


N_MEM, M_MEM = 512, 1000
MN, NN = M_MEM * N_MEM * 8, N_MEM * N_MEM * 8


@pytest.fixture(scope="module")
def large_inputs():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((N_MEM, N_MEM))
    basis = gd.eigendecompose((a + a.T) / 2.0)
    _, xhat = gd.synthetic_source(N_MEM, M_MEM, 12)
    cov_x = gd.empirical_covariance(xhat)
    source = gd.build_source_graph(cov_x, 0.01)
    sources = gd.igft(basis, xhat)
    gamma = gd.random_channel(N_MEM, 0.2, 13)
    return basis, cov_x, source, sources, gamma


def traced_peak(f):
    tracemalloc.start()
    try:
        out = f()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_estimate_to_diagnostics_holds_one_square_of_slack(large_inputs):
    """The pass must hold y-hat (M x N), its covariance, the reconstructed
    covariance and the two dB matrices (N x N each); at most one more N x N
    may be in flight on top of them."""
    basis, cov_x, source, sources, gamma = large_inputs
    y = gd.transmit(sources, gamma, basis, 0.5, 14)

    def one_pass():
        est = gd.estimate_channel(cov_x, y, basis, source, 0.001)
        result = gd.blind_deconvolve(est, y, basis)
        recon = gd.reconstructed_covariance(result)
        return est, gd.covariance_diagnostics(recon, cov_x)

    (est, _), peak = traced_peak(one_pass)
    assert len(est.support) == N_MEM
    assert peak <= MN + 5 * NN, f"peak {peak / 1e6:.1f} MB, {(peak - MN) / NN:.2f} N x N over y-hat"


def test_transmit_holds_one_ensemble_of_slack(large_inputs):
    """transmit must hold its filtered spectral samples and the vertex-domain
    samples it returns (M x N each); at most one more M x N may be in
    flight, plus the length-N response."""
    basis, _, _, sources, gamma = large_inputs
    y, peak = traced_peak(lambda: gd.transmit(sources, gamma, basis, 0.5, 14))
    assert y.signals.shape == (M_MEM, N_MEM)
    assert peak <= 3 * MN + 64 * N_MEM * 8, f"peak {peak / 1e6:.1f} MB, {peak / MN:.3f} M x N"


def test_empirical_covariance_holds_one_square_of_slack():
    """Beside the N x N it returns, only numpy's buffer for the overlapping
    transpose may be live; the full-matrix body held two more."""
    e = SignalEnsemble(signals=np.random.default_rng(15).standard_normal((M_MEM, N_MEM)), domain=SPECTRAL)
    cov, peak = traced_peak(lambda: gd.empirical_covariance(e))
    assert np.array_equal(cov, reference_empirical_covariance(e))
    assert peak <= 2 * NN + 64 * N_MEM * 8, f"peak {peak / 1e6:.1f} MB, {peak / NN:.3f} N x N"
