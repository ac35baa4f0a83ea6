"""The in-place and row-slab evaluations against the whole-matrix bodies they replaced.

Two passes run a row slab at a time (``covariance._row_slabs``):
``estimate_magnitudes`` solves the per-edge system, and the two graph
builders threshold the Pearson magnitudes straight into their edge masks.
``empirical_covariance``, ``reconstructed_covariance`` and
``covariance_diagnostics`` form each output whole and update it in place.
``transmit`` adds the filtered samples into the noise's buffer. The
``reference_*`` functions below are the bodies they replaced, each forming
its N x N (or M x N) temporaries whole. Every output, warning and error must
be the same, bit for bit, at sizes that take one slab, two slabs and a
partial last slab under the shipped slab size. The memory tests bound what
one estimate-to-diagnostics pass, the magnitudes, the observation graph,
one ``transmit`` and one ``empirical_covariance`` allocate.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graph_deconv as gd
from graph_deconv.covariance import _row_slabs, ensure_positive_diagonal
from graph_deconv.deconv import DB_OFFSET, DiagnosticMatrices
from graph_deconv.errors import IsolatedVertex, NonpositiveVariance
from graph_deconv.estimation import estimate_magnitudes
from graph_deconv.spectral import SPECTRAL, VERTEX, SignalEnsemble, SpectralBasis, _as_spectral

SETTINGS = settings(max_examples=40, deadline=None)
SIZES = st.sampled_from([1, 2, 5, 33, 70, 200, 300])
seeds = st.integers(0, 2**32 - 1)
thresholds = st.sampled_from([0.0, 0.05, 0.2, 1.0]) | st.floats(0.0, 1.0)


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


def reference_estimate_magnitudes(cov_x, cov_ym, source):
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
    if np.any(adjacent & (cov_x == 0)):
        i, j = np.argwhere(adjacent & (cov_x == 0))[0]
        raise ValueError(f"source covariance is zero on edge ({i + 1}, {j + 1})")

    diag_x = np.diag(cov_x)
    alpha = diag_y[:, None] - diag_y[None, :]
    beta = np.divide(cov_ym, cov_x, out=np.zeros((n, n)), where=adjacent)
    mu = np.outer(diag_x, diag_x)
    mu *= 4.0
    mu *= np.square(beta, out=beta)
    mu += np.square(alpha, out=beta)
    inner = np.sqrt(mu, out=mu)
    inner += alpha

    negative = inner < 0
    negative &= adjacent
    clamped = int(np.count_nonzero(negative))
    if clamped:
        worst = float(np.min(inner[adjacent]))
        warnings.warn(
            f"clamped negative radicand on {clamped} edge(s) (min {worst:.3e}); "
            "the two covariances are inconsistent, likely from sampling noise",
            RuntimeWarning,
            stacklevel=2,
        )
        np.maximum(inner, 0.0, out=inner)

    beta.fill(0.0)
    per_edge = np.sqrt(inner, out=beta, where=adjacent)
    sums = per_edge.sum(axis=1)
    magnitudes = sums / (source.degrees * np.sqrt(2.0 * diag_x))
    bad = np.flatnonzero(~np.isfinite(magnitudes))
    if bad.size:
        raise ValueError(
            f"magnitude at vertex {bad[0] + 1} is {magnitudes[bad[0]]}; "
            "the covariances hold non-finite entries or overflow"
        )
    return magnitudes


def pearson_matrix(cov, what="covariance"):
    """Pearson magnitudes |C_pq| / (s_p s_q), s the square roots of the variances,
    as one N x N: the oracle of ``covariance._pearson_mask``, which forms them a
    row slab at a time."""
    cov = ensure_positive_diagonal(cov, what)
    scale = np.sqrt(np.diag(cov))
    return np.abs(cov) / np.outer(scale, scale)


def reference_source_mask(cov_x, pearson_threshold):
    rho = pearson_matrix(cov_x, "source covariance")
    return np.triu(rho >= pearson_threshold, 1)


def reference_observation_mask(cov_ym, source, delta):
    rho = pearson_matrix(cov_ym, "observation covariance")
    return np.triu(source.adjacency & (rho >= delta), 1)


def reference_reconstructed_covariance(inverse, cov_y):
    cov = np.outer(inverse, inverse)
    cov *= cov_y
    cov += 0.0
    return cov


def outcome(f, *args):
    """What ``f(*args)`` returns or raises, and the messages of every warning it issues."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = f(*args)
        except Exception as exc:  # the two sides must fail alike
            value = (type(exc), str(exc))
    return value, [(w.category, str(w.message)) for w in caught]


def assert_same_outcome(got, want):
    (got_value, got_warnings), (want_value, want_warnings) = got, want
    assert got_warnings == want_warnings
    if isinstance(want_value, tuple):
        assert got_value == want_value
    else:
        assert got_value.dtype == want_value.dtype
        assert np.array_equal(got_value, want_value)


def psd(rng, n, scale=1.0):
    """A random covariance with a positive diagonal and off-diagonal entries of either sign."""
    b = rng.standard_normal((n, n + 2))
    return (b @ b.T) * scale


def test_sizes_take_one_slab_two_slabs_and_a_partial_last_slab():
    """The sizes below run the slab loops' edge cases at the shipped slab size."""
    slabs = {n: [(r.start, r.stop) for r in _row_slabs(n)] for n in (1, 2, 70, 200, 300)}
    assert slabs[1] == [(0, 1)] and slabs[2] == [(0, 2)] and slabs[70] == [(0, 70)]
    assert slabs[200] == [(0, 163), (163, 200)]
    assert slabs[300] == [(0, 109), (109, 218), (218, 300)]
    assert [len(_row_slabs(n)) for n in (96, 181, 182, 1024)] == [1, 1, 2, 32]


@SETTINGS
@given(SIZES, seeds, st.sampled_from([0.0, 0.05, 0.3]), st.sampled_from([1.0, -1.0, 0.0]),
       st.booleans())
def test_magnitudes_bit_equal(n, seed, threshold, mixing, zero_edge):
    """Observation covariances near, unrelated to and exactly proportional to
    the source one; sparse source graphs with isolated vertices; a zero
    source covariance on an edge in any slab."""
    rng = np.random.default_rng(seed)
    cov_x = psd(rng, n)
    if zero_edge and n > 1:
        i, j = sorted(rng.choice(n, 2, replace=False))
        cov_x[i, j] = cov_x[j, i] = 0.0
    cov_ym = mixing * cov_x * rng.uniform(0.5, 2.0) + psd(rng, n, 0.1)
    source = gd.build_source_graph(cov_x, threshold)
    assert_same_outcome(
        outcome(estimate_magnitudes, cov_x, cov_ym, source),
        outcome(reference_estimate_magnitudes, cov_x, cov_ym, source),
    )


@pytest.mark.parametrize("poison", [False, True])
def test_clamp_warning_counts_and_minimum_over_every_slab(poison):
    """Radicands whose squared terms underflow come out negative on every
    edge (i, j) with a smaller observed variance at i, in each of the three
    slabs at N = 300; the warning counts them all and reports the smallest.
    A NaN observed covariance on an edge in the last slab makes the reported
    minimum NaN, as the whole-matrix body's minimum over every edge was, and
    the magnitude at its vertex is then refused."""
    n, tiny = 300, 1e-300
    cov_x = np.full((n, n), 0.9) + 0.1 * np.eye(n)
    cov_ym = np.full((n, n), 0.9 * tiny)
    np.fill_diagonal(cov_ym, np.arange(n) * tiny)
    if poison:
        cov_ym[250, 260] = cov_ym[260, 250] = np.nan
    source = gd.build_source_graph(cov_x, 0.01)
    assert len(_row_slabs(n)) == 3
    got = outcome(estimate_magnitudes, cov_x, cov_ym, source)
    assert_same_outcome(got, outcome(reference_estimate_magnitudes, cov_x, cov_ym, source))
    worst = "nan" if poison else f"{-(n - 1) * tiny:.3e}"
    clamped = n * (n - 1) // 2 - (1 if poison else 0)
    assert got[1] == [(RuntimeWarning, (
        f"clamped negative radicand on {clamped} edge(s) (min {worst}); "
        "the two covariances are inconsistent, likely from sampling noise"
    ))]
    if poison:
        assert got[0] == (ValueError, "magnitude at vertex 251 is nan; "
                          "the covariances hold non-finite entries or overflow")
    else:
        assert np.all(np.isfinite(got[0])) and np.all(got[0] >= 0)


@pytest.mark.parametrize("edge", [(5, 7), (250, 260), (299, 120)])
def test_zero_source_covariance_names_its_edge_in_any_slab(edge):
    n = 300
    cov_x = np.full((n, n), 0.5) + np.eye(n)
    cov_x[edge] = cov_x[edge[::-1]] = 0.0
    source = gd.build_source_graph(cov_x, 0.0)
    got = outcome(estimate_magnitudes, cov_x, cov_x, source)
    assert_same_outcome(got, outcome(reference_estimate_magnitudes, cov_x, cov_x, source))
    i, j = sorted(edge)
    assert got[0] == (ValueError, f"source covariance is zero on edge ({i + 1}, {j + 1})")


@SETTINGS
@given(SIZES, seeds, thresholds, thresholds)
def test_graph_masks_bit_equal(n, seed, pearson_threshold, delta):
    """Off-diagonal magnitudes of exactly 0 and 1 (a zeroed block and a
    repeated column) meet thresholds of 0 and 1 too."""
    rng = np.random.default_rng(seed)
    cov_x = psd(rng, n)
    b = rng.standard_normal((n, n + 2))
    b[n // 2] = b[0]
    cov_ym = b @ b.T
    cov_ym[: n // 3, n // 2 :] = cov_ym[n // 2 :, : n // 3] = 0.0
    source = gd.build_source_graph(cov_x, pearson_threshold)
    assert np.array_equal(source.edges.upper, reference_source_mask(cov_x, pearson_threshold))
    obs = gd.build_observation_graph(cov_ym, source, delta)
    assert np.array_equal(obs.edges.upper, reference_observation_mask(cov_ym, source, delta))


@SETTINGS
@given(SIZES, st.integers(1, 20), seeds)
def test_reconstructed_covariance_bit_equal(n, m, seed):
    """Responses of either sign, off-support zeros and zero covariances, whose
    products would be -0.0."""
    rng = np.random.default_rng(seed)
    basis = SpectralBasis(modes=np.eye(n), eigenvalues=np.arange(n, dtype=float))
    y = SignalEnsemble(signals=rng.standard_normal((m, n)), domain=SPECTRAL)
    gamma = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 2.0, n)
    support = {k + 1 for k in range(n) if k == 0 or rng.random() < 0.8}
    result = gd.blind_deconvolve(gd.ChannelEstimate.from_response(gamma, support), y, basis)
    got = gd.reconstructed_covariance(result)
    want = reference_reconstructed_covariance(result.inverse, gd.empirical_covariance(y))
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.array_equal(got, want)


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
SLAB = 1 << 18  # 64 rows of 512 float64, one of the eight row slabs at N_MEM


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
    """The pass ends holding four N x N: the covariance kept on y, the
    reconstructed covariance and the two dB matrices. y-hat (M x N, about two
    N x N here) is let go once its covariance is formed, so the peak is those
    four and at most two row slabs in flight (measured: 4.11 N x N; the
    whole-matrix bodies peaked at 4.26)."""
    basis, cov_x, source, sources, gamma = large_inputs
    y = gd.transmit(sources, gamma, basis, 0.5, 14)

    def one_pass():
        est = gd.estimate_channel(cov_x, y, basis, source, 0.001)
        result = gd.blind_deconvolve(est, y, basis)
        recon = gd.reconstructed_covariance(result)
        return est, gd.covariance_diagnostics(recon, cov_x)

    (est, _), peak = traced_peak(one_pass)
    assert len(est.support) == N_MEM
    assert peak <= 4 * NN + 2 * SLAB, f"peak {peak / 1e6:.2f} MB, {peak / NN:.3f} N x N"


def test_magnitudes_hold_a_few_slabs(large_inputs):
    """Beside the length-N result only a few row slabs of temporaries are
    live (measured: 4.8 slabs); the whole-matrix body held about 3 N x N,
    25 slabs."""
    basis, cov_x, source, sources, gamma = large_inputs
    cov_y = gd.empirical_covariance(gd.gft(basis, gd.transmit(sources, gamma, basis, 0.5, 14)))
    assert 8 * N_MEM * _row_slabs(N_MEM)[0].stop == SLAB
    source.adjacency, source.degrees  # formed once per graph and kept, so not counted here
    mags, peak = traced_peak(lambda: estimate_magnitudes(cov_x, cov_y, source))
    assert np.all(np.isfinite(mags))
    assert peak <= N_MEM * 8 + 6 * SLAB, f"peak {(peak - N_MEM * 8) / SLAB:.2f} slabs over the result"


def test_observation_graph_holds_its_two_masks(large_inputs):
    """The edge mask and the graph's read-only copy of it (N x N bool each),
    and at most two row slabs of magnitudes (measured: 1.5); the whole-matrix
    body held an N x N of them and two more masks, 14.5 slabs over."""
    basis, cov_x, source, sources, gamma = large_inputs
    cov_y = gd.empirical_covariance(gd.gft(basis, gd.transmit(sources, gamma, basis, 0.5, 14)))
    obs, peak = traced_peak(lambda: gd.build_observation_graph(cov_y, source, 0.001))
    assert len(obs.edges) > 0
    masks = 2 * N_MEM * N_MEM
    assert peak <= masks + 2 * SLAB, f"peak {(peak - masks) / SLAB:.2f} slabs over the masks"


def test_transmit_holds_one_ensemble_of_slack(large_inputs):
    """transmit must hold its filtered spectral samples and the vertex-domain
    samples it returns (M x N each); at most one more M x N may be in
    flight, plus the length-N response."""
    basis, _, _, sources, gamma = large_inputs
    y, peak = traced_peak(lambda: gd.transmit(sources, gamma, basis, 0.5, 14))
    assert y.signals.shape == (M_MEM, N_MEM)
    assert peak <= 3 * MN + 64 * N_MEM * 8, f"peak {peak / 1e6:.1f} MB, {peak / MN:.3f} M x N"


def test_empirical_covariance_holds_one_square_of_slack():
    """Beside the N x N it returns, at most three row slabs may be live
    (measured: 0.01, as the product is divided in place; 2.3 when it was
    symmetrised a row slab at a time); the in-place whole-matrix
    symmetrisation held numpy's buffer for the overlapping transpose, one
    more N x N, and the full-matrix body before it two more."""
    e = SignalEnsemble(signals=np.random.default_rng(15).standard_normal((M_MEM, N_MEM)), domain=SPECTRAL)
    cov, peak = traced_peak(lambda: gd.empirical_covariance(e))
    assert np.array_equal(cov, reference_empirical_covariance(e))
    assert peak <= NN + 3 * SLAB, f"peak {(peak - NN) / SLAB:.2f} slabs over the result"
