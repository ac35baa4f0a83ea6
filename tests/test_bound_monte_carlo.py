"""The bound Monte Carlo against the full-draw loop, and its Bartlett sampler.

``validate_bound_monte_carlo`` draws each trial's Gram of the probed spectral
observation columns directly, as a Bartlett factor times a QR factor of their
population covariance. ``reference_bound_monte_carlo`` below draws all N
source and noise columns of every trial from ``default_rng(seed + t)`` and
reads the probed ones. The two use different draws, so epsilons and bounds
must be equal and exceedance rates must agree statistically.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest

from graph_deconv import SimulationConfig, concentration_bound, validate_bound_monte_carlo
from graph_deconv import covariance
from graph_deconv.covariance import BoundCheck, _bartlett_blocks
from graph_deconv.simulate import population_model


def reference_bound_monte_carlo(config, trials, probes=None, bound_targets=(0.1, 0.3, 0.6)):
    """Full-draw oracle: trial t draws M x N sources and noise from ``seed + t``."""
    pop = population_model(config)
    n = config.n_vertices
    m = config.sample_count
    sigma = config.noise_sigma

    if probes is None:
        off = np.abs(pop.cov_x - np.diag(np.diag(pop.cov_x)))
        i, j = np.unravel_index(int(np.argmax(off)), off.shape)
        probes = [(1, 1), (min(i, j) + 1, max(i, j) + 1)]

    checks = []
    for p, q in probes:
        diagonal = p == q
        numerator = concentration_bound(pop.c4, pop.h_norm, sigma, 1, 1.0, diagonal)
        for target in bound_targets:
            eps = math.sqrt(numerator / (m * target))
            bound = concentration_bound(pop.c4, pop.h_norm, sigma, m, eps, diagonal)
            checks.append((p, q, eps, bound))

    exceed = np.zeros(len(checks), dtype=int)
    truth = {(p, q): pop.cov_y[p - 1, q - 1] for p, q, _, _ in checks}
    for t in range(trials):
        rng = np.random.default_rng(config.seed + t)
        z = rng.standard_normal((m, n))
        xhat = z @ pop.mixing.T
        yhat = xhat * pop.gamma
        if sigma > 0:
            yhat = yhat + sigma * rng.standard_normal((m, n))
        for k, (p, q, eps, _) in enumerate(checks):
            entry = float(yhat[:, p - 1] @ yhat[:, q - 1]) / m
            if abs(entry - truth[(p, q)]) >= eps:
                exceed[k] += 1

    report = []
    for k, (p, q, eps, bound) in enumerate(checks):
        freq = float(exceed[k]) / trials
        se = math.sqrt(freq * (1.0 - freq) / trials)
        report.append(
            BoundCheck(
                n=p, nprime=q, eps=eps, empirical=freq, bound=bound, flag=bool(freq > bound + 3 * se)
            )
        )
    return report


def assert_agrees_with_oracle(config, trials, **kwargs):
    """Equal probes, epsilons and bounds; rates within 4 pooled binomial SEs plus 1/trials."""
    new = validate_bound_monte_carlo(config, trials, **kwargs)
    old = reference_bound_monte_carlo(config, trials, **kwargs)
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert (a.n, a.nprime) == (b.n, b.nprime)
        assert a.eps == b.eps
        assert a.bound == b.bound
        pooled = (a.empirical + b.empirical) / 2
        se = math.sqrt(pooled * (1 - pooled) * 2 / trials)
        assert abs(a.empirical - b.empirical) <= 4 * se + 1 / trials, (a, b)
    return new


@pytest.mark.parametrize("m", [100, 400])
def test_matches_full_draw_oracle(m):
    config = SimulationConfig(n_vertices=8, sample_count=m, noise_sigma=0.5, seed=4242)
    report = assert_agrees_with_oracle(config, 2000, bound_targets=(0.1, 0.3, 0.8))
    assert not any(check.flag for check in report)
    # Some targets must be hit by both paths, or the rate comparison says nothing.
    assert any(check.empirical > 0 for check in report)


@pytest.mark.parametrize("m", [100, 400])
def test_sigma_zero_matches_oracle(m):
    config = SimulationConfig(n_vertices=8, sample_count=m, noise_sigma=0.0, seed=17)
    report = assert_agrees_with_oracle(
        config, 2000, probes=[(1, 1), (2, 3), (3, 3), (8, 1)], bound_targets=(0.2, 0.6)
    )
    assert any(check.empirical > 0 for check in report)


def test_singular_block_at_sigma_zero():
    """At N=2 and seed 2 the two mixing rows are parallel, so the noiseless
    population covariance of the probed columns has rank 1 and has no
    Cholesky factor; the QR factor still draws from it exactly."""
    config = SimulationConfig(n_vertices=2, sample_count=100, noise_sigma=0.0, seed=2)
    cov_y = population_model(config).cov_y
    assert np.linalg.matrix_rank(cov_y) == 1
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(cov_y)
    report = assert_agrees_with_oracle(
        config, 1000, probes=[(1, 1), (1, 2), (2, 2)], bound_targets=(0.3, 0.8)
    )
    assert not any(check.flag for check in report)


def test_default_probes_are_python_ints():
    config = SimulationConfig(n_vertices=8, sample_count=200, noise_sigma=0.5, seed=5)
    report = validate_bound_monte_carlo(config, 100)
    oracle = reference_bound_monte_carlo(config, 100)
    assert [(c.n, c.nprime) for c in report] == [(int(c.n), int(c.nprime)) for c in oracle]
    assert report[0].diagonal and not report[-1].diagonal
    for check in report:
        assert type(check.n) is int and type(check.nprime) is int


@pytest.mark.parametrize(
    "probe",
    [(1.5, 2), (True, 2), (1, False), (1,), (1, 2, 3), "12", 7, (None, 1), (1, 9), (0, 1)],
    ids=["float", "bool", "bool-second", "single", "triple", "string", "scalar", "none",
         "above-n", "zero"],
)
def test_bad_probe_is_value_error_naming_it(probe):
    config = SimulationConfig(n_vertices=8, sample_count=20, noise_sigma=0.1, seed=1)
    with pytest.raises(ValueError, match=re.escape(f"probe {probe!r}")):
        validate_bound_monte_carlo(config, 100, probes=[(1, 1), probe])


def bound_mc(trials=100, targets=(0.1,)):
    config = SimulationConfig(n_vertices=8, sample_count=20, noise_sigma=0.1, seed=1)
    return validate_bound_monte_carlo(config, trials, bound_targets=targets)


def bound(m=100, eps=0.1, sigma=0.5):
    return concentration_bound(3.0, 1.0, sigma, m, eps, diagonal=False)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: bound_mc(150.0), "trials must be an integer, got 150.0"),
        (lambda: bound_mc(True), "trials must be an integer, got True"),
        (lambda: bound_mc(targets=(0.0,)), "bound target must be a finite number > 0, got 0.0"),
        (lambda: bound_mc(targets=(0.3, -0.1)), "got -0.1"),
        (lambda: bound_mc(targets=(math.nan,)), "got nan"),
        (lambda: bound_mc(targets=(math.inf,)), "got inf"),
        (lambda: bound(eps=math.nan), "eps must be a finite number > 0, got nan"),
        (lambda: bound(eps=math.inf), "got inf"),
        (lambda: bound(m=100.0), "m must be an integer >= 1, got 100.0"),
        (lambda: bound(m=True), "m must be an integer >= 1, got True"),
        (lambda: bound(sigma=math.nan), "must be finite and >= 0"),
    ],
    ids=["float-trials", "bool-trials", "zero-target", "negative-target", "nan-target",
         "inf-target", "nan-eps", "inf-eps", "float-m", "bool-m", "nan-sigma"],
)
def test_bad_trials_target_m_eps_or_moment_is_value_error(call, message):
    """Each of these once raised TypeError or ZeroDivisionError, or returned NaN."""
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_numpy_integer_probes_accepted():
    config = SimulationConfig(n_vertices=8, sample_count=20, noise_sigma=0.1, seed=1)
    report = validate_bound_monte_carlo(config, 100, probes=[np.array([2, 5])])
    assert all(type(c.n) is int and (c.n, c.nprime) == (2, 5) for c in report)


# A k = 3 factor with correlated columns; F^T F is the covariance drawn from.
FACTOR = np.array([[1.5, 0.6, -0.4], [0.0, 0.8, 0.3], [0.0, 0.0, 0.5]])


@pytest.mark.parametrize("m", [10, 2], ids=["full", "two-rows"])
def test_bartlett_draws_have_the_wishart_moments(m):
    """W = G^T G over 20,000 trials has E W = M Sigma and
    Var W_ij = M (Sigma_ij^2 + Sigma_ii Sigma_jj), Sigma = F^T F, also at
    M = 2 < k, where W is singular. Each of the nine means is scored by its
    closed-form standard error and each variance by the one its sample fourth
    moment implies; the largest |z| measured at seed 1 was 1.33 (M = 10) and
    1.03 (M = 2)."""
    sigma = FACTOR.T @ FACTOR
    blocks = _bartlett_blocks(FACTOR, m, 20000, 1)
    w = np.concatenate([np.einsum("tia,tib->tab", g, g) for g in blocks])
    assert w.shape == (20000, 3, 3)
    assert np.linalg.matrix_rank(w[0]) == min(m, 3)
    trials = w.shape[0]
    mean = w.mean(axis=0)
    centred = w - mean
    var = (centred**2).mean(axis=0)
    fourth = (centred**4).mean(axis=0)
    want_var = m * (sigma**2 + np.outer(np.diag(sigma), np.diag(sigma)))
    z_mean = (mean - m * sigma) / np.sqrt(want_var / trials)
    z_var = (var - want_var) / np.sqrt((fourth - var**2) / trials)
    assert np.abs(z_mean).max() < 4, z_mean
    assert np.abs(z_var).max() < 4, z_var


def test_block_size_changes_no_byte(monkeypatch):
    """Each stream is consumed in trial order and G is formed elementwise, so
    blocks of 7 trials give the draws and the report of the default block."""
    config = SimulationConfig(n_vertices=8, sample_count=100, noise_sigma=0.5, seed=4242)
    kwargs = dict(probes=[(1, 1), (2, 3), (4, 4)], bound_targets=(0.3, 0.8))
    report = validate_bound_monte_carlo(config, 2500, **kwargs)
    draws = np.concatenate(list(_bartlett_blocks(FACTOR, 10, 2500, 5)))
    assert 2500 > 2 * covariance._TRIAL_BLOCK > 7
    monkeypatch.setattr(covariance, "_TRIAL_BLOCK", 7)
    assert validate_bound_monte_carlo(config, 2500, **kwargs) == report
    assert np.array_equal(np.concatenate(list(_bartlett_blocks(FACTOR, 10, 2500, 5))), draws)
    assert any(check.empirical > 0 for check in report)


def test_memory_does_not_grow_with_trials():
    """200,000 trials held at once would be a 9.6 MB array of probed entries
    alone; drawn a block at a time they trace about 0.3 MB."""
    config = SimulationConfig(n_vertices=8, sample_count=100, noise_sigma=0.5, seed=4242)
    tracemalloc.start()
    try:
        validate_bound_monte_carlo(config, 200_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6, f"peak {peak / 1e6:.2f} MB"


@pytest.mark.parametrize("below, flagged", [(3.5, True), (2.5, False)])
def test_flag_is_three_standard_errors_above_the_bound(monkeypatch, below, flagged):
    """A bound reported ``below`` binomial standard errors under the measured
    rate is flagged beyond 3 and not within it. Only the M-sample bound is
    replaced; eps comes from the m = 1 call, so the draws and rates are kept."""
    config = SimulationConfig(n_vertices=8, sample_count=100, noise_sigma=0.5, seed=4242)
    kwargs = dict(probes=[(1, 1)], bound_targets=(0.8,))
    [check] = validate_bound_monte_carlo(config, 400, **kwargs)
    freq = check.empirical
    se = math.sqrt(freq * (1 - freq) / 400)
    assert se > 0

    true_bound = covariance.concentration_bound

    def bound_below(c4, h_norm, sigma, m, eps, diagonal):
        if m == 1:
            return true_bound(c4, h_norm, sigma, m, eps, diagonal)
        return freq - below * se

    monkeypatch.setattr(covariance, "concentration_bound", bound_below)
    [moved] = validate_bound_monte_carlo(config, 400, **kwargs)
    assert (moved.eps, moved.empirical) == (check.eps, freq)
    assert moved.bound == freq - below * se
    assert moved.flag is flagged


def test_memory_does_not_grow_with_n():
    """At N=512 and M=20000 one full-width draw is an 82 MB array, and the
    full-draw loop holds several at once; the probed-column draws stay a few
    MB, most of it the N x N population model."""
    config = SimulationConfig(n_vertices=512, sample_count=20000, noise_sigma=0.5, seed=3)
    tracemalloc.start()
    try:
        validate_bound_monte_carlo(config, 100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32e6, f"peak {peak / 1e6:.1f} MB"
