"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. The
noisy large-trial simulation (criteria 4 and 7) runs once and is shared.
"""

import time

import numpy as np
import pytest

from graph_deconv import (
    ChannelEstimate,
    Graph,
    SignalEnsemble,
    SimulationConfig,
    assign_signs,
    blind_deconvolve,
    build_observation_graph,
    build_source_graph,
    eigendecompose,
    empirical_covariance,
    estimate_magnitudes,
    gft,
    igft,
    random_channel,
    reconstructed_covariance,
    run_simulation,
    transmit,
    validate_bound_monte_carlo,
)
from graph_deconv.simulate import derive_seed, simulation_graph


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def noisy_reference_run():
    """Criterion 4/7 configuration: sigma = 1/2, M = 744, delta = 0.001,
    channel amplitude 0.2, 1000 trials."""
    config = SimulationConfig(
        n_vertices=32,
        sample_count=744,
        noise_sigma=0.5,
        channel_amplitude=0.2,
        pearson_threshold=0.01,
        delta=0.001,
        seed=20260810,
        trials=1000,
    )
    start = time.perf_counter()
    result = run_simulation(config)
    elapsed = time.perf_counter() - start
    return result, elapsed


def test_criterion_1_noiseless_exact_recovery():
    """N = 16, M = 2000, sigma = 0: magnitudes and aligned reconstruction
    within 1e-8, in at most 10 seconds."""
    start = time.perf_counter()
    config = SimulationConfig(
        n_vertices=16,
        sample_count=2000,
        noise_sigma=0.0,
        channel_amplitude=0.2,
        seed=11,
        trials=1,
    )
    result = run_simulation(config)
    elapsed = time.perf_counter() - start
    min_gain = float(np.min(np.abs(result.channel)))
    assert min_gain >= 0.8
    mag_err = result.magnitude_error_max
    recon_err = result.max_reconstruction_error
    ok = mag_err <= 1e-8 and recon_err <= 1e-8 and elapsed <= 10.0
    report(
        "criterion-1 noiseless exact recovery",
        ok,
        f"max |gamma| error {mag_err:.3e}, aligned reconstruction error "
        f"{recon_err:.3e}, {elapsed:.1f}s",
    )


def test_criterion_2_hand_derived_two_vertex_fixture():
    """cov_x = [[1, .5], [.5, 1]], gamma = (2, 1), exact cov_y = [[4, 1], [1, 1]]
    must give magnitudes (2, 1) to 1e-12."""
    cov_x = np.array([[1.0, 0.5], [0.5, 1.0]])
    cov_y = np.array([[4.0, 1.0], [1.0, 1.0]])
    source = Graph(n_vertices=2, edges=frozenset({(1, 2)}))
    mags = estimate_magnitudes(cov_x, cov_y, source)
    err = float(np.max(np.abs(mags - np.array([2.0, 1.0]))))
    report("criterion-2 hand-derived fixture", err <= 1e-12, f"max error {err:.3e}")


def test_criterion_3_diagonal_inflation():
    """Known channel, sigma = 0.5, M = 10000, 100 trials: the reconstructed
    variance excess matches sigma^2/gamma(n)^2 within 10% for every n with
    |gamma(n)| >= 0.8, in at most 60 seconds."""
    start = time.perf_counter()
    n, m, sigma, trials = 16, 10000, 0.5, 100
    coords, radius, graph, basis = simulation_graph(n, 99)

    # Moderate-variance dense source: correlated rows, variances 3.0 .. 0.3.
    rng = np.random.default_rng(99)
    q = rng.standard_normal(n)
    q /= np.linalg.norm(q)
    variances = np.linspace(3.0, 0.3, n)
    rows = np.empty((n, n))
    for k in range(n):
        g = rng.standard_normal(n)
        g -= (g @ q) * q
        g /= np.linalg.norm(g)
        rows[k] = np.sqrt(variances[k]) * (np.sqrt(0.5) * q + np.sqrt(0.5) * g)

    gamma = random_channel(n, 0.2, 1234)
    estimate = ChannelEstimate.from_response(gamma)
    excess = np.zeros(n)
    for t in range(trials):
        trng = np.random.default_rng(derive_seed(99, 7, t))
        xhat = SignalEnsemble(trng.standard_normal((m, n)) @ rows.T, domain="spectral")
        sources = igft(basis, xhat)
        y = transmit(sources, gamma, basis, sigma, derive_seed(99, 8, t))
        cov_recon = reconstructed_covariance(blind_deconvolve(estimate, y, basis))
        excess += np.diag(cov_recon) - np.diag(empirical_covariance(xhat))
    excess /= trials
    expected = sigma**2 / gamma**2
    checked = np.abs(gamma) >= 0.8
    rel_err = float(np.max(np.abs(excess[checked] - expected[checked]) / expected[checked]))
    elapsed = time.perf_counter() - start
    ok = rel_err <= 0.10 and elapsed <= 60.0 and bool(np.all(checked[np.abs(gamma) >= 0.8]))
    report(
        "criterion-3 diagonal inflation",
        ok,
        f"max relative error {rel_err:.4f} over {int(checked.sum())} frequencies, {elapsed:.1f}s",
    )


def test_criterion_4_db_gap(noisy_reference_run):
    """The 1000-trial noisy run separates off-diagonal from diagonal dB error
    by at least 5 dB, within 10 minutes."""
    result, elapsed = noisy_reference_run
    gap = result.gap
    ok = gap.gap_db <= -5.0 and elapsed <= 600.0
    report(
        "criterion-4 dB gap",
        ok,
        f"diagonal {gap.mean_diagonal_db:.4f} dB, off-diagonal "
        f"{gap.mean_offdiagonal_db:.4f} dB, gap {gap.gap_db:.4f} dB, {elapsed:.1f}s",
    )


def test_criterion_5_concentration_bound_monte_carlo():
    """Across M in {100, 400, 1600} with bounds placed inside (0.05, 0.9), the
    empirical exceedance rate over 2000 trials never beats the bound by more
    than three binomial standard errors, on a diagonal and an off-diagonal
    probe."""
    worst_margin = -np.inf
    rows = 0
    for m in (100, 400, 1600):
        config = SimulationConfig(
            n_vertices=8, sample_count=m, noise_sigma=0.5, seed=4242, trials=1
        )
        checks = validate_bound_monte_carlo(config, 2000, bound_targets=(0.1, 0.3, 0.8))
        diagonal = {c.diagonal for c in checks}
        assert diagonal == {True, False}
        for check in checks:
            assert 0.05 < check.bound < 0.9
            assert not check.flag
            worst_margin = max(worst_margin, check.empirical - check.bound)
            rows += 1
    report(
        "criterion-5 concentration bounds",
        rows == 18 and worst_margin < 0,
        f"{rows} checks, worst empirical-minus-bound margin {worst_margin:.4f}",
    )


def test_criterion_6_structural_invariants(noisy_reference_run):
    """GFT round trip and Parseval at 1e-10, spectral operator norm vs the
    dense 2-norm at 1e-8, the tree-edge sign relation on every run, the
    observation graph always a subgraph, and the anchor flip localized."""
    result, _ = noisy_reference_run

    # Round trip and Parseval on a fresh random basis.
    rng = np.random.default_rng(606)
    a = rng.standard_normal((12, 12))
    basis = eigendecompose(a + a.T)
    e = SignalEnsemble(signals=rng.standard_normal((30, 12)), domain="vertex")
    spec = gft(basis, e)
    round_trip = float(np.max(np.abs(igft(basis, spec).signals - e.signals)))
    parseval = float(
        np.max(
            np.abs(
                np.linalg.norm(e.signals, axis=1) - np.linalg.norm(spec.signals, axis=1)
            )
        )
    )

    # Operator norm against the dense 2-norm for N up to 16.
    from graph_deconv import operator_norm

    norm_gap = 0.0
    for n in (2, 7, 16):
        b = rng.standard_normal((n, n))
        nb = eigendecompose(b + b.T)
        gamma = rng.uniform(-2.5, 2.5, n)
        dense = nb.modes @ np.diag(gamma) @ nb.modes.T
        norm_gap = max(norm_gap, abs(operator_norm(gamma) - np.linalg.norm(dense, 2)))

    # Tree-edge sign relation on the noisy reference run (trial 0).
    cov_ym = empirical_covariance(gft(result.basis, result.observations))
    tree_edges = 0
    tree_ok = True
    for comp in result.estimate.components:
        for child, parent in comp.parents.items():
            ratio = cov_ym[child - 1, parent - 1] / result.cov_x[child - 1, parent - 1]
            lhs = np.sign(result.estimate.gamma_m[child - 1]) * np.sign(
                result.estimate.gamma_m[parent - 1]
            )
            tree_ok &= lhs == np.sign(ratio)
            tree_edges += 1

    # Observation graph is always a subgraph with support inside 1..N.
    subgraph_ok = True
    for seed in range(8):
        mix = rng.standard_normal((10, 6))
        cov_x = mix @ mix.T + 0.2 * np.eye(10)
        source = build_source_graph(cov_x, rng.uniform(0.0, 0.4))
        mix2 = rng.standard_normal((10, 6))
        cov_y = mix2 @ mix2.T + 0.2 * np.eye(10)
        obs = build_observation_graph(cov_y, source, rng.uniform(0.0, 0.3))
        subgraph_ok &= obs.edges <= source.edges
        subgraph_ok &= all(1 <= v <= 10 for v in obs.support)

    # Anchor flip negates exactly one component.
    cov_x = np.eye(4)
    cov_x[0, 1] = cov_x[1, 0] = 0.8
    cov_x[2, 3] = cov_x[3, 2] = 0.8
    gamma = np.array([1.0, -1.0, 1.0, 1.0])
    cov_y = np.outer(gamma, gamma) * cov_x
    source = build_source_graph(cov_x, 0.01)
    obs = build_observation_graph(cov_y, source, 0.001)
    mags = np.abs(gamma)
    base = assign_signs(mags, obs, cov_x, cov_y, anchor_signs=[1, 1])
    flip = assign_signs(mags, obs, cov_x, cov_y, anchor_signs=[1, -1])
    flip_ok = np.array_equal(base.gamma_m[:2], flip.gamma_m[:2]) and np.array_equal(
        base.gamma_m[2:], -flip.gamma_m[2:]
    )

    ok = (
        round_trip <= 1e-10
        and parseval <= 1e-10
        and norm_gap <= 1e-8
        and tree_ok
        and tree_edges > 0
        and subgraph_ok
        and flip_ok
    )
    report(
        "criterion-6 structural invariants",
        ok,
        f"round trip {round_trip:.2e}, Parseval {parseval:.2e}, norm gap "
        f"{norm_gap:.2e}, {tree_edges} tree edges consistent, subgraph and "
        f"anchor-flip checks {'ok' if (subgraph_ok and flip_ok) else 'failed'}",
    )


def test_criterion_7_sign_recovery_rate(noisy_reference_run):
    """Under the criterion-4 conditions, the sign pattern matches the true
    channel per component on at least 99% of the 1000 trials."""
    result, _ = noisy_reference_run
    rate = result.sign_recovery_rate
    report(
        "criterion-7 sign recovery rate",
        rate >= 0.99,
        f"{rate:.4f} over {result.config.trials} trials",
    )
