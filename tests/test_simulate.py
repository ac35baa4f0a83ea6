"""Simulation harness: configs, synthetic sources, determinism, bundles."""

import gc
import itertools
import json
import math
import sys
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_in_place import pearson_matrix

from graph_deconv import (
    DegenerateSpectrum,
    SimulationConfig,
    build_observation_graph,
    build_radius_graph,
    build_source_graph,
    eigendecompose,
    empirical_covariance,
    gft,
    igft,
    laplacian,
    run_simulation,
    sign_consistency_report,
    synthetic_source,
    transmit,
    variance_profile,
)
from graph_deconv import covariance, simulate, spectral
from graph_deconv.simulate import (
    connectivity_radius,
    mixing_matrix,
    population_model,
    signs_match,
    simulation_graph,
)
from graph_deconv.estimation import ChannelEstimate, Component, sign_of


def oracle_mixing_matrix(n: int, seed: int) -> np.ndarray:
    """``mixing_matrix`` as its per-row loop drew it, verbatim from before one block drew the rows."""
    rng = np.random.default_rng(seed)
    v = variance_profile(n)
    if n == 1:
        return np.array([[math.sqrt(v[0])]])
    q = rng.standard_normal(n)
    q /= np.linalg.norm(q)
    c = simulate.COMMON_DIRECTION_WEIGHT
    rows = np.empty((n, n))
    for k in range(n):
        g = rng.standard_normal(n)
        g -= (g @ q) * q
        norm = np.linalg.norm(g)
        while norm < 1e-12:
            g = rng.standard_normal(n)
            g -= (g @ q) * q
            norm = np.linalg.norm(g)
        direction = math.sqrt(c) * q + math.sqrt(1.0 - c) * (g / norm)
        rows[k] = math.sqrt(v[k]) * direction
    return rows


class TestConfig:
    def test_json_round_trip(self, tmp_path):
        cfg = SimulationConfig(
            n_vertices=12, sample_count=500, noise_sigma=0.25, seed=9, trials=3
        )
        path = tmp_path / "sim.json"
        cfg.to_json_file(path)
        assert SimulationConfig.from_json_file(path) == cfg

    def test_ints_for_floats_and_numpy_scalars_accepted(self):
        cfg = SimulationConfig(
            n_vertices=np.int64(4), sample_count=10, noise_sigma=0, delta=np.float64(0.5)
        )
        assert cfg.noise_sigma == 0 and cfg.delta == 0.5

    def test_field_names_mirror_json(self, tmp_path):
        cfg = SimulationConfig(n_vertices=4, sample_count=10, noise_sigma=0.0)
        data = json.loads(json.dumps(cfg.to_json()))
        # Every field, with the defaults the README and the CLI's estimate use.
        assert data == {
            "n_vertices": 4,
            "sample_count": 10,
            "noise_sigma": 0.0,
            "channel_amplitude": 0.2,
            "pearson_threshold": 0.01,
            "delta": 0.001,
            "seed": 0,
            "trials": 1,
        }

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="config"):
            SimulationConfig.from_json({"n_vertices": 4, "sample_count": 10, "noise_sigma": 0.0, "bogus": 1})

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_vertices=1, sample_count=10, noise_sigma=0.0),
            dict(n_vertices=4, sample_count=0, noise_sigma=0.0),
            dict(n_vertices=4, sample_count=10, noise_sigma=-0.1),
            dict(n_vertices=4, sample_count=10, noise_sigma=0.0, channel_amplitude=1.0),
            dict(n_vertices=4, sample_count=10, noise_sigma=0.0, delta=-0.1),
            dict(n_vertices=4, sample_count=10, noise_sigma=0.0, trials=0),
            dict(n_vertices=4, sample_count=10, noise_sigma=0.0, seed=-1),
            dict(n_vertices=8.5, sample_count=10, noise_sigma=0.0),
            dict(n_vertices=4, sample_count=50.5, noise_sigma=0.0),
            dict(n_vertices=4, sample_count=10, noise_sigma=0.0, seed=1.5),
            dict(n_vertices=4, sample_count=10, noise_sigma=0.0, trials=2.0),
            dict(n_vertices=True, sample_count=10, noise_sigma=0.0),
            dict(n_vertices=4, sample_count=10, noise_sigma=0.0, seed=False),
            dict(n_vertices=4, sample_count="10", noise_sigma=0.0),
            dict(n_vertices=4, sample_count=10, noise_sigma=float("nan")),
            dict(n_vertices=4, sample_count=10, noise_sigma=0.0, delta=float("nan")),
            dict(n_vertices=4, sample_count=10, noise_sigma=0.0, channel_amplitude=float("nan")),
            dict(n_vertices=4, sample_count=10, noise_sigma=0.0, pearson_threshold=float("nan")),
            dict(n_vertices=4, sample_count=10, noise_sigma=float("inf")),
            dict(n_vertices=4, sample_count=10, noise_sigma=True),
            dict(n_vertices=4, sample_count=10, noise_sigma="0.5"),
            dict(n_vertices=10**400, sample_count=10, noise_sigma=0.0),
            dict(n_vertices=4, sample_count=2**63, noise_sigma=0.0),
            dict(n_vertices=2**63, sample_count=10, noise_sigma=0.0),
            dict(n_vertices=4, sample_count=10, noise_sigma=0.0, trials=2**63),
            dict(n_vertices=4, sample_count=10, noise_sigma=10**400),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimulationConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_vertices=2, sample_count=1, noise_sigma=0.0, channel_amplitude=0.0,
                 pearson_threshold=0.0, delta=0.0, seed=0, trials=1),
            dict(n_vertices=2**63 - 1, sample_count=2**63 - 1, noise_sigma=sys.float_info.max,
                 channel_amplitude=math.nextafter(1.0, 0.0), pearson_threshold=1.0, delta=1.0,
                 trials=2**63 - 1),
        ],
    )
    def test_ends_of_every_range_accepted(self, kwargs):
        cfg = SimulationConfig(**kwargs)
        assert {name: getattr(cfg, name) for name in kwargs} == kwargs

    @pytest.mark.parametrize("name", ["delta", "pearson_threshold"])
    @pytest.mark.parametrize("value", [1.5, -0.5])
    def test_thresholds_outside_unit_interval_rejected(self, name, value):
        with pytest.raises(ValueError, match=rf"{name} must be in \[0, 1\]"):
            SimulationConfig(n_vertices=4, sample_count=10, noise_sigma=0.0, **{name: value})


class TestSyntheticSource:
    def test_variance_profile_decays_from_dominant_head(self):
        v = variance_profile(32)
        assert v[0] == pytest.approx(177.8017)
        assert np.all(np.diff(v) < 0)
        assert v[-1] == pytest.approx(0.2584)
        assert len(variance_profile(2)) == 2

    def test_mixing_hits_the_profile_variances(self):
        mixing = mixing_matrix(16, 123)
        cov = mixing @ mixing.T
        np.testing.assert_allclose(np.diag(cov), variance_profile(16), rtol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 96, 200])
    def test_mixing_equals_the_row_loop_bit_for_bit(self, n):
        for seed in (0, 123, 2**40 + 7):
            assert mixing_matrix(n, seed).tobytes() == oracle_mixing_matrix(n, seed).tobytes()

    def test_row_along_the_common_direction_is_drawn_again_after_the_block(self, monkeypatch):
        """Row 2 of the block is drawn parallel to the common direction, so its
        projection vanishes and it is replaced by the next draw of the stream."""
        n, seed, real = 8, 5, np.random.default_rng

        class Parallel:
            def __init__(self, seed):
                self.rng, self.q = real(seed), None

            def standard_normal(self, size):
                out = self.rng.standard_normal(size)
                if self.q is None:
                    self.q = out.copy()
                elif np.ndim(out) == 2:
                    out[1] = 3.0 * self.q
                return out

        monkeypatch.setattr(np.random, "default_rng", Parallel)
        mixing = mixing_matrix(n, seed)
        stream = real(seed)
        q = stream.standard_normal(n)
        q /= np.linalg.norm(q)
        stream.standard_normal((n, n))
        g = stream.standard_normal(n)
        g -= (g @ q) * q
        c, v = simulate.COMMON_DIRECTION_WEIGHT, variance_profile(n)
        expected = np.sqrt(v[1]) * (np.sqrt(c) * q + np.sqrt(1.0 - c) * g / np.linalg.norm(g))
        np.testing.assert_allclose(mixing[1], expected, rtol=1e-13)
        np.testing.assert_allclose(np.sum(mixing**2, axis=1), v, rtol=1e-12)

    def test_pairwise_correlations_have_a_floor(self):
        """The shared direction keeps every spectral pair well correlated, so
        source-graph edges never degenerate into coin-flip sign decisions."""
        mixing = mixing_matrix(32, 456)
        rho = pearson_matrix(mixing @ mixing.T)
        off = rho[~np.eye(32, dtype=bool)]
        assert off.min() > 0.2

    def test_source_graph_is_connected(self):
        for seed in range(5):
            mixing, xhat = synthetic_source(16, 400, seed)
            source = build_source_graph(empirical_covariance(xhat), 0.01)
            assert source.connected

    def test_deterministic(self):
        a_mix, a = synthetic_source(8, 100, 77)
        b_mix, b = synthetic_source(8, 100, 77)
        np.testing.assert_array_equal(a_mix, b_mix)
        np.testing.assert_array_equal(a.signals, b.signals)

    def test_empirical_covariance_approaches_population(self):
        mixing, xhat = synthetic_source(8, 200000, 5)
        emp = empirical_covariance(xhat)
        pop = mixing @ mixing.T
        scale = np.sqrt(np.outer(np.diag(pop), np.diag(pop)))
        assert np.max(np.abs(emp - pop) / scale) < 0.05


class TestTransmit:
    def test_noise_inflates_energy_equivalently_in_both_domains(self):
        """Spectral noise adds sigma^2 of energy per vertex sample, whichever domain the sources are in."""
        coords, radius, graph, basis = simulation_graph(6, 4)
        mixing, xhat = synthetic_source(6, 5000, 4)
        sources = igft(basis, xhat)
        gamma = np.ones(6)
        clean = transmit(sources, gamma, basis, 0.0, 1)
        noisy = transmit(sources, gamma, basis, 1.0, 2)
        assert noisy.domain == "vertex"
        # Sources given by their GFT take the same path from the filter on.
        same = transmit(gft(basis, sources), gamma, basis, 1.0, 2)
        np.testing.assert_array_equal(same.signals, noisy.signals)
        # The signal-noise cross term fluctuates with the dominant source
        # variance, so the check is loose.
        added = np.mean(noisy.signals**2) - np.mean(clean.signals**2)
        assert abs(added - 1.0) < 0.3

    @pytest.mark.parametrize("sigma", [-1.0, float("nan"), float("inf")])
    def test_bad_sigma_rejected(self, sigma):
        coords, radius, graph, basis = simulation_graph(6, 4)
        _, xhat = synthetic_source(6, 20, 4)
        with pytest.raises(ValueError, match="sigma must be a finite number >= 0"):
            transmit(xhat, np.ones(6), basis, sigma, 1)

    def test_no_transform_of_the_sources_outlives_the_call(self, monkeypatch):
        """No ensemble keeps a transform, so a long-lived source ensemble does not keep its GFT alive."""
        coords, radius, graph, basis = simulation_graph(6, 4)
        _, xhat = synthetic_source(6, 200, 4)
        sources = igft(basis, xhat)
        made = []

        def recorded(basis, e):
            out = gft(basis, e)
            made.append(weakref.ref(out))
            return out

        monkeypatch.setattr(spectral, "gft", recorded)
        y = transmit(sources, np.ones(6), basis, 0.5, 1)
        gc.collect()
        assert len(made) == 1 and made[0]() is None
        assert y.domain == "vertex"


class TestSimulationGraph:
    def test_connectivity_radius_on_known_points(self):
        xy = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        assert connectivity_radius(xy) == pytest.approx(2.0)

    def test_graph_is_connected_and_distinct(self):
        coords, radius, graph, basis = simulation_graph(12, 9)
        assert graph.connected
        gaps = np.diff(np.sort(basis.eigenvalues))
        assert gaps.min() > 1e-9 * max(1.0, np.abs(basis.eigenvalues).max())

    def test_deterministic(self):
        a = simulation_graph(10, 11)
        b = simulation_graph(10, 11)
        assert a[0] == b[0]
        assert a[2].edges == b[2].edges

    @pytest.mark.parametrize("seed", [17, 99991])
    def test_seeds_needing_many_redraws_reach_a_distinct_spectrum(self, seed):
        """At N=96 these seeds draw 42 and 38 layouts with a repeated eigenvalue first."""
        coords, radius, graph, basis = simulation_graph(96, seed)
        assert graph.connected
        gaps = np.diff(np.sort(basis.eigenvalues))
        assert gaps.min() > 1e-9 * max(1.0, np.abs(basis.eigenvalues).max())

    @pytest.mark.parametrize("seed", [*range(17), 18, 20, 21])
    def test_layout_is_the_first_distinct_one_drawn(self, seed):
        """The search returns the first seeded layout with a distinct spectrum.

        The loop here draws the same seeded layouts in the same order with no
        attempt limit.
        """
        n = 96
        for attempt in itertools.count():
            rng = np.random.default_rng(simulate.derive_seed(seed, simulate._COORDS, attempt))
            xy = rng.random((n, 2))
            radius = 1.05 * connectivity_radius(xy)
            coords = [(str(k + 1), float(x), float(y)) for k, (x, y) in enumerate(xy)]
            graph = build_radius_graph(coords, radius)
            try:
                basis = eigendecompose(laplacian(graph))
            except DegenerateSpectrum:
                continue
            break
        got_coords, got_radius, got_graph, got_basis = simulation_graph(n, seed)
        assert (got_coords, got_radius, got_graph) == (coords, radius, graph)
        assert np.array_equal(got_basis.eigenvalues, basis.eigenvalues)
        assert np.array_equal(got_basis.modes, basis.modes)

    def test_exhausted_search_reports_the_last_attempt(self, monkeypatch):
        attempts = []

        def degenerate(operator):
            attempts.append(operator)
            raise DegenerateSpectrum(f"attempt {len(attempts)} repeats an eigenvalue")

        monkeypatch.setattr(simulate, "eigendecompose", degenerate)
        with pytest.raises(DegenerateSpectrum) as info:
            simulation_graph(6, 3)
        assert len(attempts) == 256
        assert str(info.value) == (
            "no layout with a distinct spectrum in 256 attempts: attempt 256 repeats an eigenvalue"
        )


class TestPopulationModel:
    def test_shapes_and_norm(self):
        cfg = SimulationConfig(n_vertices=8, sample_count=100, noise_sigma=0.5, seed=2)
        pop = population_model(cfg)
        assert pop.cov_x.shape == (8, 8)
        assert pop.h_norm == np.max(np.abs(pop.gamma))
        assert pop.c4 == pytest.approx(3.0 * np.max(np.diag(pop.cov_x)) ** 2)
        # Exactly the profile's kurtosis, not the rounded diagonal's.
        assert pop.c4 == 3.0 * 177.8017**2
        np.testing.assert_allclose(
            pop.cov_y, np.outer(pop.gamma, pop.gamma) * pop.cov_x + 0.25 * np.eye(8)
        )


class TestSignsMatch:
    def make_estimate(self, gamma, components):
        return ChannelEstimate(
            gamma_m=gamma,
            support=frozenset(v for c in components for v in c.vertices),
            components=components,
        )

    def test_global_flip_counts_as_match(self):
        gamma = np.array([1.0, -2.0, 3.0])
        comps = (Component(vertices=(1, 2, 3), anchor=1, anchor_sign=1, parents={}),)
        est = self.make_estimate(-gamma, comps)
        assert signs_match(est, gamma)

    def test_partial_flip_is_a_mismatch(self):
        gamma = np.array([1.0, -2.0, 3.0])
        wrong = gamma.copy()
        wrong[1] *= -1
        comps = (Component(vertices=(1, 2, 3), anchor=1, anchor_sign=1, parents={}),)
        est = self.make_estimate(wrong, comps)
        assert not signs_match(est, gamma)


def reference_signs_match(estimate, gamma_true):
    for comp in estimate.components:
        idx = [v - 1 for v in comp.vertices]
        rel = [sign_of(estimate.gamma_m[k]) * sign_of(gamma_true[k]) for k in idx]
        if any(r != rel[0] for r in rel):
            return False
    return True


SIGNED = st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.5, 3.0])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_signs_match_equals_the_loop(data):
    """Zero entries of either sign and one-vertex components included; label
    k > 0 puts a vertex in component k, label 0 leaves it off the support."""
    n = data.draw(st.integers(1, 8))
    gamma_m, gamma_true = (np.array(data.draw(st.lists(SIGNED, min_size=n, max_size=n))) for _ in "mt")
    labels = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    members = [tuple(v for v in range(1, n + 1) if labels[v - 1] == k) for k in (1, 2, 3)]
    components = tuple(
        Component(vertices=vs, anchor=vs[0], anchor_sign=1, parents={v: vs[0] for v in vs[1:]})
        for vs in members if vs
    )
    est = ChannelEstimate(
        gamma_m=gamma_m,
        support=frozenset(v for c in components for v in c.vertices),
        components=components,
    )
    assert signs_match(est, gamma_true) == reference_signs_match(est, gamma_true)


def count_calls(monkeypatch, functions) -> Counter:
    """Count the calls of each named function, in every graph_deconv namespace that binds it."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    modules = [m for name, m in sys.modules.items() if name.startswith("graph_deconv.")]
    for module, (name, fn) in itertools.product(modules, functions.items()):
        if getattr(module, name, None) is fn:
            monkeypatch.setattr(module, name, counted(name, fn))
    return calls


class TestRunSimulation:
    def test_noiseless_run_recovers_everything(self):
        cfg = SimulationConfig(n_vertices=8, sample_count=400, noise_sigma=0.0, seed=6)
        result = run_simulation(cfg)
        assert result.sign_recovery_rate == 1.0
        assert result.magnitude_error_max <= 1e-8
        assert result.max_reconstruction_error <= 1e-8
        assert result.consistency_violations == []

    def test_bundle_files_and_determinism(self, tmp_path):
        cfg = SimulationConfig(
            n_vertices=6, sample_count=120, noise_sigma=0.3, seed=8, trials=2
        )
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_simulation(cfg, out_dir=out_a)
        run_simulation(cfg, out_dir=out_b)
        expected = {
            "config.json",
            "coords.csv",
            "edges.csv",
            "sources.csv",
            "observations.csv",
            "cov_x.csv",
            "true_channel.csv",
            "channel_estimate.csv",
            "reconstructed.csv",
            "recon_cov.csv",
            "abs_diff_db.csv",
            "rel_diff_db.csv",
            "bound_report.csv",
            "summary.json",
        }
        assert {p.name for p in out_a.iterdir()} == expected
        for name in sorted(expected):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_each_trial_runs_one_gft_and_one_igft(self, monkeypatch):
        """A trial transforms and squares its observations once and shares
        both; only trial 0 reads the vertex domain, and its sign report reads
        the kept covariance."""
        transforms = {
            "gft": spectral.gft,
            "igft": spectral.igft,
            "empirical_covariance": covariance.empirical_covariance,
        }
        calls = count_calls(monkeypatch, transforms)
        per_run = []
        for trials in (2, 5):
            calls.clear()
            cfg = SimulationConfig(n_vertices=6, sample_count=60, noise_sigma=0.3, seed=8, trials=trials)
            run_simulation(cfg)
            per_run.append(dict(calls))
        assert {k: (per_run[1][k] - per_run[0][k]) / 3 for k in transforms} == dict.fromkeys(transforms, 1)
        # One per trial and one of the sources: trial 0 forms no second covariance.
        assert [run["empirical_covariance"] for run in per_run] == [3, 6]

    @pytest.mark.parametrize("trials", [1, 3])
    def test_each_trial_builds_one_observation_graph(self, monkeypatch, trials):
        """The observation graph a trial's estimate signs along is the one
        trial 0's sign report reads, and the report reads the kept covariance."""
        calls = count_calls(monkeypatch, {
            "build_observation_graph": covariance.build_observation_graph,
            "empirical_covariance": covariance.empirical_covariance,
        })
        cfg = SimulationConfig(n_vertices=6, sample_count=60, noise_sigma=0.3, seed=8, trials=trials)
        run_simulation(cfg)
        assert calls == {"build_observation_graph": trials, "empirical_covariance": trials + 1}

    def test_trial_zero_report_reads_its_own_observation_graph(self):
        """At a high delta the observation graph splits; trial 0's report is
        the one over trial 0's graph, rebuilt here from its written observations."""
        cfg = SimulationConfig(
            n_vertices=24, sample_count=20, noise_sigma=4.0, delta=0.4, seed=1, trials=3
        )
        result = run_simulation(cfg)
        cov_ym = empirical_covariance(gft(result.basis, result.observations))
        obs = build_observation_graph(cov_ym, result.source_graph, cfg.delta)
        assert len(obs.components) >= 2 and result.consistency_violations
        assert result.consistency_violations == sign_consistency_report(
            result.estimate, obs, result.cov_x, cov_ym
        )

    def test_finished_run_is_freed_without_the_cyclic_gc(self, monkeypatch):
        """A redrawn layout's exception must not keep the run's frames, and its arrays, alive."""
        redraws = []

        def counted(operator):
            try:
                return eigendecompose(operator)
            except DegenerateSpectrum:
                redraws.append(operator)
                raise

        monkeypatch.setattr(simulate, "eigendecompose", counted)
        cfg = SimulationConfig(n_vertices=6, sample_count=40, noise_sigma=0.3, seed=3, trials=1)
        enabled = gc.isenabled()
        gc.disable()
        try:
            result = run_simulation(cfg)
            sources = weakref.ref(result.sources)
            del result
            assert sources() is None
        finally:
            if enabled:
                gc.enable()
        assert redraws

    def test_different_seeds_differ(self, tmp_path):
        base = dict(n_vertices=6, sample_count=120, noise_sigma=0.3, trials=1)
        r1 = run_simulation(SimulationConfig(seed=1, **base))
        r2 = run_simulation(SimulationConfig(seed=2, **base))
        assert not np.array_equal(r1.channel, r2.channel)
