"""Command line surface: exit codes, file outputs, reproducibility."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graph_deconv
from graph_deconv import ChannelEstimate, SignalEnsemble, SimulationConfig
from graph_deconv import cli, simulate
from graph_deconv.cli import cli_dispatch
from graph_deconv import io as gio


@pytest.fixture
def sim_bundle(tmp_path):
    cfg = SimulationConfig(n_vertices=6, sample_count=150, noise_sigma=0.2, seed=13, trials=2)
    cfg_path = tmp_path / "sim.json"
    cfg.to_json_file(cfg_path)
    out = tmp_path / "bundle"
    assert cli_dispatch(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    return cfg, cfg_path, out


def _main(argv) -> subprocess.CompletedProcess:
    """Run the CLI's ``main`` in a fresh interpreter under Python's default warning filters."""
    path = [str(Path(graph_deconv.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run(
        [sys.executable, "-c", "from graph_deconv.cli import main; main()", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


class TestGraphCommand:
    def test_from_coordinates(self, tmp_path, capsys):
        coords_path = tmp_path / "coords.csv"
        gio.write_coordinates(coords_path, [("a", 0.0, 0.0), ("b", 1.0, 0.0), ("c", 2.0, 0.0)])
        code = cli_dispatch(
            ["graph", "--coords", str(coords_path), "--radius", "1.5", "--out", str(tmp_path)]
        )
        assert code == 0
        assert gio.read_edge_list(tmp_path / "edges.csv") == [(1, 2), (2, 3)]
        lap = gio.read_covariance(tmp_path / "laplacian.csv")
        np.testing.assert_array_equal(lap, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])
        assert (tmp_path / "eigenvalues.csv").exists()
        assert "connected=True" in capsys.readouterr().out

    def test_from_edge_list_with_degenerate_spectrum(self, tmp_path, capsys):
        edges_path = tmp_path / "edges_in.csv"
        gio.write_edge_list(edges_path, [(1, 2), (1, 3), (1, 4)])
        out = tmp_path / "out"
        code = cli_dispatch(["graph", "--edges", str(edges_path), "--out", str(out)])
        assert code == 0
        assert not (out / "eigenvalues.csv").exists()
        assert "degenerate" in capsys.readouterr().out

    def test_coords_without_radius_fails(self, tmp_path, capsys):
        coords_path = tmp_path / "coords.csv"
        gio.write_coordinates(coords_path, [("a", 0.0, 0.0), ("b", 1.0, 0.0)])
        assert cli_dispatch(["graph", "--coords", str(coords_path)]) == 1
        assert "--radius" in capsys.readouterr().err


class TestSimulateCommand:
    def test_bundle_written(self, sim_bundle):
        cfg, cfg_path, out = sim_bundle
        for name in ("channel_estimate.csv", "summary.json", "bound_report.csv"):
            assert (out / name).exists()

    def test_reruns_are_byte_identical(self, sim_bundle, tmp_path):
        cfg, cfg_path, out = sim_bundle
        again = tmp_path / "again"
        assert cli_dispatch(["simulate", "--config", str(cfg_path), "--out", str(again)]) == 0
        for path in sorted(out.iterdir()):
            assert path.read_bytes() == (again / path.name).read_bytes(), path.name

    def test_seed_flag_overrides_config(self, sim_bundle, tmp_path):
        cfg, cfg_path, out = sim_bundle
        other = tmp_path / "other"
        assert (
            cli_dispatch(
                ["simulate", "--config", str(cfg_path), "--seed", "999", "--out", str(other)]
            )
            == 0
        )
        assert json.loads((other / "config.json").read_text())["seed"] == 999
        assert (other / "true_channel.csv").read_bytes() != (out / "true_channel.csv").read_bytes()

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert cli_dispatch(["simulate", "--config", str(tmp_path / "nope.json")]) == 2

    def test_invalid_config_value_is_validation_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n_vertices": 1, "sample_count": 10, "noise_sigma": 0.0}')
        assert cli_dispatch(["simulate", "--config", str(path)]) == 1

    def test_malformed_config_json_is_io_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli_dispatch(["simulate", "--config", str(path)]) == 2

    def test_seed_with_many_degenerate_layouts_succeeds(self, tmp_path):
        # Seed 17 draws 42 N=96 layouts whose Laplacian repeats an eigenvalue.
        path = tmp_path / "sim.json"
        config = SimulationConfig(n_vertices=96, sample_count=200, noise_sigma=0.5, seed=17)
        config.to_json_file(path)
        assert cli_dispatch(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "summary.json").is_file()

    def test_exhausted_layout_search_is_one_line_error(self, tmp_path, monkeypatch, capsys):
        # Seed 17 draws a first N=96 layout whose Laplacian repeats an eigenvalue.
        monkeypatch.setattr(simulate, "_GRAPH_ATTEMPTS", 1)
        path = tmp_path / "sim.json"
        SimulationConfig(n_vertices=96, sample_count=10, noise_sigma=0.5, seed=17).to_json_file(path)
        assert cli_dispatch(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "no layout with a distinct spectrum in 1 attempts" in err[0]


class TestEstimateDeconvolveDiagnose:
    def test_full_chain_on_bundle_artifacts(self, sim_bundle, tmp_path, capsys):
        cfg, cfg_path, out = sim_bundle
        radius = json.loads((out / "summary.json").read_text())["radius"]
        est_dir = tmp_path / "est"
        code = cli_dispatch(
            [
                "estimate",
                "--signals", str(out / "observations.csv"),
                "--cov-x", str(out / "cov_x.csv"),
                "--coords", str(out / "coords.csv"),
                "--radius", str(radius),
                "--delta", "0.001",
                "--out", str(est_dir),
            ]
        )
        assert code == 0
        # The CSV is the whole estimate, and since the CLI and run_simulation
        # share one pipeline, it equals the bundle's byte for byte.
        assert [p.name for p in est_dir.iterdir()] == ["channel_estimate.csv"]
        name = "channel_estimate.csv"
        assert (est_dir / name).read_bytes() == (out / name).read_bytes()

        dec_dir = tmp_path / "dec"
        code = cli_dispatch(
            [
                "deconvolve",
                "--signals", str(out / "observations.csv"),
                "--estimate", str(est_dir / "channel_estimate.csv"),
                "--coords", str(out / "coords.csv"),
                "--radius", str(radius),
                "--out", str(dec_dir),
            ]
        )
        assert code == 0
        for name in ("reconstructed.csv", "recon_cov.csv"):
            assert (dec_dir / name).read_bytes() == (out / name).read_bytes(), name

        diag_dir = tmp_path / "diag"
        code = cli_dispatch(
            [
                "diagnose",
                "--cov-recon", str(dec_dir / "recon_cov.csv"),
                "--cov-x", str(out / "cov_x.csv"),
                "--out", str(diag_dir),
            ]
        )
        assert code == 0
        summary = json.loads((diag_dir / "diagnostics_summary.json").read_text())
        assert {"mean_diagonal_db", "mean_offdiagonal_db", "gap_db", "diagonal_inflation"} <= set(summary)
        assert "gap" in capsys.readouterr().out

    def test_retired_components_flag_is_never_opened(self, sim_bundle, tmp_path):
        cfg, cfg_path, out = sim_bundle
        radius = json.loads((out / "summary.json").read_text())["radius"]
        argv = [
            "deconvolve",
            "--signals", str(out / "observations.csv"),
            "--estimate", str(out / "channel_estimate.csv"),
            "--coords", str(out / "coords.csv"),
            "--radius", str(radius),
        ]
        missing = tmp_path / "components.json"
        assert cli_dispatch([*argv, "--out", str(tmp_path / "plain")]) == 0
        assert cli_dispatch([*argv, "--components", str(missing), "--out", str(tmp_path / "flag")]) == 0
        assert not missing.exists()
        for name in ("reconstructed.csv", "recon_cov.csv"):
            assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()

    def test_contradictory_estimate_columns_are_io_error(self, sim_bundle, tmp_path, capsys):
        cfg, cfg_path, out = sim_bundle
        radius = json.loads((out / "summary.json").read_text())["radius"]
        path = tmp_path / "channel_estimate.csv"
        lines = (out / "channel_estimate.csv").read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",1"  # a second anchor in component 1
        path.write_text("\n".join(lines) + "\n")
        code = cli_dispatch(
            [
                "deconvolve",
                "--signals", str(out / "observations.csv"),
                "--estimate", str(path),
                "--coords", str(out / "coords.csv"),
                "--radius", str(radius),
                "--out", str(tmp_path / "dec"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"{path}: row 3: vertex 2" in err[0]
        assert not (tmp_path / "dec").exists()

    @pytest.mark.parametrize("n", [5, 7])
    def test_estimate_of_another_size_is_validation_error(self, sim_bundle, tmp_path, capsys, n):
        cfg, cfg_path, out = sim_bundle
        radius = json.loads((out / "summary.json").read_text())["radius"]
        path = tmp_path / "channel_estimate.csv"
        gio.write_channel_estimate(path, ChannelEstimate.from_response(np.ones(n)))
        code = cli_dispatch(
            [
                "deconvolve",
                "--signals", str(out / "observations.csv"),
                "--estimate", str(path),
                "--coords", str(out / "coords.csv"),
                "--radius", str(radius),
                "--out", str(tmp_path / "dec"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"estimate has {n} responses, basis dimension is 6" in err[0]
        assert not (tmp_path / "dec").exists()

    @pytest.mark.parametrize(
        "command, flag, message",
        [
            ("estimate", "--delta", "delta must be a finite number"),
            ("estimate", "--pearson-threshold", "pearson_threshold must be a finite number"),
            ("graph", "--radius", "radius must be a finite number"),
            ("diagnose", "--floor-db", "floor_db must be a finite number"),
        ],
        ids=["delta", "pearson-threshold", "radius", "floor-db"],
    )
    def test_nan_threshold_is_validation_error(
        self, sim_bundle, tmp_path, capsys, command, flag, message
    ):
        cfg, cfg_path, out = sim_bundle
        radius = json.loads((out / "summary.json").read_text())["radius"]
        inputs = {
            "estimate": ["--signals", out / "observations.csv", "--cov-x", out / "cov_x.csv",
                         "--coords", out / "coords.csv", "--radius", radius],
            "graph": ["--coords", out / "coords.csv"],
            "diagnose": ["--cov-recon", out / "recon_cov.csv", "--cov-x", out / "cov_x.csv"],
        }[command]
        argv = [command, *map(str, inputs), flag, "nan", "--out", str(tmp_path / "res")]
        assert cli_dispatch(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0]
        assert not (tmp_path / "res").exists()

    def test_overflowing_observations_are_validation_error(self, sim_bundle, tmp_path, capsys):
        """Their covariance is infinite; the estimate used to be written with
        empty support and NaN responses, which ``deconvolve`` then refused."""
        cfg, cfg_path, out = sim_bundle
        radius = json.loads((out / "summary.json").read_text())["radius"]
        obs = gio.read_signals(out / "observations.csv")
        big = tmp_path / "big.csv"
        gio.write_signals(big, SignalEnsemble(signals=obs.signals * 1e160, domain=obs.domain))
        argv = [
            "estimate",
            "--signals", str(big),
            "--cov-x", str(out / "cov_x.csv"),
            "--coords", str(out / "coords.csv"),
            "--radius", str(radius),
            "--out", str(tmp_path / "res"),
        ]
        with np.errstate(all="ignore"):
            assert cli_dispatch(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "graph-deconv: observation covariance has non-finite variance at vertex 1"
        )
        assert not (tmp_path / "res").exists()

    def test_overflowing_observations_print_one_stderr_line(self, sim_bundle, tmp_path):
        """Run as a user runs it, under Python's default warning filters:
        numpy's overflow warnings must not precede the one-line error."""
        cfg, cfg_path, out = sim_bundle
        radius = json.loads((out / "summary.json").read_text())["radius"]
        obs = gio.read_signals(out / "observations.csv")
        big = tmp_path / "big.csv"
        gio.write_signals(big, SignalEnsemble(signals=obs.signals * 1e160, domain=obs.domain))
        argv = [
            "estimate",
            "--signals", str(big),
            "--cov-x", str(out / "cov_x.csv"),
            "--coords", str(out / "coords.csv"),
            "--radius", str(radius),
            "--out", str(tmp_path / "res"),
        ]
        run = _main(argv)
        assert run.returncode == 1
        err = run.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "graph-deconv: observation covariance has non-finite variance at vertex 1"
        ), run.stderr

    def test_non_finite_reconstruction_is_not_written(self, tmp_path):
        """Observations scaled by 1e170 have a finite reconstruction but an
        infinite covariance, which ``diagnose`` would refuse to read."""
        cfg = SimulationConfig(n_vertices=12, sample_count=200, noise_sigma=0.5, seed=3, trials=1)
        cfg_path, out = tmp_path / "sim.json", tmp_path / "bundle"
        cfg.to_json_file(cfg_path)
        assert cli_dispatch(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        radius = json.loads((out / "summary.json").read_text())["radius"]
        obs = gio.read_signals(out / "observations.csv")
        big = tmp_path / "big.csv"
        gio.write_signals(big, SignalEnsemble(signals=obs.signals * 1e170, domain=obs.domain))
        res = tmp_path / "res"
        run = _main([
            "deconvolve",
            "--signals", str(big),
            "--estimate", str(out / "channel_estimate.csv"),
            "--coords", str(out / "coords.csv"),
            "--radius", str(radius),
            "--out", str(res),
        ])
        assert run.returncode == 1
        err = run.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith(
            f"graph-deconv: {res / 'recon_cov.csv'}: row 1, column 1: non-finite value"
        ), run.stderr
        assert not res.exists()

    @pytest.mark.parametrize(
        "flag, name", [("--delta", "delta"), ("--pearson-threshold", "pearson_threshold")]
    )
    def test_threshold_above_one_is_validation_error(
        self, sim_bundle, tmp_path, capsys, flag, name
    ):
        cfg, cfg_path, out = sim_bundle
        radius = json.loads((out / "summary.json").read_text())["radius"]
        argv = [
            "estimate",
            "--signals", str(out / "observations.csv"),
            "--cov-x", str(out / "cov_x.csv"),
            "--coords", str(out / "coords.csv"),
            "--radius", str(radius),
            flag, "2",
            "--out", str(tmp_path / "res"),
        ]
        assert cli_dispatch(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"graph-deconv: {name} must be in [0, 1], got 2.0"]
        assert not (tmp_path / "res").exists()

    def test_validate_bounds(self, sim_bundle, tmp_path, capsys):
        cfg, cfg_path, out = sim_bundle
        vb_dir = tmp_path / "vb"
        code = cli_dispatch(
            ["validate-bounds", "--config", str(cfg_path), "--trials", "120", "--out", str(vb_dir)]
        )
        assert code == 0
        lines = (vb_dir / "bound_report.csv").read_text().splitlines()
        assert lines[0] == "n,nprime,eps,empirical,bound,flag"
        assert len(lines) > 1
        assert "120 trials" in capsys.readouterr().out

    def test_too_few_trials_is_validation_error(self, sim_bundle, tmp_path):
        cfg, cfg_path, out = sim_bundle
        assert cli_dispatch(["validate-bounds", "--config", str(cfg_path), "--trials", "10"]) == 1


class TestUsageErrors:
    def test_missing_required_flag_names_it(self, capsys):
        assert cli_dispatch(["estimate"]) == 1
        err = capsys.readouterr().err
        assert "--signals" in err

    def test_unknown_subcommand(self, capsys):
        assert cli_dispatch(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag(self, capsys):
        assert cli_dispatch(["graph", "--bogus"]) == 1

    def test_no_subcommand(self, capsys):
        assert cli_dispatch([]) == 1
        assert "subcommand" in capsys.readouterr().err

    def test_negative_seed_rejected(self, sim_bundle):
        cfg, cfg_path, out = sim_bundle
        assert cli_dispatch(["simulate", "--config", str(cfg_path), "--seed", "-4"]) == 1

    def test_console_entry_point_matches_dispatch(self):
        from graph_deconv.cli import main
        import sys

        argv = sys.argv
        sys.argv = ["graph-deconv"]
        try:
            with pytest.raises(SystemExit) as exc:
                main()
            assert exc.value.code == 1
        finally:
            sys.argv = argv


class TestIntegerRange:
    @pytest.mark.parametrize("token", ["9" * 400, "1" + "0" * 29], ids=["400-digit", "30-digit"])
    def test_edge_index_beyond_int64_is_io_error(self, sim_bundle, tmp_path, capsys, token):
        cfg, cfg_path, out = sim_bundle
        edges = tmp_path / "edges.csv"
        edges.write_text(f"i,j\n1,2\n1,{token}\n")
        signals = ["--signals", str(out / "observations.csv")]
        commands = [
            ["graph", "--edges", str(edges)],
            ["estimate", *signals, "--cov-x", str(out / "cov_x.csv"), "--edges", str(edges)],
            [
                "deconvolve", *signals, "--estimate", str(out / "channel_estimate.csv"),
                "--edges", str(edges),
            ],
        ]
        for argv in commands:
            assert cli_dispatch([*argv, "--out", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and f"{edges}: row 3, column 2" in err[0] and "not an int64 integer" in err[0]


class TestSeedFlag:
    def _argv(self, command, out, tmp_path):
        radius = json.loads((out / "summary.json").read_text())["radius"]
        graph = ["--coords", str(out / "coords.csv"), "--radius", str(radius)]
        return {
            "graph": ["graph", *graph],
            "estimate": [
                "estimate", "--signals", str(out / "observations.csv"),
                "--cov-x", str(out / "cov_x.csv"), *graph,
            ],
            "deconvolve": [
                "deconvolve", "--signals", str(out / "observations.csv"),
                "--estimate", str(out / "channel_estimate.csv"), *graph,
            ],
            "diagnose": [
                "diagnose", "--cov-recon", str(out / "recon_cov.csv"), "--cov-x", str(out / "cov_x.csv"),
            ],
        }[command] + ["--out", str(tmp_path / command)]

    @pytest.mark.parametrize("command", ["graph", "estimate", "deconvolve", "diagnose"])
    def test_seed_is_a_usage_error_without_a_config(self, sim_bundle, tmp_path, capsys, command):
        cfg, cfg_path, out = sim_bundle
        argv = self._argv(command, out, tmp_path)
        assert cli_dispatch(argv) == 0
        capsys.readouterr()
        assert cli_dispatch([*argv, "--seed", "1"]) == 1
        assert "unrecognized arguments: --seed" in capsys.readouterr().err


class TestParserReuse:
    """``cli_dispatch`` builds its parser once per process and reuses it."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """The calls of ``build_parser``, counted from an empty parser cache."""
        calls, build = [], cli.build_parser

        def counted():
            calls.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        yield calls
        cli._parser.cache_clear()

    @staticmethod
    def run(argv, out, capsys):
        """Exit code, stdout, stderr and the bytes of every file under ``out``."""
        code = cli_dispatch(argv)
        files = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        return (code, *capsys.readouterr(), files)

    def test_reused_parser_answers_as_a_fresh_one(self, builds, sim_bundle, tmp_path, capsys):
        cfg, cfg_path, bundle = sim_bundle
        radius = str(json.loads((bundle / "summary.json").read_text())["radius"])
        graph = ["--coords", str(bundle / "coords.csv"), "--radius", radius]
        out = tmp_path / "out"
        estimate = [
            "estimate", "--signals", str(bundle / "observations.csv"),
            "--cov-x", str(bundle / "cov_x.csv"), *graph, "--out", str(out / "est"),
        ]
        diagnose = [
            "diagnose", "--cov-recon", str(bundle / "recon_cov.csv"),
            "--cov-x", str(bundle / "cov_x.csv"), "--out", str(out / "diag"),
        ]
        commands = [
            ["graph", "--bogus"],
            ["graph", *graph, "--out", str(out / "graph")],
            [],
            ["graph", "--coords", str(bundle / "coords.csv")],
            [*estimate, "--pearson-threshold", "0.5"],
            estimate,
            [*diagnose, "--floor-db", "-5"],
            diagnose,
            ["estimate", "--signals"],
            ["diagnose", "--cov-recon", str(tmp_path / "missing.csv"), "--cov-x", str(bundle / "cov_x.csv")],
        ]
        reused = [self.run(argv, out, capsys) for argv in commands]
        assert len(builds) == 1
        shutil.rmtree(out)
        fresh = []
        for argv in commands:
            cli._parser.cache_clear()
            fresh.append(self.run(argv, out, capsys))
        assert len(builds) == 1 + len(commands)
        assert [r[0] for r in reused] == [1, 0, 1, 1, 0, 0, 0, 0, 1, 2]
        assert reused == fresh
        assert reused[4][3] != reused[5][3] and reused[6][3] != reused[7][3]
