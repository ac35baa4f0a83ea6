"""Command line surface.

Subcommands: graph, estimate, deconvolve, diagnose, simulate, validate-bounds.
Exit codes: 0 success, 1 validation or usage error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import io as gio
from .covariance import build_source_graph, validate_bound_monte_carlo
from .deconv import (
    blind_deconvolve,
    covariance_diagnostics,
    reconstructed_covariance,
    summarize_gap,
)
from .errors import DegenerateSpectrum, FileFormatError, GraphDeconvError
from .estimation import estimate_channel
from .simulate import SimulationConfig, run_simulation
from .spectral import Graph, build_radius_graph, eigendecompose, laplacian


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=".", help="output directory (default: current directory)")


def _add_config(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="simulation config JSON")
    p.add_argument("--seed", type=int, default=None, help="seed override (unsigned integer)")


def _add_graph_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--coords", help="coordinates CSV (id,x,y)")
    p.add_argument("--radius", type=float, help="connection radius for --coords")
    p.add_argument("--edges", help="edge list CSV (i,j), alternative to --coords")
    p.add_argument("--n-vertices", type=int, default=None, help="vertex count for --edges")


def _load_graph(args) -> Graph:
    if args.coords is not None:
        if args.radius is None:
            raise _UsageError("--coords requires --radius")
        coords = gio.read_coordinates(args.coords)
        return build_radius_graph(coords, args.radius)
    if args.edges is not None:
        edges = gio.read_edge_list(args.edges)
        n = args.n_vertices if args.n_vertices is not None else max(map(max, edges), default=0)
        return Graph(n_vertices=n, edges=frozenset(edges))
    raise _UsageError("one of --coords or --edges is required")


def _cmd_graph(args) -> None:
    g = _load_graph(args)
    out = Path(args.out)
    gio.write_edge_list(out / "edges.csv", g.edges)
    lap = laplacian(g)
    gio.write_covariance(out / "laplacian.csv", lap)
    print(f"graph: {g.n_vertices} vertices, {len(g.edges)} edges, connected={g.connected}")
    try:
        basis = eigendecompose(lap)
    except DegenerateSpectrum as exc:
        print(f"spectrum: degenerate ({exc}); eigenvalues.csv not written")
        return
    gio.write_eigenvalues(out / "eigenvalues.csv", basis.eigenvalues)
    print(f"spectrum: distinct, |lambda| range {abs(basis.eigenvalues[0]):.6g} .. {abs(basis.eigenvalues[-1]):.6g}")


def _cmd_estimate(args) -> None:
    g = _load_graph(args)
    basis = eigendecompose(laplacian(g))
    observations = gio.read_signals(args.signals)
    cov_x = gio.read_covariance(args.cov_x)
    source = build_source_graph(cov_x, args.pearson_threshold)
    estimate = estimate_channel(cov_x, observations, basis, source, args.delta)
    out = Path(args.out)
    gio.write_channel_estimate(out / "channel_estimate.csv", estimate)
    print(
        f"source graph: {len(source.edges)} edges, connected={source.connected}; "
        f"support {len(estimate.support)}/{estimate.n_vertices}, "
        f"{len(estimate.components)} component(s)"
    )
    print(f"wrote {out / 'channel_estimate.csv'}")


def _cmd_deconvolve(args) -> None:
    g = _load_graph(args)
    basis = eigendecompose(laplacian(g))
    observations = gio.read_signals(args.signals)
    estimate = gio.read_channel_estimate(args.estimate)
    result = blind_deconvolve(estimate, observations, basis)
    out = Path(args.out)
    gio.write_reconstruction(
        out / "reconstructed.csv",
        result.reconstructed,
        out / "recon_cov.csv",
        reconstructed_covariance(result),
    )
    print(
        f"deconvolved {observations.n_signals} samples on support "
        f"{len(result.support)}/{observations.n_vertices}"
    )
    print(f"wrote {out / 'reconstructed.csv'} and {out / 'recon_cov.csv'}")


def _cmd_diagnose(args) -> None:
    c_recon = gio.read_covariance(args.cov_recon)
    c_source = gio.read_covariance(args.cov_x)
    d = covariance_diagnostics(c_recon, c_source, args.floor_db)
    gap = summarize_gap(d)
    out = Path(args.out)
    gio.write_covariance(out / "abs_diff_db.csv", d.abs_diff_db)
    gio.write_covariance(out / "rel_diff_db.csv", d.rel_diff_db)
    summary = {**asdict(gap), "diagonal_inflation": d.diagonal_inflation.tolist()}
    gio.write_json(out / "diagnostics_summary.json", summary)
    print(
        f"diagonal {gap.mean_diagonal_db:.4f} dB, off-diagonal {gap.mean_offdiagonal_db:.4f} dB, "
        f"gap {gap.gap_db:.4f} dB"
    )


def _load_config(args) -> SimulationConfig:
    config = SimulationConfig.from_json_file(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return config


def _cmd_simulate(args) -> None:
    config = _load_config(args)
    result = run_simulation(config, out_dir=args.out)
    print(
        f"simulated N={config.n_vertices} M={config.sample_count} sigma={config.noise_sigma} "
        f"trials={config.trials} seed={config.seed}"
    )
    print(
        f"sign recovery {result.sign_recovery_rate:.3f}, max |gamma| error "
        f"{result.magnitude_error_max:.3e}, aligned reconstruction error "
        f"{result.max_reconstruction_error:.3e}"
    )
    print(
        f"dB gap {result.gap.gap_db:.4f} (diagonal {result.gap.mean_diagonal_db:.4f}, "
        f"off-diagonal {result.gap.mean_offdiagonal_db:.4f}); "
        f"bound flags {sum(c.flag for c in result.bound_report)}"
    )


def _cmd_validate_bounds(args) -> None:
    config = _load_config(args)
    trials = args.trials if args.trials is not None else max(config.trials, 100)
    report = validate_bound_monte_carlo(config, trials)
    out = Path(args.out)
    gio.write_bound_report(out / "bound_report.csv", report)
    for check in report:
        status = "FLAG" if check.flag else ("ok" if check.informative else "uninformative")
        print(
            f"({check.n},{check.nprime}) eps={check.eps:.6g}: empirical {check.empirical:.4f} "
            f"vs bound {check.bound:.4f} [{status}]"
        )
    print(f"wrote {out / 'bound_report.csv'} ({trials} trials)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="graph-deconv",
        description="Estimate a shift-invariant graph channel from covariances and blindly deconvolve.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("graph", help="build a graph and its Laplacian spectrum")
    _add_graph_source(p)
    _add_out(p)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("estimate", help="estimate the channel from observations")
    p.add_argument("--signals", required=True, help="observations CSV (rows samples, header v1..vN)")
    p.add_argument("--cov-x", required=True, help="source spectral covariance CSV (headerless)")
    _add_graph_source(p)
    p.add_argument("--pearson-threshold", type=float, default=0.01, help="source edge threshold")
    p.add_argument("--delta", type=float, default=0.001, help="observation graph threshold")
    _add_out(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("deconvolve", help="invert an estimated channel on its support")
    p.add_argument("--signals", required=True, help="observations CSV")
    p.add_argument("--estimate", required=True, help="channel estimate CSV")
    p.add_argument("--components", help="retired: accepted and never opened")
    _add_graph_source(p)
    _add_out(p)
    p.set_defaults(func=_cmd_deconvolve)

    p = sub.add_parser("diagnose", help="covariance discrepancy diagnostics in dB")
    p.add_argument("--cov-recon", required=True, help="reconstructed spectral covariance CSV")
    p.add_argument("--cov-x", required=True, help="source spectral covariance CSV")
    p.add_argument("--floor-db", type=float, default=-20.0, help="dB display floor")
    _add_out(p)
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("simulate", help="run a seeded end-to-end simulation")
    _add_config(p)
    _add_out(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("validate-bounds", help="Monte Carlo check of the covariance tail bounds")
    _add_config(p)
    p.add_argument("--trials", type=int, default=None, help="number of trials (>= 100)")
    _add_out(p)
    p.set_defaults(func=_cmd_validate_bounds)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: parsing leaves a parser as it found it."""
    return build_parser()


def cli_dispatch(argv) -> int:
    """Parse and run; returns the process exit code."""
    parser = _parser()
    try:
        args = parser.parse_args(list(argv))
        if getattr(args, "command", None) is None:
            parser.print_usage(sys.stderr)
            print("graph-deconv: a subcommand is required", file=sys.stderr)
            return 1
        args.func(args)
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"graph-deconv: {exc}", file=sys.stderr)
        return 1
    except (FileFormatError, OSError) as exc:
        print(f"graph-deconv: i/o error: {exc}", file=sys.stderr)
        return 2
    except (GraphDeconvError, ValueError) as exc:
        print(f"graph-deconv: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
