"""Seeded fuzz of every file the command line reads.

Each input of a small simulated bundle is mutated (truncated, garbled, blank,
duplicated or dropped lines, and numeric tokens swapped for ``nan``,
``1e400``, 30- and 400-digit integers and other bad values) and fed to the
command that reads it. Every run must end in a documented exit code (0
success, 1 validation error, 2 I/O or format error) with no traceback; blank
lines must change nothing. ``load_raw_dataset`` gets the same mutations and
may raise nothing but ``FileFormatError``.
"""

import re

import numpy as np
import pytest

from graph_deconv import FileFormatError, RawDataset, SimulationConfig, load_raw_dataset, run_simulation
from graph_deconv.cli import cli_dispatch

TOKENS = ("nan", "NaN", "1e400", "-1e400", "1" + "0" * 29, "9" * 400, "-3", "0.5", "x", "")
MUTATIONS = (
    [("truncate", k) for k in range(2)]
    + [("garble", k) for k in range(3)]
    + [("blank", 0), ("duplicate", 0), ("drop", 0)]
    + [("token", token) for token in TOKENS]
)
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def mutate(data: bytes, kind: str, arg, rng: np.random.Generator) -> bytes:
    lines = data.split(b"\n")
    at = int(rng.integers(len(lines)))
    if kind == "truncate":
        return data[: int(rng.integers(len(data)))]
    if kind == "garble":
        out = bytearray(data)
        for pos in rng.integers(len(out), size=1 + arg):
            out[pos] = int(rng.integers(256))
        return bytes(out)
    if kind == "blank":
        return b"\n".join(lines[:at] + [b""] + lines[at:])
    if kind == "duplicate":
        return b"\n".join(lines[: at + 1] + lines[at:])
    if kind == "drop":
        return b"\n".join(lines[:at] + lines[at + 1 :])
    numbers = list(NUMBER.finditer(data))
    hit = numbers[int(rng.integers(len(numbers)))]
    return data[: hit.start()] + arg.encode() + data[hit.end() :]


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    config = SimulationConfig(n_vertices=6, sample_count=40, noise_sigma=0.3, seed=13)
    result = run_simulation(config, out_dir=root / "run")
    # Compact JSON: a garbled byte cannot grow a count by gluing digits onto it.
    (root / "sim.json").write_text(
        '{"n_vertices":6,"sample_count":40,"noise_sigma":0.3,"seed":13,"trials":1}'
    )
    values = np.random.default_rng(5).normal(15.0, 3.0, size=(3, 4, 2))
    lines = ["station,day,hour,value"] + [
        f"{s + 1},{d + 1},{h},{float(values[s, h, d])!r}" for s in range(3) for d in range(2) for h in range(4)
    ]
    (root / "raw.csv").write_text("\n".join(lines) + "\n")
    return root, repr(result.radius)


def _commands(root, radius, name, path):
    """The command lines that read ``name``, with ``path`` in its place."""
    run = root / "run"
    files = {
        "observations.csv": run / "observations.csv",
        "cov_x.csv": run / "cov_x.csv",
        "coords.csv": run / "coords.csv",
        "edges.csv": run / "edges.csv",
        "channel_estimate.csv": run / "channel_estimate.csv",
        "sim.json": root / "sim.json",
        name: path,
    }
    f = {k: str(v) for k, v in files.items()}
    coords = ["--coords", f["coords.csv"], "--radius", radius]
    deconvolve = ["deconvolve", "--signals", f["observations.csv"], "--estimate", f["channel_estimate.csv"]]
    return {
        "observations.csv": [
            ["estimate", "--signals", f["observations.csv"], "--cov-x", f["cov_x.csv"], *coords],
            [*deconvolve, *coords],
        ],
        "cov_x.csv": [
            ["estimate", "--signals", f["observations.csv"], "--cov-x", f["cov_x.csv"], *coords],
            ["diagnose", "--cov-recon", f["cov_x.csv"], "--cov-x", f["cov_x.csv"]],
        ],
        "coords.csv": [
            ["estimate", "--signals", f["observations.csv"], "--cov-x", f["cov_x.csv"], *coords],
            ["graph", *coords],
        ],
        "edges.csv": [
            ["graph", "--edges", f["edges.csv"]],
            [*deconvolve, "--edges", f["edges.csv"]],
        ],
        "channel_estimate.csv": [[*deconvolve, *coords]],
        "sim.json": [
            ["simulate", "--config", f["sim.json"]],
            ["validate-bounds", "--config", f["sim.json"], "--trials", "100"],
        ],
    }[name]


@pytest.mark.parametrize(
    "name",
    [
        "observations.csv",
        "cov_x.csv",
        "coords.csv",
        "edges.csv",
        "channel_estimate.csv",
        "sim.json",
    ],
)
def test_cli_survives_mutated_inputs(bundle, tmp_path, capsys, name):
    root, radius = bundle
    original = (root / "sim.json" if name == "sim.json" else root / "run" / name).read_bytes()
    for case, (kind, arg) in enumerate(MUTATIONS):
        rng = np.random.default_rng([sum(name.encode()), case])
        path = tmp_path / f"{case}-{name}"
        path.write_bytes(mutate(original, kind, arg, rng))
        for argv in _commands(root, radius, name, path):
            code = cli_dispatch([*argv, "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            where = f"{kind} {arg!r} on {name}: {' '.join(argv[:1])} exit {code}: {err}"
            assert code in (0, 1, 2), where
            assert "Traceback" not in err, where
            if kind == "blank":
                assert code == 0, where


def test_load_raw_dataset_raises_only_format_errors(bundle, tmp_path):
    root, _ = bundle
    original = (root / "raw.csv").read_bytes()
    outcomes = set()
    for case, (kind, arg) in enumerate(MUTATIONS * 3):
        rng = np.random.default_rng([7, case])
        path = tmp_path / f"{case}-raw.csv"
        path.write_bytes(mutate(original, kind, arg, rng))
        try:
            raw = load_raw_dataset(path)
        except FileFormatError:
            outcomes.add("rejected")
            continue
        assert isinstance(raw, RawDataset)
        outcomes.add("read")
        if kind == "blank":
            np.testing.assert_array_equal(raw.values, load_raw_dataset(root / "raw.csv").values)
    assert outcomes == {"read", "rejected"}
