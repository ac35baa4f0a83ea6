"""Golden numbers of one small simulation, pinned at a tolerance that holds across BLAS kernels.

A bundle is byte-identical only on one machine and BLAS build: another BLAS
kernel (``OPENBLAS_CORETYPE=Sandybridge`` or ``=Prescott`` on a DYNAMIC_ARCH
OpenBLAS) sums in another order and moves floats in their last digits. So
the structure is pinned exactly (edge sets, support, components, spanning
tree, every sign and every integer field), and each float within 1e-10 of
the largest entry of the table it comes from; the Sandybridge and Prescott
kernels moved them by at most 1.4e-13 of it. A change to any simulated
number, such as the share of the common source direction, fails here.
"""

import json

import numpy as np

import graph_deconv as gd
from graph_deconv.simulate import SimulationConfig, run_simulation

RTOL = 1e-10

CONFIG = SimulationConfig(n_vertices=12, sample_count=200, noise_sigma=0.5, seed=3, trials=3)

EDGES = [
    (1, 3), (1, 9), (2, 4), (2, 5), (2, 6), (2, 10), (2, 11), (2, 12), (3, 8), (3, 10),
    (3, 11), (4, 5), (4, 6), (5, 6), (5, 10), (5, 11), (5, 12), (6, 11), (6, 12), (7, 12),
    (8, 10), (8, 11), (10, 11), (10, 12), (11, 12),
]

INTEGER_FIELDS = {
    "n_edges": 25,
    "source_graph_connected": True,
    "source_graph_edges": 66,
    "support_size": 12,
    "n_components": 1,
    "component_flips": [-1],
    "consistency_violations": [],
    "bound_flags": 0,
}

SUMMARY_FLOATS = {
    "radius": 0.4295375742059779,
    "sign_recovery_rate": 1.0,
    "magnitude_error_max": 0.32563475460317926,
    "magnitude_error_mean": 0.17350213703208003,
    "max_reconstruction_error_aligned": 1.7156768530639317,
    "mean_diagonal_db": -5.922826577207823,
    "mean_offdiagonal_db": -14.010851937341544,
    "gap_db": -8.08802536013372,
}

DIAGONAL_INFLATION = [
    0.2644810498334209, 0.20610854968835804, 0.2416453067713459, 0.3251496153909006,
    0.24626610795827553, 0.2346174879694971, 0.2002607737532669, 0.29395399172567055,
    0.337965099042891, 0.2122465399057402, 0.2988770883665532, 0.40534818522429045,
]

GAMMA_M = [
    0.9282608753712964, 1.1639377111367182, -0.9798846571768705, 1.1059304701619408,
    0.8556307064817313, -1.131402436743262, 1.2672387179401834, -1.0955650410248778,
    0.6996839368393973, 0.9947728879958818, 0.93700022624283, 0.9884088912343635,
]

CHANNEL_SIGNS = [-1, -1, 1, -1, -1, 1, -1, 1, -1, -1, -1, -1]

# (row, column) 1-based -> value, for each N x N table.
COV_X = {(1, 1): 179.01097518397702, (1, 12): 3.4658845633716617,
         (4, 8): 0.9546710226528249, (11, 12): 0.09468914013981596}
RECON_COV = {(1, 1): 179.3419713499369, (1, 2): 27.404105218318893,
             (5, 10): 0.4353912373064543, (12, 12): 0.468545716193421}
ABS_DIFF_DB = {(1, 1): -5.894962281159027, (1, 2): -10.7835015550532, (6, 6): -6.67183074103644}
REL_DIFF_DB = {(1, 1): -20.0, (1, 3): -19.498907012234636, (3, 8): -14.065140427817335}


def assert_close(got, want, scale):
    """Every entry within RTOL of ``scale``, the largest entry of its table."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= RTOL * scale, (got, want)


def assert_entries(table, pinned):
    rows, cols = zip(*((i - 1, j - 1) for i, j in pinned))
    assert_close(table[list(rows), list(cols)], list(pinned.values()), np.max(np.abs(table)))


def test_small_simulation_reproduces_its_golden_numbers(tmp_path):
    result = run_simulation(CONFIG, tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())

    assert sorted(result.graph.edges) == EDGES
    assert len(result.source_graph.edges) == 12 * 11 // 2
    assert {k: summary[k] for k in INTEGER_FIELDS} == INTEGER_FIELDS
    est = result.estimate
    assert est.support == frozenset(range(1, 13))
    [comp] = est.components
    assert (comp.vertices, comp.anchor, comp.anchor_sign) == (tuple(range(1, 13)), 1, 1)
    assert comp.parents == {v: 1 for v in range(2, 13)}
    assert np.sign(est.gamma_m).tolist() == np.sign(GAMMA_M).tolist()
    assert np.sign(result.channel).tolist() == CHANNEL_SIGNS
    assert [(b.n, b.nprime, b.empirical, b.flag) for b in result.bound_report] == [
        (1, 1, 0.0, False)] * 3 + [(1, 2, 0.0, False)] * 3

    for key, want in SUMMARY_FLOATS.items():
        assert_close(summary[key], want, abs(want))
    assert_close(summary["diagonal_inflation"], DIAGONAL_INFLATION, np.max(np.abs(DIAGONAL_INFLATION)))
    assert_close(est.gamma_m, GAMMA_M, np.max(np.abs(GAMMA_M)))
    assert_entries(result.cov_x, COV_X)
    assert_entries(gd.reconstructed_covariance(result.deconv), RECON_COV)
    assert_entries(result.avg_diagnostics.abs_diff_db, ABS_DIFF_DB)
    assert_entries(result.avg_diagnostics.rel_diff_db, REL_DIFF_DB)
