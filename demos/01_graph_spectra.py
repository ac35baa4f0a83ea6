"""Graphs, the Laplacian shift, and the graph Fourier transform.

Builds a radius graph on random station coordinates, eigendecomposes its
Laplacian, and shows how smooth signals concentrate at low frequencies.
"""

import numpy as np

from graph_deconv import SignalEnsemble, build_radius_graph, eigendecompose, gft, igft, laplacian

rng = np.random.default_rng(3)
points = rng.random((12, 2))
coords = [(f"station-{k + 1}", points[k, 0], points[k, 1]) for k in range(12)]

graph = build_radius_graph(coords, radius=0.45)
print(f"radius graph: {graph.n_vertices} vertices, {len(graph.edges)} edges")
print(f"connected: {graph.connected}")

shift = laplacian(graph)
print(f"Laplacian row sums (all zero): {np.abs(shift.sum(axis=1)).max():.1e}")

basis = eigendecompose(shift)
print("\neigenvalues, ordered by magnitude:")
print(np.array2string(basis.eigenvalues, precision=4))

# The first mode of a connected graph's Laplacian is constant, so a constant
# signal lives entirely at the first frequency.
constant = SignalEnsemble(signals=np.ones((1, 12)))
spec = gft(basis, constant)
print("\nGFT of the all-ones signal (only entry 1 is nonzero):")
print(np.array2string(spec.signals[0], precision=4, suppress_small=True))

# A smooth signal (a gentle gradient over the square) concentrates its energy
# at low frequencies; white noise spreads evenly.
smooth = SignalEnsemble(signals=points[:, 0][None, :])
noise = SignalEnsemble(signals=rng.standard_normal((1, 12)))
for name, e in (("smooth gradient", smooth), ("white noise", noise)):
    coeffs = gft(basis, e).signals[0]
    energy = coeffs**2 / np.sum(coeffs**2)
    print(f"\n{name}: share of energy in the 4 lowest frequencies = {energy[:4].sum():.2f}")

# Round trip and energy preservation follow from orthogonality of the modes.
e = SignalEnsemble(signals=rng.standard_normal((5, 12)))
back = igft(basis, gft(basis, e))
print(f"\nround-trip error: {np.max(np.abs(back.signals - e.signals)):.1e}")
norms = np.linalg.norm(e.signals, axis=1) - np.linalg.norm(gft(basis, e).signals, axis=1)
print(f"Parseval defect:  {np.max(np.abs(norms)):.1e}")
