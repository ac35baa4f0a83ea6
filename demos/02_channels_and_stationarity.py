"""Shift-invariant channels: spectral application, norms, pseudo-inversion.

Also contrasts stationary and nonstationary signals through the commutator of
their covariance with the graph shift.
"""

import numpy as np

from graph_deconv import (
    SignalEnsemble,
    apply_channel,
    build_radius_graph,
    eigendecompose,
    gft,
    igft,
    laplacian,
    operator_norm,
    pseudo_inverse,
    random_channel,
    stationarity_residual,
)

rng = np.random.default_rng(1)
points = rng.random((10, 2))
coords = [(k, points[k, 0], points[k, 1]) for k in range(10)]
basis = eigendecompose(laplacian(build_radius_graph(coords, 0.5)))
shift = basis.modes @ np.diag(basis.eigenvalues) @ basis.modes.T

# A channel is a vector of per-frequency gains. Random channels keep every
# gain inside [1 - amplitude, 1 + amplitude] with random signs.
gamma = random_channel(10, amplitude=0.2, seed=7)
print("channel gains:", np.array2string(gamma, precision=3))
print(f"operator norm = max |gain| = {operator_norm(gamma):.4f}")

dense = basis.modes @ np.diag(gamma) @ basis.modes.T
print(f"dense 2-norm agrees: {np.linalg.norm(dense, 2):.4f}")

# Filtering is entrywise in the spectral domain; inverting on a support set
# undoes it there and zeroes everything else.
x = SignalEnsemble(signals=rng.standard_normal((4, 10)))
xhat = gft(basis, x)
yhat = apply_channel(gamma, xhat)
support = {1, 2, 3, 4, 5, 6, 7}
restored = apply_channel(pseudo_inverse(gamma, support), yhat)
cols = [n - 1 for n in sorted(support)]
err = np.max(np.abs(restored.signals[:, cols] - xhat.signals[:, cols]))
print(f"\nrestoration error on the supported frequencies: {err:.1e}")
print(f"coefficients outside the support are zeroed: "
      f"{np.all(restored.signals[:, [7, 8, 9]] == 0)}")

# Stationary signals have covariances that commute with the shift,
# equivalently a diagonal spectral covariance.
psd = np.diag(np.linspace(3.0, 0.5, 10))
stationary_cov = basis.modes @ psd @ basis.modes.T
a = rng.standard_normal((10, 10))
nonstationary_cov = basis.modes @ (a @ a.T) @ basis.modes.T
print(f"\ncommutator residual, stationary covariance:    "
      f"{stationarity_residual(stationary_cov, shift):.2e}")
print(f"commutator residual, nonstationary covariance: "
      f"{stationarity_residual(nonstationary_cov, shift):.2e}")
print("channel estimation below relies on that nonstationarity: the")
print("off-diagonal spectral covariance is what couples the frequencies.")

# Reconstructed signals return to the vertex domain through the inverse GFT.
x_tilde = igft(basis, restored)
print(f"\nvertex-domain output shape: {x_tilde.signals.shape}")
