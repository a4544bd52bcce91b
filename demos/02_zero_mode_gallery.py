"""The analytic kernel pair of the Pauli operator.

Evaluates the closed-form (Psi, A, B) family, checks the zero-mode
equation pointwise, checks its closed-form radial integrals against the
log-radial quadrature of the Thomas-Fermi module (the trapezoid stops at
r = 1000, which leaves ~1e-6 of the slow 1/r^3 tails out), and measures
the grid residual of the sampled pair under refinement (it saturates at
the periodisation floor of the power-law tails; see the README).
"""

import numpy as np

from magrhf import Cell, RadialGrid, TFDensity, grid_residual, loss_yau, tf_energy_terms

fam = loss_yau((0.0, 0.0, 1.0))

# |Psi|^2 and |B|^2 are radial, so a log-radial trapezoid integrates them
grid = RadialGrid()
ray = np.stack([grid.r, 0 * grid.r, 0 * grid.r])
_, half_d1, i1 = tf_energy_terms(TFDensity(grid, np.sum(np.abs(fam.psi(ray)) ** 2, axis=0)))
b2 = grid.integrate(np.sum(fam.magnetic_field(ray) ** 2, axis=0))
print("closed-form radial integrals (lam = 1, ||Psi|| = 1) against log-radial quadrature:")
print(f"  I1 = int |Psi|^2/|x|   = 2/pi    = {fam.i1:.12f}   (quadrature {i1:.12f})")
print(f"  D1 = D(|Psi|^2,|Psi|^2) = 1/pi    = {fam.d1:.12f}   (quadrature {2 * half_d1:.12f})")
print(f"  B2 = int |B|^2          = 18 pi^2 = {fam.b2:.8f}   (quadrature {b2:.8f})")

# the pair solves sigma.(p+A) Psi = 0 pointwise (finite differences)
rng = np.random.default_rng(1)
pts = 2.0 * rng.standard_normal((3, 5))
h = 1e-6
grad = np.zeros((3, 2, 5), dtype=complex)
for j in range(3):
    dp = pts.copy(); dm = pts.copy()
    dp[j] += h; dm[j] -= h
    grad[j] = (fam.psi(dp) - fam.psi(dm)) / (2 * h)
p_psi = -1j * grad
A = fam.vector_potential(pts)
v = p_psi + A[:, None] * fam.psi(pts)[None]
res = np.stack([v[2, 0] + v[0, 1] - 1j * v[1, 1], v[0, 0] + 1j * v[1, 0] - v[2, 1]])
print(f"\npointwise |sigma.(p+A) Psi| at 5 random points: {np.abs(res).max():.2e}")

print("\n|B(x)| is isotropic, 12/(1+r^2)^2:")
r = np.array([0.0, 0.5, 1.0, 2.0, 5.0])
pts = np.stack([r, 0 * r, 0 * r])
b = fam.magnetic_field(pts)
for ri, bi in zip(r, np.sqrt(np.sum(b * b, axis=0))):
    print(f"  r = {ri:3.1f}:  |B| = {bi:10.6f}   (formula {12 / (1 + ri**2) ** 2:10.6f})")

print("\ngrid residual ||sigma.(p+A) Psi|| / ||Psi|| on an L = 40 box:")
for n in (32, 48, 64):
    print(f"  n = {n:3d}: {grid_residual(fam, Cell(40.0, n)):.3e}")
print("(the decrease saturates: the r^-2 tails wrap around the box)")
