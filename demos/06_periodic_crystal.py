"""A neutral crystal cell: periodic Coulomb objects and the coupling scan.

Tabulates the periodic Green's function and its short-distance Coulomb
behaviour, solves the neutral one-electron cell, and maps the
ground-state energy over couplings in the stable regime: the energy is
non-increasing in alpha and concave in alpha^(-2).

Takes a couple of minutes.
"""

import numpy as np

from magrhf import (
    Cell,
    Nucleus,
    SCFConfig,
    SystemSpec,
    concavity_defects,
    green_function_GR,
    scan_alpha,
)

# --- the periodic Coulomb kernel ------------------------------------------
cell = Cell(L=12.0, n=96)
g = green_function_GR(cell)
print("periodic Green's function on a 96^3 grid:")
print(f"  cell mean = {g.mean():.2e}")
dx, dy, dz = cell.displacements((6.0, 6.0, 6.0))
r = np.sqrt(dx * dx + dy * dy + dz * dz)
mid = cell.n // 2
print("  G(x) |x| along the diagonal (to 1 as x -> 0):")
for j in (12, 8, 4, 2):
    pt = (mid + j,) * 3
    print(f"    r = {r[pt]:5.3f}:  G r = {g.values[pt] * r[pt]:.4f}")

# --- the neutral cell over couplings --------------------------------------
cellp = Cell(L=12.0, n=24)
spec = SystemSpec(cellp, (Nucleus(1.0, (6.0, 6.0, 6.0)),), N=1.0, alpha=0.02, mode="periodic")
alphas = [0.02, 0.04, 0.08, 0.16]
rows = scan_alpha(spec, alphas, SCFConfig(tol=1e-7, max_iter=50, seed=0))
print("\ncoupling scan (warm-started):")
print(f"  {'alpha':>6} {'E (hartree)':>16} {'converged':>10}")
for row in rows:
    print(f"  {row.alpha:6.2f} {row.energy.total:16.10f} {str(row.converged):>10}")
defects = concavity_defects(rows)
print("second divided differences of E against alpha^(-2):", defects)
print("(non-positive up to solver noise: the energy is concave in alpha^(-2))")
