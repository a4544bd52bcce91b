"""Tour of the spectral toolbox: fields on a periodic cell, exact vector
identities, the Coulomb-gauge projector and the Poisson solver.

Run with:  python demos/01_spectral_toolkit.py
"""

import numpy as np

from magrhf import (
    Cell,
    ScalarField,
    VectorField,
    curl,
    divergence,
    gradient,
    helmholtz_project,
    inner,
    poisson_potential,
)

cell = Cell(L=10.0, n=32)
print(f"cell: L = {cell.L} bohr, {cell.n}^3 grid, spacing {cell.spacing:.3f} bohr")

# vector identities hold mode by mode, not just approximately; the cell keeps its
# coordinates as three broadcast axes, spread here to full (n, n, n) grids
x = np.broadcast_arrays(*cell.coords)
f = ScalarField(cell, np.cos(2 * np.pi * x[0] / cell.L) * np.sin(4 * np.pi * x[1] / cell.L))
print("max |curl grad f|      =", np.abs(curl(gradient(f)).values).max())

rng = np.random.default_rng(0)
v = VectorField(cell, rng.standard_normal((3,) + (cell.n,) * 3))
print("max |div curl v|       =", np.abs(divergence(curl(v)).values).max())

# Helmholtz projection: the divergence-free part of a random field
p = helmholtz_project(v)
longitudinal = VectorField(cell, v.values - p.values)
print("||div P v|| / ||v||    =", divergence(p).norm() / v.norm())
print("<v - Pv, Pv>           =", inner(longitudinal, p))

# Poisson: a single-mode density inverts the Laplacian exactly
k = 2 * np.pi / cell.L
rho = ScalarField(cell, np.cos(k * x[2]))
phi = poisson_potential(rho)
print("single-mode phi error  =", np.abs(phi.values - 4 * np.pi / k**2 * rho.values).max())

# and a narrow Gaussian reproduces the screened point-charge profile
s = 0.6
dx, dy, dz = cell.displacements((5.0, 5.0, 5.0))
r2 = dx * dx + dy * dy + dz * dz
gauss = ScalarField(cell, np.exp(-0.5 * r2 / s**2) / (2 * np.pi * s**2) ** 1.5)
phi = poisson_potential(gauss)
center = (cell.n // 2,) * 3
print(f"Gaussian phi(0)        = {phi.values[center]:.6f}  "
      f"(free space would be {np.sqrt(2 / np.pi) / s:.6f}; the difference "
      "is the periodic image/background term)")
