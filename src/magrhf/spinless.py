"""Independent non-magnetic mean-field path.

A deliberately separate assembly of the decoupled problem: scalar
orbitals of ``-lap/2 + V + rho * coulomb`` with spin handled as a
capacity-2 occupation per spatial level, and the energy summed directly
from its integrals.  It shares only the low-level spectral primitives,
the eigensolver, its half-grid cold start (run on the oracle's own
operator), its tolerance schedule, the orbital residual and the density
mixer with the spinor machinery, which makes it a useful cross-check of
the full path in the ``A -> 0`` limit.  The operator is real symmetric,
so its orbitals are real: the eigensolver runs in float64 and the
Hamiltonian through the half-spectrum transform pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import Cell, ScalarField
from .hamiltonian import SystemSpec, external_potential, hartree
from .scf import _AndersonMixer, _coarse_start, _EigTolSchedule, _orbital_residual, eigensolve

__all__ = ["SpinlessResult", "scf_solve_spinless"]

#: outer-iteration cap, Anderson density mixing fraction and LOBPCG
#: iteration cap of the oracle's fixed point
MAX_ITER = 120
MIX = 0.6
EIG_MAXITER = 400


@dataclass
class SpinlessResult:
    energy_total: float
    kinetic: float
    external: float
    hartree: float
    levels: np.ndarray
    occupations: np.ndarray
    rho: ScalarField
    iterations: int
    converged: bool
    orbital_residual: float


def _fill_capacity2(levels: np.ndarray, N: float) -> np.ndarray:
    """Aufbau with two electrons per spatial level, equal split on ties (levels within 1e-6)."""
    occ = np.zeros_like(levels)
    remaining = float(N)
    i = 0
    while i < levels.size and remaining > 1e-12:
        shell = np.flatnonzero((levels >= levels[i] - 1e-300) & (levels <= levels[i] + 1e-6))
        shell = shell[shell >= i]
        cap = 2.0 * shell.size
        if remaining >= cap - 1e-12:
            occ[shell] = 2.0
            remaining -= cap
            i = int(shell[-1]) + 1
        else:
            occ[shell] = remaining / shell.size
            remaining = 0.0
    if remaining > 1e-10:
        raise ValueError("not enough spatial states for the requested electron count")
    return occ


def _scalar_hamiltonian(cell: Cell, v_eff: np.ndarray):
    """Apply of ``-lap/2 + v_eff`` to a real (m, 1, n, n, n) block of scalar orbitals."""
    half_k2 = 0.5 * cell.k2_half

    def apply_h(X: np.ndarray) -> np.ndarray:
        c = cell.to_half_spectral(X)
        c *= half_k2
        out = cell.from_half_spectral(c)
        out += v_eff * X
        return out

    return apply_h


def scf_solve_spinless(
    spec: SystemSpec,
    *,
    tol: float = 1e-10,
    eig_tol: float | None = None,
    seed: int = 7,
) -> SpinlessResult:
    """Solve the non-magnetic problem with scalar orbitals.

    Convergence is declared on the orbital residual of the occupied
    states in their own mean field, like the spinor path, so the two
    can be compared at matching tightness.  The eigensolver tolerance
    follows the spinor path's schedule, driven by the orbital residual,
    and convergence needs it to have reached ``eig_tol``.  The orbitals
    are real and the eigensolves run in float64 (``real=True``).  Each
    converges the ``ceil(N/2) + 1`` levels the filling reads (the occupied
    ones and the first above) in a block of two rows more, and the first
    starts from the half-grid Ritz vectors of its own operator
    (:func:`~magrhf.scf._coarse_start`; random rows where that grid is too
    small or its solve fails).  The nuclei carry the default smearing of
    :func:`external_potential`.
    """
    cell = spec.cell
    if eig_tol is None:
        eig_tol = max(1e-10, 0.1 * tol)
    V = external_potential(spec)
    n_spatial = int(math.ceil(spec.N / 2.0 - 1e-12)) + 1

    # initial density: one broad Gaussian per nucleus
    vals = np.zeros((cell.n,) * 3)
    for nuc in spec.nuclei:
        width = max(0.8 / max(nuc.z, 0.5), 2.0 * cell.spacing)
        dx, dy, dz = cell.displacements(nuc.R)
        vals += np.exp(-0.5 * (dx * dx + dy * dy + dz * dz) / width**2)
    vals *= spec.N / (vals.sum() * cell.dV)
    rho = ScalarField(cell, vals)

    mixer = _AndersonMixer(MIX, spec.N)
    schedule = _EigTolSchedule(eig_tol)
    X_warm = None
    converged = False
    res_orb = np.inf
    it = 0
    for it in range(1, MAX_ITER + 1):
        v_h, _ = hartree(rho)
        v_eff = V.values + v_h.values
        if X_warm is None:  # the cold start
            X_warm = _coarse_start(
                _scalar_hamiltonian, ScalarField(cell, v_eff), n_spatial, n_spatial + 2, schedule.tol, seed
            )

        levels, orbitals, _, _, HX = eigensolve(
            _scalar_hamiltonian(cell, v_eff), cell, n_spatial, block=n_spatial + 2, tol=schedule.tol,
            max_iter=EIG_MAXITER, X0=X_warm, seed=seed, components=1, real=True,
        )
        # the filling reads the converged levels only: past them lie the guard rows' Ritz values
        occ = np.zeros_like(levels)
        occ[:n_spatial] = _fill_capacity2(levels[:n_spatial], spec.N)
        rho_out = np.zeros((cell.n,) * 3)
        for f, orb in zip(occ, orbitals):
            rho_out += f * orb[0] ** 2
        rho_out_field = ScalarField(cell, rho_out)

        # the output mean field differs from the eigensolver's only in the
        # Hartree term: H_out X = H X + (v_h(rho_out) - v_h(rho)) X
        v_h_out, _ = hartree(rho_out_field)
        HX += (v_h_out.values - v_h.values) * orbitals
        res_orb = _orbital_residual(cell, orbitals, HX, occ)
        del HX  # free the H X block before the next eigensolve builds its own
        if res_orb <= tol and schedule.at_target:
            rho = rho_out_field
            converged = True
            break
        schedule.tighten(res_orb)
        rho = mixer.push(rho, rho_out_field)
        X_warm = orbitals

    # direct energy assembly from the integrals
    kinetic = 0.0
    for f, orb in zip(occ, orbitals):
        c = cell.to_spectral(orb[0])
        kinetic += f * float(np.real(np.sum(0.5 * cell.k2_full * np.abs(c) ** 2) * cell.volume))
    rho_final = rho if converged else rho_out_field
    external = float(np.sum(V.values * rho_final.values) * cell.dV)
    _, hartree_energy = hartree(rho_final)
    total = kinetic + external + hartree_energy
    return SpinlessResult(
        energy_total=total,
        kinetic=kinetic,
        external=external,
        hartree=hartree_energy,
        levels=levels,
        occupations=occ,
        rho=rho_final,
        iterations=it,
        converged=converged,
        orbital_residual=res_orb,
    )
