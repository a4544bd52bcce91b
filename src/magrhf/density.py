"""Finite-rank one-body density matrices and their observables.

A state is stored in spectral form: orthonormal spinor orbitals with
occupation numbers in [0, 1].  Dense kernels gamma(x, y) are never
materialised here; test oracles rebuild them on tiny grids when needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import C2_DEFAULT, C_LT_CLASSICAL
from .fields import (
    Cell,
    CellMismatchError,
    ScalarField,
    SpinorField,
    VectorField,
    gradient,
    inner,
)
from .hamiltonian import (
    MagneticPotential,
    SystemSpec,
    apply_magnetic_laplacian,
    apply_pauli_kinetic,
    external_potential,
    hartree,
    magnetic_energy,
)

__all__ = [
    "DensityMatrix",
    "EnergyBreakdown",
    "density",
    "current",
    "magnetisation",
    "physical_current",
    "total_energy",
    "kinetic_laplacian_trace",
    "kinetic_inequality_report",
]


@dataclass(frozen=True)
class DensityMatrix:
    """gamma = sum_k n_k |phi_k><phi_k| with orthonormal spinor orbitals."""

    orbitals: tuple[SpinorField, ...]
    occupations: np.ndarray
    mode: str = "molecular"

    def __post_init__(self) -> None:
        object.__setattr__(self, "orbitals", tuple(self.orbitals))
        occ = np.asarray(self.occupations, dtype=float).copy()
        if len(self.orbitals) != occ.size:
            raise ValueError("one occupation number per orbital is required")
        if not self.orbitals:
            raise ValueError("a density matrix needs at least one orbital")
        if occ.min() < -1e-12 or occ.max() > 1.0 + 1e-12:
            raise ValueError(f"occupations must lie in [0, 1], got range "
                             f"[{occ.min()}, {occ.max()}]")
        occ = np.clip(occ, 0.0, 1.0)
        occ.setflags(write=False)
        object.__setattr__(self, "occupations", occ)
        cell = self.orbitals[0].cell
        for phi in self.orbitals[1:]:
            if phi.cell != cell:
                raise CellMismatchError("orbitals live on different cells")
        self._check_orthonormal()

    def _check_orthonormal(self, tol: float = 1e-10) -> None:
        m = len(self.orbitals)
        X = np.stack([phi.values for phi in self.orbitals]).reshape(m, -1)
        gram = (X.conj() @ X.T) * self.cell.dV
        err = np.abs(gram - np.eye(m)).max()
        if err > tol:
            raise ValueError(f"orbitals are not orthonormal: max deviation {err:.3e}")

    @property
    def cell(self) -> Cell:
        return self.orbitals[0].cell

    def trace(self) -> float:
        """Tr(gamma); the trace per unit cell in periodic mode."""
        return float(self.occupations.sum())


def density(gamma: DensityMatrix) -> ScalarField:
    """Electron density rho(x) = sum_k n_k (|phi_k^up|^2 + |phi_k^dn|^2)."""
    cell = gamma.cell
    rho = np.zeros((cell.n,) * 3)
    for n_k, phi in zip(gamma.occupations, gamma.orbitals):
        if n_k == 0.0:
            continue
        rho += n_k * np.sum(np.abs(phi.values) ** 2, axis=0)
    return ScalarField(cell, rho)


def current(gamma: DensityMatrix) -> VectorField:
    """Current j(x) = (p gamma + gamma p)(x, x) = sum_k n_k 2 Im conj(phi_k) grad phi_k.

    One forward transform of the occupied block, then one inverse
    transform of the block's derivative along each axis.
    """
    cell = gamma.cell
    j = np.zeros((3,) + (cell.n,) * 3)
    occupied = np.flatnonzero(gamma.occupations != 0.0)
    if not occupied.size:
        return VectorField(cell, j)
    psi = np.stack([gamma.orbitals[i].values for i in occupied])
    spec = cell.to_spectral(psi)
    conj = np.conjugate(psi)
    for j_a, k_a in zip(j, cell.k):
        grad = cell.from_spectral(1j * k_a * spec)
        for n_k, conj_k, grad_k in zip(gamma.occupations[occupied], conj, grad):
            j_a += 2.0 * n_k * np.sum(np.imag(conj_k * grad_k), axis=0)
    return VectorField(cell, j)


def magnetisation(gamma: DensityMatrix) -> VectorField:
    """Magnetisation m(x) = tr_C2(sigma gamma(x, x)), real 3-vector field."""
    cell = gamma.cell
    m = np.zeros((3,) + (cell.n,) * 3)
    for n_k, phi in zip(gamma.occupations, gamma.orbitals):
        if n_k == 0.0:
            continue
        up, dn = phi.values
        cross = np.conjugate(up) * dn
        m[0] += 2.0 * n_k * cross.real
        m[1] += 2.0 * n_k * cross.imag
        m[2] += n_k * (np.abs(up) ** 2 - np.abs(dn) ** 2)
    return VectorField(cell, m)


def physical_current(rho: ScalarField, j: VectorField, A: MagneticPotential) -> VectorField:
    """Gauge-invariant current j/2 + A rho of a state's density and current.

    With the convention ``j = (p gamma + gamma p)(x, x)`` the velocity
    operator of ``(1/2)(p + A)^2`` gives the conserved current
    ``j/2 + A rho``: under ``A -> A + grad mu`` with orbitals rotated by
    ``exp(-i mu)`` the combination is unchanged, and its divergence
    vanishes at self-consistency.
    """
    return VectorField(rho.cell, 0.5 * j.values + A.A.values * rho.values[None])


@dataclass(frozen=True)
class EnergyBreakdown:
    """The four contributions to the total energy (hartree)."""

    kinetic: float
    external: float
    hartree: float
    magnetic: float

    @property
    def total(self) -> float:
        return self.kinetic + self.external + self.hartree + self.magnetic

    def as_dict(self) -> dict[str, float]:
        return {
            "kinetic": self.kinetic,
            "external": self.external,
            "hartree": self.hartree,
            "magnetic": self.magnetic,
            "total": self.total,
        }


def total_energy(
    gamma: DensityMatrix,
    A: MagneticPotential,
    spec: SystemSpec,
    *,
    V: ScalarField | None = None,
) -> EnergyBreakdown:
    """Evaluate the four-term mean-field energy of (gamma, A).

    kinetic  = sum_k n_k <phi_k, (1/2)[sigma.(p+A)]^2 phi_k>
    external = int V rho
    hartree  = (1/2) D(rho, rho)
    magnetic = int |B|^2 / (8 pi alpha^2)

    ``V`` may be supplied to avoid rebuilding the nuclear potential.
    """
    cell = gamma.cell
    if A.cell != cell or spec.cell != cell:
        raise CellMismatchError("density matrix, potential and system use different cells")
    kinetic = 0.0
    for n_k, phi in zip(gamma.occupations, gamma.orbitals):
        if n_k == 0.0:
            continue
        kinetic += n_k * float(np.real(inner(phi, apply_pauli_kinetic(phi, A))))
    rho = density(gamma)
    if V is None:
        V = external_potential(spec)
    ext = inner(V, rho)
    _, hartree_energy = hartree(rho)
    mag = magnetic_energy(A, spec.alpha)
    return EnergyBreakdown(kinetic=float(kinetic), external=float(ext),
                           hartree=float(hartree_energy), magnetic=float(mag))


def kinetic_laplacian_trace(gamma: DensityMatrix, A: MagneticPotential | None) -> float:
    """Tr((p + A)^2 gamma), the spin-free magnetic kinetic energy."""
    out = 0.0
    for n_k, phi in zip(gamma.occupations, gamma.orbitals):
        if n_k == 0.0:
            continue
        out += n_k * float(np.real(inner(phi, apply_magnetic_laplacian(phi, A))))
    return out


def kinetic_inequality_report(
    gamma: DensityMatrix,
    A: MagneticPotential | None,
    *,
    c_lt: float = C_LT_CLASSICAL,
    c2: float = C2_DEFAULT,
) -> dict[str, float | bool]:
    """Check the Lieb-Thirring, Hoffmann-Ostenhof and L^2-Sobolev bounds.

    Each inequality compares its left-hand side against
    ``T = Tr((p + A)^2 gamma)``.  The square root in the
    Hoffmann-Ostenhof term is regularised as sqrt(rho + eps) with
    ``eps = 1e-14 * max rho`` to keep the spectral gradient finite where
    the density vanishes.
    """
    cell = gamma.cell
    T = kinetic_laplacian_trace(gamma, A)
    rho = density(gamma)

    lt_lhs = c_lt * float(np.sum(np.maximum(rho.values, 0.0) ** (5.0 / 3.0)) * cell.dV)

    eps = 1e-14 * max(float(rho.values.max()), 1e-300)
    sqrt_rho = ScalarField(cell, np.sqrt(np.maximum(rho.values, 0.0) + eps))
    ho_lhs = gradient(sqrt_rho).square_integral()

    sob_lhs = c2 * float(np.sum(rho.values**2) * cell.dV) ** (2.0 / 3.0)

    return {
        "kinetic_trace": T,
        "lieb_thirring_lhs": lt_lhs,
        "lieb_thirring_ok": bool(lt_lhs <= T * (1.0 + 1e-12) + 1e-12),
        "hoffmann_ostenhof_lhs": ho_lhs,
        "hoffmann_ostenhof_ok": bool(ho_lhs <= T * (1.0 + 1e-12) + 1e-12),
        "sobolev_lhs": sob_lhs,
        "sobolev_ok": bool(sob_lhs <= T * (1.0 + 1e-12) + 1e-12),
    }
