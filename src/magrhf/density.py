"""Finite-rank one-body density matrices and their observables.

A state is stored in spectral form: orthonormal spinor orbitals with
occupation numbers in [0, 1].  Dense kernels gamma(x, y) are never
materialised here; test oracles rebuild them on tiny grids when needed.

:func:`kinetic_terms` takes rho, j, the kinetic energy, its A-gradient and the
spin-free trace from one pass over the occupied block; the rest reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    _add_nyquist,
    _sigma_dot,
    _sigma_entries,
    _vector_potential,
    apply_magnetic_laplacian,  # uncalled: perfbench/spans.py patches these two here (ROADMAP direction 3)
    apply_pauli_kinetic,
    external_potential,
    hartree,
    magnetic_energy,
)

__all__ = [
    "DensityMatrix",
    "EnergyBreakdown",
    "density",
    "kinetic_terms",
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
    #: ``(A, kinetic_terms(self, A))`` of the last pass
    _pass: tuple | None = field(default=None, init=False, repr=False, compare=False)

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

    def _check_orthonormal(self) -> None:
        m = len(self.orbitals)
        X = np.stack([phi.values for phi in self.orbitals]).reshape(m, -1)
        gram = (X.conj() @ X.T) * self.cell.dV
        err = np.abs(gram - np.eye(m)).max()
        if err > 1e-10:
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


def kinetic_terms(
    gamma: DensityMatrix, A: MagneticPotential | None
) -> tuple[ScalarField, VectorField, VectorField, float, float]:
    """``(rho, j, J, kinetic, trace)`` of ``gamma`` in ``A`` from one pass over its occupied block.

    ``kinetic`` is the Pauli kinetic energy, ``J`` its A-gradient (the field
    equation's source; ``j/2 + A rho + (1/2) curl m`` in the continuum) and
    ``trace`` is ``Tr((p + A)^2 gamma)``.  With ``c = F(psi)``, the
    Nyquist-zeroed ``cell.k``, ``u_i = F^-1(k_i c) + A_i psi`` and
    ``D psi = sum_i sigma_i u_i = sigma.(p + A) psi``::

        j       = 2 sum_k n_k Re(conj(psi_k) F^-1(k c_k))
        J_i     = sum_k n_k Re(conj(psi_k) . sigma_i D psi_k)
        trace   = sum_k n_k (sum_i ||u_i||^2 + N_k)
        kinetic = (1/2) sum_k n_k (||D psi_k||^2 + N_k)

    where ``N_k = L^3 sum (k2_full - k2) |c_k|^2`` is the Nyquist share the
    derivative vectors drop.  That is one forward and three inverse
    transforms per occupied component, at any ``A``.  The pass is kept on
    ``gamma`` for the ``A`` it was taken in, so an SCF iterate's energy and
    audit read the same pass.
    """
    if gamma._pass is not None and gamma._pass[0] is A:
        return gamma._pass[1]
    cell, a = gamma.cell, _vector_potential(gamma.cell, A)
    # rows sqrt(n_k) psi_k make each occupation-weighted sum one inner product
    psi = np.array([np.sqrt(n_k) * phi.values for n_k, phi in zip(gamma.occupations, gamma.orbitals) if n_k != 0.0])
    psi = psi.reshape((-1, 2) + (cell.n,) * 3)
    c = cell.to_spectral(psi)
    tmp, buf = np.zeros_like(c), np.empty_like(c[:, 0])  # tmp is reused, so the pass holds five blocks
    _add_nyquist(cell, c, tmp, cell.volume)
    nyquist = np.vdot(c, tmp).real
    j, root, squares = np.zeros((3,) + (cell.n,) * 3), np.zeros_like(c), 0.0
    for axis, (k_i, sigma_i) in enumerate(zip(cell.k, np.eye(3))):
        u = cell.from_spectral(np.multiply(k_i, c, out=tmp))
        j[axis] = 2.0 * np.sum(np.multiply(np.conjugate(psi, out=tmp), u, out=tmp).real, axis=(0, 1))
        if a is not None:
            u += np.multiply(a[axis], psi, out=tmp)
        squares += np.vdot(u, u).real
        root += _sigma_dot(_sigma_entries(sigma_i), u, tmp, buf)  # D psi
        del u  # before the next axis allocates its own
    kinetic = float(0.5 * (np.vdot(root, root).real * cell.dV + nyquist))
    psi_bar, J = np.conjugate(psi, out=c), np.empty_like(j)  # c is spent: it holds conj(psi)
    for axis, sigma_i in enumerate(np.eye(3)):
        sigma_root = _sigma_dot(_sigma_entries(sigma_i), root, tmp, buf)
        J[axis] = np.sum(np.multiply(psi_bar, sigma_root, out=tmp).real, axis=(0, 1))
    terms = (density(gamma), VectorField(cell, j), VectorField(cell, J), kinetic, float(squares * cell.dV + nyquist))
    object.__setattr__(gamma, "_pass", (A, terms))
    return terms


def current(gamma: DensityMatrix) -> VectorField:
    """Current j(x) = (p gamma + gamma p)(x, x) = sum_k n_k 2 Im conj(phi_k) grad phi_k.

    Read off :func:`kinetic_terms`.
    """
    return kinetic_terms(gamma, None)[1]


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

    The kinetic term and rho are read off :func:`kinetic_terms`.  ``V``
    may be supplied to avoid rebuilding the nuclear potential.
    """
    cell = gamma.cell
    if A.cell != cell or spec.cell != cell:
        raise CellMismatchError("density matrix, potential and system use different cells")
    rho, _, _, kinetic, _ = kinetic_terms(gamma, A)
    if V is None:
        V = external_potential(spec)
    ext = inner(V, rho)
    _, hartree_energy = hartree(rho)
    mag = magnetic_energy(A, spec.alpha)
    return EnergyBreakdown(kinetic=kinetic, external=float(ext),
                           hartree=float(hartree_energy), magnetic=float(mag))


def kinetic_laplacian_trace(gamma: DensityMatrix, A: MagneticPotential | None) -> float:
    """Tr((p + A)^2 gamma), the spin-free magnetic kinetic energy, read off :func:`kinetic_terms`."""
    return kinetic_terms(gamma, A)[4]


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
    rho, _, _, _, T = kinetic_terms(gamma, A)

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
