"""Finite-rank one-body density matrices and their observables.

A state is stored in spectral form: orthonormal spinor orbitals, the rows
of one read-only block (:attr:`DensityMatrix.block`), with occupation
numbers in [0, 1].  Dense kernels gamma(x, y) are never
materialised here; test oracles rebuild them on tiny grids when needed.
A state built from real scalar rows and a spin axis
(:meth:`DensityMatrix.from_spin_pairs`) keeps both next to its block.

:func:`kinetic_terms` takes rho, j, the kinetic energy, its A-gradient and the
spin-free trace from one pass over the occupied block; the rest reads it.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .constants import C2_DEFAULT, C_LT_CLASSICAL
from .fields import (
    Cell,
    CellMismatchError,
    ScalarField,
    SpinorField,
    VectorField,
    _freeze,
    _gram,
    gradient,
    inner,
)
from .hamiltonian import (
    PAULI,
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


def _spin_pairs(X: np.ndarray, rows: int, chi: np.ndarray) -> np.ndarray:
    """The first ``rows`` of the spinors ``phi (x) chi, phi (x) chi_perp`` of the (real or
    complex) scalar rows ``X`` (m, 1, n, n, n), pair by pair, with the unit spinor ``chi``
    and ``chi_perp = (-conj chi_1, conj chi_0)``; complex whatever the dtype of ``X``."""
    out = np.empty((rows, 2) + X.shape[2:], dtype=complex)
    for spin, (a, b) in enumerate(zip(chi, (-np.conj(chi[1]), np.conj(chi[0])))):
        np.multiply(X[:(rows + 1) // 2, 0], a, out=out[0::2, spin])
        np.multiply(X[:rows // 2, 0], b, out=out[1::2, spin])
    return out


@dataclass(frozen=True, init=False, eq=False)
class DensityMatrix:
    """gamma = sum_k n_k |phi_k><phi_k| on the orthonormal rows phi_k of the read-only (m, 2, n, n, n) :attr:`block`.

    ``DensityMatrix(orbitals, occupations)`` stacks its spinor fields once; :meth:`from_block` adopts a block.
    """

    cell: Cell
    block: np.ndarray = field(repr=False)
    occupations: np.ndarray
    #: ``(A, kinetic_terms(self, A))`` of the last pass
    _pass: tuple | None = field(default=None, repr=False)
    #: ``(rows, chi)`` of a state built by :meth:`from_spin_pairs`: its scalar rows and its spin axis
    _pairs: tuple | None = field(default=None, repr=False)

    def __init__(self, orbitals: Iterable[SpinorField], occupations: np.ndarray) -> None:
        orbitals = tuple(orbitals)
        if not orbitals:
            raise ValueError("a density matrix needs at least one orbital")
        if any(phi.cell != orbitals[0].cell for phi in orbitals):
            raise CellMismatchError("orbitals live on different cells")
        self._adopt(orbitals[0].cell, np.stack([phi.values for phi in orbitals]), occupations)

    @classmethod
    def from_block(cls, cell: Cell, block: np.ndarray, occupations: np.ndarray) -> "DensityMatrix":
        """gamma on the orthonormal rows of ``block`` (m, 2, n, n, n), adopted: frozen in place, not copied."""
        gamma = cls.__new__(cls)
        gamma._adopt(cell, block, occupations)
        return gamma

    @classmethod
    def from_spin_pairs(cls, cell: Cell, rows: np.ndarray, chi: np.ndarray, occupations: np.ndarray) -> "DensityMatrix":
        """gamma on the spin pairs ``phi (x) chi, phi (x) chi_perp`` of the real orthonormal
        scalar rows ``rows`` (m, 1, n, n, n), one spinor per occupation (:func:`_spin_pairs`).

        The block of spinors is adopted; the rows and ``chi`` are kept, so
        :func:`kinetic_terms` and an SCF warm start at A = 0 work on the scalar rows.
        """
        if np.iscomplexobj(rows):
            raise TypeError("spin pairs are built from real scalar rows")
        occ = np.asarray(occupations, dtype=float)
        if occ.size > 2 * len(rows):
            raise ValueError(f"{occ.size} occupations need {(occ.size + 1) // 2} scalar rows, got {len(rows)}")
        gamma = cls.from_block(cell, _spin_pairs(rows, occ.size, chi), occ)
        kept = rows[:(occ.size + 1) // 2].view()
        kept.setflags(write=False)
        object.__setattr__(gamma, "_pairs", (kept, np.array(chi, dtype=complex)))
        return gamma

    def _adopt(self, cell: Cell, block: np.ndarray, occupations: np.ndarray) -> None:
        """Check ``block`` and ``occupations`` on ``cell`` and keep them: both constructors' checks."""
        occ = np.asarray(occupations, dtype=float).copy()
        if len(block) != occ.size:
            raise ValueError("one occupation number per orbital is required")
        if not occ.size:
            raise ValueError("a density matrix needs at least one orbital")
        if not np.isfinite(occ).all():
            raise ValueError(f"occupations must be finite, got {occ}")
        if occ.min() < -1e-12 or occ.max() > 1.0 + 1e-12:
            raise ValueError(f"occupations must lie in [0, 1], got range "
                             f"[{occ.min()}, {occ.max()}]")
        occ = np.clip(occ, 0.0, 1.0)
        occ.setflags(write=False)
        block = _freeze(np.asarray(block, dtype=complex))
        if block.shape[1:] != (2,) + (cell.n,) * 3:
            raise ValueError(f"orbital block shape {block.shape} does not match cell n={cell.n}")
        for name, value in (("cell", cell), ("block", block), ("occupations", occ)):
            object.__setattr__(self, name, value)
        X = block.reshape(len(block), -1)
        err = np.abs(_gram(cell, X, X) - np.eye(len(X))).max()
        if err > 1e-10:
            raise ValueError(f"orbitals are not orthonormal: max deviation {err:.3e}")

    def trace(self) -> float:
        """Tr(gamma); the trace per unit cell in periodic mode."""
        return float(self.occupations.sum())


def density(gamma: DensityMatrix) -> ScalarField:
    """Electron density rho(x) = sum_k n_k (|phi_k^up|^2 + |phi_k^dn|^2)."""
    cell = gamma.cell
    rho = np.zeros((cell.n,) * 3)
    for n_k, phi in zip(gamma.occupations, gamma.block):
        if n_k == 0.0:
            continue
        rho += n_k * np.sum(np.abs(phi) ** 2, axis=0)
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
    transforms per occupied component, at any ``A``.

    The spin pairs ``phi_i (x) chi, phi_i (x) chi_perp`` of real rows
    (:meth:`DensityMatrix.from_spin_pairs`) in a zero or absent ``A`` take
    the pair route on the scalar rows instead.  With the pair weights
    ``w_i = n_2i + n_2i+1``, ``d_i = n_2i - n_2i+1`` and the spin direction
    ``s = chi^+ sigma chi``::

        rho = sum_i w_i phi_i^2,  j = 0,  J = sum_i d_i phi_i (grad phi_i x s)
        kinetic = trace / 2 = (1/2) sum_i w_i L^3 sum k2_full |c_i|^2

    with the Nyquist-zeroed spectral gradient: one half-spectrum forward
    transform per occupied row, and three inverse ones more per row with
    ``d_i != 0``, so a balanced fill has ``J = 0`` exactly.  The pass is
    kept on ``gamma`` for the ``A`` it was taken in, so an SCF iterate's
    energy and audit read the same pass.
    """
    if gamma._pass is not None and gamma._pass[0] is A:
        return gamma._pass[1]
    a = _vector_potential(gamma.cell, A)
    terms = _pair_terms(gamma) if a is None and gamma._pairs is not None else _spinor_terms(gamma, a)
    object.__setattr__(gamma, "_pass", (A, terms))
    return terms


def _pair_terms(gamma: DensityMatrix) -> tuple[ScalarField, VectorField, VectorField, float, float]:
    """The pair route of :func:`kinetic_terms`: the spin pairs of real scalar rows at A = 0."""
    cell, (rows, chi) = gamma.cell, gamma._pairs
    occ = np.append(gamma.occupations, 0.0)[: 2 * len(rows)]  # an odd last row has an empty partner
    w, d = occ[0::2] + occ[1::2], occ[0::2] - occ[1::2]
    live = w != 0.0
    phi, w, d = rows[live, 0], w[live], d[live]
    c = cell.to_half_spectral(phi)
    per_row = cell.half_sum(cell.k2_half * (c.real**2 + c.imag**2))
    kinetic = float(0.5 * cell.volume * (w @ per_row))
    J = np.zeros((3,) + (cell.n,) * 3)
    spin = d != 0.0
    if spin.any():  # J = G x s with G = sum_i d_i phi_i grad phi_i
        d_phi, c = d[spin, None, None, None] * phi[spin], c[spin]
        G = np.stack([
            np.sum(d_phi * cell.from_half_spectral(1j * k_i * c), axis=0) for k_i in cell.k_half
        ])
        J = np.cross(G, np.real(np.einsum("s,ist,t->i", chi.conj(), PAULI, chi)), axisa=0, axisc=0)
    rho = ScalarField(cell, np.tensordot(w, phi * phi, axes=1))
    return rho, VectorField.zeros(cell), VectorField(cell, J), kinetic, 2.0 * kinetic


def _spinor_terms(
    gamma: DensityMatrix, a: np.ndarray | None
) -> tuple[ScalarField, VectorField, VectorField, float, float]:
    """The spinor route of :func:`kinetic_terms`, in the potential samples ``a`` (``None`` for zero)."""
    cell = gamma.cell
    # rows sqrt(n_k) psi_k make each occupation-weighted sum one inner product
    live = gamma.occupations != 0.0
    psi = gamma.block[live]
    psi *= np.sqrt(gamma.occupations[live])[:, None, None, None, None]
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
    return density(gamma), VectorField(cell, j), VectorField(cell, J), kinetic, float(squares * cell.dV + nyquist)


def current(gamma: DensityMatrix) -> VectorField:
    """Current j(x) = (p gamma + gamma p)(x, x) = sum_k n_k 2 Im conj(phi_k) grad phi_k.

    Read off :func:`kinetic_terms`.
    """
    return kinetic_terms(gamma, None)[1]


def magnetisation(gamma: DensityMatrix) -> VectorField:
    """Magnetisation m(x) = tr_C2(sigma gamma(x, x)), real 3-vector field."""
    cell = gamma.cell
    m = np.zeros((3,) + (cell.n,) * 3)
    for n_k, phi in zip(gamma.occupations, gamma.block):
        if n_k == 0.0:
            continue
        up, dn = phi
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
    hartree_energy: float | None = None,
) -> EnergyBreakdown:
    """Evaluate the four-term mean-field energy of (gamma, A).

    kinetic  = sum_k n_k <phi_k, (1/2)[sigma.(p+A)]^2 phi_k>
    external = int V rho
    hartree  = (1/2) D(rho, rho)
    magnetic = int |B|^2 / (8 pi alpha^2)

    The kinetic term and rho are read off :func:`kinetic_terms`.  ``V``
    may be supplied to avoid rebuilding the nuclear potential, and
    ``hartree_energy`` (the energy :func:`hartree` gives for that rho) to
    avoid solving the Poisson equation again.
    """
    cell = gamma.cell
    if A.cell != cell or spec.cell != cell:
        raise CellMismatchError("density matrix, potential and system use different cells")
    rho, _, _, kinetic, _ = kinetic_terms(gamma, A)
    if V is None:
        V = external_potential(spec)
    ext = inner(V, rho)
    if hartree_energy is None:
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
