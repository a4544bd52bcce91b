"""Mean-field Pauli Hamiltonian: kinetic term, nuclear and Hartree
potentials, and the magnetic field energy.

The kinetic operator is ``(1/2) [sigma . (p + A)]^2``, applied through
the expansion ``(1/2)(p + A)^2 + (1/2) sigma . B``.  Derivatives act in
Fourier space and potentials in real space; the cross term is
symmetrised as ``(A . p + p . A) / 2`` so the discrete operator is
Hermitian to roundoff regardless of the gauge of ``A``.  One batched
kernel serves every apply (the eigensolver's block, the energy and the
audits): with A != 0 it costs 8 FFTs per spinor component, with
A = 0 it costs 2.

Nuclear potentials use the periodic Coulomb kernel (Fourier symbol
``4 pi / |k|^2`` with the ``k = 0`` mode dropped).  Molecular systems
are treated in the same large periodic box, so the neutralizing
background and the O(1/L) image interaction are part of the
discretisation and documented where tests depend on them.  Point nuclei
are regularised as narrow Gaussians of width ``2 * spacing`` by
default; pass ``s_nuc=0.0`` for the bare kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import (
    Cell,
    CellMismatchError,
    ScalarField,
    SpinorField,
    VectorField,
    curl,
    divergence,
    inner,
    poisson_potential,
)

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "PAULI",
    "Nucleus",
    "SystemSpec",
    "MagneticPotential",
    "apply_pauli_kinetic",
    "apply_magnetic_laplacian",
    "make_hamiltonian",
    "external_potential",
    "green_function_GR",
    "hartree",
    "magnetic_energy",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
#: The three Pauli matrices stacked as a (3, 2, 2) array.
PAULI = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])
for _m in (SIGMA_X, SIGMA_Y, SIGMA_Z, PAULI):
    _m.setflags(write=False)


@dataclass(frozen=True)
class Nucleus:
    """Point nucleus of charge ``z`` at position ``R`` (bohr, inside the cell)."""

    z: float
    R: tuple[float, float, float]

    def __post_init__(self) -> None:
        if self.z < 0:
            raise ValueError(f"nuclear charge must be nonnegative, got {self.z}")
        object.__setattr__(self, "R", tuple(float(c) for c in self.R))


@dataclass(frozen=True)
class SystemSpec:
    """Nuclear arrangement, electron count and coupling for one run.

    ``mode`` selects between a molecule in a large periodic box
    (``"molecular"``) and a perfect crystal with one unit cell
    (``"periodic"``).  In periodic mode charge neutrality ``N = Z`` is
    required; molecular mode accepts any ``N > 0`` but the existence
    regime ``N <= Z`` is flagged by the solver when violated.
    """

    cell: Cell
    nuclei: tuple[Nucleus, ...]
    N: float
    alpha: float
    mode: str = "molecular"

    def __post_init__(self) -> None:
        object.__setattr__(self, "nuclei", tuple(self.nuclei))
        if self.mode not in ("molecular", "periodic"):
            raise ValueError(f"mode must be 'molecular' or 'periodic', got {self.mode!r}")
        if not self.nuclei:
            raise ValueError("at least one nucleus is required")
        if self.N <= 0:
            raise ValueError(f"electron count must be positive, got N={self.N}")
        if self.alpha <= 0:
            raise ValueError(f"fine-structure constant must be positive, got alpha={self.alpha}")
        for nuc in self.nuclei:
            for c in nuc.R:
                if not (0.0 <= c < self.cell.L):
                    raise ValueError(f"nucleus at {nuc.R} lies outside the cell [0, {self.cell.L})^3")
        if self.mode == "periodic" and abs(self.N - self.Z) > 1e-12:
            raise ValueError(
                f"periodic mode requires a neutral cell N = Z, got N={self.N}, Z={self.Z}"
            )

    @property
    def Z(self) -> float:
        """Total nuclear charge."""
        return float(sum(nuc.z for nuc in self.nuclei))


#: relative bound on |div A| accepted by the Coulomb-gauge check
GAUGE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class MagneticPotential:
    """Divergence-free vector potential; its field ``B = curl A`` is computed on first read.

    ``field_energy_raw`` is ``int |B|^2`` over the cell;  the physical
    magnetic energy carries the extra ``1 / (8 pi alpha^2)``.
    """

    A: VectorField
    check_gauge: bool = True

    def __post_init__(self) -> None:
        if self.check_gauge:
            div_norm = divergence(self.A).norm()
            scale = max(self.A.norm(), 1.0)
            if div_norm > GAUGE_TOL * scale:
                raise ValueError(
                    f"vector potential violates the Coulomb gauge: |div A| = {div_norm:.3e}"
                )

    @classmethod
    def zero(cls, cell: Cell) -> "MagneticPotential":
        return cls(VectorField.zeros(cell), check_gauge=False)

    @cached_property
    def B(self) -> VectorField:
        return curl(self.A)

    @property
    def cell(self) -> Cell:
        return self.A.cell

    @property
    def field_energy_raw(self) -> float:
        # a zero potential has an exactly zero field; skip its curl
        return 0.0 if self.is_zero() else self.B.square_integral()

    def is_zero(self) -> bool:
        return not np.any(self.A.values)


#: pointwise multiplier of the kinetic kernel: none, a real array, or
#: the four entries of a 2x2 spin matrix (see :func:`_sigma_dot`)
_Multiplier = np.ndarray | tuple[np.ndarray, ...] | None


def _kinetic(cell: Cell, X: np.ndarray, half_a: np.ndarray | None, m: _Multiplier) -> np.ndarray:
    """``(1/2)(p^2 + A . p + p . A) X + M X`` for ``X`` of shape (..., n, n, n).

    The one kinetic kernel.  Every leading axis of ``X`` (orbitals,
    spin) is a batch axis.  ``half_a`` and the pointwise multiplier
    ``M`` come from :func:`_pointwise`; ``half_a = None`` means A = 0.
    One forward transform of X and three inverse transforms of
    ``k_i c`` give ``A . p``; three forward transforms of ``A_i X`` are
    weighted by ``k_i`` and added to ``|k|^2 c`` so a single inverse
    transform returns ``p^2`` and ``p . (A .)`` together.  That is 8
    transforms per component with A and 2 without.  ``A . p`` and
    ``p . A`` are mutual adjoints on the discrete torus, so the
    operator is Hermitian to roundoff.
    """
    c = cell.to_spectral(X)
    if half_a is None:
        c *= 0.5 * cell.k2_full
        out = cell.from_spectral(c)
        if m is not None:
            _sigma_dot(m, X, out, c)
        return out
    k = cell.k
    tmp = np.empty_like(c)
    near = None  # accumulates in the first gradient's array, so nothing else is allocated
    for i in range(3):
        grad = cell.from_spectral(np.multiply(c, k[i], out=tmp))
        grad *= half_a[i]
        if near is None:
            near = grad
        else:
            near += grad
    _sigma_dot(m, X, near, tmp)
    c *= 0.5 * cell.k2_full
    for i in range(3):
        flux = cell.to_spectral(np.multiply(X, half_a[i], out=tmp))
        flux *= k[i]
        c += flux
    near += cell.from_spectral(c)
    return near


def _pointwise(
    cell: Cell, A: MagneticPotential | None, v: np.ndarray | None = None, spin: bool = True
) -> tuple[np.ndarray | None, _Multiplier]:
    """Pointwise data of :func:`_kinetic` for the potential ``A`` and a real multiplier ``v``.

    Returns ``(A/2, M)`` with ``A/2 = None`` for a vanishing ``A``.
    ``M`` is ``|A|^2/2 + v``, or for spinors (``spin``) the entries of
    the Hermitian 2x2 multiplier ``|A|^2/2 + v + sigma . B/2`` in the
    layout of :func:`_sigma_dot`.
    """
    if A is not None and A.cell != cell:
        raise CellMismatchError("spinor and vector potential live on different cells")
    if A is None or A.is_zero():
        return None, v
    a = A.A.values
    half_a = 0.5 * a
    w = np.sum(half_a * a, axis=0)
    if v is not None:
        w += v
    if not spin:
        return half_a, w
    bx, by, bz = 0.5 * A.B.values
    return half_a, (w + bz, w - bz, bx - 1j * by, bx + 1j * by)


def _sigma_dot(m: _Multiplier, psi_values: np.ndarray, out: np.ndarray, buf: np.ndarray) -> None:
    """Add the pointwise multiplier ``m`` times ``psi_values`` to ``out``.

    ``m`` is a real array, or the entries ``(m0, m1, m2, m3)`` of the
    2x2 matrix ``[[m0, m2], [m3, m1]]`` acting on the spin axis (-4);
    ``(w + v_z, w - v_z, v_x - i v_y, v_x + i v_y)`` gives
    ``(w + sigma . v) psi``.  ``buf`` (the shape of ``out``) is
    overwritten, so nothing is allocated.
    """
    if not isinstance(m, tuple):
        out += np.multiply(m, psi_values, out=buf)
        return
    up, dn = psi_values[..., 0, :, :, :], psi_values[..., 1, :, :, :]
    s_diag, s_cross = buf[..., 0, :, :, :], buf[..., 1, :, :, :]
    for spin, diag, cross, same, other in ((0, m[0], m[2], up, dn), (1, m[1], m[3], dn, up)):
        row = out[..., spin, :, :, :]
        row += np.multiply(diag, same, out=s_diag)
        row += np.multiply(cross, other, out=s_cross)


def make_hamiltonian(cell: Cell, v_eff: ScalarField | None, A: MagneticPotential | None):
    """Return a batched apply for H = (1/2)[sigma.(p+A)]^2 + v_eff.

    The callable maps arrays of shape (m, 2, n, n, n) to arrays of the
    same shape, at 8 transforms per spinor component when A != 0 and 2
    when A = 0.  The pointwise data is built once, here.
    """
    half_a, m = _pointwise(cell, A, None if v_eff is None else v_eff.values)

    def apply_h(X: np.ndarray) -> np.ndarray:
        return _kinetic(cell, X, half_a, m)

    return apply_h


def apply_magnetic_laplacian(psi: SpinorField, A: MagneticPotential | None) -> SpinorField:
    """Apply ``(p + A)^2`` to a spinor."""
    return SpinorField(psi.cell, 2.0 * _kinetic(psi.cell, psi.values, *_pointwise(psi.cell, A, spin=False)))


def apply_sigma_kinetic_root(psi: SpinorField, A: MagneticPotential | None) -> SpinorField:
    """Apply the first-order operator ``sigma . (p + A)`` to a spinor.

    One axis at a time: ``(p_i + A_i) psi`` is formed and contracted with
    ``sigma_i`` into the output, every temporary in one buffer, so no
    (3, 2, n, n, n) block is built.
    """
    cell = psi.cell
    if A is not None and A.cell != cell:
        raise CellMismatchError("spinor and vector potential live on different cells")
    a = None if A is None or A.is_zero() else A.A.values
    c = psi.spectral()
    out = np.zeros_like(c)
    tmp = np.empty_like(c)
    for i in range(3):
        v = cell.from_spectral(np.multiply(c, cell.k[i], out=tmp))  # p_i psi = -i d_i psi
        if a is not None:
            v += np.multiply(psi.values, a[i], out=tmp)
        out += np.matmul(PAULI[i], v.reshape(2, -1), out=tmp.reshape(2, -1)).reshape(out.shape)
        del v
    return SpinorField(cell, out)


def apply_pauli_kinetic(psi: SpinorField, A: MagneticPotential | None) -> SpinorField:
    """Apply the Pauli kinetic operator ``(1/2) [sigma . (p + A)]^2``.

    Uses the expansion ``(1/2)(p + A)^2 + (1/2) sigma . B``.
    """
    return SpinorField(psi.cell, _kinetic(psi.cell, psi.values, *_pointwise(psi.cell, A)))


def _nuclear_spectral(spec: SystemSpec, s_nuc: float) -> np.ndarray:
    """Spectral coefficients of the (regularised) nuclear charge density."""
    cell = spec.cell
    k = cell.k
    coeffs = np.zeros((cell.n,) * 3, dtype=complex)
    for nuc in spec.nuclei:
        phase = np.exp(-1j * (k[0] * nuc.R[0] + k[1] * nuc.R[1] + k[2] * nuc.R[2]))
        coeffs += nuc.z * phase
    coeffs /= cell.volume
    if s_nuc > 0.0:
        coeffs = coeffs * np.exp(-0.5 * cell.k2 * s_nuc**2)
    return coeffs


def external_potential(spec: SystemSpec, s_nuc: float | None = None) -> ScalarField:
    """Attractive Coulomb potential of the nuclei on the grid.

    Both modes use the periodic kernel ``-4 pi z / |k|^2`` per nucleus
    with the mean dropped, which is the periodic potential ``V_per``
    exactly, and the jellium-compensated box approximation of the
    molecular potential.  ``s_nuc`` is the Gaussian regularisation width
    (default ``2 * spacing``; ``0`` gives bare point charges).
    """
    cell = spec.cell
    if s_nuc is None:
        s_nuc = 2.0 * cell.spacing
    rho_nuc = _nuclear_spectral(spec, s_nuc)
    v = -4.0 * np.pi * rho_nuc * cell.inv_k2
    return ScalarField.from_spectral(cell, v)


def green_function_GR(cell: Cell) -> ScalarField:
    """Green's function of the periodic Laplacian on the grid.

    Tabulates ``G(x) = (4 pi / |cell|) sum_{k != 0} exp(i k . x) / |k|^2``,
    the mean-zero solution of ``-lap G = 4 pi (delta-comb - 1/|cell|)``.
    Its series coefficients scaled by the cell volume are exactly
    ``4 pi / |k|^2``.
    """
    coeffs = 4.0 * np.pi * cell.inv_k2 / cell.volume
    return ScalarField.from_spectral(cell, coeffs.astype(complex))


def hartree(rho: ScalarField) -> tuple[ScalarField, float]:
    """Hartree potential and energy of a density.

    Returns ``(phi, E)`` with ``phi`` the periodic Coulomb potential of
    ``rho`` (k = 0 dropped) and ``E = (1/2) <rho, phi> >= 0``.  Small
    negative densities from roundoff are tolerated.
    """
    neg = float(rho.values.min())
    if neg < -1e-8 * max(float(rho.values.max()), 1e-300):
        import warnings

        warnings.warn(f"hartree: density has negative values down to {neg:.3e}", stacklevel=2)
    phi = poisson_potential(rho)
    energy = 0.5 * inner(rho, phi)
    return phi, float(energy)


def magnetic_energy(A: MagneticPotential, alpha: float) -> float:
    """Field energy ``int |B|^2 / (8 pi alpha^2)`` over the cell."""
    if alpha <= 0:
        raise ValueError(f"fine-structure constant must be positive, got alpha={alpha}")
    return A.field_energy_raw / (8.0 * np.pi * alpha**2)
