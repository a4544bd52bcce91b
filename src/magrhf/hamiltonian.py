"""Mean-field Pauli Hamiltonian: kinetic term, nuclear and Hartree
potentials, and the magnetic field energy.

The kinetic operator is ``T_A = (1/2) D^2`` with the root
``D = sigma . (p + A)``.  Derivatives act in Fourier space and
potentials in real space: ``D`` is one forward transform, ``sigma . k``
on the series, one inverse transform and ``sigma . A`` on the grid, so
``T_A`` costs 4 FFTs per spinor component with A != 0.  The derivative
vectors are zeroed on the Nyquist planes; the part of ``|k|^2`` they
drop there is added back, so A = 0 gives ``(1/2) |k|^2`` exactly, at
2 FFTs per component.  ``D`` is Hermitian on the grid, so ``T_A`` is
``D^+ D / 2`` plus that nonnegative Nyquist term: nonnegative whatever
the gauge or the resolution of ``A``.  The spin-free ``(p + A)^2`` is
``sum_i (p_i + A_i)^+ (p_i + A_i)`` plus the same Nyquist term on the
grid, so it is Hermitian and nonnegative to roundoff.

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
    Axes,
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


def _vector_potential(cell: Cell, A: MagneticPotential | None) -> np.ndarray | None:
    """The samples of ``A``, or ``None`` for a vanishing potential; ``A`` must live on ``cell``."""
    if A is not None and A.cell != cell:
        raise CellMismatchError("spinor and vector potential live on different cells")
    return None if A is None or A.is_zero() else A.A.values


def _kinetic(cell: Cell, X: np.ndarray, w: np.ndarray | None) -> np.ndarray:
    """``(1/2) p^2 X + w X`` for ``X`` of shape (..., n, n, n): the free kinetic kernel.

    Every leading axis of ``X`` (orbitals, spin) is a batch axis and ``w``
    a real pointwise multiplier (``None`` for none).  One forward and one
    inverse transform per component, with ``|k|^2`` in full on the
    Nyquist planes.  Real rows (the scalar rows of the spin-block solve)
    take the half-spectrum pair: ``|k|^2`` is even in ``k``, so the
    result stays real and is the real part of the complex path's.
    """
    if np.isrealobj(X):
        c = cell.to_half_spectral(X)
        c *= 0.5 * cell.k2_half
        out = cell.from_half_spectral(c)
        if w is not None:
            out += w * X
        return out
    c = cell.to_spectral(X)
    c *= 0.5 * cell.k2_full
    out = cell.from_spectral(c)
    if w is not None:
        out += np.multiply(w, X, out=c)
    return out


#: a real vector field ``v`` as the entries ``(v_z, v_x + i v_y, v_x - i v_y)``
#: of the Hermitian 2x2 matrix ``sigma . v`` (see :func:`_sigma_dot`)
_Sigma = tuple[np.ndarray, np.ndarray, np.ndarray]


def _sigma_entries(v: np.ndarray | Axes) -> _Sigma:
    """The entries of ``sigma . v`` for the three components of ``v``, full (3, n, n, n) or the
    broadcast axes of :attr:`~magrhf.fields.Cell.k`; ``v_z`` is not copied."""
    plus = v[0] + 1j * v[1]
    return v[2], plus, plus.conj()


def _sigma_dot(s: _Sigma, x: np.ndarray, out: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Write ``(sigma . v) x`` into ``out`` and return it.

    ``s`` holds the entries of ``sigma . v = [[v_z, v_x - i v_y], [v_x + i v_y, -v_z]]``,
    which acts on the spin axis (-4) of ``x``.  ``buf`` has the shape of
    one spin component and is overwritten, so nothing is allocated.
    """
    vz, plus, minus = s
    up, dn = x[..., 0, :, :, :], x[..., 1, :, :, :]
    out_up, out_dn = out[..., 0, :, :, :], out[..., 1, :, :, :]
    np.multiply(vz, up, out=out_up)
    out_up += np.multiply(minus, dn, out=buf)
    np.multiply(plus, up, out=out_dn)
    out_dn -= np.multiply(vz, dn, out=buf)
    return out


def _add_nyquist(cell: Cell, c: np.ndarray, out: np.ndarray, scale: float) -> None:
    """Add ``scale (k2_full - k2) c`` to the series ``out``.

    ``cell.k`` is zeroed on the Nyquist planes, so ``(sigma . k)^2 = k2``
    misses ``(pi / spacing)^2`` for every axis on which a mode sits at
    the Nyquist index; only those planes are touched.
    """
    k2_nyquist = scale * (np.pi / cell.spacing) ** 2
    for axis in range(3):
        plane = (Ellipsis, cell.n // 2) + (slice(None),) * (2 - axis)
        out[plane] += k2_nyquist * c[plane]


def _half_square(cell: Cell, X: np.ndarray, k: _Sigma, a: _Sigma, v: np.ndarray | None) -> np.ndarray:
    """``(1/2) D^2 X + v X`` with ``D = sigma . (p + A)``, for ``X`` of shape (..., 2, n, n, n).

    ``k`` and ``a`` are the entries of ``sigma . k`` and ``sigma . A``
    scaled by ``1/sqrt(2)``, so ``D/sqrt(2)`` is applied twice: each
    time one forward transform, ``sigma . k`` in Fourier space, one
    inverse transform and ``sigma . A`` on the grid.  That is 4
    transforms per component.  The Nyquist term joins the second series,
    so A = 0 gives ``(1/2) k2_full`` exactly as the A = 0 kernel does.
    """
    c = cell.to_spectral(X)
    s, buf = np.empty_like(c), np.empty_like(c[..., 0, :, :, :])
    phi = cell.from_spectral(_sigma_dot(k, c, s, buf))
    phi += _sigma_dot(a, X, s, buf)
    _sigma_dot(k, cell.to_spectral(phi), s, buf)
    _add_nyquist(cell, c, s, 0.5)
    out = cell.from_spectral(s)
    out += _sigma_dot(a, phi, s, buf)
    if v is not None:
        out += np.multiply(v, X, out=s)
    return out


def make_hamiltonian(cell: Cell, v_eff: ScalarField | None, A: MagneticPotential | None):
    """Return a batched apply for H = (1/2)[sigma.(p+A)]^2 + v_eff.

    The callable maps arrays of shape (m, 2, n, n, n) to arrays of the
    same shape.  With A != 0 it applies the root ``sigma . (p + A)``
    twice, at 4 transforms per spinor component; with A = 0 it applies
    ``(1/2) p^2`` at 2 per component, to any number of components.  The
    A = 0 apply keeps the dtype of its rows: the real scalar rows
    (m, 1, n, n, n) of the SCF's spin-block solve go through the
    half-spectrum pair (:meth:`~magrhf.fields.Cell.to_half_spectral`),
    complex rows through the full transforms.  The pointwise data is
    built once, here.
    """
    a = _vector_potential(cell, A)
    v = None if v_eff is None else v_eff.values
    if a is None:
        return lambda X: _kinetic(cell, X, v)
    k, a = _sigma_entries([np.sqrt(0.5) * k_i for k_i in cell.k]), _sigma_entries(np.sqrt(0.5) * a)
    return lambda X: _half_square(cell, X, k, a, v)


def apply_magnetic_laplacian(psi: SpinorField, A: MagneticPotential | None) -> SpinorField:
    """Apply the spin-free ``(p + A)^2 = sum_i (p_i + A_i)^2`` to one spinor, plus the Nyquist term.

    Each ``u_i = F^-1(k_i c) + A_i psi`` (``c`` the series of ``psi``) and
    its ``k_i F(u_i)`` cost one transform each; their sum and
    ``(k2_full - k2) c`` go back in one more, and ``sum_i A_i u_i`` is
    added on the grid: 8 transforms per component, 2 at A = 0.  Its
    trace over a state is :func:`magrhf.density.kinetic_laplacian_trace`.
    """
    cell = psi.cell
    a = _vector_potential(cell, A)
    if a is None:
        return SpinorField(cell, 2.0 * _kinetic(cell, psi.values, None))
    c = cell.to_spectral(psi.values)
    s = np.zeros_like(c)
    _add_nyquist(cell, c, s, 1.0)
    out = np.zeros_like(c)
    for k_i, a_i in zip(cell.k, a):
        u = cell.from_spectral(k_i * c)
        u += a_i * psi.values
        s += k_i * cell.to_spectral(u)
        out += a_i * u
    out += cell.from_spectral(s)
    return SpinorField(cell, out)


def apply_sigma_kinetic_root(psi: SpinorField, A: MagneticPotential | None) -> SpinorField:
    """Apply the first-order operator ``D = sigma . (p + A)`` to a spinor.

    One forward transform, ``sigma . k`` in Fourier space and one
    inverse transform give ``sigma . p psi``; ``sigma . A psi`` is added
    on the grid.  That is 4 transforms per spinor.
    """
    cell = psi.cell
    a = _vector_potential(cell, A)
    c = cell.to_spectral(psi.values)
    s, buf = np.empty_like(c), np.empty_like(c[0])
    out = cell.from_spectral(_sigma_dot(_sigma_entries(cell.k), c, s, buf))
    del c  # frees the room the sigma . A entries take, so the peak stays at 3.5 spinors
    if a is not None:
        out += _sigma_dot(_sigma_entries(a), psi.values, s, buf)
    return SpinorField(cell, out)


def apply_pauli_kinetic(psi: SpinorField, A: MagneticPotential | None) -> SpinorField:
    """Apply the Pauli kinetic operator ``(1/2) [sigma . (p + A)]^2``.

    The single-spinor form of :func:`make_hamiltonian`: 8 transforms
    with A != 0 and 4 with A = 0, that is 4 and 2 per spin component.
    """
    return SpinorField(psi.cell, make_hamiltonian(psi.cell, None, A)(psi.values))


def _nuclear_spectral(spec: SystemSpec, s_nuc: float) -> np.ndarray:
    """Half-spectrum coefficients of the (regularised) nuclear charge density."""
    cell = spec.cell
    k = cell.k_half
    coeffs = sum(nuc.z * np.exp(-1j * (k[0] * nuc.R[0] + k[1] * nuc.R[1] + k[2] * nuc.R[2])) for nuc in spec.nuclei)
    coeffs /= cell.volume
    if s_nuc > 0.0:
        coeffs = coeffs * np.exp(-0.5 * (k[0] ** 2 + k[1] ** 2 + k[2] ** 2) * s_nuc**2)
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
    v = -4.0 * np.pi * rho_nuc * cell.inv_k2_half
    return ScalarField(cell, cell.from_half_spectral(v))


def green_function_GR(cell: Cell) -> ScalarField:
    """Green's function of the periodic Laplacian on the grid.

    Tabulates ``G(x) = (4 pi / |cell|) sum_{k != 0} exp(i k . x) / |k|^2``,
    the mean-zero solution of ``-lap G = 4 pi (delta-comb - 1/|cell|)``.
    Its series coefficients scaled by the cell volume are exactly
    ``4 pi / |k|^2``.
    """
    return ScalarField(cell, cell.from_half_spectral(4.0 * np.pi * cell.inv_k2_half / cell.volume))


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
