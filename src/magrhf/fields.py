"""Spectral field toolbox on a periodic cubic cell.

Everything downstream (Hamiltonians, SCF, Coulomb objects) is built on
the representations defined here: real-space samples on an ``n**3``
grid, with derivatives and inverse Laplacians applied as multiplications
in Fourier space.  The spectral convention is

    f(x) = sum_k  c_k exp(i k . x),        k in (2 pi / L) Z^3,

truncated to the grid, so ``c_k = fftn(f) / n**3``.  The ``k = 0`` mode
is the cell mean and is individually addressable (index ``[0, 0, 0]``).

Fields are immutable values: the sample arrays are frozen after
construction and every operation returns a new field, so instances are
safe to share across threads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft

__all__ = [
    "Cell",
    "ScalarField",
    "VectorField",
    "SpinorField",
    "CellMismatchError",
    "gradient",
    "divergence",
    "curl",
    "helmholtz_project",
    "transverse_spectral",
    "poisson_potential",
    "inner",
    "restrict",
    "prolong",
]

# MAGRHF_THREADS caps the worker pool handed to the FFT backend.
_FFT_WORKERS = max(1, int(os.environ.get("MAGRHF_THREADS", "1")))


class CellMismatchError(ValueError):
    """Raised when an operation mixes fields living on different cells."""


@dataclass(frozen=True)
class Cell:
    """Cubic periodic cell with edge ``L`` (bohr) and ``n`` points per axis.

    ``n`` must be even and at least 4 so that every axis carries a full
    set of symmetric modes plus the Nyquist plane.
    """

    L: float
    n: int

    def __post_init__(self) -> None:
        if self.L <= 0:
            raise ValueError(f"cell edge must be positive, got L={self.L}")
        if self.n < 4 or self.n % 2:
            raise ValueError(f"grid must have even n >= 4 points, got n={self.n}")

    @property
    def volume(self) -> float:
        return self.L**3

    @property
    def spacing(self) -> float:
        return self.L / self.n

    @property
    def dV(self) -> float:
        return (self.L / self.n) ** 3

    @cached_property
    def k(self) -> np.ndarray:
        """Derivative wave vectors, shape (3, n, n, n), fftfreq layout.

        The Nyquist plane is zeroed: with an even grid the Nyquist mode
        has no signed partner, so odd multipliers built from it would
        break the Hermitian symmetry of real fields.  All first-order
        spectral derivatives share these vectors, which keeps the vector
        identities exact mode by mode.
        """
        k1 = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.spacing)
        k1[self.n // 2] = 0.0
        kx, ky, kz = np.meshgrid(k1, k1, k1, indexing="ij")
        k = np.stack([kx, ky, kz])
        k.setflags(write=False)
        return k

    @cached_property
    def k2(self) -> np.ndarray:
        """|k|^2 of the derivative vectors (Nyquist-zeroed), for p^2."""
        k2 = np.sum(self.k**2, axis=0)
        k2.setflags(write=False)
        return k2

    @cached_property
    def k2_full(self) -> np.ndarray:
        """True |k|^2 of every grid mode, Nyquist included."""
        k1 = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.spacing)
        kx, ky, kz = np.meshgrid(k1, k1, k1, indexing="ij")
        k2 = kx**2 + ky**2 + kz**2
        k2.setflags(write=False)
        return k2

    @cached_property
    def inv_k2(self) -> np.ndarray:
        """1/|k|^2 (true moduli) with the k = 0 entry set to zero.

        This is the Coulomb kernel used by the Poisson solver and the
        periodic Green's function, where every nonzero mode must carry
        exactly 4 pi / |k|^2.
        """
        k2 = self.k2_full
        with np.errstate(divide="ignore"):
            inv = np.where(k2 > 0.0, 1.0 / np.where(k2 > 0, k2, 1.0), 0.0)
        inv.setflags(write=False)
        return inv

    @cached_property
    def inv_k2_deriv(self) -> np.ndarray:
        """1/|k|^2 of the derivative vectors, zero where they vanish.

        Pairs with :attr:`k` in the Helmholtz projector and the vector
        field equation so that derivative identities stay exact mode by
        mode.
        """
        k2 = self.k2
        with np.errstate(divide="ignore"):
            inv = np.where(k2 > 0.0, 1.0 / np.where(k2 > 0, k2, 1.0), 0.0)
        inv.setflags(write=False)
        return inv

    @cached_property
    def coords(self) -> np.ndarray:
        """Grid coordinates in [0, L), shape (3, n, n, n)."""
        x1 = self.spacing * np.arange(self.n)
        xs = np.stack(np.meshgrid(x1, x1, x1, indexing="ij"))
        xs.setflags(write=False)
        return xs

    def displacements(self, center: np.ndarray | tuple[float, float, float]) -> np.ndarray:
        """Minimum-image displacement x - center, componentwise in [-L/2, L/2)."""
        c = np.asarray(center, dtype=float).reshape(3, 1, 1, 1)
        return (self.coords - c + 0.5 * self.L) % self.L - 0.5 * self.L

    def to_spectral(self, values: np.ndarray) -> np.ndarray:
        """Series coefficients ``fftn(values) / n**3`` over the last three axes."""
        return scipy.fft.fftn(values, axes=(-3, -2, -1), norm="forward", workers=_FFT_WORKERS)

    def from_spectral(self, coeffs: np.ndarray) -> np.ndarray:
        """Samples of the series with coefficients ``coeffs`` (the inverse of :meth:`to_spectral`)."""
        return scipy.fft.ifftn(coeffs, axes=(-3, -2, -1), norm="forward", workers=_FFT_WORKERS)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Real scalar samples on the grid, shape (n, n, n)."""

    cell: Cell
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.cell.n,) * 3:
            raise ValueError(f"scalar field shape {v.shape} does not match cell n={self.cell.n}")
        object.__setattr__(self, "values", _freeze(v))

    @classmethod
    def zeros(cls, cell: Cell) -> "ScalarField":
        return cls(cell, np.zeros((cell.n,) * 3))

    @classmethod
    def from_spectral(cls, cell: Cell, coeffs: np.ndarray) -> "ScalarField":
        return cls(cell, cell.from_spectral(coeffs).real)

    def spectral(self) -> np.ndarray:
        return self.cell.to_spectral(self.values)

    def integral(self) -> float:
        return float(self.values.sum() * self.cell.dV)

    def mean(self) -> float:
        return float(self.values.mean())

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.values**2) * self.cell.dV))


@dataclass(frozen=True, eq=False)
class VectorField:
    """Real three-component samples on the grid, shape (3, n, n, n)."""

    cell: Cell
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != (3,) + (self.cell.n,) * 3:
            raise ValueError(f"vector field shape {v.shape} does not match cell n={self.cell.n}")
        object.__setattr__(self, "values", _freeze(v))

    @classmethod
    def zeros(cls, cell: Cell) -> "VectorField":
        return cls(cell, np.zeros((3,) + (cell.n,) * 3))

    @classmethod
    def from_spectral(cls, cell: Cell, coeffs: np.ndarray) -> "VectorField":
        return cls(cell, cell.from_spectral(coeffs).real)

    def spectral(self) -> np.ndarray:
        return self.cell.to_spectral(self.values)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.values**2) * self.cell.dV))

    def square_integral(self) -> float:
        """int |v|^2 over the cell."""
        return float(np.sum(self.values**2) * self.cell.dV)


@dataclass(frozen=True, eq=False)
class SpinorField:
    """Two-component complex samples on the grid, shape (2, n, n, n)."""

    cell: Cell
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (2,) + (self.cell.n,) * 3:
            raise ValueError(f"spinor field shape {v.shape} does not match cell n={self.cell.n}")
        object.__setattr__(self, "values", _freeze(v))

    @classmethod
    def zeros(cls, cell: Cell) -> "SpinorField":
        return cls(cell, np.zeros((2,) + (cell.n,) * 3, dtype=complex))

    def spectral(self) -> np.ndarray:
        return self.cell.to_spectral(self.values)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.cell.dV))

    def normalized(self) -> "SpinorField":
        nrm = self.norm()
        if nrm == 0.0:
            raise ValueError("cannot normalize a zero spinor")
        return SpinorField(self.cell, self.values / nrm)


Field = ScalarField | VectorField | SpinorField


def _require_same_cell(*fields: Field) -> Cell:
    cell = fields[0].cell
    for f in fields[1:]:
        if f.cell != cell:
            raise CellMismatchError(f"fields live on different cells: {f.cell} vs {cell}")
    return cell


def inner(f: Field, g: Field) -> complex | float:
    """Grid inner product <f, g> = dV * sum conj(f) g, summed over components."""
    cell = _require_same_cell(f, g)
    val = np.sum(np.conjugate(f.values) * g.values) * cell.dV
    if isinstance(f, SpinorField) or isinstance(g, SpinorField):
        return complex(val)
    return float(val.real)


def gradient(f: ScalarField) -> VectorField:
    """Spectral gradient of a scalar field."""
    cell = f.cell
    c = f.spectral()
    grad = cell.from_spectral(1j * cell.k * c[None]).real
    return VectorField(cell, grad)


def divergence(v: VectorField) -> ScalarField:
    """Spectral divergence of a vector field."""
    cell = v.cell
    c = v.spectral()
    div = cell.from_spectral(np.sum(1j * cell.k * c, axis=0)).real
    return ScalarField(cell, div)


def curl(v: VectorField) -> VectorField:
    """Spectral curl of a vector field."""
    cell = v.cell
    c = v.spectral()
    k = cell.k
    out = np.empty_like(c)
    out[0] = 1j * (k[1] * c[2] - k[2] * c[1])
    out[1] = 1j * (k[2] * c[0] - k[0] * c[2])
    out[2] = 1j * (k[0] * c[1] - k[1] * c[0])
    return VectorField(cell, cell.from_spectral(out).real)


def transverse_spectral(cell: Cell, c: np.ndarray) -> np.ndarray:
    """``c_k - k (k . c_k) / |k|^2`` for the (3, n, n, n) spectral coefficients ``c``."""
    k = cell.k
    return c - k * (np.sum(k * c, axis=0) * cell.inv_k2_deriv)[None]


def helmholtz_project(v: VectorField, *, zero_mean: bool = False) -> VectorField:
    """Project onto the divergence-free (Coulomb gauge) subspace.

    Mode by mode this removes the longitudinal part,
    ``v_k - k (k . v_k) / |k|^2``.  The ``k = 0`` component has no
    longitudinal part and is kept, unless ``zero_mean`` is set, in which
    case the mean is removed as well (the periodic gauge choice where
    the cell average of the vector potential vanishes).
    """
    cell = v.cell
    c = transverse_spectral(cell, v.spectral())
    if zero_mean:
        c[:, 0, 0, 0] = 0.0
    return VectorField(cell, cell.from_spectral(c).real)


def poisson_potential(rho: ScalarField) -> ScalarField:
    """Coulomb potential of a periodic density with neutralizing background.

    Returns phi with ``phi_k = 4 pi rho_k / |k|^2`` for ``k != 0`` and a
    vanishing mean, i.e. the solution of ``-lap phi = 4 pi (rho - mean rho)``.
    """
    cell = rho.cell
    c = rho.spectral()
    phi = 4.0 * np.pi * c * cell.inv_k2
    return ScalarField(cell, cell.from_spectral(phi).real)


def _shared_modes(coarse: Cell, fine: Cell) -> tuple[np.ndarray, ...]:
    """Index of every coarse-grid mode in the fine grid's spectral array (fftfreq layout)."""
    if coarse.L != fine.L or coarse.n > fine.n:
        raise CellMismatchError(f"{coarse} is not a coarser grid of {fine}")
    j = np.arange(coarse.n)
    axis = np.where(j < coarse.n // 2, j, j + fine.n - coarse.n)
    return (Ellipsis,) + np.ix_(axis, axis, axis)


def restrict(cell: Cell, values: np.ndarray, coarse: Cell) -> np.ndarray:
    """Fourier truncation of samples ``(..., n, n, n)`` on ``cell`` to the coarser grid.

    The modes ``|m_i| < n_c / 2`` keep their coefficients and the coarse
    Nyquist planes are zeroed, so the kept set is symmetric and real
    samples restrict to real samples (up to roundoff in the returned
    complex array).
    """
    c = cell.to_spectral(values)[_shared_modes(coarse, cell)]
    h = coarse.n // 2
    c[..., h, :, :] = c[..., :, h, :] = c[..., :, :, h] = 0.0
    return coarse.from_spectral(c)


def prolong(cell: Cell, values: np.ndarray, fine: Cell) -> np.ndarray:
    """Zero-padding of samples ``(..., n_c, n_c, n_c)`` on ``cell`` to the finer grid.

    Every coarse mode keeps its coefficient, so grid inner products are
    preserved (Parseval) and an orthonormal block stays orthonormal.
    """
    c = np.zeros(values.shape[:-3] + (fine.n,) * 3, dtype=complex)
    c[_shared_modes(cell, fine)] = cell.to_spectral(values)
    return fine.from_spectral(c)
