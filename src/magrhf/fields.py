"""Spectral field toolbox on a periodic cubic cell.

Everything downstream (Hamiltonians, SCF, Coulomb objects) is built on
the representations defined here: real-space samples on an ``n**3``
grid, with derivatives and inverse Laplacians applied as multiplications
in Fourier space.  The spectral convention is

    f(x) = sum_k  c_k exp(i k . x),        k in (2 pi / L) Z^3,

truncated to the grid, so ``c_k = fftn(f) / n**3``.  The ``k = 0`` mode
is the cell mean and is individually addressable (index ``[0, 0, 0]``).

Real fields take the half spectrum ``m_z >= 0`` (:meth:`Cell.to_half_spectral`,
:attr:`Cell.k_half`, the Parseval rule :meth:`Cell.half_sum`); only
:class:`Cell` knows its layout.  The full pair serves complex data: spinors
and the grid transfer :func:`restrict`/:func:`prolong`.

The wave vectors, coordinates and displacements of a :class:`Cell` vary
along one axis each, so they are kept as three 1-D axes that broadcast
against (..., n, n, n) arrays; no dense (3, n, n, n) table is built.

Fields are immutable values: the sample arrays are frozen after
construction and every operation returns a new field, so instances are
safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import numpy.fft  # numpy loads it on first use: here that is at import, not inside a solve

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

#: a table that varies along one grid axis per entry: shapes (n, 1, 1), (1, n, 1), (1, 1, n)
Axes = tuple[np.ndarray, np.ndarray, np.ndarray]


class CellMismatchError(ValueError):
    """Raised when an operation mixes fields living on different cells."""


@dataclass(frozen=True)
class Cell:
    """Cubic periodic cell with edge ``L`` (bohr) and ``n`` points per axis.

    ``n`` must be even and at least 4 so that every axis carries a full
    set of symmetric modes plus the Nyquist plane.  The wave vectors
    :attr:`k`, the coordinates :attr:`coords` and :meth:`displacements`
    are separable: each is a tuple of three 1-D axes with shapes
    (n, 1, 1), (1, n, 1) and (1, 1, n).  The moduli :attr:`k2`,
    :attr:`k2_full` and :attr:`inv_k2` are full (n, n, n) tables.  The
    half spectrum of real fields has its own: :attr:`k_half` (the z axis
    cut to ``m_z >= 0``), :attr:`k2_half`, :attr:`inv_k2_half` and
    :attr:`inv_k2_deriv`, and :meth:`half_sum` is its Parseval rule.  The
    cached tables are built on first read and kept read-only.
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
    def k(self) -> Axes:
        """Derivative wave vectors as three broadcast axes, fftfreq layout.

        ``k[i]`` holds the wave numbers of axis ``i`` along that axis only,
        with shape (n, 1, 1), (1, n, 1) or (1, 1, n), so ``k[i] * c``
        broadcasts over a grid array without an (n, n, n) table.  The
        Nyquist entry is zeroed: with an even grid the Nyquist mode has
        no signed partner, so odd multipliers built from it would break
        the Hermitian symmetry of real fields.  All first-order spectral
        derivatives share these vectors, which keeps the vector
        identities exact mode by mode.
        """
        k1 = self._wave_numbers()
        k1[self.n // 2] = 0.0
        return self._axes(k1)

    @cached_property
    def k_half(self) -> Axes:
        """:attr:`k` on the half spectrum: the z axis keeps ``m_z >= 0``, shape (1, 1, n//2 + 1)."""
        kx, ky, kz = self.k
        return kx, ky, kz[..., : self.n // 2 + 1]

    @cached_property
    def k2(self) -> np.ndarray:
        """|k|^2 of the derivative vectors (Nyquist-zeroed), for p^2, shape (n, n, n)."""
        kx, ky, kz = self.k
        k2 = kx**2 + ky**2 + kz**2
        k2.setflags(write=False)
        return k2

    @cached_property
    def k2_full(self) -> np.ndarray:
        """True |k|^2 of every grid mode, Nyquist included, shape (n, n, n)."""
        kx, ky, kz = self._axes(self._wave_numbers())
        k2 = kx**2 + ky**2 + kz**2
        k2.setflags(write=False)
        return k2

    @cached_property
    def k2_half(self) -> np.ndarray:
        """:attr:`k2_full` on the half spectrum of :meth:`to_half_spectral`, shape (n, n, n//2 + 1)."""
        k2 = np.ascontiguousarray(self.k2_full[..., : self.n // 2 + 1])
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
    def inv_k2_half(self) -> np.ndarray:
        """:attr:`inv_k2` on the half spectrum of :meth:`to_half_spectral`, shape (n, n, n//2 + 1)."""
        inv = np.ascontiguousarray(self.inv_k2[..., : self.n // 2 + 1])
        inv.setflags(write=False)
        return inv

    @cached_property
    def inv_k2_deriv(self) -> np.ndarray:
        """1/|k|^2 of the derivative vectors on the half spectrum, zero where they vanish, shape (n, n, n//2 + 1).

        Pairs with :attr:`k_half` in the Helmholtz projector
        (:func:`transverse_spectral`) so that derivative identities stay
        exact mode by mode.
        """
        k2 = self.k2[..., : self.n // 2 + 1]
        with np.errstate(divide="ignore"):
            inv = np.where(k2 > 0.0, 1.0 / np.where(k2 > 0, k2, 1.0), 0.0)
        inv.setflags(write=False)
        return inv

    @cached_property
    def coords(self) -> Axes:
        """Grid coordinates in [0, L) as three broadcast axes, like :attr:`k`."""
        return self._axes(self.spacing * np.arange(self.n))

    def displacements(self, center: np.ndarray | tuple[float, float, float]) -> Axes:
        """Minimum-image displacement x - center, componentwise in [-L/2, L/2), as broadcast axes."""
        c = np.asarray(center, dtype=float)
        return tuple((x - c_i + 0.5 * self.L) % self.L - 0.5 * self.L for x, c_i in zip(self.coords, c))

    def _wave_numbers(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.spacing)

    @staticmethod
    def _axes(v: np.ndarray) -> Axes:
        """The 1-D table ``v`` laid along each grid axis, shapes (n, 1, 1), (1, n, 1), (1, 1, n)."""
        v.setflags(write=False)  # and so its views
        return tuple(v.reshape([-1 if i == axis else 1 for i in range(3)]) for axis in range(3))

    # Each transform is three 1-D passes.  The first writes a new array and the
    # complex passes after it run in place there, so the caller's array is never
    # written and no pass allocates per axis as np.fft.fftn does (the last pass
    # of from_half_spectral writes its real output).

    def to_spectral(self, values: np.ndarray) -> np.ndarray:
        """Series coefficients ``fftn(values) / n**3`` over the last three axes."""
        c = np.fft.fft(values, axis=-1, norm="forward")
        np.fft.fft(c, axis=-2, norm="forward", out=c)
        return np.fft.fft(c, axis=-3, norm="forward", out=c)

    def from_spectral(self, coeffs: np.ndarray) -> np.ndarray:
        """Samples of the series with coefficients ``coeffs`` (the inverse of :meth:`to_spectral`)."""
        f = np.fft.ifft(coeffs, axis=-3, norm="forward")
        np.fft.ifft(f, axis=-2, norm="forward", out=f)
        return np.fft.ifft(f, axis=-1, norm="forward", out=f)

    def to_half_spectral(self, values: np.ndarray) -> np.ndarray:
        """The coefficients of :meth:`to_spectral` with ``m_z >= 0`` (Nyquist included), for real ``values``.

        Real samples have Hermitian coefficients, ``c_{-k} = conj(c_k)``, so
        this half determines the rest; it costs about half a full transform.
        """
        c = np.fft.rfft(values, axis=-1, norm="forward")
        np.fft.fft(c, axis=-2, norm="forward", out=c)
        return np.fft.fft(c, axis=-3, norm="forward", out=c)

    def from_half_spectral(self, coeffs: np.ndarray) -> np.ndarray:
        """Real samples of the Hermitian series whose half spectrum is ``coeffs`` (the inverse of
        :meth:`to_half_spectral`)."""
        f = np.fft.ifft(coeffs, axis=-3, norm="forward")
        np.fft.ifft(f, axis=-2, norm="forward", out=f)
        return np.fft.irfft(f, n=self.n, axis=-1, norm="forward")

    def half_sum(self, p: np.ndarray) -> np.ndarray:
        """Full-spectrum sum over the last three axes of a table ``p`` even in ``k``, given on the half spectrum.

        The Parseval rule of :meth:`to_half_spectral`: a mode with ``0 < m_z < n/2`` also stands for ``-k``.
        """
        return 2.0 * p.sum(axis=(-3, -2, -1)) - p[..., 0].sum(axis=(-2, -1)) - p[..., -1].sum(axis=(-2, -1))


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


def _gram(cell: Cell, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Gram matrix ``dV conj(A) B^T`` of two row blocks, shapes (ma|mb, N).

    Real rows take one matrix product.  Complex rows go through
    ``np.vecdot``, which conjugates ``A`` inside its inner product, so no
    conjugated copy of a block is made.
    """
    g = np.vecdot(A[:, None], B[None]) if np.iscomplexobj(A) or np.iscomplexobj(B) else A @ B.T
    g *= cell.dV
    return g


def gradient(f: ScalarField) -> VectorField:
    """Spectral gradient of a scalar field."""
    cell = f.cell
    c = cell.to_half_spectral(f.values)
    return VectorField(cell, cell.from_half_spectral(np.stack([1j * k_i * c for k_i in cell.k_half])))


def divergence(v: VectorField) -> ScalarField:
    """Spectral divergence of a vector field."""
    cell = v.cell
    c = cell.to_half_spectral(v.values)
    k = cell.k_half
    return ScalarField(cell, cell.from_half_spectral(1j * k[0] * c[0] + 1j * k[1] * c[1] + 1j * k[2] * c[2]))


def curl(v: VectorField) -> VectorField:
    """Spectral curl of a vector field."""
    cell = v.cell
    c = cell.to_half_spectral(v.values)
    k = cell.k_half
    out = np.empty_like(c)
    out[0] = 1j * (k[1] * c[2] - k[2] * c[1])
    out[1] = 1j * (k[2] * c[0] - k[0] * c[2])
    out[2] = 1j * (k[0] * c[1] - k[1] * c[0])
    return VectorField(cell, cell.from_half_spectral(out))


def transverse_spectral(cell: Cell, c: np.ndarray) -> np.ndarray:
    """``c_k - k (k . c_k) / |k|^2`` for the (3, n, n, n//2 + 1) half spectrum ``c`` of a real vector field."""
    k = cell.k_half
    t = (k[0] * c[0] + k[1] * c[1] + k[2] * c[2]) * cell.inv_k2_deriv
    return np.stack([c_i - k_i * t for k_i, c_i in zip(k, c)])


def helmholtz_project(v: VectorField, *, zero_mean: bool = False) -> VectorField:
    """Project onto the divergence-free (Coulomb gauge) subspace.

    Mode by mode this removes the longitudinal part,
    ``v_k - k (k . v_k) / |k|^2``.  The ``k = 0`` component has no
    longitudinal part and is kept, unless ``zero_mean`` is set, in which
    case the mean is removed as well (the periodic gauge choice where
    the cell average of the vector potential vanishes).
    """
    cell = v.cell
    c = transverse_spectral(cell, cell.to_half_spectral(v.values))
    if zero_mean:
        c[:, 0, 0, 0] = 0.0
    return VectorField(cell, cell.from_half_spectral(c))


def poisson_potential(rho: ScalarField) -> ScalarField:
    """Coulomb potential of a periodic density with neutralizing background.

    Returns phi with ``phi_k = 4 pi rho_k / |k|^2`` for ``k != 0`` and a
    vanishing mean, i.e. the solution of ``-lap phi = 4 pi (rho - mean rho)``.
    """
    cell = rho.cell
    c = cell.to_half_spectral(rho.values)
    c *= 4.0 * np.pi * cell.inv_k2_half
    return ScalarField(cell, cell.from_half_spectral(c))


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
