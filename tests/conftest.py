"""Shared fixtures and independent oracle helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import erfc

from magrhf.fields import Cell, ScalarField, SpinorField, VectorField
from magrhf.hamiltonian import Nucleus, SystemSpec
from magrhf.scf import SCFConfig, scf_solve
from magrhf.tfbound import RadialGrid, tf_minimize
from magrhf.zeromodes import loss_yau


# --------------------------------------------------------------------------
# random band-limited fields: spectra restricted to |k_i| <= kfrac * kmax so
# that pointwise products remain representable on the grid (no aliasing)
# --------------------------------------------------------------------------


def _bandlimited_coeffs(cell: Cell, rng: np.ndarray, kfrac: float, shape=()) -> np.ndarray:
    n = cell.n
    c = rng.standard_normal(shape + (n,) * 3) + 1j * rng.standard_normal(shape + (n,) * 3)
    idx = np.fft.fftfreq(n) * n
    keep1 = np.abs(idx) <= kfrac * (n // 2)
    mask = keep1[:, None, None] & keep1[None, :, None] & keep1[None, None, :]
    return c * mask


def dense(axes) -> np.ndarray:
    """A grid table kept as three broadcast axes (``Cell.k``, ``Cell.coords``,
    ``Cell.displacements``) spread to one dense (3, n, n, n) array."""
    return np.array(np.broadcast_arrays(*axes))


def meshgrid_k(cell: Cell) -> np.ndarray:
    """Reference (3, n, n, n) derivative wave vectors, Nyquist entry zeroed, from ``np.meshgrid``."""
    k1 = 2.0 * np.pi * np.fft.fftfreq(cell.n, d=cell.spacing)
    k1[cell.n // 2] = 0.0
    return np.stack(np.meshgrid(k1, k1, k1, indexing="ij"))


def meshgrid_displacements(cell: Cell, center) -> np.ndarray:
    """Reference (3, n, n, n) minimum-image displacements from ``np.meshgrid`` coordinates."""
    x1 = cell.spacing * np.arange(cell.n)
    x = np.stack(np.meshgrid(x1, x1, x1, indexing="ij"))
    c = np.asarray(center, dtype=float).reshape(3, 1, 1, 1)
    return (x - c + 0.5 * cell.L) % cell.L - 0.5 * cell.L


@pytest.fixture
def transform_rows(monkeypatch) -> dict:
    """Patch the four 3-D transforms of ``Cell`` (full and half spectrum) to add the rows of
    each call, its scalar transforms, to ``rows[name]``; returns ``rows``."""
    rows: dict[str, int] = {}
    for name in ("to_spectral", "from_spectral", "to_half_spectral", "from_half_spectral"):
        original = getattr(Cell, name)

        def counted(self, values, _name=name, _original=original):
            rows[_name] = rows.get(_name, 0) + int(np.prod(values.shape[:-3]))
            return _original(self, values)

        monkeypatch.setattr(Cell, name, counted)
    return rows


def bandlimited_scalar(cell: Cell, rng, kfrac: float = 0.25) -> ScalarField:
    c = _bandlimited_coeffs(cell, rng, kfrac)
    return ScalarField(cell, cell.from_spectral(c).real)


def bandlimited_vector(cell: Cell, rng, kfrac: float = 0.25) -> VectorField:
    c = _bandlimited_coeffs(cell, rng, kfrac, shape=(3,))
    return VectorField(cell, cell.from_spectral(c).real)


def bandlimited_spinor(cell: Cell, rng, kfrac: float = 0.25) -> SpinorField:
    c = _bandlimited_coeffs(cell, rng, kfrac, shape=(2,))
    return SpinorField(cell, cell.from_spectral(c))


# --------------------------------------------------------------------------
# Ewald oracle: the periodic point-charge potential (with neutralizing
# background) near the origin behaves as 1/r + xi_L + 2 pi r^2 / (3 L^3);
# xi_L is the simple-cubic Wigner constant divided by L.
# --------------------------------------------------------------------------


def wigner_constant(L: float, eta: float | None = None, shells: int = 8) -> float:
    """xi_L = lim_{x->0} (v_per(x) - 1/|x|) by Ewald summation."""
    eta = eta if eta is not None else 6.0 / L
    xi = -2.0 * eta / math.sqrt(math.pi) - math.pi / (eta**2 * L**3)
    rng = range(-shells, shells + 1)
    for i in rng:
        for j in rng:
            for k in rng:
                if i == j == k == 0:
                    continue
                r = L * math.sqrt(i * i + j * j + k * k)
                xi += erfc(eta * r) / r
    for i in rng:
        for j in rng:
            for k in rng:
                if i == j == k == 0:
                    continue
                k2 = (2.0 * math.pi / L) ** 2 * (i * i + j * j + k * k)
                xi += (4.0 * math.pi / L**3) * math.exp(-k2 / (4.0 * eta**2)) / k2
    return xi


def radial_quadrature_gaussian_potential_at_center(s: float) -> float:
    """phi(0) of a unit Gaussian of width s by adaptive radial quadrature."""
    from scipy.integrate import quad

    rho = lambda r: math.exp(-0.5 * (r / s) ** 2) / (2.0 * math.pi * s * s) ** 1.5
    val, _ = quad(lambda r: 4.0 * math.pi * r * rho(r), 0.0, np.inf, epsabs=1e-13, epsrel=1e-12)
    return val


# --------------------------------------------------------------------------
# session-scoped heavy states shared between module tests and acceptance
# --------------------------------------------------------------------------


@pytest.fixture(scope="session")
def family():
    return loss_yau((0.0, 0.0, 1.0))


@pytest.fixture(scope="session")
def criterion6_molecular():
    """Converged molecular z = N = 1 run at alpha = 0.02."""
    cell = Cell(16.0, 40)
    spec = SystemSpec(cell, (Nucleus(1.0, (8.0, 8.0, 8.0)),), N=1.0, alpha=0.02)
    state = scf_solve(spec, SCFConfig(tol=1e-7, max_iter=60, seed=0))
    return spec, state


@pytest.fixture(scope="session")
def criterion6_periodic():
    """Converged periodic neutral z = N = 1 run at alpha = 0.02."""
    cell = Cell(14.0, 36)
    spec = SystemSpec(cell, (Nucleus(1.0, (7.0, 7.0, 7.0)),), N=1.0, alpha=0.02, mode="periodic")
    state = scf_solve(spec, SCFConfig(tol=1e-7, max_iter=60, seed=0))
    return spec, state


@pytest.fixture(scope="session")
def tf_default():
    return tf_minimize(RadialGrid(), tol=1e-7)
