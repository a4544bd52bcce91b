"""Spectral field representations, differential operators, projection,
and the Poisson solver."""

import numpy as np
import pytest
from conftest import (
    bandlimited_scalar,
    bandlimited_spinor,
    bandlimited_vector,
    radial_quadrature_gaussian_potential_at_center,
    wigner_constant,
)
from numpy.testing import assert_allclose

from magrhf.fields import (
    Cell,
    CellMismatchError,
    ScalarField,
    SpinorField,
    VectorField,
    curl,
    divergence,
    gradient,
    helmholtz_project,
    inner,
    poisson_potential,
    prolong,
    restrict,
)

CELL = Cell(10.0, 24)


def test_cell_validation():
    with pytest.raises(ValueError):
        Cell(10.0, 3)
    with pytest.raises(ValueError):
        Cell(10.0, 10 + 1)
    with pytest.raises(ValueError):
        Cell(-1.0, 8)
    assert Cell(10.0, 24).volume == 1000.0


def test_zero_mode_is_addressable():
    f = ScalarField(CELL, np.full((24,) * 3, 3.7))
    c = f.spectral()
    assert abs(c[0, 0, 0] - 3.7) < 1e-14
    assert np.abs(np.delete(c.ravel(), 0)).max() < 1e-13


def test_spectral_roundtrip_and_parseval():
    rng = np.random.default_rng(0)
    for make, comp in [
        (lambda v: ScalarField(CELL, v.real), 1),
        (lambda v: VectorField(CELL, np.broadcast_to(v.real, (3,) + v.shape).copy()), 3),
    ]:
        v = rng.standard_normal((24,) * 3) + 0j
        f = make(v)
        back = CELL.from_spectral(f.spectral())
        assert np.abs(back.real - f.values).max() < 1e-12 * np.abs(f.values).max()
    psi = SpinorField(CELL, rng.standard_normal((2,) + (24,) * 3) + 1j * rng.standard_normal((2,) + (24,) * 3))
    back = CELL.from_spectral(psi.spectral())
    assert np.abs(back - psi.values).max() < 1e-12 * np.abs(psi.values).max()
    # Parseval: grid inner product equals the spectral one
    c = psi.spectral()
    spectral_norm2 = float(np.sum(np.abs(c) ** 2)) * CELL.volume
    assert abs(spectral_norm2 - psi.norm() ** 2) < 1e-12 * spectral_norm2


def test_cell_mismatch_raises():
    other = Cell(10.0, 16)
    f = ScalarField(CELL, np.zeros((24,) * 3))
    g = ScalarField(other, np.zeros((16,) * 3))
    with pytest.raises(CellMismatchError):
        inner(f, g)


def test_curl_gradient_is_zero():
    x = CELL.coords
    f = ScalarField(CELL, np.cos(2 * np.pi * x[0] / CELL.L))
    cg = curl(gradient(f))
    assert np.abs(cg.values).max() == 0.0


def test_divergence_of_curl_vanishes():
    rng = np.random.default_rng(1)
    v = VectorField(CELL, rng.standard_normal((3,) + (24,) * 3))
    dc = divergence(curl(v))
    assert np.abs(dc.values).max() < 1e-12


def test_curl_single_mode_hand_value():
    # v = (sin(2 pi y / L), 0, 0):  curl v = (0, 0, -(2 pi / L) cos(2 pi y / L))
    x = CELL.coords
    k = 2 * np.pi / CELL.L
    vals = np.zeros((3,) + (24,) * 3)
    vals[0] = np.sin(k * x[1])
    c = curl(VectorField(CELL, vals))
    assert np.abs(c.values[0]).max() < 1e-13
    assert np.abs(c.values[1]).max() < 1e-13
    assert_allclose(c.values[2], -k * np.cos(k * x[1]), atol=1e-13)


def test_helmholtz_kills_gradients_and_keeps_solenoidal():
    x = CELL.coords
    g = gradient(ScalarField(CELL, np.cos(2 * np.pi * x[0] / CELL.L)))
    assert np.abs(helmholtz_project(g).values).max() < 1e-13
    vals = np.zeros((3,) + (24,) * 3)
    vals[0] = np.sin(2 * np.pi * x[1] / CELL.L)
    v = VectorField(CELL, vals)
    assert np.abs(helmholtz_project(v).values - v.values).max() < 1e-13


def test_helmholtz_projection_properties():
    rng = np.random.default_rng(2)
    v = VectorField(CELL, rng.standard_normal((3,) + (24,) * 3))
    p = helmholtz_project(v)
    # divergence-free to 1e-12 and idempotent mode by mode
    assert divergence(p).norm() < 1e-12 * v.norm()
    again = helmholtz_project(p)
    assert np.abs(again.values - p.values).max() < 1e-13
    # orthogonality of the gradient and solenoidal parts
    longitudinal = VectorField(CELL, v.values - p.values)
    assert abs(inner(longitudinal, p)) < 1e-12 * v.norm() ** 2
    # per-mode oracle: v_k - k (k . v_k)/|k|^2 on the derivative vectors
    c = v.spectral()
    k = CELL.k
    k2 = np.sum(k * k, axis=0)
    invk2 = np.where(k2 > 0, 1.0 / np.where(k2 > 0, k2, 1.0), 0.0)
    oracle = c - k * (np.sum(k * c, axis=0) * invk2)[None]
    assert np.abs(p.spectral() - oracle).max() < 1e-13


def test_helmholtz_mean_handling():
    rng = np.random.default_rng(3)
    v = VectorField(CELL, rng.standard_normal((3,) + (24,) * 3) + np.array([1.0, -2.0, 0.5]).reshape(3, 1, 1, 1))
    mean_in = v.values.reshape(3, -1).mean(axis=1)
    p = helmholtz_project(v)
    assert_allclose(p.values.reshape(3, -1).mean(axis=1), mean_in, atol=1e-13)
    pz = helmholtz_project(v, zero_mean=True)
    assert np.abs(pz.values.reshape(3, -1).mean(axis=1)).max() < 1e-15


def test_poisson_single_mode_kernel():
    # rho = cos(k.x) with |k| = 2 pi / L  ->  phi = (4 pi / |k|^2) cos(k.x)
    x = CELL.coords
    k = 2 * np.pi / CELL.L
    rho = ScalarField(CELL, np.cos(k * x[0]))
    phi = poisson_potential(rho)
    assert_allclose(phi.values, 4 * np.pi / k**2 * rho.values, atol=1e-12)


def test_poisson_uniform_density_is_zero():
    rho = ScalarField(CELL, np.full((24,) * 3, 2.5))
    assert np.abs(poisson_potential(rho).values).max() < 1e-12


def test_poisson_solves_the_equation():
    rng = np.random.default_rng(4)
    rho = bandlimited_vector(CELL, rng, 0.3)  # use one component as a smooth density
    rho = ScalarField(CELL, rho.values[0])
    phi = poisson_potential(rho)
    lap = divergence(gradient(phi))
    target = 4 * np.pi * (rho.values - rho.values.mean())
    assert np.abs(-lap.values - target).max() < 1e-10 * np.abs(target).max()


def test_poisson_selfadjoint_and_positive():
    rng = np.random.default_rng(5)
    r1 = ScalarField(CELL, rng.standard_normal((24,) * 3))
    r2 = ScalarField(CELL, rng.standard_normal((24,) * 3))
    a = inner(r1, poisson_potential(r2))
    b = inner(poisson_potential(r1), r2)
    assert abs(a - b) < 1e-10 * max(abs(a), 1.0)
    assert inner(r1, poisson_potential(r1)) >= 0.0


def test_poisson_gaussian_against_radial_quadrature():
    # periodic box: the image/background correction xi_L + 2 pi s^2 / L^3
    # (independent Ewald oracle) is added to the free-space quadrature value
    L, n, s = 40.0, 96, 2.0
    cell = Cell(L, n)
    d = cell.displacements((L / 2,) * 3)
    r2 = np.sum(d * d, axis=0)
    rho_vals = np.exp(-0.5 * r2 / s**2) / (2 * np.pi * s**2) ** 1.5
    rho = ScalarField(cell, rho_vals)
    phi = poisson_potential(rho)
    center = (n // 2,) * 3
    free = radial_quadrature_gaussian_potential_at_center(s)
    assert abs(free - np.sqrt(2 / np.pi) / s) < 1e-10
    oracle = free + wigner_constant(L) + 2 * np.pi * s**2 / L**3
    assert abs(phi.values[center] - oracle) < 1e-3 * abs(oracle)


def test_wigner_constant_scaling():
    # the Ewald helper must scale as 1/L and match the simple-cubic value
    x1 = wigner_constant(1.0)
    x2 = wigner_constant(17.0)
    assert abs(x2 * 17.0 - x1) < 1e-10
    assert abs(x1 - (-2.8372974794806)) < 1e-9


def test_fields_are_immutable():
    f = ScalarField(CELL, np.zeros((24,) * 3))
    with pytest.raises(ValueError):
        f.values[0, 0, 0] = 1.0


# ------------------------------------------------------------- grid transfer

COARSE = Cell(10.0, 12)


def test_prolong_then_restrict_returns_bandlimited_data():
    # modes below the coarse Nyquist plane survive the round trip exactly;
    # on every second fine point the zero-padded series equals its samples
    rng = np.random.default_rng(0)
    X = np.stack([bandlimited_spinor(COARSE, rng, kfrac=0.9).values for _ in range(3)])
    fine = prolong(COARSE, X, CELL)
    assert fine.shape == (3, 2) + (CELL.n,) * 3
    assert np.abs(fine[..., ::2, ::2, ::2] - X).max() <= 1e-14 * np.abs(X).max()
    assert np.abs(restrict(CELL, fine, COARSE) - X).max() <= 1e-14 * np.abs(X).max()


def test_prolonged_orthonormal_block_stays_orthonormal():
    # the random block fills every coarse mode, its Nyquist planes included
    rng = np.random.default_rng(1)
    shape = (5, 2 * COARSE.n**3)
    q, _ = np.linalg.qr((rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).T)
    X = (q.T / np.sqrt(COARSE.dV)).reshape((5, 2) + (COARSE.n,) * 3)
    fine = prolong(COARSE, X, CELL).reshape(5, -1)
    gram = fine.conj() @ fine.T * CELL.dV
    assert np.abs(gram - np.eye(5)).max() <= 1e-12


@pytest.mark.parametrize("n", [24, 22])
def test_real_field_restricts_to_real_field(n):
    # white noise fills the fine Nyquist planes too; the coarse Nyquist
    # planes are zeroed so the kept mode set is symmetric
    fine = Cell(10.0, n)
    v = np.random.default_rng(2).standard_normal((fine.n,) * 3)
    out = restrict(fine, v, COARSE)
    assert np.abs(out.imag).max() <= 1e-14 * np.abs(out.real).max()
    # band-limited data restricts to its samples on the coarse points
    smooth = bandlimited_scalar(CELL, np.random.default_rng(3), kfrac=0.4).values
    assert np.abs(restrict(CELL, smooth, COARSE) - smooth[::2, ::2, ::2]).max() <= 1e-14 * np.abs(smooth).max()


def test_transfer_rejects_other_cells():
    with pytest.raises(CellMismatchError):
        restrict(COARSE, np.zeros((12,) * 3), CELL)
    with pytest.raises(CellMismatchError):
        prolong(COARSE, np.zeros((12,) * 3), Cell(9.0, 24))
