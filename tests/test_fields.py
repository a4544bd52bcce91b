"""Spectral field representations, differential operators, projection,
and the Poisson solver."""

import numpy as np
import pytest
from conftest import (
    bandlimited_scalar,
    bandlimited_spinor,
    bandlimited_vector,
    dense,
    meshgrid_displacements,
    meshgrid_k,
    radial_quadrature_gaussian_potential_at_center,
    wigner_constant,
)
from numpy.testing import assert_allclose

from magrhf import scf
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
    transverse_spectral,
)
from magrhf.hamiltonian import MagneticPotential, Nucleus, SystemSpec, external_potential, green_function_GR
from magrhf.scf import update_vector_potential

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
    c = CELL.to_spectral(f.values)
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
        back = CELL.from_spectral(CELL.to_spectral(f.values))
        assert np.abs(back.real - f.values).max() < 1e-12 * np.abs(f.values).max()
    psi = SpinorField(CELL, rng.standard_normal((2,) + (24,) * 3) + 1j * rng.standard_normal((2,) + (24,) * 3))
    back = CELL.from_spectral(CELL.to_spectral(psi.values))
    assert np.abs(back - psi.values).max() < 1e-12 * np.abs(psi.values).max()
    # Parseval: grid inner product equals the spectral one
    c = CELL.to_spectral(psi.values)
    spectral_norm2 = float(np.sum(np.abs(c) ** 2)) * CELL.volume
    assert abs(spectral_norm2 - psi.norm() ** 2) < 1e-12 * spectral_norm2


def test_separable_tables_match_the_dense_meshgrid_tables():
    # the three axes broadcast to the (3, n, n, n) tables built with
    # np.meshgrid, and the full moduli built from them agree bit for bit
    for cell in (CELL, Cell(7.0, 16)):
        n, k = cell.n, meshgrid_k(cell)
        assert [a.shape for a in cell.k] == [(n, 1, 1), (1, n, 1), (1, 1, n)]
        assert [a.shape for a in cell.coords] == [(n, 1, 1), (1, n, 1), (1, 1, n)]
        assert not any(a.flags.writeable for a in (*cell.k, *cell.coords))
        assert np.array_equal(dense(cell.k), k)
        assert np.array_equal(cell.k2, np.sum(k**2, axis=0))
        k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=cell.spacing)
        kx, ky, kz = np.meshgrid(k1, k1, k1, indexing="ij")
        assert np.array_equal(cell.k2_full, kx**2 + ky**2 + kz**2)
        x1 = cell.spacing * np.arange(n)
        assert np.array_equal(dense(cell.coords), np.stack(np.meshgrid(x1, x1, x1, indexing="ij")))
        for center in ((0.0, 0.0, 0.0), (1.3, 6.9, 0.2), (0.5 * cell.L,) * 3):
            d = cell.displacements(center)
            assert [a.shape for a in d] == [(n, 1, 1), (1, n, 1), (1, 1, n)]
            assert np.array_equal(dense(d), meshgrid_displacements(cell, center))


def test_spectral_operators_match_the_dense_tables_bit_for_bit():
    # the broadcast wave vectors against the (3, n, n, n//2 + 1) half of the
    # dense table, with the same operation order per element
    rng = np.random.default_rng(11)
    for cell in (CELL, Cell(7.0, 16)):
        k = meshgrid_k(cell)[..., : cell.n // 2 + 1]
        k2 = np.sum(k**2, axis=0)
        inv_k2 = np.where(k2 > 0, 1.0 / np.where(k2 > 0, k2, 1.0), 0.0)
        assert np.array_equal(dense(cell.k_half), k)
        assert np.array_equal(cell.inv_k2_deriv, inv_k2)
        f = ScalarField(cell, rng.standard_normal((cell.n,) * 3))
        v = VectorField(cell, rng.standard_normal((3,) + (cell.n,) * 3))
        c_f, c_v = cell.to_half_spectral(f.values), cell.to_half_spectral(v.values)
        assert np.array_equal(gradient(f).values, cell.from_half_spectral(1j * k * c_f[None]))
        assert np.array_equal(divergence(v).values, cell.from_half_spectral(np.sum(1j * k * c_v, axis=0)))
        want = np.empty_like(c_v)
        want[0] = 1j * (k[1] * c_v[2] - k[2] * c_v[1])
        want[1] = 1j * (k[2] * c_v[0] - k[0] * c_v[2])
        want[2] = 1j * (k[0] * c_v[1] - k[1] * c_v[0])
        assert np.array_equal(curl(v).values, cell.from_half_spectral(want))
        want = c_v - k * (np.sum(k * c_v, axis=0) * inv_k2)[None]
        assert np.array_equal(transverse_spectral(cell, c_v), want)
        assert np.array_equal(helmholtz_project(v).values, cell.from_half_spectral(want))


def test_cell_mismatch_raises():
    other = Cell(10.0, 16)
    f = ScalarField(CELL, np.zeros((24,) * 3))
    g = ScalarField(other, np.zeros((16,) * 3))
    with pytest.raises(CellMismatchError):
        inner(f, g)


def test_curl_gradient_is_zero():
    x = dense(CELL.coords)
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
    x = dense(CELL.coords)
    k = 2 * np.pi / CELL.L
    vals = np.zeros((3,) + (24,) * 3)
    vals[0] = np.sin(k * x[1])
    c = curl(VectorField(CELL, vals))
    assert np.abs(c.values[0]).max() < 1e-13
    assert np.abs(c.values[1]).max() < 1e-13
    assert_allclose(c.values[2], -k * np.cos(k * x[1]), atol=1e-13)


def test_helmholtz_kills_gradients_and_keeps_solenoidal():
    x = dense(CELL.coords)
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
    c = CELL.to_spectral(v.values)
    k = dense(CELL.k)
    k2 = np.sum(k * k, axis=0)
    invk2 = np.where(k2 > 0, 1.0 / np.where(k2 > 0, k2, 1.0), 0.0)
    oracle = c - k * (np.sum(k * c, axis=0) * invk2)[None]
    assert np.abs(CELL.to_spectral(p.values) - oracle).max() < 1e-13
    # the half spectrum of the projection is the projection of the half spectrum
    half = transverse_spectral(CELL, CELL.to_half_spectral(v.values))
    assert np.abs(half - oracle[..., : CELL.n // 2 + 1]).max() < 1e-13


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
    x = dense(CELL.coords)
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


def test_poisson_takes_the_half_spectrum(transform_rows):
    # the kernel is even in k, so a real density goes through one half-spectrum
    # pair and gives the full-spectrum solve to roundoff, the Nyquist planes included
    cell = Cell(6.0, 8)
    rho = ScalarField(cell, np.random.default_rng(6).standard_normal((8,) * 3))
    phi = poisson_potential(rho)
    assert transform_rows == {"to_half_spectral": 1, "from_half_spectral": 1}
    full = cell.from_spectral(4.0 * np.pi * cell.inv_k2 * cell.to_spectral(rho.values)).real
    assert np.abs(phi.values - full).max() <= 1e-14 * np.abs(full).max()


def _full_transverse(cell, c):
    """``c_k - k (k . c_k) / |k|^2`` on the full spectrum, the derivative vectors Nyquist-zeroed."""
    k = dense(cell.k)
    inv = np.where(cell.k2 > 0, 1.0 / np.where(cell.k2 > 0, cell.k2, 1.0), 0.0)
    return c - k * (np.sum(k * c, axis=0) * inv)[None]


def _real_field_cases():
    """Each real-field operation as ``(run, reference)`` on white-noise inputs; the
    reference is its complex-transform formula, the imaginary part dropped."""
    cell = Cell(7.0, 16)
    rng = np.random.default_rng(12)
    f = ScalarField(cell, rng.standard_normal((16,) * 3))
    v = VectorField(cell, rng.standard_normal((3,) + (16,) * 3))
    spec = SystemSpec(cell, (Nucleus(1.0, (2.0, 3.5, 1.25)), Nucleus(2.0, (5.1, 0.4, 6.9))), N=3.0, alpha=0.2)
    rho = ScalarField(cell, np.abs(f.values))
    A = MagneticPotential(helmholtz_project(VectorField(cell, 0.05 * v.values), zero_mean=True))
    A_out = update_vector_potential(v, spec)
    k, to, back = dense(cell.k), cell.to_spectral, lambda c: cell.from_spectral(c).real

    def curl_ref():
        c = to(v.values)
        return back(1j * np.stack([k[1] * c[2] - k[2] * c[1], k[2] * c[0] - k[0] * c[2], k[0] * c[1] - k[1] * c[0]]))

    def field_solve_ref():
        a = -4.0 * np.pi * spec.alpha**2 * _full_transverse(cell, to(v.values)) * cell.inv_k2[None]
        a[:, 0, 0, 0] = 0.0
        return back(a)

    def residual_ref():
        weight = cell.k2_full[None] / (4.0 * np.pi * spec.alpha**2)
        lap, lap_out = (weight * to(a.A.values) for a in (A, A_out))
        norm = np.linalg.norm
        return norm(lap - lap_out) / (norm(lap_out) + norm(lap))

    def nuclear_ref():
        coeffs = sum(nuc.z * np.exp(-1j * np.sum(k * np.reshape(nuc.R, (3, 1, 1, 1)), axis=0)) for nuc in spec.nuclei)
        coeffs = coeffs / cell.volume * np.exp(-0.5 * cell.k2 * (2.0 * cell.spacing) ** 2)
        return back(-4.0 * np.pi * coeffs * cell.inv_k2)

    return {
        "gradient": (lambda: gradient(f).values, lambda: back(1j * k * to(f.values)[None])),
        "divergence": (lambda: divergence(v).values, lambda: back(np.sum(1j * k * to(v.values), axis=0))),
        "curl": (lambda: curl(v).values, curl_ref),
        "helmholtz_project": (lambda: helmholtz_project(v).values, lambda: back(_full_transverse(cell, to(v.values)))),
        "update_vector_potential": (lambda: update_vector_potential(v, spec).A.values, field_solve_ref),
        "_field_equation_residual": (lambda: scf._field_equation_residual(A, A_out, rho, spec.alpha), residual_ref),
        "external_potential": (lambda: external_potential(spec).values, nuclear_ref),
        "green_function_GR": (lambda: green_function_GR(cell).values, lambda: back(4.0 * np.pi * cell.inv_k2 / cell.volume)),
        "poisson_potential": (
            lambda: poisson_potential(f).values, lambda: back(4.0 * np.pi * cell.inv_k2 * to(f.values))
        ),
    }


@pytest.mark.parametrize("name", list(_real_field_cases()))
def test_real_fields_take_the_half_spectrum(name, transform_rows):
    # a real-field operation runs only the half-spectrum pair, and gives its
    # complex-transform formula to roundoff, the Nyquist planes included
    run, reference = _real_field_cases()[name]
    transform_rows.clear()  # the transforms that built the inputs
    got = run()
    assert transform_rows and set(transform_rows) <= {"to_half_spectral", "from_half_spectral"}
    want = reference()
    assert np.isrealobj(got)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("n", [8, 12])
def test_half_sum_is_the_full_spectrum_sum(n):
    # white noise fills the m_z = n/2 column, which stands for itself only
    cell = Cell(5.0, n)
    x = np.random.default_rng(n).standard_normal((2,) + (n,) * 3)
    full, half = np.abs(cell.to_spectral(x)) ** 2, np.abs(cell.to_half_spectral(x)) ** 2
    assert np.abs(half[..., -1]).min() > 0.0
    for table, table_half in ((1.0, 1.0), (cell.k2_full, cell.k2_half)):
        want = np.sum(table * full, axis=(1, 2, 3))
        assert np.abs(cell.half_sum(table_half * half) - want).max() <= 1e-13 * want.max()


def test_poisson_gaussian_against_radial_quadrature():
    # periodic box: the image/background correction xi_L + 2 pi s^2 / L^3
    # (independent Ewald oracle) is added to the free-space quadrature value
    L, n, s = 40.0, 96, 2.0
    cell = Cell(L, n)
    d = dense(cell.displacements((L / 2,) * 3))
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
