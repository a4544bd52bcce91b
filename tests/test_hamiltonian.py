"""Pauli kinetic operator, nuclear potentials, Hartree term and the
magnetic field energy."""

import numpy as np
import pytest
from conftest import (
    bandlimited_scalar,
    bandlimited_spinor,
    bandlimited_vector,
    dense,
    meshgrid_k,
    radial_quadrature_gaussian_potential_at_center,
    wigner_constant,
)
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import erf

from magrhf.density import DensityMatrix, kinetic_inequality_report, kinetic_terms
from magrhf.fields import (
    Cell,
    ScalarField,
    SpinorField,
    VectorField,
    curl,
    divergence,
    gradient,
    helmholtz_project,
    inner,
)
from magrhf.hamiltonian import (
    PAULI,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    MagneticPotential,
    Nucleus,
    SystemSpec,
    _half_square,
    _kinetic,
    _sigma_dot,
    _sigma_entries,
    apply_magnetic_laplacian,
    apply_pauli_kinetic,
    apply_sigma_kinetic_root,
    external_potential,
    green_function_GR,
    hartree,
    magnetic_energy,
    make_hamiltonian,
)

CELL = Cell(9.0, 24)


def _random_potential(cell, rng, kfrac=0.2, scale=0.4):
    raw = bandlimited_vector(cell, rng, kfrac)
    return MagneticPotential(helmholtz_project(VectorField(cell, scale * raw.values)))


# ---------------------------------------------------------------- Pauli algebra
def test_pauli_matrix_algebra():
    for s in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        assert_allclose(s @ s, np.eye(2), atol=1e-15)
        assert_allclose(s, s.conj().T, atol=1e-15)
        assert abs(np.trace(s)) < 1e-15
    assert_allclose(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z, atol=1e-15)
    assert_allclose(SIGMA_Y @ SIGMA_Z, 1j * SIGMA_X, atol=1e-15)
    assert_allclose(SIGMA_Z @ SIGMA_X, 1j * SIGMA_Y, atol=1e-15)
    assert PAULI.shape == (3, 2, 2)


# ---------------------------------------------------------------- kinetic term
def test_free_plane_wave():
    x = dense(CELL.coords)
    kvec = np.array([2, -1, 3]) * (2 * np.pi / CELL.L)
    phase = np.exp(1j * (kvec[0] * x[0] + kvec[1] * x[1] + kvec[2] * x[2]))
    psi = SpinorField(CELL, np.stack([phase, np.zeros_like(phase)]))
    out = apply_pauli_kinetic(psi, None)
    expected = 0.5 * float(kvec @ kvec)
    assert np.abs(out.values - expected * psi.values).max() < 1e-12 * expected


def test_operator_composition_oracle():
    # applying sigma.(p+A) twice and halving, plus the Nyquist share of
    # |k|^2 that the zeroed derivative vectors drop, is the Pauli kernel
    # on any input, resolved or not
    cell, A, X = _small_magnetic_problem()
    psi = SpinorField(cell, X[0])
    twice = apply_sigma_kinetic_root(apply_sigma_kinetic_root(psi, A), A)
    want = 0.5 * twice.values + _nyquist_term(cell, psi.values)
    got = apply_pauli_kinetic(psi, A).values
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_kinetic_hermitian_quadratic_form():
    rng = np.random.default_rng(11)
    A = _random_potential(CELL, rng)
    phi = bandlimited_spinor(CELL, rng, 0.9)
    psi = bandlimited_spinor(CELL, rng, 0.9)
    lhs = inner(phi, apply_pauli_kinetic(psi, A))
    rhs = np.conjugate(inner(psi, apply_pauli_kinetic(phi, A)))
    scale = max(abs(lhs), 1.0)
    assert abs(lhs - rhs) < 1e-10 * scale


def test_kinetic_nonnegative_on_random_spinors():
    rng = np.random.default_rng(12)
    A = _random_potential(CELL, rng, 0.25)
    for _ in range(100):
        psi = bandlimited_spinor(CELL, rng, 0.3)
        q = np.real(inner(psi, apply_pauli_kinetic(psi, A)))
        assert q >= -1e-10 * psi.norm() ** 2


def test_expand_kinetic_identity():
    # <psi, [sigma.(p+A)]^2 psi> = <psi, (p+A)^2 psi> + int B . m_psi
    rng = np.random.default_rng(13)
    A = _random_potential(CELL, rng, 0.3)
    for _ in range(5):
        psi = bandlimited_spinor(CELL, rng, 0.3)
        pauli = 2.0 * np.real(inner(psi, apply_pauli_kinetic(psi, A)))
        lap = np.real(inner(psi, apply_magnetic_laplacian(psi, A)))
        up, dn = psi.values
        cross = np.conjugate(up) * dn
        m = np.stack([2 * cross.real, 2 * cross.imag, np.abs(up) ** 2 - np.abs(dn) ** 2])
        bm = float(np.sum(A.B.values * m) * CELL.dV)
        assert abs(pauli - (lap + bm)) < 1e-9 * max(abs(pauli), 1.0)


def _four_term_oracle(cell, X, A):
    """(1/2)[sigma.(p+A)]^2 X with p^2, A.p and p.(A .) each transformed on its own."""
    k, a = cell.k, A.A.values
    c = cell.to_spectral(X)
    p2 = cell.from_spectral(cell.k2_full * c)
    adotp = -1j * sum(a[i] * cell.from_spectral(1j * k[i] * c) for i in range(3))
    pdota = -1j * sum(cell.from_spectral(1j * k[i] * cell.to_spectral(a[i] * X)) for i in range(3))
    lap = p2 + adotp + pdota + np.sum(a**2, axis=0) * X
    bx, by, bz = A.B.values
    up, dn = X[..., 0, :, :, :], X[..., 1, :, :, :]
    sigma_b = np.stack([bz * up + (bx - 1j * by) * dn, (bx + 1j * by) * up - bz * dn], axis=-4)
    return lap, 0.5 * (lap + sigma_b)


def _small_magnetic_problem(seed=31):
    cell = Cell(6.0, 8)
    rng = np.random.default_rng(seed)
    A = MagneticPotential(helmholtz_project(VectorField(cell, 0.3 * rng.standard_normal((3,) + (8,) * 3))))
    X = rng.standard_normal((3, 2) + (8,) * 3) + 1j * rng.standard_normal((3, 2) + (8,) * 3)
    return cell, A, X


def _root_oracle(cell, X, a):
    """sigma.(p+A) X one axis at a time, each Pauli matrix applied by einsum."""
    c = cell.to_spectral(X)
    return sum(
        np.einsum("st,...tijk->...sijk", PAULI[i], cell.from_spectral(cell.k[i] * c) + a[i] * X)
        for i in range(3)
    )


def _nyquist_term(cell, X):
    """(1/2)(k2_full - k2) X: what the Nyquist-zeroed derivative vectors leave out of p^2."""
    return cell.from_spectral(0.5 * (cell.k2_full - cell.k2) * cell.to_spectral(X))


def _half_square_oracle(cell, X, a):
    """(1/2)[sigma.(p+A)]^2 X from the per-axis root, plus the Nyquist term."""
    return 0.5 * _root_oracle(cell, _root_oracle(cell, X, a), a) + _nyquist_term(cell, X)


def _rel(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def test_kinetic_kernel_matches_four_term_expansion():
    # the spin-free kernel is the expansion on any input; the Pauli kernel
    # equals the expansion with sigma.B/2 where products do not alias
    cell, A, X = _small_magnetic_problem()
    psi = SpinorField(cell, X[1])
    lap, _ = _four_term_oracle(cell, X, A)
    assert _rel(apply_magnetic_laplacian(psi, A).values, lap[1]) <= 1e-13
    rng = np.random.default_rng(32)
    A = MagneticPotential(helmholtz_project(bandlimited_vector(cell, rng)))
    X = np.stack([bandlimited_spinor(cell, rng).values for _ in range(3)])
    _, pauli = _four_term_oracle(cell, X, A)
    assert _rel(make_hamiltonian(cell, None, A)(X), pauli) <= 1e-13
    assert _rel(apply_pauli_kinetic(SpinorField(cell, X[1]), A).values, pauli[1]) <= 1e-13


def test_pauli_kernel_matches_per_axis_half_square():
    # on unresolved input the kernel is (1/2)[sigma.(p+A)]^2 of the grid
    # root, not the continuum expansion: sigma.B aliases there
    cell, A, X = _small_magnetic_problem()
    want = _half_square_oracle(cell, X, A.A.values)
    v = ScalarField(cell, np.random.default_rng(33).standard_normal((8,) * 3))
    assert _rel(make_hamiltonian(cell, None, A)(X), want) <= 1e-13
    assert _rel(make_hamiltonian(cell, v, A)(X), want + v.values * X) <= 1e-13
    assert _rel(apply_pauli_kinetic(SpinorField(cell, X[1]), A).values, want[1]) <= 1e-13


def test_pauli_kernel_is_half_the_square_norm_of_its_root():
    # <psi, T_A psi> = (1/2)||sigma.(p+A) psi||^2 + the Nyquist term, so the
    # grid operator is nonnegative on every spinor, however rough
    cell, A, X = _small_magnetic_problem()
    rng = np.random.default_rng(34)
    nyquist = 0.5 * (cell.k2_full - cell.k2) * cell.volume
    for values in (*X, *(rng.standard_normal((2,) + (8,) * 3) + 1j * rng.standard_normal((2,) + (8,) * 3)
                         for _ in range(20))):
        psi = SpinorField(cell, values)
        q = inner(psi, apply_pauli_kinetic(psi, A))
        want = 0.5 * apply_sigma_kinetic_root(psi, A).norm() ** 2 + np.sum(nyquist * np.abs(cell.to_spectral(psi.values)) ** 2)
        assert abs(q - want) <= 1e-13 * want
        assert q.real >= 0.0


def test_sigma_root_matches_per_axis_oracle():
    cell, A, X = _small_magnetic_problem()
    psi = SpinorField(cell, X[2])
    assert _rel(apply_sigma_kinetic_root(psi, A).values, _root_oracle(cell, X[2], A.A.values)) <= 1e-13
    free = _root_oracle(cell, X[2], np.zeros((3,) + (8,) * 3))
    assert _rel(apply_sigma_kinetic_root(psi, None).values, free) <= 1e-13
    assert _rel(apply_sigma_kinetic_root(psi, MagneticPotential.zero(cell)).values, free) <= 1e-13


@pytest.fixture
def transforms(transform_rows):
    """``transforms(fn, *args)`` calls ``fn`` and returns the scalar 3-D transforms it ran."""

    def count(fn, *args):
        transform_rows.clear()
        fn(*args)
        return sum(transform_rows.values())

    return count


def test_kinetic_transform_counts(transforms):
    # the FFT count of an apply is fixed by the algorithm: 4 scalar
    # transforms per spinor component with A != 0 (the root twice), 2
    # with A = 0, 8 for the spin-free expansion and 2 for the root; the
    # build reads no B = curl A
    cell, A, X = _small_magnetic_problem()
    components = X.shape[0] * X.shape[1]
    fresh = MagneticPotential(A.A, check_gauge=False)
    assert transforms(lambda: make_hamiltonian(cell, None, fresh)(X)) == 4 * components
    assert transforms(make_hamiltonian(cell, None, None), X) == 2 * components
    assert transforms(make_hamiltonian(cell, None, MagneticPotential.zero(cell)), X) == 2 * components
    psi = SpinorField(cell, X[0])
    assert transforms(apply_pauli_kinetic, psi, A) == 8
    assert transforms(apply_magnetic_laplacian, psi, A) == 16
    assert transforms(apply_sigma_kinetic_root, psi, A) == 4
    assert transforms(apply_sigma_kinetic_root, psi, None) == 4


def test_kinetic_terms_transform_counts(transform_rows):
    # one forward and three inverse transforms per occupied component at any
    # A; the audit adds only the four scalar transforms of its
    # Hoffmann-Ostenhof gradient, and reads a pass already taken in the
    # same potential object instead of transforming the orbitals again
    cell, A, X = _small_magnetic_problem()
    q, _ = np.linalg.qr(X.reshape(3, -1).T)
    orbs = tuple(SpinorField(cell, q[:, i].reshape(X.shape[1:]) / np.sqrt(cell.dV)) for i in range(3))
    for pot in (A, MagneticPotential.zero(cell), None):
        transform_rows.clear()
        kinetic_terms(DensityMatrix(orbs, np.array([1.0, 0.5, 0.0])), pot)
        assert transform_rows == {"to_spectral": 4, "from_spectral": 12}
    gamma = DensityMatrix(orbs[:1], np.array([1.0]))
    gradient = {"to_half_spectral": 1, "from_half_spectral": 3}
    for pot, orbital_transforms in ((A, 2), (A, 0), (MagneticPotential(A.A, check_gauge=False), 2)):
        transform_rows.clear()
        kinetic_inequality_report(gamma, pot)
        orbitals = {"to_spectral": orbital_transforms, "from_spectral": 3 * orbital_transforms}
        assert transform_rows == gradient | {name: rows for name, rows in orbitals.items() if rows}


def test_real_zero_a_apply_takes_the_half_spectrum(transform_rows):
    # real scalar rows at A = 0 (the spin-block solve): one forward and one
    # inverse half-spectrum transform per row and no complex transform, so
    # a silent fall-back to complex rows fails here
    cell = Cell(6.0, 8)
    rng = np.random.default_rng(1)
    apply_h = make_hamiltonian(cell, ScalarField(cell, rng.standard_normal((8,) * 3)), None)
    out = apply_h(rng.standard_normal((5, 1, 8, 8, 8)))
    assert out.dtype == np.float64
    assert transform_rows == {"to_half_spectral": 5, "from_half_spectral": 5}


def test_real_zero_a_kinetic_is_the_real_part_of_the_complex_path():
    # white-noise rows carry every mode, the Nyquist planes included; |k|^2
    # is even in k there too, so the half-spectrum path loses nothing
    cell = Cell(6.0, 8)
    rng = np.random.default_rng(2)
    X = rng.standard_normal((3, 1, 8, 8, 8))
    assert np.abs(cell.to_spectral(X)[..., 4, 4, 4]).min() > 0.0
    w = rng.standard_normal((8,) * 3)
    for weight in (None, w):
        real = _kinetic(cell, X, weight)
        full = _kinetic(cell, X.astype(complex), weight)
        assert real.dtype == np.float64
        assert np.abs(real - full.real).max() <= 1e-14 * np.abs(full).max()


def test_gauge_covariance_fixed_field():
    rng = np.random.default_rng(14)
    cell = Cell(9.0, 32)
    A = _random_potential(cell, rng, 0.15)
    psi = bandlimited_spinor(cell, rng, 0.12)
    x = dense(cell.coords)
    mu = 0.4 * np.sin(2 * np.pi * x[0] / cell.L) + 0.3 * np.cos(2 * np.pi * x[1] / cell.L)
    grad_mu = gradient(ScalarField(cell, mu))
    A_shift = MagneticPotential(VectorField(cell, A.A.values + grad_mu.values), check_gauge=False)
    # with p = -i grad, the shift A -> A + grad(mu) pairs with the
    # conjugate phase on the orbitals
    psi_shift = SpinorField(cell, np.exp(-1j * mu)[None] * psi.values)
    e1 = np.real(inner(psi, apply_pauli_kinetic(psi, A)))
    e2 = np.real(inner(psi_shift, apply_pauli_kinetic(psi_shift, A_shift)))
    assert abs(e1 - e2) < 1e-9 * max(abs(e1), 1.0)
    # the field B is untouched by the gauge shift
    assert np.abs(A_shift.B.values - A.B.values).max() < 1e-12


def test_magnetic_potential_invariants():
    rng = np.random.default_rng(15)
    A = _random_potential(CELL, rng)
    assert divergence(A.A).norm() < 1e-10 * max(A.A.norm(), 1.0)
    recomputed = curl(A.A)
    assert np.abs(recomputed.values - A.B.values).max() < 1e-12
    raw = bandlimited_vector(CELL, rng, 0.3)
    with pytest.raises(ValueError):
        MagneticPotential(raw)  # not divergence-free


def test_field_is_derived_on_first_read(transforms):
    # building a potential without the gauge check, or the zero potential,
    # runs no transform; B = curl A is computed once, when first read
    cell, A, _ = _small_magnetic_problem()
    assert transforms(MagneticPotential, A.A, False) == 0
    assert transforms(MagneticPotential.zero, cell) == 0
    pot, zero = MagneticPotential(A.A, check_gauge=False), MagneticPotential.zero(cell)
    assert transforms(lambda: pot.B) == 6
    assert transforms(lambda: pot.B) == 0
    assert np.array_equal(pot.B.values, curl(A.A).values)
    assert not np.any(zero.B.values)
    assert zero.field_energy_raw == 0.0
    # the field energy of a zero potential is an exact 0 without its curl
    fresh = MagneticPotential.zero(cell)
    assert transforms(lambda: fresh.field_energy_raw) == 0
    assert fresh.field_energy_raw == 0.0


# ---------------------------------------------------------------- potentials
def test_external_potential_zero_charges():
    spec = SystemSpec(CELL, (Nucleus(0.0, (1.0, 1.0, 1.0)),), N=1.0, alpha=0.1)
    v = external_potential(spec)
    assert np.abs(v.values).max() < 1e-14


def test_external_potential_requires_nuclei():
    with pytest.raises(ValueError):
        SystemSpec(CELL, (), N=1.0, alpha=0.1)


def test_periodic_coefficients_bare_kernel():
    # series coefficient of V_per at k != 0 is -z 4 pi e^{-ik.R} / (|k|^2 |cell|)
    R = (2.0, 3.5, 1.25)
    z = 1.7
    spec = SystemSpec(CELL, (Nucleus(z, R),), N=z, alpha=0.1, mode="periodic")
    v = external_potential(spec, s_nuc=0.0)
    c = CELL.to_spectral(v.values)
    k = CELL.k
    k2 = CELL.k2_full
    phase = np.exp(-1j * (k[0] * R[0] + k[1] * R[1] + k[2] * R[2]))
    expected = np.where(k2 > 0, -z * 4 * np.pi * phase / np.where(k2 > 0, k2, 1.0) / CELL.volume, 0.0)
    # compare on the modes whose derivative vector is faithful (non-Nyquist)
    assert np.abs(c - expected).max() < 1e-12 * np.abs(expected).max()
    assert abs(v.mean()) < 1e-13


def test_external_potential_matches_the_dense_tables_bit_for_bit():
    # on the (n, n, n//2 + 1) half of the dense tables, same operation order
    half = CELL.n // 2 + 1
    k = meshgrid_k(CELL)[..., :half]
    k2 = np.sum(k**2, axis=0)
    nuclei = (Nucleus(1.0, (2.0, 3.5, 1.25)), Nucleus(2.0, (7.1, 0.4, 8.9)))
    spec = SystemSpec(CELL, nuclei, N=3.0, alpha=0.1)
    for s_nuc in (2.0 * CELL.spacing, 0.0):
        coeffs = np.zeros(k2.shape, dtype=complex)
        for nuc in nuclei:
            coeffs += nuc.z * np.exp(-1j * (k[0] * nuc.R[0] + k[1] * nuc.R[1] + k[2] * nuc.R[2]))
        coeffs /= CELL.volume
        if s_nuc > 0.0:
            coeffs = coeffs * np.exp(-0.5 * k2 * s_nuc**2)
        want = CELL.from_half_spectral(-4.0 * np.pi * coeffs * CELL.inv_k2_half)
        assert np.array_equal(external_potential(spec, s_nuc).values, want)


def test_sigma_k_entries_match_the_dense_tables_bit_for_bit():
    # the sigma . k entries built from the broadcast axes against those of
    # the (3, n, n, n) table, in the root and in the A != 0 Hamiltonian
    cell, A, X = _small_magnetic_problem()
    k, a = meshgrid_k(cell), A.A.values
    v = bandlimited_scalar(cell, np.random.default_rng(5)).values
    k_half, a_half = _sigma_entries(np.sqrt(0.5) * k), _sigma_entries(np.sqrt(0.5) * a)
    assert np.array_equal(make_hamiltonian(cell, ScalarField(cell, v), A)(X), _half_square(cell, X, k_half, a_half, v))
    psi = SpinorField(cell, X[0])
    c = cell.to_spectral(psi.values)
    s, buf = np.empty_like(c), np.empty_like(c[0])
    want = cell.from_spectral(_sigma_dot(_sigma_entries(k), c, s, buf))
    want += _sigma_dot(_sigma_entries(a), psi.values, s, buf)
    assert np.array_equal(apply_sigma_kinetic_root(psi, A).values, want)


def test_periodic_potential_singularity_is_coulomb():
    # V_per(x) + z/|x| stays bounded as x -> 0 (shrinking radii + extrapolation)
    L, n, z = 12.0, 96, 2.0
    cell = Cell(L, n)
    spec = SystemSpec(cell, (Nucleus(z, (L / 2,) * 3),), N=z, alpha=0.1, mode="periodic")
    v = external_potential(spec, s_nuc=0.0)
    d = dense(cell.displacements((L / 2,) * 3))
    r = np.sqrt(np.sum(d * d, axis=0))
    idx = n // 2
    samples = []
    for j in (10, 8, 6, 4, 2):
        pt = (idx + j, idx + j, idx + j)
        samples.append(v.values[pt] + z / r[pt])
    spread = np.ptp(samples)
    # values stay bounded and settle while z/|x| itself blows up
    assert np.all(np.isfinite(samples))
    assert spread < 0.05
    limit = -z * wigner_constant(L)
    assert abs(samples[-1] - limit) < 1e-2 * abs(limit)


def test_green_function_coefficients_and_mean():
    g = green_function_GR(CELL)
    assert abs(g.mean()) < 1e-13
    c = CELL.to_spectral(g.values) * CELL.volume
    k2 = CELL.k2_full
    expected = np.where(k2 > 0, 4 * np.pi / np.where(k2 > 0, k2, 1.0), 0.0)
    assert np.abs(c - expected).max() < 1e-12 * expected.max()
    # -lap G has coefficient 4 pi at every nonzero mode (delta comb minus background)
    lap_c = k2 * c
    nz = k2 > 0
    assert np.abs(lap_c[nz] - 4 * np.pi).max() < 1e-10


def test_green_function_short_distance_limit():
    # G(x) |x| -> 1 along grid diagonals after Richardson extrapolation;
    # the tabulated kernel is smoothed over two grid spacings to damp the
    # sharp-cutoff oscillation before extrapolating
    L, n = 14.0, 160
    cell = Cell(L, n)
    coeffs = 4.0 * np.pi * cell.inv_k2 / cell.volume
    sigma = 2.0 * cell.spacing
    smooth = ScalarField(cell, cell.from_spectral(coeffs * np.exp(-0.5 * cell.k2_full * sigma**2)).real)
    h = cell.spacing

    def g_times_r(j):
        r = j * h * np.sqrt(3.0)
        return smooth.values[j, j, j] * r

    # radii r, r/2, r/4 on grid points; two Richardson stages kill the linear term
    j0 = 16
    f1, f2, f4 = g_times_r(j0), g_times_r(j0 // 2), g_times_r(j0 // 4)
    first = 2 * f2 - f1
    second = 2 * f4 - f2
    extrapolated = second + (second - first) / 3.0
    assert abs(extrapolated - 1.0) < 1e-2


# ---------------------------------------------------------------- hartree
def test_hartree_zero_density():
    phi, e = hartree(ScalarField.zeros(CELL))
    assert np.abs(phi.values).max() == 0.0 and e == 0.0


def test_hartree_single_mode_parseval_oracle():
    # rho = (1 + cos(k.x))/|cell|: energy = (1/2) 4 pi |rho_k|^2 |cell| / |k|^2
    x = dense(CELL.coords)
    kv = 2 * np.pi / CELL.L
    rho = ScalarField(CELL, (1.0 + np.cos(kv * x[2])) / CELL.volume)
    _, e = hartree(rho)
    rho_k = 0.5 / CELL.volume  # series coefficient of the cosine half
    expected = 0.5 * 4 * np.pi * (2 * rho_k**2) * CELL.volume / kv**2
    assert abs(e - expected) < 1e-12 * expected


def test_hartree_gaussian_self_energy():
    L, n, s = 40.0, 96, 2.0
    cell = Cell(L, n)
    d = dense(cell.displacements((L / 2,) * 3))
    rho = ScalarField(cell, np.exp(-0.5 * np.sum(d * d, axis=0) / s**2) / (2 * np.pi * s**2) ** 1.5)
    _, e = hartree(rho)
    # free-space self energy 1/(2 sqrt(pi) s) cross-checked by quadrature of
    # the exact Gaussian potential, plus the periodic image/background
    # correction xi/2 + 2 pi s^2 / L^3 from the Ewald oracle
    free, _ = quad(
        lambda u: 0.5 * 4.0 * np.pi * u * u
        * np.exp(-0.5 * (u / s) ** 2) / (2 * np.pi * s**2) ** 1.5
        * erf(u / (np.sqrt(2.0) * s)) / u,
        0.0, np.inf, epsabs=1e-13, epsrel=1e-12,
    )
    assert abs(free - 1.0 / (2.0 * np.sqrt(np.pi) * s)) < 1e-10
    oracle = free + 0.5 * wigner_constant(L) + 2 * np.pi * s**2 / L**3
    assert abs(e - oracle) < 1e-3 * abs(oracle)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_hartree_positive_quadratic_form():
    # signed mean-zero test densities: the negativity warning is expected
    rng = np.random.default_rng(16)
    for _ in range(5):
        f = bandlimited_scalar(CELL, rng, 0.6)
        g = bandlimited_scalar(CELL, rng, 0.6)
        f0 = ScalarField(CELL, f.values - f.values.mean())
        g0 = ScalarField(CELL, g.values - g.values.mean())
        _, dff = hartree(f0)
        _, dgg = hartree(g0)
        phi_g, _ = hartree(g0)
        dfg = 0.5 * inner(f0, phi_g) + 0.5 * inner(g0, hartree(f0)[0])
        assert dff >= 0.0 and dgg >= 0.0
        assert dfg**2 <= 4.0 * dff * dgg * (1.0 + 1e-10) + 1e-12


def test_hartree_warns_on_negative_density():
    vals = np.full((24,) * 3, 1.0)
    vals[0, 0, 0] = -0.5
    with pytest.warns(UserWarning):
        hartree(ScalarField(CELL, vals))


# ---------------------------------------------------------------- magnetic energy
def test_magnetic_energy_zero_field():
    assert magnetic_energy(MagneticPotential.zero(CELL), 0.5) == 0.0


def test_magnetic_energy_alpha_scaling():
    rng = np.random.default_rng(17)
    A = _random_potential(CELL, rng)
    e1 = magnetic_energy(A, 0.1)
    e2 = magnetic_energy(A, 0.2)
    assert abs(e1 - 4.0 * e2) < 1e-12 * abs(e1)
    with pytest.raises(ValueError):
        magnetic_energy(A, 0.0)


def test_magnetic_energy_dilation_scaling(family):
    # analytic bookkeeping: int |B_lam|^2 = lam * int |B|^2
    from magrhf.zeromodes import dilate

    lam = 3.0
    assert abs(dilate(family, lam).field_square_integral() - lam * family.field_square_integral()) \
        < 1e-12 * family.field_square_integral()


def test_kinetic_cell_mismatch_raises():
    from magrhf.fields import CellMismatchError

    other = Cell(9.0, 16)
    psi = SpinorField(other, np.zeros((2,) + (16,) * 3, dtype=complex))
    rng = np.random.default_rng(30)
    A = _random_potential(CELL, rng)
    with pytest.raises(CellMismatchError):
        apply_pauli_kinetic(psi, A)
