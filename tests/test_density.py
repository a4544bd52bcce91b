"""Density matrices, observables, the energy assembly and the kinetic
inequalities."""

import tracemalloc

import numpy as np
import pytest
from conftest import bandlimited_spinor, bandlimited_vector, dense, white_noise_state
from numpy.testing import assert_allclose

from magrhf.density import (
    DensityMatrix,
    current,
    density,
    kinetic_inequality_report,
    kinetic_laplacian_trace,
    kinetic_terms,
    magnetisation,
    physical_current,
    total_energy,
)
from magrhf.fields import (
    Cell,
    ScalarField,
    SpinorField,
    VectorField,
    curl,
    gradient,
    helmholtz_project,
    inner,
)
from magrhf.hamiltonian import (
    MagneticPotential,
    Nucleus,
    SystemSpec,
    apply_magnetic_laplacian,
    apply_pauli_kinetic,
    apply_sigma_kinetic_root,
    external_potential,
    green_function_GR,
)

CELL8 = Cell(6.0, 8)


def _orthonormal_orbitals(cell, rng, count, kfrac=0.45):
    raw = [bandlimited_spinor(cell, rng, kfrac).values for _ in range(count)]
    flat = np.stack([r.ravel() for r in raw])
    q, _ = np.linalg.qr(flat.T)
    orbs = []
    for i in range(count):
        v = q[:, i].reshape((2,) + (cell.n,) * 3) / np.sqrt(cell.dV)
        orbs.append(SpinorField(cell, v))
    return tuple(orbs)


def _dense_kernel(gamma):
    """gamma(x, y) as a (2 n^3) x (2 n^3) matrix, test-side oracle."""
    cell = gamma.cell
    dim = 2 * cell.n**3
    g = np.zeros((dim, dim), dtype=complex)
    for n_k, phi in zip(gamma.occupations, gamma.block):
        v = phi.ravel()
        g += n_k * np.outer(v, v.conj())
    return g


def _from_block(orbs, occupations):
    """:meth:`DensityMatrix.from_block` on the stacked values of ``orbs``."""
    return DensityMatrix.from_block(orbs[0].cell, np.stack([phi.values for phi in orbs]), occupations)


def test_density_matrix_validation():
    # both constructors run the same checks
    rng = np.random.default_rng(0)
    orbs = _orthonormal_orbitals(CELL8, rng, 2)
    for build in (DensityMatrix, _from_block):
        with pytest.raises(ValueError):
            build(orbs, np.array([0.5]))  # wrong occupation count
        with pytest.raises(ValueError):
            build(orbs, np.array([1.5, 0.2]))  # Pauli violation
        with pytest.raises(ValueError):
            build((orbs[0], orbs[0]), np.array([0.5, 0.5]))  # not orthonormal
        # a NaN fails both ends of the range check, so it is refused on its own
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                build(orbs, np.array([1.0, bad]))
        gamma = build(orbs, np.array([1.0, 0.25]))
        assert abs(gamma.trace() - 1.25) < 1e-14
    with pytest.raises(ValueError, match="shape"):  # scalar rows are not spinors
        DensityMatrix.from_block(CELL8, np.stack([phi.values[:1] for phi in orbs]), np.array([1.0, 0.25]))


def test_density_matrix_stores_one_read_only_block():
    # the orbitals are stacked once into a read-only block, a copy of their values
    rng = np.random.default_rng(0)
    orbs = _orthonormal_orbitals(CELL8, rng, 3)
    gamma = DensityMatrix(iter(orbs), np.array([1.0, 0.5, 0.0]))
    assert gamma.block.shape == (3, 2) + (CELL8.n,) * 3 and not gamma.block.flags.writeable
    with pytest.raises(ValueError):
        gamma.block[0, 0, 0, 0, 0] = 1.0
    for row, given in zip(gamma.block, orbs):
        assert np.array_equal(row, given.values)
        assert not np.shares_memory(row, given.values)


def test_from_block_adopts_its_block():
    # the block handed in becomes the state's: frozen in place, not copied
    cell = Cell(6.0, 16)  # a block large enough that a copy would stand out of the bookkeeping
    orbs = _orthonormal_orbitals(cell, np.random.default_rng(0), 3)
    block = np.stack([phi.values for phi in orbs])
    tracemalloc.start()
    try:
        gamma = DensityMatrix.from_block(cell, block, np.array([1.0, 0.5, 0.0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gamma.block is block and gamma.cell == cell
    assert not block.flags.writeable
    assert peak < 0.1 * block.nbytes


def test_single_orbital_density_integrates_to_one():
    rng = np.random.default_rng(1)
    (phi,) = _orthonormal_orbitals(CELL8, rng, 1)
    gamma = DensityMatrix((phi,), np.array([1.0]))
    rho = density(gamma)
    assert abs(rho.integral() - 1.0) < 1e-12
    assert rho.values.min() > -1e-12


def test_plane_wave_density_and_current():
    x = dense(CELL8.coords)
    kvec = np.array([1.0, 0.0, 2.0]) * (2 * np.pi / CELL8.L)
    phase = np.exp(1j * (kvec[0] * x[0] + kvec[2] * x[2])) / np.sqrt(CELL8.volume)
    psi = SpinorField(CELL8, np.stack([phase, np.zeros_like(phase)]))
    gamma = DensityMatrix((psi,), np.array([1.0]))
    rho = density(gamma)
    assert_allclose(rho.values, 1.0 / CELL8.volume, rtol=1e-12)
    j = current(gamma)
    expected = 2.0 * kvec / CELL8.volume
    for i in range(3):
        assert_allclose(j.values[i], expected[i], atol=1e-12 / CELL8.volume)


def test_real_orbital_carries_no_current():
    rng = np.random.default_rng(2)
    (phi,) = _orthonormal_orbitals(CELL8, rng, 1)
    real_phi = SpinorField(CELL8, phi.values.real + 0j)
    nrm = real_phi.norm()
    real_phi = SpinorField(CELL8, real_phi.values / nrm)
    gamma = DensityMatrix((real_phi,), np.array([1.0]))
    assert np.abs(current(gamma).values).max() < 1e-12


def test_density_against_dense_kernel_oracle():
    rng = np.random.default_rng(3)
    orbs = _orthonormal_orbitals(CELL8, rng, 3)
    occ = np.array([1.0, 0.6, 0.3])
    gamma = DensityMatrix(orbs, occ)
    g = _dense_kernel(gamma)
    diag = np.real(np.diag(g)).reshape((2,) + (CELL8.n,) * 3)
    rho_oracle = diag[0] + diag[1]
    assert np.abs(density(gamma).values - rho_oracle).max() < 1e-12 * rho_oracle.max()


def test_magnetisation_pure_spins():
    rng = np.random.default_rng(4)
    (phi,) = _orthonormal_orbitals(CELL8, rng, 1)
    up_only = np.stack([phi.values[0] + phi.values[1], np.zeros_like(phi.values[0])])
    up_only /= np.sqrt(np.sum(np.abs(up_only) ** 2) * CELL8.dV)
    psi = SpinorField(CELL8, up_only)
    gamma = DensityMatrix((psi,), np.array([1.0]))
    m = magnetisation(gamma)
    rho = density(gamma)
    assert np.abs(m.values[0]).max() < 1e-13
    assert np.abs(m.values[1]).max() < 1e-13
    assert_allclose(m.values[2], rho.values, atol=1e-13)
    # equal mixture of up and down copies of one spatial orbital cancels
    spatial = up_only[0]
    up = SpinorField(CELL8, np.stack([spatial, np.zeros_like(spatial)]))
    dn = SpinorField(CELL8, np.stack([np.zeros_like(spatial), spatial]))
    mixed = DensityMatrix((up, dn), np.array([0.5, 0.5]))
    assert np.abs(magnetisation(mixed).values).max() < 1e-13


def test_magnetisation_bounded_by_density():
    rng = np.random.default_rng(5)
    orbs = _orthonormal_orbitals(CELL8, rng, 2)
    gamma = DensityMatrix(orbs, np.array([0.8, 0.5]))
    m = magnetisation(gamma)
    rho = density(gamma)
    mag = np.sqrt(np.sum(m.values**2, axis=0))
    assert np.all(mag <= rho.values + 1e-12)


def test_trace_equals_density_integral():
    rng = np.random.default_rng(6)
    orbs = _orthonormal_orbitals(CELL8, rng, 3)
    occ = np.array([1.0, 0.37, 0.12])
    gamma = DensityMatrix(orbs, occ)
    assert abs(density(gamma).integral() - gamma.trace()) < 1e-10


def test_gauge_shift_preserves_physical_current():
    rng = np.random.default_rng(7)
    cell = Cell(6.0, 24)
    orbs = _orthonormal_orbitals(cell, rng, 1, kfrac=0.12)
    gamma = DensityMatrix(orbs, np.array([1.0]))
    raw = bandlimited_vector(cell, rng, 0.12)
    A = MagneticPotential(helmholtz_project(VectorField(cell, 0.3 * raw.values)))
    x = dense(cell.coords)
    mu = 0.35 * np.sin(2 * np.pi * x[0] / cell.L) + 0.2 * np.cos(2 * np.pi * x[2] / cell.L)
    grad_mu = gradient(ScalarField(cell, mu))
    A2 = MagneticPotential(VectorField(cell, A.A.values + grad_mu.values), check_gauge=False)
    shifted = SpinorField(cell, np.exp(-1j * mu)[None] * orbs[0].values)
    gamma2 = DensityMatrix((shifted,), np.array([1.0]))
    p1 = physical_current(density(gamma), current(gamma), A)
    p2 = physical_current(density(gamma2), current(gamma2), A2)
    scale = max(p1.norm(), 1e-10)
    assert np.abs(p2.values - p1.values).max() < 1e-9 * scale


def _assert_pass_matches_per_orbital_applies(gamma, A):
    # the pass against the code it replaced: the single-spinor kinetic
    # operators applied orbital by orbital, and the spectral gradient
    cell = gamma.cell
    kinetic = trace = 0.0
    j = np.zeros((3,) + (cell.n,) * 3)
    for n_k, row in zip(gamma.occupations, gamma.block):
        phi = SpinorField(cell, row)
        kinetic += n_k * inner(phi, apply_pauli_kinetic(phi, A)).real
        trace += n_k * inner(phi, apply_magnetic_laplacian(phi, A)).real
        grad = cell.from_spectral(1j * dense(cell.k)[:, None] * cell.to_spectral(phi.values)[None])
        j += 2.0 * n_k * np.sum(np.imag(np.conjugate(phi.values) * grad), axis=1)
    rho, j_pass, _, kinetic_pass, trace_pass = kinetic_terms(gamma, A)
    assert np.array_equal(rho.values, density(gamma).values)
    assert np.abs(j_pass.values - j).max() <= 1e-13 * np.abs(j).max()
    assert abs(kinetic_pass - kinetic) <= 1e-13 * kinetic
    assert abs(trace_pass - trace) <= 1e-13 * trace


@pytest.mark.parametrize("n, L", [(8, 6.0), (24, 9.0)])
@pytest.mark.parametrize("magnetic", [False, True])
def test_kinetic_terms_match_per_orbital_applies(n, L, magnetic):
    cell = Cell(L, n)
    gamma, A = white_noise_state(cell, seed=n)
    _assert_pass_matches_per_orbital_applies(gamma, A if magnetic else MagneticPotential.zero(cell))


def test_kinetic_terms_match_per_orbital_applies_on_a_polarised_scf_state():
    from magrhf.scf import SCFConfig, scf_solve

    spec = SystemSpec(Cell(12.0, 24), (Nucleus(1.0, (6.0, 6.0, 6.0)),), N=1.0, alpha=0.2)
    state = scf_solve(spec, SCFConfig(tol=1e-8, deg_threshold=0.0, max_iter=6, seed=0))
    assert not state.A.is_zero()
    _assert_pass_matches_per_orbital_applies(state.gamma, state.A)


@pytest.mark.parametrize("n, L", [(8, 6.0), (24, 9.0)])
def test_pass_J_is_the_A_gradient_of_the_kinetic_energy(n, L):
    # the kinetic energy is quadratic in A, so a central difference is exact
    # up to roundoff at any step; the directions are white noise, so they
    # carry longitudinal parts and the Nyquist planes too.  The roundoff of
    # the difference is about eps K / h, so the step is 1: at h = 0.1 that
    # floor (~4e-13 at n = 24) exceeds the bound on the second direction
    cell = Cell(L, n)
    gamma, A = white_noise_state(cell, seed=n)
    J = kinetic_terms(gamma, A)[2]
    rng = np.random.default_rng(1)
    for _ in range(3):
        d = rng.standard_normal((3,) + (n,) * 3)

        def kinetic(h):
            return kinetic_terms(gamma, MagneticPotential(VectorField(cell, A.A.values + h * d), check_gauge=False))[3]

        want = np.sum(J.values * d) * cell.dV
        assert abs((kinetic(1.0) - kinetic(-1.0)) / 2.0 - want) <= 1e-10 * abs(want)


def test_pass_J_is_the_continuum_source_on_band_limited_states():
    # sigma_i sigma_j = delta_ij + i eps_ijk sigma_k point by point, so J is
    # j/2 + A rho + (1/2) curl m wherever the spectral derivative of the
    # product m obeys the product rule: orbitals below a quarter of the
    # Nyquist index, whose products do not alias
    rng = np.random.default_rng(4)
    cell = Cell(6.0, 16)
    gamma = DensityMatrix(_orthonormal_orbitals(cell, rng, 2, kfrac=0.2), np.array([1.0, 0.4]))
    A = MagneticPotential(helmholtz_project(VectorField(cell, 0.4 * bandlimited_vector(cell, rng, 0.2).values)))
    rho, j, J, _, _ = kinetic_terms(gamma, A)
    source = 0.5 * (j.values + curl(magnetisation(gamma)).values) + A.A.values * rho.values[None]
    assert np.abs(J.values - source).max() <= 1e-14 * np.abs(source).max()


def _spin_pair_state(cell: Cell, occ: list[float], seed: int = 0) -> DensityMatrix:
    """gamma on the spin pairs of white-noise real rows (the Nyquist planes included) along a complex axis."""
    rng = np.random.default_rng(seed)
    m = (len(occ) + 1) // 2
    q, _ = np.linalg.qr(rng.standard_normal((cell.n**3, m)))
    z = rng.standard_normal(4)
    chi = (z[:2] + 1j * z[2:]) / np.linalg.norm(z)
    rows = (q.T / np.sqrt(cell.dV)).reshape((m, 1) + (cell.n,) * 3)
    return DensityMatrix.from_spin_pairs(cell, rows, chi, np.array(occ))


#: spinor fills of spin pairs: (fill, occupied scalar rows, rows with unequal members)
PAIR_FILLS = {
    "balanced": ([1.0, 1.0, 0.4, 0.4, 0.0, 0.0], 2, 0),
    "unbalanced": ([1.0, 0.0, 1.0, 1.0, 0.3, 0.0], 3, 2),
    "fractional": ([0.7, 0.2, 0.5, 0.5, 0.1, 0.05], 3, 2),
    "unoccupied_row": ([1.0, 1.0, 0.0, 0.0, 1.0, 0.5], 2, 1),
    "odd_row_count": ([1.0, 1.0, 1.0, 0.5, 0.25], 3, 2),
}


@pytest.mark.parametrize("fill", PAIR_FILLS)
def test_pair_route_matches_the_spinor_route(fill):
    # the same spinor orbitals without their factorisation take the spinor
    # route, the oracle; j of real rows is exactly zero, and so is J where
    # every pair is equally filled
    occ = PAIR_FILLS[fill][0]
    gamma = _spin_pair_state(CELL8, occ)
    spinor = DensityMatrix.from_block(CELL8, gamma.block, gamma.occupations)
    for A in (None, MagneticPotential.zero(CELL8)):
        rho, j, J, kinetic, trace = kinetic_terms(gamma, A)
        rho_s, _, J_s, kinetic_s, trace_s = kinetic_terms(spinor, A)
        assert np.abs(rho.values - rho_s.values).max() <= 1e-14 * rho_s.values.max()
        assert not j.values.any()
        if fill == "balanced":
            assert not J.values.any()
        else:
            assert np.abs(J.values - J_s.values).max() <= 1e-14 * np.abs(J_s.values).max()
        assert abs(kinetic - kinetic_s) <= 1e-14 * kinetic_s
        assert abs(trace - trace_s) <= 1e-14 * trace_s


def test_pair_route_transform_counts(transform_rows):
    # one half-spectrum forward transform per occupied scalar row and three
    # inverse ones per unequally filled row, no complex transform; in a
    # nonzero A the pairs take the spinor route, 1 + 3 transforms per component
    A = white_noise_state(CELL8, seed=1)[1]
    for occ, occupied, unbalanced in PAIR_FILLS.values():
        gamma = _spin_pair_state(CELL8, occ)
        transform_rows.clear()
        kinetic_terms(gamma, None)
        want = {"to_half_spectral": occupied} | ({"from_half_spectral": 3 * unbalanced} if unbalanced else {})
        assert transform_rows == want
        transform_rows.clear()
        kinetic_terms(gamma, A)
        components = 2 * int(np.count_nonzero(gamma.occupations))
        assert transform_rows == {"to_spectral": components, "from_spectral": 3 * components}


def test_spin_pair_state_block_and_pairs():
    # the block holds the spin pairs of the rows, as many as occupations; the
    # state keeps the rows they come from, and its spin axis
    from magrhf.density import _spin_pairs

    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((CELL8.n**3, 4)))
    rows = (q.T / np.sqrt(CELL8.dV)).reshape((4, 1) + (CELL8.n,) * 3)
    chi = np.array([0.6, 0.8j])
    gamma = DensityMatrix.from_spin_pairs(CELL8, rows, chi, np.array([1.0, 1.0, 1.0, 0.5, 0.25]))
    kept, axis = gamma._pairs
    assert np.array_equal(kept, rows[:3]) and np.shares_memory(kept, rows) and not kept.flags.writeable
    assert np.array_equal(axis, chi)
    assert np.array_equal(gamma.block, _spin_pairs(rows, 5, chi))


def test_spin_pairs_need_real_rows():
    rows = np.zeros((1, 1) + (CELL8.n,) * 3, dtype=complex)
    with pytest.raises(TypeError):
        DensityMatrix.from_spin_pairs(CELL8, rows, np.array([1.0, 0.0]), np.array([1.0]))


def test_spin_pairs_need_a_row_per_two_occupations():
    rows = np.zeros((2, 1) + (CELL8.n,) * 3)
    with pytest.raises(ValueError, match="5 occupations need 3 scalar rows, got 2"):
        DensityMatrix.from_spin_pairs(CELL8, rows, np.array([1.0, 0.0]), np.ones(5))


def test_total_energy_matches_dense_contraction():
    # rank-1 random state on an 8^3 grid: every term against a brute-force
    # contraction with independently assembled integrals
    rng = np.random.default_rng(8)
    orbs = _orthonormal_orbitals(CELL8, rng, 1, kfrac=0.4)
    eps = 0.73
    gamma = DensityMatrix(orbs, np.array([eps]))
    raw = bandlimited_vector(CELL8, rng, 0.3)
    A = MagneticPotential(helmholtz_project(VectorField(CELL8, 0.4 * raw.values)))
    spec = SystemSpec(CELL8, (Nucleus(1.5, (3.0, 3.0, 3.0)),), N=eps, alpha=0.3)
    V = external_potential(spec)
    breakdown = total_energy(gamma, A, spec, V=V)

    # kinetic as half the squared norm of the first-order root (the
    # band-limited orbital has no Nyquist content)
    root = apply_sigma_kinetic_root(orbs[0], A)
    kinetic_oracle = eps * 0.5 * root.norm() ** 2
    assert abs(breakdown.kinetic - kinetic_oracle) < 1e-10 * max(abs(kinetic_oracle), 1.0)

    rho = density(gamma)
    ext_oracle = float(np.sum(V.values * rho.values) * CELL8.dV)
    assert abs(breakdown.external - ext_oracle) < 1e-12 * max(abs(ext_oracle), 1.0)

    # Hartree by dense double sum against the tabulated periodic kernel
    g_r = green_function_GR(CELL8)
    n = CELL8.n
    rho_flat = rho.values.ravel()
    idx = np.arange(n**3)
    iz = idx % n
    iy = (idx // n) % n
    ix = idx // (n * n)
    gvals = g_r.values
    diff_x = (ix[:, None] - ix[None, :]) % n
    diff_y = (iy[:, None] - iy[None, :]) % n
    diff_z = (iz[:, None] - iz[None, :]) % n
    kernel = gvals[diff_x, diff_y, diff_z]
    hartree_oracle = 0.5 * float(rho_flat @ kernel @ rho_flat) * CELL8.dV**2
    assert abs(breakdown.hartree - hartree_oracle) < 1e-10 * max(abs(hartree_oracle), 1.0)

    mag_oracle = A.B.square_integral() / (8 * np.pi * spec.alpha**2)
    assert abs(breakdown.magnetic - mag_oracle) < 1e-12 * max(abs(mag_oracle), 1.0)

    total = kinetic_oracle + ext_oracle + hartree_oracle + mag_oracle
    assert abs(breakdown.total - total) < 1e-10 * max(abs(total), 1.0)


def test_total_energy_zero_field_decouples():
    # A = 0 kills the magnetic term and the spin coupling
    rng = np.random.default_rng(9)
    orbs = _orthonormal_orbitals(CELL8, rng, 2)
    gamma = DensityMatrix(orbs, np.array([1.0, 1.0]))
    spec = SystemSpec(CELL8, (Nucleus(2.0, (3.0, 3.0, 3.0)),), N=2.0, alpha=0.05)
    breakdown = total_energy(gamma, MagneticPotential.zero(CELL8), spec)
    assert breakdown.magnetic == 0.0
    assert abs(breakdown.kinetic - kinetic_laplacian_trace(gamma, None) / 2.0) < 1e-12 * max(
        abs(breakdown.kinetic), 1.0
    )
    assert breakdown.kinetic >= 0.0


def test_family_energy_scalings(family):
    # kinetic scales as lam^2 (and vanishes), the other three as lam
    from dataclasses import replace

    from magrhf.zeromodes import dilate

    fam = replace(family, epsilon=0.8)
    z, alpha = 1.3, 0.21
    base = fam.energy_terms(z, alpha)
    for lam in (0.5, 2.0, 10.0):
        scaled = dilate(fam, lam).energy_terms(z, alpha)
        assert scaled.kinetic == lam**2 * base.kinetic == 0.0
        assert abs(scaled.external - lam * base.external) <= 1e-12 * abs(base.external)
        assert abs(scaled.hartree - lam * base.hartree) <= 1e-12 * abs(base.hartree)
        assert abs(scaled.magnetic - lam * base.magnetic) <= 1e-12 * abs(base.magnetic)


def test_kinetic_inequalities_on_random_states():
    rng = np.random.default_rng(10)
    cell = Cell(8.0, 16)
    raw = [bandlimited_spinor(cell, rng, 0.3).values for _ in range(2)]
    flat = np.stack([r.ravel() for r in raw])
    q, _ = np.linalg.qr(flat.T)
    orbs = tuple(
        SpinorField(cell, q[:, i].reshape((2,) + (cell.n,) * 3) / np.sqrt(cell.dV))
        for i in range(2)
    )
    gamma = DensityMatrix(orbs, np.array([1.0, 0.5]))
    rep = kinetic_inequality_report(gamma, None)
    assert rep["hoffmann_ostenhof_ok"]
    assert rep["kinetic_trace"] > 0
