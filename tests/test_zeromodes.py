"""Analytic zero-mode family, thresholds and the dilation instability."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from conftest import meshgrid_displacements, meshgrid_k
from magrhf.fields import Cell, SpinorField, VectorField
from magrhf.hamiltonian import PAULI, MagneticPotential, _sigma_dot, _sigma_entries, apply_sigma_kinetic_root
from magrhf.zeromodes import (
    CROSS_SIGN,
    SPINOR_CONJ,
    ZeroModeFamily,
    a_values,
    alpha_c_from_beta,
    b_values,
    beta_rank1_upper_bound,
    dilate,
    f_z,
    grid_residual,
    instability_scan,
    loss_yau,
    psi_values,
    sample_on_cell,
    spinor_along,
)


@pytest.fixture(scope="module")
def fam():
    return loss_yau((0.0, 0.0, 1.0))


# ------------------------------------------------------------ analytic family
def test_unnormalized_profile_and_constant(fam):
    # |Psi|^2 before normalization is (1 + r^2)^(-2); c^2 = 1/pi^2
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((3, 40))
    r2 = np.sum(pts * pts, axis=0)
    psi = psi_values(pts, np.array([0.0, 0.0, 1.0]))
    dens = np.sum(np.abs(psi) ** 2, axis=0)
    assert_allclose(dens, (1.0 + r2) ** -2 / math.pi**2, rtol=1e-12)
    norm, _ = quad(lambda r: 4 * math.pi * r * r * (1 + r * r) ** -2 / math.pi**2, 0, np.inf)
    assert abs(norm - 1.0) < 1e-10


def test_cached_integrals_match_radial_quadrature_closed_forms(fam):
    # the family carries the closed forms I1 = 2/pi, D1 = 1/pi (via the
    # arctan potential) and B2 = 18 pi^2; radial quadrature of the
    # normalised density (1 + r^2)^(-2) / pi^2 and of |b_values|^2 checks them
    assert (fam.i1, fam.d1, fam.b2) == (2.0 / math.pi, 1.0 / math.pi, 18.0 * math.pi**2)
    opts = dict(epsabs=1e-13, epsrel=1e-12)
    i1_oracle, _ = quad(lambda r: 4 * math.pi * r * (1 + r * r) ** -2 / math.pi**2, 0.0, np.inf, **opts)
    assert abs(fam.i1 - i1_oracle) < 1e-10
    d1_oracle, _ = quad(
        lambda r: 4 * math.pi * r * r * (1 + r * r) ** -2 / math.pi**2
        * (2.0 / math.pi) * np.arctan(r) / r,
        0.0, np.inf, **opts,
    )
    assert abs(fam.d1 - d1_oracle) < 1e-10
    # angular average of |B|^2 by Gauss-Legendre in cos(theta), the
    # field being symmetric about w
    mu, wts = np.polynomial.legendre.leggauss(32)
    w = np.array([0.0, 0.0, 1.0])

    def b2_shell(r):
        pts = np.stack([r * np.sqrt(1.0 - mu**2), np.zeros_like(mu), r * mu])
        b = b_values(pts, w)
        return 2.0 * math.pi * r * r * float(np.sum(wts * np.sum(b * b, axis=0)))

    b2_oracle, _ = quad(b2_shell, 0.0, np.inf, **opts)
    assert abs(fam.b2 - b2_oracle) < 1e-8


def test_spin_direction_validation():
    with pytest.raises(ValueError):
        loss_yau((0.0, 0.0, 2.0))
    w = np.array([1.0, 1.0, 0.5])
    w /= np.linalg.norm(w)
    f = loss_yau(tuple(w))
    assert abs(np.linalg.norm(f.w) - 1.0) < 1e-12


def test_frozen_sign_convention_is_the_zero_mode():
    # the frozen (conjugation, cross) signs minimise the grid residual
    # among the four combinations; regression against convention drift
    cell = Cell(24.0, 48)
    d = cell.displacements((12.0,) * 3)
    w = np.array([0.0, 0.0, 1.0])
    res = {}
    for conj_sign in (+1.0, -1.0):
        for cross in (+1.0, -1.0):
            psi = SpinorField(cell, psi_values(d, w, conj_sign=conj_sign))
            pot = MagneticPotential(
                VectorField(cell, a_values(d, w, cross_sign=cross)), check_gauge=False
            )
            r = apply_sigma_kinetic_root(psi, pot)
            res[(conj_sign, cross)] = r.norm() / psi.norm()
    best = min(res, key=res.get)
    assert best == (SPINOR_CONJ, CROSS_SIGN)
    worst = max(res.values())
    assert res[best] < 0.2 * worst


def test_b_values_is_curl_of_a(fam):
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((3, 30)) * 1.5
    w = np.array([0.0, 0.0, 1.0])
    h = 1e-6
    dA = np.zeros((3, 3, pts.shape[1]))
    for j in range(3):
        dp = pts.copy(); dm = pts.copy()
        dp[j] += h; dm[j] -= h
        dA[j] = (a_values(dp, w) - a_values(dm, w)) / (2 * h)
    curl_fd = np.stack([dA[1, 2] - dA[2, 1], dA[2, 0] - dA[0, 2], dA[0, 1] - dA[1, 0]])
    assert np.abs(curl_fd - b_values(pts, w)).max() < 1e-8


def test_grid_residual_small_and_decreasing(fam):
    cells = [Cell(40.0, n) for n in (24, 32, 48)]
    residuals = [grid_residual(fam, c) for c in cells]
    assert all(b < a for a, b in zip(residuals, residuals[1:]))


def test_grid_residual_matches_the_per_axis_root(fam):
    # the root as one series (sigma . k) c agrees with the sum over axes of
    # sigma_i (p_i + A_i) psi, each derivative transformed on its own
    for n in (24, 48):
        cell = Cell(40.0, n)
        psi, pot = sample_on_cell(fam, cell)
        c = cell.to_spectral(psi.values)
        per_axis = sum(
            np.einsum("st,tijk->sijk", PAULI[i], cell.from_spectral(cell.k[i] * c) + pot.A.values[i] * psi.values)
            for i in range(3)
        )
        want = SpinorField(cell, per_axis).norm() / psi.norm()
        assert abs(grid_residual(fam, cell) - want) <= 1e-14 * want


def _dense_psi(x, w):
    """Psi on dense (3, ...) points, in the operation order of the formula."""
    phi = spinor_along(w)
    r2 = np.sum(x * x, axis=0)
    pref = (1.0 / math.pi) * (1.0 + r2) ** -1.5
    s = 1j * SPINOR_CONJ
    up = (1.0 + s * x[2]) * phi[0] + s * (x[0] - 1j * x[1]) * phi[1]
    dn = s * (x[0] + 1j * x[1]) * phi[0] + (1.0 - s * x[2]) * phi[1]
    return np.stack([pref * up, pref * dn])


def _dense_a_b(x, w):
    """A and B on dense (3, ...) points, in the operation order of the formulas."""
    r2 = np.sum(x * x, axis=0)
    wv = np.asarray(w).reshape(3, *([1] * (x.ndim - 1)))
    wdotx = np.sum(wv * x, axis=0)
    cross = np.stack([x[1] * wv[2] - x[2] * wv[1], x[2] * wv[0] - x[0] * wv[2], x[0] * wv[1] - x[1] * wv[0]])
    wcx = np.stack([wv[1] * x[2] - wv[2] * x[1], wv[2] * x[0] - wv[0] * x[2], wv[0] * x[1] - wv[1] * x[0]])
    a = 3.0 * (1.0 + r2) ** -2 * ((1.0 - r2) * wv + 2.0 * wdotx * x + 2.0 * CROSS_SIGN * cross)
    b = 12.0 * (1.0 + r2) ** -3 * ((r2 - 1.0) * wv - 2.0 * wdotx * x + 2.0 * wcx)
    return a, b


def test_evaluators_on_broadcast_axes_match_dense_points_bit_for_bit():
    # the cell's displacement axes against the (3, n, n, n) meshgrid table,
    # also through a dilated family, whose scale factors act in place
    w = np.array([0.36, -0.48, 0.8])
    cell = Cell(40.0, 32)
    center = (0.5 * cell.L,) * 3
    axes, x = cell.displacements(center), meshgrid_displacements(cell, center)
    a, b = _dense_a_b(x, w)
    assert np.array_equal(psi_values(axes, w), _dense_psi(x, w))
    assert np.array_equal(a_values(axes, w), a)
    assert np.array_equal(b_values(axes, w), b)
    lam = 1.7
    fam = dilate(loss_yau(tuple(w)), lam)
    a, b = _dense_a_b(lam * x, w)
    assert np.array_equal(fam.psi(axes), lam**1.5 * _dense_psi(lam * x, w))
    assert np.array_equal(fam.vector_potential(axes), lam * a)
    assert np.array_equal(fam.magnetic_field(axes), lam**2 * b)


def test_grid_residual_matches_the_dense_tables_bit_for_bit():
    # the pair sampled on the meshgrid displacements and the root taken
    # with the sigma . k entries of the (3, n, n, n) wave vectors
    w = np.array([0.36, -0.48, 0.8])
    fam = loss_yau(tuple(w))
    for n in (24, 48):
        cell = Cell(40.0, n)
        x = meshgrid_displacements(cell, (0.5 * cell.L,) * 3)
        psi = SpinorField(cell, _dense_psi(x, w))
        c = cell.to_spectral(psi.values)
        s, buf = np.empty_like(c), np.empty_like(c[0])
        root = cell.from_spectral(_sigma_dot(_sigma_entries(meshgrid_k(cell)), c, s, buf))
        root += _sigma_dot(_sigma_entries(_dense_a_b(x, w)[0]), psi.values, s, buf)
        assert grid_residual(fam, cell) == SpinorField(cell, root).norm() / psi.norm()


def test_sampling_holds_no_dense_table(fam):
    # measured at n = 48: a peak of 66.8 n^3 bytes, the pair itself
    # (Psi 32 n^3, A 24 n^3), the one real work array of psi_values
    # (8 n^3) and ~0.3 MB of ufunc cast buffers; any dense (3, n, n, n)
    # coordinate or displacement table would add 24 n^3 (2.7 MB)
    cell = Cell(40.0, 48)
    tracemalloc.start()
    try:
        psi, pot = sample_on_cell(fam, cell)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= psi.values.nbytes + pot.A.values.nbytes + 8 * cell.n**3 + 2**19


def test_sigma_root_memory_on_the_sampled_pair(fam):
    # one call holds its output, one work block and half a block of buffers,
    # plus the spectrum up to the inverse transform and the sigma . A entries
    # after it: 3.5 spinors, measured 3.54 at n = 48; the sigma . k entries
    # are broadcast axes and take no room
    cell = Cell(40.0, 48)
    psi, pot = sample_on_cell(fam, cell)
    cell.k  # cached once per cell, outside the measurement
    tracemalloc.start()
    try:
        apply_sigma_kinetic_root(psi, pot)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.55 * psi.values.nbytes


def test_sampled_pair_matches_analytic_profile(fam):
    cell = Cell(20.0, 16)
    psi, pot = sample_on_cell(fam, cell)
    d = cell.displacements((10.0,) * 3)
    assert_allclose(psi.values, fam.psi(d), rtol=1e-13)
    assert_allclose(pot.A.values, fam.vector_potential(d), rtol=1e-13)


# ------------------------------------------------------------ dilation
def test_dilate_identity_and_bookkeeping(fam):
    assert dilate(fam, 1.0) == fam
    lam2 = dilate(fam, 2.0)
    assert abs(lam2.field_square_integral() - 2.0 * fam.b2) < 1e-12 * fam.b2
    assert lam2.trace() == fam.trace()
    assert lam2.kinetic_trace() == 0.0
    with pytest.raises(ValueError):
        dilate(fam, 0.0)
    # dilation composes multiplicatively
    assert abs(dilate(lam2, 3.0).lam - 6.0) < 1e-15


def test_dilated_evaluators_follow_the_substitution(fam):
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((3, 10))
    lam = 1.7
    d = dilate(fam, lam)
    assert_allclose(d.psi(pts), lam**1.5 * fam.psi(lam * pts), rtol=1e-13)
    assert_allclose(d.vector_potential(pts), lam * fam.vector_potential(lam * pts), rtol=1e-13)
    assert_allclose(d.magnetic_field(pts), lam**2 * fam.magnetic_field(lam * pts), rtol=1e-13)


# ------------------------------------------------------------ f_z and bounds
def test_f_z_exact_dilation_invariance(fam):
    f = replace(fam, epsilon=0.6)
    base = f_z(f, 1.2)
    for lam in (0.5, 2.0, 10.0):
        assert f_z(dilate(f, lam), 1.2) == base


def test_f_z_small_amplitude_slope(fam):
    z = 0.9
    slope = -z * fam.i1 / fam.b2
    for eps in (1e-4, 1e-5):
        val = f_z(replace(fam, epsilon=eps), z)
        assert abs(val / eps - slope) < 1e-3 * abs(slope)


def test_f_z_synthetic_arithmetic():
    fam = ZeroModeFamily(w=(0.0, 0.0, 1.0), epsilon=0.5, i1=1.0, d1=2.0, b2=1.0)
    assert abs(f_z(fam, 1.0) - (-0.25)) < 1e-15
    degenerate = ZeroModeFamily(w=(0.0, 0.0, 1.0), epsilon=0.5, i1=1.0, d1=2.0, b2=0.0)
    with pytest.raises(ValueError):
        f_z(degenerate, 1.0)


def test_beta_bound_synthetic_cases():
    fam = ZeroModeFamily(w=(0.0, 0.0, 1.0), i1=1.0, d1=2.0, b2=1.0)
    eps, beta = beta_rank1_upper_bound(1.0, 5.0, fam)
    assert abs(eps - 0.5) < 1e-15 and abs(beta - (-0.25)) < 1e-15
    eps, beta = beta_rank1_upper_bound(10.0, 5.0, fam)
    assert eps == 1.0 and abs(beta - (0.5 * 2.0 - 10.0)) < 1e-14
    with pytest.raises(ValueError):
        beta_rank1_upper_bound(0.0, 1.0, fam)
    with pytest.raises(ValueError):
        beta_rank1_upper_bound(1.0, 0.0, fam)


def test_beta_bound_brute_force_scan(fam):
    for z, N in ((1.0, 1.0), (0.2, 0.4), (2.0, 1.0)):
        eps_star, beta = beta_rank1_upper_bound(z, N, fam)
        eps_grid = np.linspace(0.0, min(1.0, N), 100001)[1:]
        values = (0.5 * eps_grid**2 * fam.d1 - z * eps_grid * fam.i1) / fam.b2
        assert beta <= values.min() + 1e-10
        assert abs(beta - values.min()) < 1e-10
        assert beta < 0.0
        # trace constraint: Tr(gamma_eps) = eps <= min(1, N)
        assert eps_star <= min(1.0, N) + 1e-15


def test_beta_bound_negative_and_monotone_in_z(fam):
    zs = np.linspace(0.1, 10.0, 25)
    betas = [beta_rank1_upper_bound(z, 1.0, fam)[1] for z in zs]
    assert all(b < 0 for b in betas)
    assert all(b2 <= b1 + 1e-15 for b1, b2 in zip(betas, betas[1:]))


def test_alpha_c_inversions_exact():
    assert alpha_c_from_beta(-1.0 / (8.0 * math.pi)) == 1.0
    assert alpha_c_from_beta(-1.0 / (32.0 * math.pi)) == 2.0
    with pytest.raises(ValueError):
        alpha_c_from_beta(0.0)
    with pytest.raises(ValueError):
        alpha_c_from_beta(0.3)


def test_alpha_c_closed_form_for_unit_charge(fam):
    # eps* clamps to 1 for z = 1, so beta_ub = (1/(2 pi) - 2/pi)/(18 pi^2)
    # = -1/(12 pi^3) under the closed forms I1 = 2/pi, D1 = 1/pi,
    # B2 = 18 pi^2, giving alpha_c = pi sqrt(3/2)
    _, beta = beta_rank1_upper_bound(1.0, 1.0, fam)
    assert abs(beta - (-1.0 / (12.0 * math.pi**3))) < 1e-10
    assert abs(alpha_c_from_beta(beta) - math.pi * math.sqrt(1.5)) < 1e-8


# ------------------------------------------------------------ instability scan
def test_instability_scan_unstable_side(fam):
    z, N = 1.0, 1.0
    _, beta = beta_rank1_upper_bound(z, N, fam)
    ac = alpha_c_from_beta(beta)
    lambdas = [1.0, 2.0, 4.0, 8.0]
    scan = instability_scan(z, N, 1.5 * ac, lambdas, fam)
    assert scan.unstable
    # affine in lambda with the closed-form slope
    for lam, e in zip(scan.lambdas, scan.energies):
        assert abs(e - lam * scan.slope) < 1e-12 * max(abs(e), 1.0)
    assert abs(scan.slope_fit - scan.slope) < 1e-10 * abs(scan.slope)
    # energies strictly decreasing without bound
    assert all(b < a for a, b in zip(scan.energies, scan.energies[1:]))


def test_instability_scan_stable_side(fam):
    z, N = 1.0, 1.0
    _, beta = beta_rank1_upper_bound(z, N, fam)
    ac = alpha_c_from_beta(beta)
    scan = instability_scan(z, N, 0.5 * ac, [1.0, 2.0], fam)
    assert not scan.unstable and scan.slope > 0.0


def test_instability_scan_lambda_one_row(fam):
    z, N, alpha = 1.0, 1.0, 2.0
    scan = instability_scan(z, N, alpha, [1.0], fam)
    eps = scan.epsilon_star
    e_direct = replace(fam, epsilon=eps).energy_terms(z, alpha)
    assert abs(scan.energies[0] - e_direct.total) < 1e-12 * max(abs(e_direct.total), 1.0)


def test_instability_scan_validation(fam):
    with pytest.raises(ValueError):
        instability_scan(1.0, 1.0, 1.0, [2.0, 1.0], fam)
    with pytest.raises(ValueError):
        instability_scan(1.0, 1.0, -1.0, [1.0], fam)


def test_amplitude_bounds():
    with pytest.raises(ValueError):
        ZeroModeFamily(w=(0.0, 0.0, 1.0), epsilon=1.5)
    with pytest.raises(ValueError):
        ZeroModeFamily(w=(0.0, 0.0, 1.0), lam=-1.0)


def test_grid_kinetic_energy_of_zero_mode_decreases(fam):
    # the Pauli kinetic quadratic form vanishes on the analytic family;
    # its grid-sampled counterpart decays under refinement
    assert fam.kinetic_trace() == 0.0
    from magrhf.fields import inner
    from magrhf.hamiltonian import apply_pauli_kinetic

    ratios = []
    kin = []
    for n in (24, 32, 48):
        cell = Cell(40.0, n)
        psi, pot = sample_on_cell(fam, cell)
        out = apply_pauli_kinetic(psi, pot)
        ratios.append(out.norm() / psi.norm())
        kin.append(float(np.real(inner(psi, out))) / psi.norm() ** 2)
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert all(b < a for a, b in zip(kin, kin[1:]))
