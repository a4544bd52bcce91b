"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or in
the captured output of failing tests).  Heavy self-consistent states
are session fixtures shared with the unit tests.
"""

import math
import time
from dataclasses import replace

import numpy as np
from numpy.testing import assert_allclose

from magrhf.constants import C_LT_CLASSICAL
from magrhf.density import DensityMatrix, kinetic_inequality_report
from magrhf.fields import Cell, ScalarField
from magrhf.hamiltonian import (
    MagneticPotential,
    Nucleus,
    SystemSpec,
    external_potential,
    green_function_GR,
)
from magrhf.scf import SCFConfig, eigensolve, make_hamiltonian, scan_alpha, scf_solve
from magrhf.spinless import scf_solve_spinless
from magrhf.tfbound import RadialGrid, beta_lower_bound_chain, tf_minimize
from magrhf.zeromodes import (
    alpha_c_from_beta,
    beta_rank1_upper_bound,
    dilate,
    f_z,
    grid_residual,
    instability_scan,
    loss_yau,
    sample_on_cell,
)


def test_criterion_01_zero_mode_grid_residual(family):
    t0 = time.time()
    residuals = {n: grid_residual(family, Cell(40.0, n)) for n in (48, 64, 96)}
    elapsed = time.time() - t0
    decreasing = residuals[48] > residuals[64] > residuals[96]
    print(
        f"[criterion 1] residuals n48={residuals[48]:.3e} n64={residuals[64]:.3e} "
        f"n96={residuals[96]:.3e}, monotone={decreasing}, {elapsed:.0f} s"
    )
    assert elapsed <= 60.0
    assert decreasing, "residual must decrease monotonically over n in {48, 64, 96}"
    # The stated bound: the periodisation error of the slowly decaying
    # tails (|Psi| ~ r^-2 at the faces) floors the spectral residual at
    # the 1e-1 level for L = 40 regardless of n, so this assertion
    # records the discretisation reality rather than passing.
    assert residuals[96] <= 1e-6, (
        f"grid residual {residuals[96]:.3e} at L=40, n=96 sits on the "
        "boundary-wrap floor of the power-law tails (see the Criterion 1 analysis in CHANGES.md)"
    )
    print("[criterion 1] PASS")


def test_criterion_02_exact_scaling_laws(family):
    t0 = time.time()
    fam = replace(family, epsilon=0.8)
    z, alpha = 1.7, 0.33
    base = fam.energy_terms(z, alpha)
    for lam in (0.5, 2.0, 10.0):
        scaled = dilate(fam, lam).energy_terms(z, alpha)
        assert scaled.kinetic == lam**2 * base.kinetic == 0.0
        assert abs(scaled.external - lam * base.external) <= 1e-12 * abs(base.external)
        assert abs(scaled.hartree - lam * base.hartree) <= 1e-12 * abs(base.hartree)
        assert abs(scaled.magnetic - lam * base.magnetic) <= 1e-12 * abs(base.magnetic)
        assert dilate(fam, lam).trace() == fam.trace()
    assert time.time() - t0 <= 1.0
    print("[criterion 2] PASS: kinetic x lam^2 and attraction/Hartree/field x lam, exact")


def test_criterion_03_threshold_sandwich(family, tf_default):
    t0 = time.time()
    for z in (1.0, 2.0, 8.0):
        eps_star, beta_ub = beta_rank1_upper_bound(z, 1.0, family)
        assert beta_ub < 0.0
        lower = beta_lower_bound_chain(z, i_tf=tf_default.energy).bound
        assert lower <= beta_ub
        # brute-force 1e5-point amplitude scan
        eps = np.linspace(0.0, 1.0, 100001)[1:]
        vals = (0.5 * eps**2 * family.d1 - z * eps * family.i1) / family.b2
        assert abs(beta_ub - vals.min()) < 1e-10
    assert alpha_c_from_beta(-1.0 / (8.0 * math.pi)) == 1.0
    assert alpha_c_from_beta(-1.0 / (32.0 * math.pi)) == 2.0
    elapsed = time.time() - t0
    assert elapsed <= 30.0
    print(f"[criterion 3] PASS: beta sandwich for z in (1, 2, 8), inversions exact, {elapsed:.1f} s")


def test_criterion_04_instability_demonstration(family):
    t0 = time.time()
    z, N = 1.0, 1.0
    eps_star, beta_ub = beta_rank1_upper_bound(z, N, family)
    ac = alpha_c_from_beta(beta_ub)
    lambdas = [1.0, 2.0, 4.0, 8.0, 16.0]
    above = instability_scan(z, N, 1.5 * ac, lambdas, family)
    parenthesis = (
        0.5 * eps_star**2 * family.d1
        - z * eps_star * family.i1
        + family.b2 / (8.0 * math.pi * (1.5 * ac) ** 2)
    )
    assert parenthesis < 0.0
    assert abs(above.slope - parenthesis) < 1e-10 * abs(parenthesis)
    assert abs(above.slope_fit - parenthesis) < 1e-10 * abs(parenthesis)
    for lam, e in zip(above.lambdas, above.energies):
        assert abs(e - lam * above.slope) < 1e-10 * max(abs(e), 1.0)
    below = instability_scan(z, N, 0.5 * ac, lambdas, family)
    assert below.slope > 0.0
    elapsed = time.time() - t0
    assert elapsed <= 5.0
    print(f"[criterion 4] PASS: affine dilation energy, slope sign flips at alpha_c, {elapsed:.1f} s")


def test_criterion_05_scf_matches_independent_path():
    t0 = time.time()
    cell = Cell(20.0, 48)
    spec = SystemSpec(cell, (Nucleus(2.0, (10.0, 10.0, 10.0)),), N=2.0, alpha=0.02)
    # the energy is stationary at the fixed point, so orbital residuals of
    # 1e-8 pin the total far below the 1e-8 relative comparison
    state = scf_solve(spec, SCFConfig(tol=1e-8, pin_A=True, max_iter=60, seed=0))
    assert state.converged
    ref = scf_solve_spinless(spec, tol=1e-9, eig_tol=1e-10)
    assert ref.converged
    rel = abs(state.energy.total - ref.energy_total) / abs(ref.energy_total)
    assert rel < 1e-8

    # dense-diagonalization oracle on a 6^3 grid
    cell6 = Cell(6.0, 6)
    rng = np.random.default_rng(5)
    v = ScalarField(cell6, rng.standard_normal((6,) * 3))
    from magrhf.fields import VectorField, helmholtz_project

    A = MagneticPotential(
        helmholtz_project(VectorField(cell6, 0.3 * rng.standard_normal((3,) + (6,) * 3)))
    )
    apply_h = make_hamiltonian(cell6, v, A)
    dim = 2 * 6**3
    basis = np.eye(dim, dtype=complex).reshape(dim, 2, 6, 6, 6)
    H = apply_h(basis).reshape(dim, dim).T
    ref_levels = np.linalg.eigvalsh(H)
    levels, _, _, _, _ = eigensolve(apply_h, cell6, 4, block=8, tol=1e-11, seed=0, max_iter=600)
    dense_err = np.abs(levels[:4] - ref_levels[:4]).max()
    assert dense_err < 1e-9
    # the scalar block of the spin-free path, for long enough that the
    # conjugate directions P enter the Rayleigh-Ritz update
    def apply_scalar(X):
        return cell6.from_spectral(0.5 * cell6.k2_full * cell6.to_spectral(X)) + v.values * X

    dim1 = 6**3
    H1 = apply_scalar(np.eye(dim1, dtype=complex).reshape(dim1, 1, 6, 6, 6)).reshape(dim1, dim1).T
    levels1, _, _, iters1, _ = eigensolve(
        apply_scalar, cell6, 4, block=6, tol=1e-11, seed=0, max_iter=600, components=1
    )
    assert iters1 >= 3
    dense_err = max(dense_err, np.abs(levels1[:4] - np.linalg.eigvalsh(H1)[:4]).max())
    assert dense_err < 1e-9
    elapsed = time.time() - t0
    assert elapsed <= 600.0
    print(
        f"[criterion 5] PASS: paths agree to {rel:.2e} rel, dense oracle {dense_err:.2e}, "
        f"{elapsed:.0f} s"
    )


def test_criterion_06_euler_lagrange_residuals(criterion6_molecular, criterion6_periodic):
    for tag, (spec, state) in (
        ("molecular", criterion6_molecular),
        ("periodic", criterion6_periodic),
    ):
        assert state.converged, f"{tag} run failed to converge"
        assert state.residual_orbital <= 1e-6
        assert state.residual_field <= 1e-6
        assert state.residual_continuity <= 1e-6
    print(
        "[criterion 6] PASS: orbital/field/continuity residuals <= 1e-6 for the "
        "molecular and periodic neutral runs at alpha = 0.02"
    )


def test_criterion_07_energy_structure_over_alpha(criterion6_periodic):
    t0 = time.time()
    spec, state = criterion6_periodic
    # six couplings chosen so u = alpha^(-2) is uniformly spaced
    u = np.linspace(2500.0, 400.0, 6)
    alphas = sorted(float(x) for x in u**-0.5)
    cfg = SCFConfig(tol=1e-7, max_iter=60, seed=0)
    rows = scan_alpha(spec, alphas, cfg)
    assert all(r.converged for r in rows)
    energies = {r.alpha: r.energy.total for r in rows}
    e_list = [energies[a] for a in alphas]
    # monotone non-increasing in alpha within solver noise
    assert all(b <= a + 1e-7 for a, b in zip(e_list, e_list[1:]))
    # concavity in u: second differences over the uniform u grid
    e_by_u = [energies[float(x**-0.5)] for x in u]
    second = [e_by_u[i + 1] - 2 * e_by_u[i] + e_by_u[i - 1] for i in range(1, 5)]
    assert max(second) <= 1e-7
    elapsed = time.time() - t0
    assert elapsed <= 3600.0
    print(
        f"[criterion 7] PASS: I(alpha) non-increasing, max second difference "
        f"{max(second):+.2e} over the uniform alpha^-2 grid, {elapsed:.0f} s"
    )


def test_criterion_08_inequality_suite(criterion6_molecular, criterion6_periodic, family):
    checked = 0
    for _, state in (criterion6_molecular, criterion6_periodic):
        for entry in state.inequality_ledger:
            assert entry["lieb_thirring_ok"], f"Lieb-Thirring violated at iterate {entry['iteration']}"
            assert entry["hoffmann_ostenhof_ok"], f"Hoffmann-Ostenhof violated at iterate {entry['iteration']}"
            assert entry["sobolev_ok"], f"Sobolev bound violated at iterate {entry['iteration']}"
            checked += 1
    # grid-sampled zero mode as a rank-1 state at full amplitude
    cell = Cell(40.0, 48)
    psi, pot = sample_on_cell(family, cell)
    gamma = DensityMatrix((psi.normalized(),), np.array([1.0]))
    rep = kinetic_inequality_report(gamma, pot)
    assert rep["lieb_thirring_ok"] and rep["hoffmann_ostenhof_ok"] and rep["sobolev_ok"]
    print(f"[criterion 8] PASS: zero violations over {checked} SCF iterates and the sampled zero mode")


def test_criterion_09_periodic_green_function():
    t0 = time.time()
    cell = Cell(9.0, 24)
    g = green_function_GR(cell)
    coeffs = cell.to_spectral(g.values) * cell.volume
    k2 = cell.k2_full
    expected = np.where(k2 > 0, 4 * np.pi / np.where(k2 > 0, k2, 1.0), 0.0)
    assert np.abs(coeffs - expected).max() < 1e-12 * expected.max()
    assert abs(coeffs[0, 0, 0]) < 1e-13

    # short-distance limit along grid diagonals, Richardson extrapolated;
    # the kernel is smoothed over two spacings to damp the sharp-cutoff
    # oscillation before extrapolating
    cell_f = Cell(14.0, 160)
    sigma = 2.0 * cell_f.spacing
    smooth = ScalarField(
        cell_f,
        cell_f.from_spectral(
            4.0 * np.pi * cell_f.inv_k2 / cell_f.volume * np.exp(-0.5 * cell_f.k2_full * sigma**2)
        ).real,
    )

    def g_times_r(j):
        return smooth.values[j, j, j] * (j * cell_f.spacing * math.sqrt(3.0))

    f1, f2, f4 = g_times_r(16), g_times_r(8), g_times_r(4)
    first = 2 * f2 - f1
    second = 2 * f4 - f2
    extrapolated = second + (second - first) / 3.0
    assert abs(extrapolated - 1.0) <= 1e-2

    # V_per mean-zero
    spec = SystemSpec(cell, (Nucleus(1.0, (4.5, 4.5, 4.5)),), N=1.0, alpha=0.1, mode="periodic")
    v = external_potential(spec, s_nuc=0.0)
    assert abs(v.mean()) < 1e-12
    elapsed = time.time() - t0
    assert elapsed <= 5.0
    print(
        f"[criterion 9] PASS: coefficients 4 pi/|k|^2, diagonal limit "
        f"{extrapolated:.4f}, V_per mean-zero, {elapsed:.1f} s"
    )


def test_criterion_10_tf_bound(tf_default):
    t0 = time.time()
    assert tf_default.converged
    assert tf_default.energy < 0.0
    assert tf_default.kkt <= 1e-6
    fine = tf_minimize(RadialGrid().refined(), tol=1e-6)
    assert abs(fine.energy - tf_default.energy) <= 1e-4 * abs(tf_default.energy)
    led1 = beta_lower_bound_chain(1.0, i_tf=tf_default.energy)
    for z in (2.0, 8.0):
        led = beta_lower_bound_chain(z, i_tf=tf_default.energy)
        assert abs(led.bound / z ** (7.0 / 6.0) - led1.chain_constant) <= 1e-12 * abs(led1.chain_constant)
    elapsed = time.time() - t0
    assert elapsed <= 120.0
    print(
        f"[criterion 10] PASS: I_TF = {tf_default.energy:.6f} (kkt {tf_default.kkt:.1e}), "
        f"chain constant {led1.chain_constant:.6f}, exact z^(7/6) scaling, {elapsed:.0f} s"
    )
