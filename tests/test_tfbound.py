"""Radial Thomas-Fermi functional, its minimisation, the penalised
functional and the lower-bound chain."""

import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from magrhf.constants import C_LT_CLASSICAL, C_SOBOLEV_SHARP
from magrhf.tfbound import (
    RadialGrid,
    TFDensity,
    beta_lower_bound_chain,
    kkt_residual,
    penalised_f,
    tf_energy,
    tf_energy_terms,
    tf_minimize,
)
from magrhf.zeromodes import beta_rank1_upper_bound, f_z, loss_yau

GRID = RadialGrid()


def _gaussian(grid, s=1.0, mass=1.0):
    return TFDensity(grid, mass * np.exp(-0.5 * (grid.r / s) ** 2) / (2 * np.pi * s * s) ** 1.5)


def test_radial_grid_invariants():
    assert np.all(GRID.weights > 0)
    assert abs(_gaussian(GRID).mass() - 1.0) < 1e-8
    with pytest.raises(ValueError):
        RadialGrid(1.0, 0.5, 64)


def test_tf_energy_zero_density():
    assert tf_energy(TFDensity(GRID, np.zeros(GRID.points))) == 0.0


def test_tf_energy_gaussian_closed_forms():
    s = 1.0
    rho = _gaussian(GRID, s)
    kinetic, hartree, attraction = tf_energy_terms(rho)
    assert abs(hartree - 1.0 / (2.0 * math.sqrt(math.pi) * s)) < 1e-5
    assert abs(attraction - math.sqrt(2.0 / math.pi) / s) < 1e-8


def test_tf_energy_exact_term_scaling():
    # rho -> a b^3 rho(b x): terms scale by a^(5/3) b^2, a^2 b, a b exactly
    rho = _gaussian(GRID)
    k0, h0, a0 = tf_energy_terms(rho)
    amp, b = 2.3, 0.7
    scaled = rho.rescaled(amp, b)
    k1, h1, a1 = tf_energy_terms(scaled)
    assert abs(k1 - amp ** (5.0 / 3.0) * b**2 * k0) < 1e-12 * abs(k1)
    assert abs(h1 - amp**2 * b * h0) < 1e-12 * abs(h1)
    assert abs(a1 - amp * b * a0) < 1e-12 * abs(a1)


def test_tf_energy_negative_for_small_gaussian():
    # small mass makes the linear attraction dominate
    rho = _gaussian(GRID, s=1.0, mass=0.2)
    assert tf_energy(rho) < 0.0


def test_tf_energy_convex_along_segments():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = TFDensity(GRID, np.abs(rng.standard_normal(GRID.points)) * np.exp(-GRID.r))
        b = TFDensity(GRID, np.abs(rng.standard_normal(GRID.points)) * np.exp(-0.5 * GRID.r))
        for t in (0.25, 0.5, 0.75):
            mix = TFDensity(GRID, (1 - t) * a.values + t * b.values)
            upper = (1 - t) * tf_energy(a) + t * tf_energy(b)
            assert tf_energy(mix) <= upper + 1e-10 * max(abs(upper), 1.0)


def test_tf_minimize_converges_and_is_stable():
    res = tf_minimize(GRID, tol=1e-7)
    assert res.converged
    assert res.energy < 0.0
    assert res.kkt <= 1e-7
    assert abs(kkt_residual(res.rho) - res.kkt) < 1e-12
    # the projected gradient alone takes ~94 steps on the default grid
    assert res.iterations <= 200
    # regression value of I_TF on the default grid
    assert abs(res.energy - (-2.1924723066335874)) <= 1e-12 * 2.1924723066335874
    fine = tf_minimize(GRID.refined(), tol=1e-7)
    assert abs(fine.energy - res.energy) < 1e-4 * abs(res.energy)


def test_penalised_f_on_family_equals_f_z(family):
    fam = replace(family, epsilon=0.7)
    base = f_z(fam, 1.5)
    for lam in (0.0, 0.3, 2.0, 50.0):
        assert penalised_f(fam, 1.5, lam) == base
    with pytest.raises(ValueError):
        penalised_f(fam, 1.5, -0.1)


def test_penalised_f_grid_state_gap_is_kinetic(family):
    # a grid state that is not a zero mode pays lam * kinetic / B2^2
    import numpy as np

    from magrhf.density import DensityMatrix
    from magrhf.fields import Cell
    from magrhf.zeromodes import sample_on_cell

    cell = Cell(20.0, 24)
    psi, pot = sample_on_cell(family, cell)
    # perturb the orbital so the kinetic trace is visibly nonzero
    vals = psi.values.copy()
    x = cell.coords
    vals[0] *= 1.0 + 0.2 * np.sin(2 * np.pi * x[0] / cell.L)
    from magrhf.fields import SpinorField

    psi2 = SpinorField(cell, vals / np.sqrt(np.sum(np.abs(vals) ** 2) * cell.dV))
    gamma = DensityMatrix((psi2,), np.array([1.0]))
    v0 = penalised_f((gamma, pot), 1.0, 0.0)
    v1 = penalised_f((gamma, pot), 1.0, 2.0)
    gap = v1 - v0
    assert gap >= 0.0
    from magrhf.density import kinetic_laplacian_trace, magnetisation

    kin = kinetic_laplacian_trace(gamma, pot) + float(
        np.sum(pot.B.values * magnetisation(gamma).values) * cell.dV
    )
    assert abs(gap - 2.0 * kin / pot.field_energy_raw**2) < 1e-10 * max(abs(gap), 1e-10)


def test_chain_scales_exactly_and_is_finite(tf_default):
    led1 = beta_lower_bound_chain(1.0, i_tf=tf_default.energy)
    assert np.isfinite(led1.bound) and led1.bound < 0.0
    for z in (2.0, 8.0):
        led = beta_lower_bound_chain(z, i_tf=tf_default.energy)
        assert led.bound / z ** (7.0 / 6.0) == led1.chain_constant
        assert led.lam == (4.0 / led.c_lt) * z ** (7.0 / 6.0)
        assert led.scale_amplitude == z and abs(led.scale_length - z ** (-5.0 / 6.0)) < 1e-15


def test_chain_young_and_offset_steps(tf_default):
    led = beta_lower_bound_chain(1.0, i_tf=tf_default.energy)
    # Young's inequality with the recorded epsilon and coefficient
    rng = np.random.default_rng(1)
    eps = led.young_epsilon
    coeff = (5.0 / 8.0) * (3.0 / (8.0 * eps)) ** 0.6
    for _ in range(200):
        a, b = rng.uniform(0, 5, 2)
        assert a * b <= eps * a ** (8 / 3) + coeff * b ** (8 / 5) + 1e-12
    # the offset constant is the supremum of c Y^(6/5) - Y^2/2
    ys = np.linspace(0, 10, 200001)
    sup = np.max(led.young_coefficient * ys ** 1.2 - 0.5 * ys**2)
    assert abs(sup - led.offset_constant) < 1e-7
    assert led.c_lt == C_LT_CLASSICAL and led.c_sobolev == C_SOBOLEV_SHARP


def test_chain_runs_tf_on_demand():
    # the chain takes the Thomas-Fermi energy of any tf_minimize run
    tf = tf_minimize(RadialGrid(points=512), tol=1e-5)
    led = beta_lower_bound_chain(1.0, i_tf=tf.energy)
    assert led.i_tf == tf.energy < 0.0


def test_sandwich_with_rank1_upper_bound(tf_default, family):
    for z in (1.0, 2.0, 8.0):
        lower = beta_lower_bound_chain(z, i_tf=tf_default.energy).bound
        _, upper = beta_rank1_upper_bound(z, 1.0, family)
        assert lower <= upper < 0.0


def test_chain_validation():
    with pytest.raises(ValueError):
        beta_lower_bound_chain(-1.0, i_tf=-2.0)
    with pytest.raises(ValueError):
        beta_lower_bound_chain(1.0, {"C_LT": -5.0}, i_tf=-2.0)


def test_tf_minimize_flags_nonconvergence():
    res = tf_minimize(RadialGrid(points=256), tol=1e-14, max_iter=3)
    assert not res.converged
    assert res.kkt > 1e-14
