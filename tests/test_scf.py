"""Eigensolver, aufbau filling, the field-equation solve and the outer
self-consistent loop."""

import math
import tracemalloc

import numpy as np
import pytest
from conftest import bandlimited_scalar, bandlimited_vector
from numpy.testing import assert_allclose

from magrhf import scf
from magrhf.density import current, density, magnetisation
from magrhf.fields import Cell, ScalarField, VectorField, curl, divergence, helmholtz_project
from magrhf.hamiltonian import MagneticPotential, Nucleus, SystemSpec
from magrhf.scf import (
    EigensolveError,
    SCFConfig,
    concavity_defects,
    eigensolve,
    fermi_fill,
    make_hamiltonian,
    scan_alpha,
    scf_solve,
    update_vector_potential,
)
from magrhf.zeromodes import loss_yau, sample_on_cell


# ------------------------------------------------------------------ eigensolve
def test_free_operator_spectrum():
    cell = Cell(8.0, 12)
    apply_h = make_hamiltonian(cell, None, None)
    levels, orbs, res, _, _ = eigensolve(apply_h, cell, 8, block=10, tol=1e-10, seed=1)
    k1 = (2 * np.pi / 8.0) ** 2 / 2.0
    # two zero modes (constant spinors), then the first shell at k1 with
    # multiplicity 2 (spin) x 6 (directions)
    assert np.abs(levels[:2]).max() < 1e-11
    assert_allclose(levels[2:8], k1, rtol=1e-10)
    # relative residuals of the converged pairs
    assert np.all(res[:8] <= 1e-10)
    # orthonormal orbitals
    flat = orbs.reshape(len(levels), -1)
    gram = flat.conj() @ flat.T * cell.dV
    assert np.abs(gram - np.eye(len(levels))).max() < 1e-9


def test_eigensolve_matches_dense_oracle():
    cell = Cell(6.0, 6)
    rng = np.random.default_rng(3)
    v = ScalarField(cell, rng.standard_normal((6,) * 3))
    A = MagneticPotential(helmholtz_project(VectorField(cell, 0.3 * rng.standard_normal((3,) + (6,) * 3))))
    apply_h = make_hamiltonian(cell, v, A)
    dim = 2 * 6**3
    basis = np.eye(dim, dtype=complex).reshape(dim, 2, 6, 6, 6)
    H = apply_h(basis).reshape(dim, dim).T
    assert np.abs(H - H.conj().T).max() < 1e-13
    ref = np.linalg.eigvalsh(H)
    levels, orbs, _, _, h_orbs = eigensolve(apply_h, cell, 5, block=8, tol=1e-11, seed=0, max_iter=600)
    assert np.abs(levels[:5] - ref[:5]).max() < 1e-9
    # the H X block the iteration kept current is H applied to the result
    direct = apply_h(orbs)
    assert np.linalg.norm(h_orbs - direct) <= 1e-12 * np.linalg.norm(direct)
    # the Rayleigh-Ritz step keeps the returned block orthonormal
    flat = orbs.reshape(len(levels), -1)
    gram = flat.conj() @ flat.T * cell.dV
    assert np.abs(gram - np.eye(len(levels))).max() <= 1e-12


def test_eigensolve_scalar_block_matches_dense_oracle():
    # components=1 is the spin-free oracle's configuration
    cell = Cell(6.0, 6)
    rng = np.random.default_rng(8)
    v = rng.standard_normal((6,) * 3)

    def apply_h(X):
        return cell.from_spectral(0.5 * cell.k2_full * cell.to_spectral(X)) + v * X

    dim = 6**3
    H = apply_h(np.eye(dim, dtype=complex).reshape(dim, 1, 6, 6, 6)).reshape(dim, dim).T
    assert np.abs(H - H.conj().T).max() < 1e-13
    ref = np.linalg.eigvalsh(H)
    levels, orbs, res, _, _ = eigensolve(apply_h, cell, 4, block=6, tol=1e-11, seed=0, max_iter=600, components=1)
    assert orbs.shape == (6, 1, 6, 6, 6)
    assert np.all(res[:4] <= 1e-11)
    assert np.abs(levels[:4] - ref[:4]).max() < 1e-9


def test_eigensolve_zero_mode_level_drops_under_refinement():
    # with the sampled zero-mode potential and V = 0, the lowest level of
    # the Pauli operator collapses to (near) zero under refinement; on
    # coarse grids the discretized square is not exactly positive, so the
    # magnitude is what shrinks
    fam = loss_yau((0.0, 0.0, 1.0))
    lows = []
    for n in (16, 24, 32):
        cell = Cell(24.0, n)
        _, pot = sample_on_cell(fam, cell)
        apply_h = make_hamiltonian(cell, None, pot)
        levels, _, _, _, _ = eigensolve(apply_h, cell, 1, block=3, tol=1e-8, seed=2, max_iter=500)
        lows.append(abs(levels[0]))
    assert lows[-1] < 0.1 * lows[0]
    assert lows[-1] < 1e-3


def _dense_problem(components: int, n: int, seed: int):
    """A random Hermitian operator on a tiny grid, applied as a dense matrix, and its spectrum."""
    cell = Cell(6.0, n)
    dim = components * n**3
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    M = 0.5 * (M + M.conj().T)

    def apply_h(X):
        return (X.reshape(len(X), dim) @ M.T).reshape(X.shape)

    return cell, apply_h, np.linalg.eigvalsh(M)


def _assert_eigenblock(cell, apply_h, levels, orbs, h_orbs, ref, count):
    """The returned block is orthonormal, carries H X and holds the lowest levels."""
    flat = orbs.reshape(len(levels), -1)
    gram = flat.conj() @ flat.T * cell.dV
    assert np.abs(gram - np.eye(len(levels))).max() <= 1e-12
    direct = apply_h(orbs)
    assert np.linalg.norm(h_orbs - direct) <= 1e-12 * np.linalg.norm(direct)
    assert np.abs(levels[:count] - ref[:count]).max() < 1e-9


def test_eigensolve_restart_keeps_the_basis_orthonormal(monkeypatch):
    # The preconditioner is positive, so <R, W> > 0 and W = T R never lies in
    # span[X | P] in exact arithmetic: the restart branch is reached only at
    # working precision.  Force it in iteration 2, where P is present, by
    # making the second whitening of W keep no direction.
    cell = Cell(6.0, 6)
    rng = np.random.default_rng(3)
    v = ScalarField(cell, rng.standard_normal((6,) * 3))
    A = MagneticPotential(helmholtz_project(VectorField(cell, 0.3 * rng.standard_normal((3,) + (6,) * 3))))
    apply_h = make_hamiltonian(cell, v, A)
    dim = 2 * 6**3
    ref = np.linalg.eigvalsh(apply_h(np.eye(dim, dtype=complex).reshape(dim, 2, 6, 6, 6)).reshape(dim, dim).T)
    original, w_calls = scf._whiten, []

    def whiten(g, rel_tol):
        if rel_tol == 1e-10:  # the whitening of W
            w_calls.append(len(g))
            if len(w_calls) == 2:
                return np.zeros((len(g), 0), dtype=complex)
        return original(g, rel_tol)

    monkeypatch.setattr(scf, "_whiten", whiten)
    levels, orbs, _, _, h_orbs = eigensolve(apply_h, cell, 5, block=8, tol=1e-11, seed=0, max_iter=600)
    assert len(w_calls) > 3  # the random restart block was whitened in iteration 2
    _assert_eigenblock(cell, apply_h, levels, orbs, h_orbs, ref, 5)


@pytest.mark.parametrize("components", [1, 2])
def test_eigensolve_soft_locking_narrows_w(components):
    # early pairs converge first and stop spawning search directions, so
    # some W slots hold fewer rows than X
    cell, apply_h, ref = _dense_problem(components, 4, seed=5)
    sizes = []

    def recorded(X):
        sizes.append(len(X))
        return apply_h(X)

    levels, orbs, _, _, h_orbs = eigensolve(recorded, cell, 4, block=8, tol=1e-10, seed=1, max_iter=600,
                                            components=components)
    assert sizes[0] == 8 and min(sizes[1:]) < 8
    _assert_eigenblock(cell, apply_h, levels, orbs, h_orbs, ref, 4)


@pytest.mark.parametrize("components", [1, 2])
def test_eigensolve_rank_loss_after_whitening(components, monkeypatch):
    # a block of 40 (80) in a space of 64 (128) dimensions: W has only 24
    # (48) directions outside X, and P only as many outside the Ritz vectors
    cell, apply_h, ref = _dense_problem(components, 4, seed=7)
    block = 40 * components
    original, widths = scf._whiten, {}

    def whiten(g, rel_tol):
        T = original(g, rel_tol)
        widths.setdefault(rel_tol, []).append((len(g), T.shape[1]))
        return T

    monkeypatch.setattr(scf, "_whiten", whiten)
    levels, orbs, _, _, h_orbs = eigensolve(apply_h, cell, 3, block=block, tol=1e-11, seed=0, max_iter=600,
                                            components=components)
    # W (whitened at 1e-10) and P (at 1e-8) each lost rank in some step
    assert any(kept < rows for rows, kept in widths[1e-10])
    assert any(kept < rows for rows, kept in widths[1e-8])
    _assert_eigenblock(cell, apply_h, levels, orbs, h_orbs, ref, 3)


def test_eigensolve_fills_a_dependent_warm_start():
    # a warm start of 6 rows spanning only 2 directions is filled up to a
    # block of 6 orthonormal rows, and all 4 requested pairs converge
    cell = Cell(6.0, 6)
    rng = np.random.default_rng(0)
    apply_h = make_hamiltonian(cell, ScalarField(cell, rng.standard_normal((6,) * 3)), None)
    ref, X, _, _, _ = eigensolve(apply_h, cell, 4, block=6, tol=1e-9, seed=0)
    X0 = np.tile(X[:2], (3, 1, 1, 1, 1))
    levels, orbs, res, _, h_orbs = eigensolve(apply_h, cell, 4, block=6, tol=1e-9, seed=0, X0=X0)
    assert orbs.shape == X.shape and np.all(res[:4] <= 1e-9)
    _assert_eigenblock(cell, apply_h, levels, orbs, h_orbs, ref, 4)


def test_eigensolve_peak_allocation_in_blocks():
    # One solve of a (4, 2, 12^3) block allocates its two 3-block basis buffers and their two H
    # images (12 blocks) and, at its peak, the temporaries of one apply (2.5 blocks).  Measured:
    # 14.57 blocks (19.57 with the per-iteration blocks of the earlier update).  A stacked basis
    # or one more block-sized temporary per iteration exceeds the bound.
    cell = Cell(8.0, 12)
    rng = np.random.default_rng(0)
    apply_h = make_hamiltonian(cell, ScalarField(cell, rng.standard_normal((12,) * 3)), None)
    block_bytes = 4 * 2 * 12**3 * 16
    cell.k2_full  # cached once per cell, outside the measurement
    tracemalloc.start()
    try:
        eigensolve(apply_h, cell, 2, block=4, tol=1e-8, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 15.0 * block_bytes


def test_eigensolve_nonconvergence_raises_with_residuals():
    cell = Cell(6.0, 8)
    apply_h = make_hamiltonian(cell, None, None)
    with pytest.raises(EigensolveError) as err:
        eigensolve(apply_h, cell, 4, block=6, tol=1e-14, max_iter=2, seed=0)
    assert err.value.residuals.size > 0


# ------------------------------------------------------------------ fermi_fill
def test_fermi_fill_gap_case():
    occ, ef = fermi_fill(np.array([-1.0, -0.5, 0.2]), 2.0)
    assert_allclose(occ, [1.0, 1.0, 0.0])
    assert -0.5 < ef < 0.2


def test_fermi_fill_degenerate_split():
    occ, ef = fermi_fill(np.array([-1.0, -1.0]), 1.0)
    assert_allclose(occ, [0.5, 0.5])
    assert ef == -1.0


def test_fermi_fill_fractional_against_sort_and_fill_oracle():
    rng = np.random.default_rng(4)
    levels = np.sort(rng.standard_normal(50))
    occ, _ = fermi_fill(levels, 17.5)
    assert abs(occ.sum() - 17.5) < 1e-12
    # monotone non-increasing in the level
    assert np.all(np.diff(occ) <= 1e-12)
    # oracle: first 17 filled, the next one half-filled (no ties in a
    # continuous random draw)
    oracle = np.zeros(50)
    oracle[:17] = 1.0
    oracle[17] = 0.5
    assert_allclose(occ, oracle, atol=1e-12)


def test_fermi_fill_errors():
    with pytest.raises(ValueError):
        fermi_fill(np.array([0.0, 1.0]), 3.0)
    with pytest.raises(ValueError):
        fermi_fill(np.array([0.0]), -1.0)


# ------------------------------------------------------- vector potential solve
def test_update_vector_potential_trivial_fixed_point():
    cell = Cell(7.0, 16)
    spec = SystemSpec(cell, (Nucleus(1.0, (3.5,) * 3),), N=1.0, alpha=0.1)
    zeros = VectorField.zeros(cell)
    out = update_vector_potential(
        zeros, zeros, ScalarField.zeros(cell), MagneticPotential.zero(cell), spec
    )
    assert np.abs(out.A.values).max() == 0.0


def test_update_vector_potential_single_mode():
    # source s = (cos(k.x), 0, 0) with k along y: A = -4 pi alpha^2 s / |k|^2
    cell = Cell(7.0, 16)
    alpha = 0.13
    spec = SystemSpec(cell, (Nucleus(1.0, (3.5,) * 3),), N=1.0, alpha=alpha)
    x = cell.coords
    kv = 2 * np.pi / cell.L
    svals = np.zeros((3,) + (16,) * 3)
    svals[0] = np.cos(kv * x[1])
    j = VectorField(cell, 2.0 * svals)  # j/2 is the source
    out = update_vector_potential(
        j, VectorField.zeros(cell), ScalarField.zeros(cell), MagneticPotential.zero(cell), spec
    )
    expected = -4 * np.pi * alpha**2 / kv**2 * svals
    assert np.abs(out.A.values - expected).max() < 1e-12 * np.abs(expected).max()
    assert divergence(out.A).norm() < 1e-12


def test_update_vector_potential_reaches_fixed_point():
    # iterating the lagged A rho term converges and then satisfies the
    # stationarity equation to roundoff
    rng = np.random.default_rng(5)
    cell = Cell(7.0, 16)
    spec = SystemSpec(cell, (Nucleus(1.0, (3.5,) * 3),), N=1.0, alpha=0.05)
    j = bandlimited_vector(cell, rng, 0.3)
    m = bandlimited_vector(cell, rng, 0.3)
    rho_raw = bandlimited_scalar(cell, rng, 0.3)
    rho = ScalarField(cell, 0.2 * (rho_raw.values - rho_raw.values.min()))
    A = MagneticPotential.zero(cell)
    for _ in range(100):
        A = update_vector_potential(j, m, rho, A, spec)
    from magrhf.scf import _field_equation_residual

    assert _field_equation_residual(j, m, rho, A, spec.alpha) < 1e-11


# ------------------------------------------------------------------ scf_solve
def test_scf_pinned_matches_spinless_reference():
    from magrhf.spinless import scf_solve_spinless

    cell = Cell(10.0, 24)
    spec = SystemSpec(cell, (Nucleus(1.0, (5.0,) * 3),), N=1.0, alpha=0.05)
    state = scf_solve(spec, SCFConfig(tol=1e-8, pin_A=True, max_iter=50, seed=0))
    assert state.converged
    ref = scf_solve_spinless(spec, tol=1e-9)
    assert ref.converged
    assert abs(state.energy.total - ref.energy_total) < 1e-8 * abs(ref.energy_total)
    # Anderson density mixing converges the two paths in 8 and 11 iterations here
    assert state.iteration <= 12 and ref.iterations <= 12


def test_spinless_residual_reuses_eigensolver_hx(monkeypatch):
    # the oracle shifts the eigensolver's H X in place by the Hartree change
    # instead of applying its output Hamiltonian again; a fresh apply agrees
    import magrhf.spinless as spinless
    from magrhf.hamiltonian import external_potential, hartree
    from magrhf.scf import _orbital_residual

    returned = []
    original = spinless.eigensolve

    def recorded(*args, **kwargs):
        returned.append(original(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(spinless, "eigensolve", recorded)
    cell = Cell(8.0, 12)
    spec = SystemSpec(cell, (Nucleus(2.0, (4.0,) * 3),), N=2.0, alpha=0.02)
    ref = spinless.scf_solve_spinless(spec, tol=1e-9)
    assert ref.converged
    _, orbitals, _, _, hx_out = returned[-1]
    V = external_potential(spec, s_nuc=2.0 * cell.spacing)
    fresh = spinless._scalar_hamiltonian(cell, V.values + hartree(ref.rho)[0].values)(orbitals)
    assert np.linalg.norm(hx_out - fresh) <= 1e-12 * np.linalg.norm(fresh)
    assert abs(ref.orbital_residual - _orbital_residual(cell, orbitals, fresh, ref.occupations)) <= 1e-12


def test_eig_tol_schedule():
    from magrhf.scf import EIG_TOL_FRACTION, EIG_TOL_START, _EigTolSchedule

    schedule = _EigTolSchedule(1e-10)
    assert schedule.tol == EIG_TOL_START and not schedule.at_target
    # a large residual keeps the tolerance at its ceiling
    schedule.tighten(1.0)
    assert schedule.tol == EIG_TOL_START
    schedule.tighten(1e-6)
    assert schedule.tol == EIG_TOL_FRACTION * 1e-6 and not schedule.at_target
    # clipped at the target, which counts as reached
    schedule.tighten(1e-12)
    assert schedule.tol == 1e-10 and schedule.at_target
    # the tolerance follows the residual back up
    schedule.tighten(1e-4)
    assert schedule.tol == EIG_TOL_FRACTION * 1e-4 and not schedule.at_target
    # a target looser than the start is where the schedule begins and stays
    loose = _EigTolSchedule(1e-3)
    assert loose.tol == 1e-3 and loose.at_target
    loose.tighten(1e-9)
    assert loose.tol == 1e-3 and loose.at_target


def test_scf_builds_one_hamiltonian_per_eigensolve(monkeypatch):
    # the orbital residual reuses the eigensolver's H X instead of
    # building and applying the output mean field's Hamiltonian
    import magrhf.scf as scf

    calls = {"make_hamiltonian": 0, "eigensolve": 0}
    for name in calls:
        original = getattr(scf, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(scf, name, counted)
    cell = Cell(8.0, 12)
    spec = SystemSpec(cell, (Nucleus(1.0, (4.0,) * 3),), N=1.0, alpha=0.2)
    # deg_threshold=0 fills one spin state, so A != 0 from the second iterate
    state = scf_solve(spec, SCFConfig(tol=1e-6, deg_threshold=0.0, max_iter=4, seed=0))
    assert not state.A.is_zero()
    assert calls["eigensolve"] >= 4
    assert calls["make_hamiltonian"] == calls["eigensolve"]

    # oracle: the residual of the last iterate with a freshly built H_out
    from magrhf.hamiltonian import external_potential, hartree

    X = np.stack([orb.values for orb in state.gamma.orbitals])
    v_h, _ = hartree(density(state.gamma))
    V = external_potential(spec, s_nuc=2.0 * cell.spacing)
    HX = scf.make_hamiltonian(cell, ScalarField(cell, V.values + v_h.values), state.A)(X)
    flat, hflat = X.reshape(len(X), -1), HX.reshape(len(X), -1)
    lam = np.real(np.sum(flat.conj() * hflat, axis=1) * cell.dV)
    res = np.sqrt(np.sum(np.abs(hflat - lam[:, None] * flat) ** 2, axis=1) * cell.dV)
    occupied = state.gamma.occupations > 1e-12
    expected = np.max(res[occupied] / np.maximum(1.0, np.abs(lam[occupied])))
    assert abs(state.residual_orbital - expected) <= 1e-10


def _record_builds(monkeypatch) -> list[bool]:
    """Patch ``scf.make_hamiltonian`` to record whether each build gets an exactly zero A."""
    import magrhf.scf as scf

    zero_a: list[bool] = []
    original = scf.make_hamiltonian

    def recorded(cell, v_eff, A):
        zero_a.append(A.is_zero())
        return original(cell, v_eff, A)

    monkeypatch.setattr(scf, "make_hamiltonian", recorded)
    return zero_a


def _unpolarised_h() -> SystemSpec:
    return SystemSpec(Cell(8.0, 12), (Nucleus(1.0, (4.0,) * 3),), N=1.0, alpha=0.02)


def test_scf_unpolarised_takes_zero_a_and_matches_pinned(monkeypatch):
    # roundoff in j and m leaves a potential the field solve cannot tell
    # from zero; it is snapped to an exact zero, so every build takes the
    # A = 0 apply and the solve reproduces the decoupled (pinned) one
    spec = _unpolarised_h()
    pinned = scf_solve(spec, SCFConfig(tol=1e-7, pin_A=True, seed=0))
    zero_a = _record_builds(monkeypatch)
    state = scf_solve(spec, SCFConfig(tol=1e-7, seed=0))
    assert state.converged and pinned.converged
    assert zero_a and all(zero_a)
    assert state.A.is_zero()
    assert state.iteration == pinned.iteration
    assert abs(state.energy.total - pinned.energy.total) <= 1e-12 * abs(pinned.energy.total)


def test_scf_warm_start_snaps_roundoff_potential(monkeypatch):
    # a checkpoint or an alpha-scan row may carry a roundoff-level A
    spec = _unpolarised_h()
    cfg = SCFConfig(tol=1e-7, seed=0)
    cold = scf_solve(spec, cfg)
    rng = np.random.default_rng(3)
    noise = helmholtz_project(bandlimited_vector(spec.cell, rng), zero_mean=True)
    noise = VectorField(spec.cell, noise.values * (1e-12 / noise.norm()))
    zero_a = _record_builds(monkeypatch)
    warm = scf_solve(spec, cfg, initial=(cold.gamma, MagneticPotential(noise)))
    assert warm.converged
    assert zero_a and all(zero_a)


def _record_starts(monkeypatch) -> list[tuple]:
    """Patch ``scf.eigensolve`` to record the start block and iteration count of each call."""
    calls: list[tuple] = []
    original = scf.eigensolve

    def recorded(*args, X0=None, **kwargs):
        out = original(*args, X0=X0, **kwargs)
        calls.append((X0, out[3]))
        return out

    monkeypatch.setattr(scf, "eigensolve", recorded)
    return calls


def test_scf_cold_start_solves_the_half_grid_first(monkeypatch):
    # the first eigensolve starts from the Ritz vectors of the half grid
    # and needs a few iterations; from random vectors it needs ~38
    calls = _record_starts(monkeypatch)
    state = scf_solve(_unpolarised_h())
    assert state.converged
    X0, iterations = calls[0]
    assert X0 is not None and iterations <= 10
    calls.clear()
    monkeypatch.setattr(scf, "_coarse_start", lambda *args: None)
    random = scf_solve(_unpolarised_h())
    X0, iterations = calls[0]
    assert X0 is None and iterations > 10
    assert random.converged
    assert abs(random.energy.total - state.energy.total) <= 1e-12 * abs(state.energy.total)


@pytest.mark.parametrize("n, block, coarse", [(4, None, False), (6, None, True), (6, 43, False)])
def test_scf_cold_start_on_small_grids(monkeypatch, n, block, coarse):
    # n = 4 has no half grid (2 points per axis); at n = 6 the 4^3 half
    # grid holds 2 * 64 = 128 unknowns, too few for 3 blocks of 43
    coarse_grids: list[int] = []
    original = scf._lobpcg

    def recorded(apply_h, cell, *args, **kwargs):
        coarse_grids.append(cell.n)
        return original(apply_h, cell, *args, **kwargs)

    monkeypatch.setattr(scf, "_lobpcg", recorded)
    calls = _record_starts(monkeypatch)
    spec = SystemSpec(Cell(8.0, n), (Nucleus(1.0, (4.0,) * 3),), N=1.0, alpha=0.02)
    state = scf_solve(spec, SCFConfig(tol=1e-7, eig_block=block, seed=0))
    assert state.converged
    assert coarse_grids == ([4] if coarse else [])
    assert (calls[0][0] is not None) == coarse


def test_scf_cold_start_falls_back_when_the_coarse_solve_fails(monkeypatch):
    def failing(*args, **kwargs):
        raise EigensolveError("forced", np.zeros(0), np.zeros(0))

    monkeypatch.setattr(scf, "_lobpcg", failing)
    calls = _record_starts(monkeypatch)
    state = scf_solve(_unpolarised_h(), SCFConfig(tol=1e-7, seed=0))
    assert state.converged
    assert calls[0][0] is None


@pytest.mark.parametrize("scale", [0.5, 2.0])
def test_snap_zero_at_its_bound(scale):
    from magrhf.scf import ZERO_FLOOR, _snap_zero

    cell = Cell(8.0, 12)
    alpha = 0.05
    rng = np.random.default_rng(4)
    rho_raw = bandlimited_scalar(cell, rng)
    rho = ScalarField(cell, rho_raw.values - rho_raw.values.min())
    # 4 pi alpha^2 floor / k_min^2 with floor = ZERO_FLOOR ||rho|| k_min, k_min = 2 pi / L
    bound = 4.0 * np.pi * alpha**2 * ZERO_FLOOR * rho.norm() / (2.0 * np.pi / cell.L)
    a = helmholtz_project(bandlimited_vector(cell, rng), zero_mean=True)
    A = MagneticPotential(VectorField(cell, a.values * (scale * bound / a.norm())))
    out = _snap_zero(A, rho, alpha)
    if scale < 1.0:
        assert out.is_zero()
    else:
        assert out is A


def test_snap_zero_keeps_polarised_states_at_small_alpha():
    # a polarised A scales with alpha^2, as the snap bound does, so no
    # coupling is small enough for the rule to zero it
    cell = Cell(8.0, 12)
    ratios = []
    for alpha in (0.2, 0.02, 2e-4):
        spec = SystemSpec(cell, (Nucleus(1.0, (4.0,) * 3),), N=1.0, alpha=alpha)
        state = scf_solve(spec, SCFConfig(tol=1e-6, deg_threshold=0.0, max_iter=4, seed=0))
        assert not state.A.is_zero()
        ratios.append(state.A.A.norm() / alpha**2)
    assert_allclose(ratios, ratios[-1], rtol=1e-3)


def test_scf_energy_history_nonincreasing(criterion6_periodic):
    _, state = criterion6_periodic
    hist = state.energy_history
    slack = [max(abs(e), 1.0) * 1e-10 for e in hist]
    assert all(b <= a + s for a, b, s in zip(hist, hist[1:], slack[1:]))
    assert state.forced_energy_increases == 0


def test_scf_converged_residuals(criterion6_molecular, criterion6_periodic):
    for spec, state in (criterion6_molecular, criterion6_periodic):
        assert state.converged
        assert max(state.residuals) <= 1e-7
        # aufbau structure: filled below the Fermi level, empty above
        occ = state.gamma.occupations
        lv = state.levels[: len(occ)]
        for n_k, e_k in zip(occ, lv):
            if e_k < state.fermi_energy - 1e-6:
                assert n_k == 1.0
            if e_k > state.fermi_energy + 1e-6:
                assert n_k == 0.0


def test_scf_self_consistency_of_field_equation(criterion6_periodic):
    spec, state = criterion6_periodic
    rho = density(state.gamma)
    j = current(state.gamma)
    m = magnetisation(state.gamma)
    out = update_vector_potential(j, m, rho, state.A, spec)
    diff = np.abs(out.A.values - state.A.A.values).max()
    scale = max(np.abs(state.A.A.values).max(), 1e-12)
    # plugging the converged observables back reproduces A
    assert diff <= max(1e-6 * scale, 1e-10)


def test_scf_continuity_at_convergence(criterion6_periodic):
    _, state = criterion6_periodic
    assert state.residual_continuity <= 1e-6


def test_scf_flags_negative_ion_regime():
    cell = Cell(8.0, 16)
    spec = SystemSpec(cell, (Nucleus(1.0, (4.0,) * 3),), N=2.0, alpha=0.05)
    state = scf_solve(spec, SCFConfig(tol=1e-4, pin_A=True, max_iter=8, seed=0))
    assert state.flag in ("negative_ion_regime", "not_converged")
    # the regime flag must be present even when convergence also fails
    assert "negative_ion_regime" in (state.flag or "") or state.converged is False


def test_scf_instability_floor_flag():
    cell = Cell(8.0, 16)
    spec = SystemSpec(cell, (Nucleus(1.0, (4.0,) * 3),), N=1.0, alpha=0.05)
    state = scf_solve(spec, SCFConfig(tol=1e-8, pin_A=True, max_iter=10, energy_floor=1.0e3, seed=0))
    # an absurdly high floor triggers the divergence flag without crashing
    assert state.flag == "instability"
    assert not state.converged


@pytest.mark.parametrize("seed", [0, 3])
def test_scf_retries_evaluate_new_densities(monkeypatch, seed):
    # a negative slack counts every step as an energy rise, so each outer
    # iteration retries with halved mixing down to the floor; each outer
    # iteration halves from the configured fraction again, so every one
    # after the first evaluates the same number of candidates; no retry may
    # re-evaluate the density it evaluated last (the Anderson mixer would
    # return the same step, and a fraction at its floor cannot shrink); two
    # random starts give two different retry trajectories
    import magrhf.scf as scf

    seen: list[np.ndarray] = []
    warm_starts: list = []
    original_hartree, original_eigensolve = scf.hartree, scf.eigensolve

    def recorded_hartree(rho):
        seen.append(rho.values.copy())
        return original_hartree(rho)

    def recorded_eigensolve(*args, X0=None, **kwargs):
        warm_starts.append(X0)
        return original_eigensolve(*args, X0=X0, **kwargs)

    monkeypatch.setattr(scf, "hartree", recorded_hartree)
    monkeypatch.setattr(scf, "eigensolve", recorded_eigensolve)
    cfg = SCFConfig(tol=1e-10, max_iter=3, seed=seed, energy_slack_rel=-1.0)
    state = scf_solve(_unpolarised_h(), cfg)
    # each evaluation takes the Hartree potential of its input, then of its output
    assert len(seen) == 2 * len(warm_starts)
    inputs = seen[::2]
    for a, b in zip(inputs, inputs[1:]):
        assert np.linalg.norm(b - a) > 1e-12 * np.linalg.norm(a)
    # the candidates of one outer iteration share its warm start
    per_iteration = [1]
    for a, b in zip(warm_starts, warm_starts[1:]):
        if b is a:
            per_iteration[-1] += 1
        else:
            per_iteration.append(1)
    retries = math.ceil(math.log2(cfg.mix / scf.MIN_MIX))
    assert per_iteration == [1] + [1 + retries] * (cfg.max_iter - 1)
    # the state records the accepted iterates only
    assert state.iteration == cfg.max_iter
    assert len(state.energy_history) == cfg.max_iter
    assert [row["iteration"] for row in state.inequality_ledger] == [1, 2, 3]
    assert state.forced_energy_increases == cfg.max_iter - 1


def _fail_eigensolve_on(monkeypatch, call: int) -> None:
    """Patch ``scf.eigensolve`` to raise :class:`EigensolveError` on its ``call``-th call."""
    import magrhf.scf as scf

    calls: list[int] = []
    original = scf.eigensolve

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == call:
            raise EigensolveError("forced", np.zeros(0), np.zeros(0))
        return original(*args, **kwargs)

    monkeypatch.setattr(scf, "eigensolve", failing)


@pytest.mark.parametrize("call, slack", [(2, 1e-10), (3, -1.0)], ids=["first-candidate", "first-retry"])
def test_scf_eigensolver_failure_returns_last_accepted_state(monkeypatch, call, slack):
    # iteration 2 fails on its first candidate or, with every step counted
    # as an energy rise, on its first retry: iteration 1 comes back flagged
    _fail_eigensolve_on(monkeypatch, call)
    state = scf_solve(_unpolarised_h(), SCFConfig(tol=1e-10, seed=0, energy_slack_rel=slack))
    assert state.flag == "eigensolver_failed" and not state.converged
    assert state.iteration == 1
    assert state.energy_history == (state.energy.total,)
    assert [row["iteration"] for row in state.inequality_ledger] == [1]


def test_scf_eigensolver_failure_on_first_iterate_raises(monkeypatch):
    # with no accepted iterate there is no state to return
    _fail_eigensolve_on(monkeypatch, 1)
    with pytest.raises(EigensolveError, match="forced"):
        scf_solve(_unpolarised_h(), SCFConfig(seed=0))


def test_scf_solve_rejects_block_below_occupied_levels():
    # three electrons need three levels in the eigensolver's block
    spec = SystemSpec(Cell(8.0, 12), (Nucleus(1.0, (4.0,) * 3),), N=3.0, alpha=0.02)
    with pytest.raises(ValueError, match="eig_block=2 cannot hold"):
        scf_solve(spec, SCFConfig(eig_block=2, seed=0))
    assert SCFConfig(eig_block=3).check_block(spec.N) == 3


# ------------------------------------------------------------------ alpha scan
def test_scan_alpha_single_row_equals_scf():
    cell = Cell(8.0, 16)
    spec = SystemSpec(cell, (Nucleus(1.0, (4.0,) * 3),), N=1.0, alpha=0.05, mode="periodic")
    cfg = SCFConfig(tol=1e-7, max_iter=40, seed=0)
    rows = scan_alpha(spec, [0.05], cfg)
    direct = scf_solve(spec, cfg)
    assert len(rows) == 1
    assert abs(rows[0].energy.total - direct.energy.total) < 1e-12 * abs(direct.energy.total)


def test_scan_alpha_validation():
    cell = Cell(8.0, 16)
    spec = SystemSpec(cell, (Nucleus(1.0, (4.0,) * 3),), N=1.0, alpha=0.05)
    with pytest.raises(ValueError):
        scan_alpha(spec, [0.2, 0.1], SCFConfig())
    with pytest.raises(ValueError):
        scan_alpha(spec, [-0.1, 0.2], SCFConfig())


def test_concavity_defects_of_linear_data_vanish():
    from magrhf.density import EnergyBreakdown
    from magrhf.scf import AlphaScanRow

    alphas = [0.1, 0.2, 0.4]
    rows = []
    for a in alphas:
        u = a**-2
        e = -1.0 + 0.25 * u  # linear in u: concavity defects are zero
        rows.append(AlphaScanRow(a, EnergyBreakdown(e, 0, 0, 0), True, None, (0, 0, 0)))
    d = concavity_defects(rows)
    assert np.abs(d).max() < 1e-12


def test_scan_alpha_propagates_failure_flags():
    cell = Cell(8.0, 16)
    spec = SystemSpec(cell, (Nucleus(1.0, (4.0,) * 3),), N=1.0, alpha=0.05, mode="periodic")
    rows = scan_alpha(spec, [0.05, 0.1], SCFConfig(tol=1e-13, max_iter=2, seed=0))
    assert all(not r.converged for r in rows)
    assert all(r.flag == "not_converged" for r in rows)
