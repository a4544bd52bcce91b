"""Eigensolver, aufbau filling, the field-equation solve and the outer
self-consistent loop."""

import math
import tracemalloc
from dataclasses import replace
from importlib import import_module

import numpy as np
import pytest
from conftest import bandlimited_scalar, bandlimited_vector, white_noise_state
from numpy.testing import assert_allclose

from magrhf import scf
from magrhf import hamiltonian as hamiltonian_module
from magrhf.density import DensityMatrix, _spin_pairs, density, kinetic_terms, magnetisation
from magrhf.fields import (
    Cell,
    ScalarField,
    SpinorField,
    VectorField,
    curl,
    divergence,
    helmholtz_project,
    transverse_spectral,
)
from magrhf.hamiltonian import PAULI, MagneticPotential, Nucleus, SystemSpec, magnetic_energy
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
    # a complex scalar block: components=1 without real=True
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


def _real_scalar_problem(n: int, seed: int):
    """The A = 0 scalar apply of a random real potential on a tiny grid, and its dense matrix."""
    cell = Cell(6.0, n)
    apply_h = make_hamiltonian(cell, ScalarField(cell, np.random.default_rng(seed).standard_normal((n,) * 3)), None)
    dim = n**3
    H = apply_h(np.eye(dim).reshape(dim, 1, n, n, n)).reshape(dim, dim).T
    return cell, apply_h, H


def test_eigensolve_real_block_matches_dense_oracle():
    # real=True: float rows, real products and the half-spectrum
    # preconditioner, for long enough that the conjugate directions P enter
    cell, apply_h, H = _real_scalar_problem(6, seed=8)
    assert H.dtype == np.float64 and np.abs(H - H.T).max() < 1e-13
    ref = np.linalg.eigvalsh(H)
    levels, orbs, res, iters, h_orbs = eigensolve(
        apply_h, cell, 4, block=6, tol=1e-11, seed=0, max_iter=600, components=1, real=True
    )
    assert iters >= 3
    assert orbs.shape == (6, 1, 6, 6, 6) and orbs.dtype == h_orbs.dtype == np.float64
    assert np.all(res[:4] <= 1e-11)
    _assert_eigenblock(cell, apply_h, levels, orbs, h_orbs, ref, 4)
    # a complex start is the caller's to convert
    with pytest.raises(TypeError, match="real start block"):
        eigensolve(apply_h, cell, 4, block=6, X0=orbs.astype(complex), components=1, real=True)


def test_eigensolve_real_preconditioner_takes_the_half_spectrum(transform_rows):
    # a dense apply runs no transform, so every transform is the
    # preconditioner's: one forward and one inverse half-spectrum transform
    # per preconditioned row, and no complex one
    cell, _, H = _real_scalar_problem(6, seed=8)
    transform_rows.clear()  # the transforms that built H

    def dense(X):
        return (X.reshape(len(X), -1) @ H.T).reshape(X.shape)

    # one iteration preconditions the 3 wanted rows of the random block of 4, not its guard row
    with pytest.raises(EigensolveError):
        eigensolve(dense, cell, 3, block=4, tol=1e-10, seed=0, max_iter=1, components=1, real=True)
    assert transform_rows == {"to_half_spectral": 3, "from_half_spectral": 3}
    transform_rows.clear()
    *_, h_orbs = eigensolve(dense, cell, 3, block=4, tol=1e-10, seed=0, max_iter=600, components=1, real=True)
    assert h_orbs.dtype == np.float64
    assert set(transform_rows) == {"to_half_spectral", "from_half_spectral"}
    assert transform_rows["to_half_spectral"] == transform_rows["from_half_spectral"]


def test_eigensolve_scalar_levels_pair_the_spinor_levels():
    # at A = 0 the spinor operator is h (x) 1: the scalar solve of h on half
    # the block, its levels repeated, gives the levels of the spinor solve
    # (which keeps the 2-component A = 0 apply exercised)
    cell = Cell(6.0, 8)
    v = ScalarField(cell, np.random.default_rng(11).standard_normal((8,) * 3))
    apply_h = make_hamiltonian(cell, v, None)
    spinor, _, res2, _, _ = eigensolve(apply_h, cell, 6, block=8, tol=1e-11, seed=0, max_iter=600)
    scalar, orbs, res1, _, _ = eigensolve(apply_h, cell, 3, block=4, tol=1e-11, seed=0, max_iter=600, components=1)
    assert orbs.shape == (4, 1, 8, 8, 8)
    assert np.all(res2[:6] <= 1e-11) and np.all(res1[:3] <= 1e-11)
    assert np.abs(np.repeat(scalar, 2)[:6] - spinor[:6]).max() <= 1e-12


def test_eigensolve_zero_mode_level_drops_under_refinement():
    # with the sampled zero-mode potential and V = 0 the grid operator is
    # (1/2) D^2 + a Nyquist term, so its lowest level is nonnegative; it
    # falls along the ladder toward the floor set by the periodic wrap of
    # the pair's tails (7.4e-5 / 6.5e-5 / 6.4e-5 at n = 16 / 24 / 32) and
    # lies below the Rayleigh quotient of the sampled spinor
    fam = loss_yau((0.0, 0.0, 1.0))
    lows = []
    for n in (16, 24, 32):
        cell = Cell(24.0, n)
        psi, pot = sample_on_cell(fam, cell)
        apply_h = make_hamiltonian(cell, None, pot)
        levels, _, _, _, _ = eigensolve(apply_h, cell, 1, block=3, tol=1e-8, seed=2, max_iter=500)
        rayleigh = np.real(np.vdot(psi.values, apply_h(psi.values[None])[0])) / np.vdot(psi.values, psi.values).real
        assert -1e-12 <= levels[0] <= rayleigh
        lows.append(levels[0])
    assert all(b <= a for a, b in zip(lows, lows[1:]))
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
    # some W slots hold fewer rows than the 4 wanted pairs
    cell, apply_h, ref = _dense_problem(components, 4, seed=5)
    sizes = []

    def recorded(X):
        sizes.append(len(X))
        return apply_h(X)

    levels, orbs, _, _, h_orbs = eigensolve(recorded, cell, 4, block=8, tol=1e-10, seed=1, max_iter=600,
                                            components=components)
    assert sizes[0] == 8 and min(sizes[1:]) < 4
    _assert_eigenblock(cell, apply_h, levels, orbs, h_orbs, ref, 4)


@pytest.mark.parametrize("components", [1, 2])
def test_eigensolve_rank_loss_after_whitening(components, monkeypatch):
    # a block of 40 (80) in a space of 64 (128) dimensions: the 36 (72) rows
    # of W, one per wanted pair, have only 24 (48) directions outside X, and P
    # only as many outside the Ritz vectors
    cell, apply_h, ref = _dense_problem(components, 4, seed=7)
    block, count = 40 * components, 36 * components
    original, widths = scf._whiten, {}

    def whiten(g, rel_tol):
        T = original(g, rel_tol)
        widths.setdefault(rel_tol, []).append((len(g), T.shape[1]))
        return T

    monkeypatch.setattr(scf, "_whiten", whiten)
    levels, orbs, _, _, h_orbs = eigensolve(apply_h, cell, count, block=block, tol=1e-11, seed=0, max_iter=600,
                                            components=components)
    # W (whitened at 1e-10) and P (at 1e-8) each lost rank in some step
    assert any(kept < rows for rows, kept in widths[1e-10])
    assert any(kept < rows for rows, kept in widths[1e-8])
    _assert_eigenblock(cell, apply_h, levels, orbs, h_orbs, ref, count)


@pytest.mark.parametrize("components", [1, 2])
def test_eigensolve_long_solve_keeps_x_and_p_orthonormal(components, monkeypatch):
    # 3 (6) wanted pairs in a block of 40 (80) in a space of 64 (128) dimensions:
    # W holds at most 3 (6) rows, so the solve takes some 18 steps, and every
    # [X | P] the implicit update writes stays orthonormal.  A single whitening of
    # the conjugate directions lets its Gram error grow to 1e-5 here, and the
    # 1-component solve then never reaches its tolerance in 600 steps
    cell, apply_h, ref = _dense_problem(components, 4, seed=7)
    original, errors, written = scf._lincomb, [], []

    def lincomb(Y, C, X):
        original(Y, C, X)
        written.append(Y)  # the next [X | P], then its H image
        if len(written) % 2:
            errors.append(np.abs(scf._gram(cell, Y, Y) - np.eye(len(Y))).max())

    monkeypatch.setattr(scf, "_lincomb", lincomb)
    levels, orbs, _, it, h_orbs = eigensolve(apply_h, cell, 3 * components, block=40 * components, tol=1e-11,
                                             seed=0, max_iter=600, components=components)
    assert it > 10 and len(errors) == it  # the start block and one [X | P] per step
    assert max(errors) <= 1e-10
    _assert_eigenblock(cell, apply_h, levels, orbs, h_orbs, ref, 3 * components)


@pytest.mark.parametrize("kind", ["real", "scalar", "spinor"])
def test_eigensolve_w_holds_at_most_count_rows(kind):
    # only the first count pairs spawn a preconditioned residual: after the
    # start block, every apply is of a W slot of at most count rows, and the
    # guard rows still reach the lowest levels through P and Rayleigh-Ritz
    if kind == "real":
        cell, apply_h, H = _real_scalar_problem(6, seed=4)
        ref = np.linalg.eigvalsh(H)
    else:
        cell, apply_h, ref = _dense_problem(1 if kind == "scalar" else 2, 4, seed=5)
    sizes = []

    def recorded(X):
        sizes.append(len(X))
        return apply_h(X)

    levels, orbs, res, _, h_orbs = eigensolve(recorded, cell, 3, block=6, tol=1e-10, seed=1, max_iter=600,
                                            components=2 if kind == "spinor" else 1, real=kind == "real")
    assert sizes[0] == 6 and len(sizes) > 2 and max(sizes[1:]) <= 3
    assert np.all(res[:3] <= 1e-10)
    _assert_eigenblock(cell, apply_h, levels, orbs, h_orbs, ref, 3)


@pytest.mark.parametrize("case", ["free-scalar", "free-spinor", "well-real"])
def test_eigensolve_block_edge_inside_a_degenerate_shell(case):
    # count = 3 in a block of 4 whose edge cuts a degenerate shell: the free
    # scalar shell of 6 plane waves at k1 = (2 pi / L)^2 / 2 (levels 0, k1, k1 | k1),
    # the free spinor shell after the two constant spinors (0, 0, k1 | k1), and the
    # threefold p shell of a centred cubic well (1s, p, p | p).  The guard row
    # gets no W, yet the wanted levels match the dense spectrum to the tolerance
    n, tol = 6, 1e-10
    cell = Cell(6.0, n)
    if case == "well-real":
        dx, dy, dz = cell.displacements((3.0, 3.0, 3.0))
        v = ScalarField(cell, -4.0 * np.exp(-0.5 * (dx * dx + dy * dy + dz * dz)))
        components, apply_h = 1, make_hamiltonian(cell, v, None)
    else:
        components, apply_h = (1 if case == "free-scalar" else 2), make_hamiltonian(cell, None, None)
    dim = components * n**3
    dense = apply_h(np.eye(dim, dtype=complex).reshape((dim, components) + (n,) * 3)).reshape(dim, dim).T
    ref = np.linalg.eigvalsh(dense)
    # the block edge sits inside the shell: the fourth level equals the third
    assert abs(ref[3] - ref[2]) <= 1e-12 * max(1.0, abs(ref[2]))
    levels, _, res, _, _ = eigensolve(apply_h, cell, 3, block=4, tol=tol, seed=0, max_iter=600,
                                      components=components, real=case == "well-real")
    assert np.all(res[:3] <= tol)
    assert np.all(np.abs(levels[:3] - ref[:3]) <= tol * np.maximum(1.0, np.abs(ref[:3])))


@pytest.mark.parametrize("first_nan", [1, 3])
def test_eigensolve_non_finite_apply_raises(first_nan):
    # an apply that returns NaN, in the start block (call 1) or in a step
    # (call 3), raises EigensolveError with the residuals, not numpy's LinAlgError
    cell = Cell(6.0, 8)
    apply_h = make_hamiltonian(cell, ScalarField(cell, np.random.default_rng(2).standard_normal((8,) * 3)), None)
    calls = []

    def failing(X):
        calls.append(1)
        out = apply_h(X)
        return out * np.nan if len(calls) >= first_nan else out

    with pytest.raises(EigensolveError, match="non-finite") as err:
        eigensolve(failing, cell, 2, block=4, tol=1e-10, seed=0, max_iter=600)
    assert len(calls) == first_nan
    assert err.value.residuals.shape == (4,) and err.value.levels.shape == (4,)
    if first_nan > 1:  # the residuals of the last finite step
        assert np.isfinite(err.value.residuals).all() and np.all(err.value.residuals[:2] > 1e-10)


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
    # at deg_threshold = 0 every level is its own shell, equal levels included:
    # the first member of a spin pair takes the electron, and the state polarises
    occ, ef = fermi_fill(np.array([-1.0, -1.0]), 1.0, 0.0)
    assert occ.tolist() == [1.0, 0.0] and ef == -1.0


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
    out = update_vector_potential(VectorField.zeros(cell), spec)
    assert np.abs(out.A.values).max() == 0.0


def test_update_vector_potential_single_mode():
    # source J = (cos(k.x), 0, 0) with k along y: A = -4 pi alpha^2 J / |k|^2
    cell = Cell(7.0, 16)
    alpha = 0.13
    spec = SystemSpec(cell, (Nucleus(1.0, (3.5,) * 3),), N=1.0, alpha=alpha)
    x = cell.coords
    kv = 2 * np.pi / cell.L
    svals = np.zeros((3,) + (16,) * 3)
    svals[0] = np.cos(kv * x[1])
    out = update_vector_potential(VectorField(cell, svals), spec)
    expected = -4 * np.pi * alpha**2 / kv**2 * svals
    assert np.abs(out.A.values - expected).max() < 1e-12 * np.abs(expected).max()
    assert divergence(out.A).norm() < 1e-12


def _source_parts(cell, rng, scale=1.0):
    """The A-independent part ``(1/2)(j + curl m)`` of a continuum field source, from
    random band-limited ``j`` and ``m``, and a nonnegative density ``rho``."""
    j, m = (VectorField(cell, scale * bandlimited_vector(cell, rng, 0.3).values) for _ in range(2))
    rho_raw = bandlimited_scalar(cell, rng, 0.3)
    rho = ScalarField(cell, 0.2 * (rho_raw.values - rho_raw.values.min()))
    return VectorField(cell, 0.5 * (j.values + curl(m).values)), rho


def _lagged_source(J0, rho, A):
    """``J0 + A rho``: the field source as a derivative pass in ``A`` gives it."""
    return VectorField(J0.cell, J0.values + A.A.values * rho.values[None])


def test_update_vector_potential_reaches_fixed_point():
    # iterating the lagged A rho term converges and then satisfies the
    # stationarity equation to roundoff
    rng = np.random.default_rng(5)
    cell = Cell(7.0, 16)
    spec = SystemSpec(cell, (Nucleus(1.0, (3.5,) * 3),), N=1.0, alpha=0.05)
    J0, rho = _source_parts(cell, rng)
    A = MagneticPotential.zero(cell)
    for _ in range(100):
        A = update_vector_potential(_lagged_source(J0, rho, A), spec)
    J = _lagged_source(J0, rho, A)
    A_out = update_vector_potential(J, spec)
    assert scf._field_equation_residual(A, A_out, rho, spec.alpha) < 1e-11
    assert _source_form_residual(J, rho, A, spec.alpha) < 1e-11


def _source_form_residual(J, rho, A, alpha):
    """The field-equation residual built from its transverse source, without a solve.

    ``||P_perp J - lap A / (4 pi alpha^2)||`` over
    ``||P_perp J|| + ||lap A|| / (4 pi alpha^2)`` with the source ``J``
    taken in ``A``, both in real space, and 0 where that scale is below
    ``scf._source_floor``.
    """
    cell = J.cell
    shat = transverse_spectral(cell, cell.to_half_spectral(J.values))
    shat[:, 0, 0, 0] = 0.0
    lap = cell.k2_half[None] * cell.to_half_spectral(A.A.values) / (4.0 * np.pi * alpha**2)

    def norm(c):
        return VectorField(cell, cell.from_half_spectral(c)).norm()

    scale = norm(shat) + norm(lap)
    if scale <= scf._source_floor(rho):
        return 0.0
    return norm(shat + lap) / scale


@pytest.mark.parametrize("case", ["off_fixed_point", "zero_A", "below_floor"])
def test_field_residual_read_off_the_solve_matches_source_form(case):
    # the solve sets -lap A_out / (4 pi alpha^2) = P_perp J(A), so the
    # residual is lap(A_out - A) / (4 pi alpha^2) without rebuilding J(A)
    rng = np.random.default_rng(11)
    cell = Cell(7.0, 16)
    spec = SystemSpec(cell, (Nucleus(1.0, (3.5,) * 3),), N=1.0, alpha=0.2)
    J0, rho = _source_parts(cell, rng, 1e-12 if case == "below_floor" else 1.0)
    A = MagneticPotential.zero(cell)
    if case == "off_fixed_point":
        a = helmholtz_project(bandlimited_vector(cell, rng, 0.3), zero_mean=True)
        A = MagneticPotential(VectorField(cell, 0.05 * a.values))
    J = _lagged_source(J0, rho, A)
    A_out = update_vector_potential(J, spec)
    got = scf._field_equation_residual(A, A_out, rho, spec.alpha)
    ref = _source_form_residual(J, rho, A, spec.alpha)
    if case == "off_fixed_point":
        assert 1e-3 < ref < 1.0
        assert got == pytest.approx(ref, rel=1e-10, abs=0.0)
    else:
        assert got == ref == (1.0 if case == "zero_A" else 0.0)


def test_scf_field_residual_is_the_source_form_residual():
    cell = Cell(8.0, 12)
    spec = SystemSpec(cell, (Nucleus(1.0, (4.0,) * 3),), N=1.0, alpha=0.2)
    state = scf_solve(spec, SCFConfig(tol=1e-8, deg_threshold=0.0, max_iter=4, seed=0))
    assert not state.A.is_zero()
    rho, _, J, _, _ = kinetic_terms(state.gamma, state.A)
    ref = _source_form_residual(J, rho, state.A, spec.alpha)
    assert ref > 0.0
    assert state.residual_field == pytest.approx(ref, rel=1e-10, abs=0.0)


def _nyquist_planes(cell):
    """The modes with a Nyquist index on some axis, as a mask of the (n, n, n) spectrum."""
    mask = np.zeros((cell.n,) * 3, dtype=bool)
    for axis in range(3):
        mask[(slice(None),) * axis + (cell.n // 2,)] = True
    return mask


def _direction(cell, rng, on_nyquist):
    """A random transverse zero-mean real direction, only on (or only off) the Nyquist planes."""
    c = cell.to_spectral(helmholtz_project(VectorField(cell, rng.standard_normal((3,) + (cell.n,) * 3)),
                                           zero_mean=True).values)
    c[:, _nyquist_planes(cell) != on_nyquist] = 0.0
    return cell.from_spectral(c).real


def test_field_energy_gradient_is_the_solve_kernel_off_the_nyquist_planes():
    # the solve inverts |k|^2 A / (4 pi alpha^2) with the true |k|^2, while the
    # field energy takes B = curl A with the Nyquist-zeroed derivative vectors:
    # off the Nyquist planes the energy's A-gradient is that kernel, on them it
    # is the Nyquist-zeroed k2 (the energy is quadratic, so central
    # differences are exact up to roundoff)
    cell, alpha = Cell(6.0, 8), 0.3
    rng = np.random.default_rng(2)
    A = MagneticPotential(helmholtz_project(VectorField(cell, rng.standard_normal((3,) + (8,) * 3)), zero_mean=True))
    a = cell.to_spectral(A.A.values) / (4.0 * np.pi * alpha**2)
    kernel, zeroed = (cell.from_spectral(k2 * a).real for k2 in (cell.k2_full, cell.k2))
    for on_nyquist in (False, True):
        d = _direction(cell, rng, on_nyquist)

        def energy(h):
            return magnetic_energy(MagneticPotential(VectorField(cell, A.A.values + h * d), check_gauge=False), alpha)

        slope = (energy(0.1) - energy(-0.1)) / 0.2
        assert slope == pytest.approx(np.sum(zeroed * d) * cell.dV, rel=1e-12)
        want = np.sum(kernel * d) * cell.dV
        if on_nyquist:
            assert abs(slope - want) > 0.1 * abs(want)
        else:
            assert slope == pytest.approx(want, rel=1e-12)


def test_field_solve_fixed_point_is_stationary_in_A_off_the_nyquist_planes():
    # with the orbitals held, iterating the solve on the pass's J reaches the
    # A where the whole grid energy, kinetic plus field, is stationary along
    # every transverse zero-mean direction off the Nyquist planes
    cell = Cell(6.0, 8)
    spec = SystemSpec(cell, (Nucleus(1.0, (3.0,) * 3),), N=1.85, alpha=0.3)
    gamma, _ = white_noise_state(cell, seed=8)
    A = MagneticPotential.zero(cell)
    for _ in range(20):
        A = update_vector_potential(kinetic_terms(gamma, A)[2], spec)
    rng = np.random.default_rng(3)
    for _ in range(3):
        d = _direction(cell, rng, on_nyquist=False)
        slopes = []
        for term in (lambda P: kinetic_terms(gamma, P)[3], lambda P: magnetic_energy(P, spec.alpha)):
            ends = [term(MagneticPotential(VectorField(cell, A.A.values + h * d), check_gauge=False)) for h in (0.1, -0.1)]
            slopes.append((ends[0] - ends[1]) / 0.2)
        assert abs(sum(slopes)) <= 1e-10 * abs(slopes[0])


def test_scf_one_field_solve_per_evaluation_and_no_curl_of_m(monkeypatch):
    # a negative slack counts every step as an energy rise, so the retries
    # are evaluated too; each evaluation runs one eigensolve and one field
    # solve on the pass's J: no magnetisation is formed, and every curl
    # taken is B = curl A of a transverse potential
    counts = {"eigensolve": 0, "update_vector_potential": 0}
    for name in counts:
        original = getattr(scf, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(scf, name, counted)
    magnetisations, curl_divergences = [], []
    # the package re-exports the function density(), which hides the module
    for module in (scf, import_module("magrhf.density")):
        monkeypatch.setattr(module, "magnetisation", lambda gamma: magnetisations.append(gamma))

    def traced_curl(v, _original=hamiltonian_module.curl):
        curl_divergences.append(divergence(v).norm() / max(v.norm(), 1e-300))
        return _original(v)

    monkeypatch.setattr(hamiltonian_module, "curl", traced_curl)
    spec = SystemSpec(Cell(8.0, 12), (Nucleus(1.0, (4.0,) * 3),), N=1.0, alpha=0.2)
    cfg = SCFConfig(tol=1e-10, deg_threshold=0.0, max_iter=2, seed=0, energy_slack_rel=-1.0)
    state = scf_solve(spec, cfg)
    assert not state.A.is_zero()
    assert counts["eigensolve"] > state.iteration
    assert counts["update_vector_potential"] == counts["eigensolve"]
    assert not hasattr(scf, "curl") and not magnetisations
    assert curl_divergences and max(curl_divergences) <= 1e-12


def test_scf_two_poisson_solves_per_evaluation(monkeypatch):
    # each evaluation (the retries too) solves the Poisson equation for its input
    # density and for rho_out, and the energy reads the second solve instead of
    # taking a third: its Hartree term is that of the state's own pass, bit for bit
    density_module = import_module("magrhf.density")
    counts = {"eigensolve": 0, "scf.hartree": 0, "density.hartree": 0}
    for key, module, name in (("eigensolve", scf, "eigensolve"), ("scf.hartree", scf, "hartree"),
                              ("density.hartree", density_module, "hartree")):

        def counted(*args, _key=key, _original=getattr(module, name), **kwargs):
            counts[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    spec = SystemSpec(Cell(8.0, 12), (Nucleus(1.0, (4.0,) * 3),), N=1.0, alpha=0.2)
    cfg = SCFConfig(tol=1e-10, deg_threshold=0.0, max_iter=2, seed=0, energy_slack_rel=-1.0)
    state = scf_solve(spec, cfg)
    assert counts["eigensolve"] > state.iteration
    assert counts["scf.hartree"] == 2 * counts["eigensolve"] and counts["density.hartree"] == 0
    rho_out = kinetic_terms(state.gamma, state.A)[0]
    assert state.energy.hartree == hamiltonian_module.hartree(rho_out)[1]


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


def _record_oracle_solves(monkeypatch) -> list[dict]:
    """Patch ``spinless.eigensolve`` to record the level count, block, start and iterations of each call."""
    import magrhf.spinless as spinless

    calls: list[dict] = []
    original = spinless.eigensolve

    def recorded(apply_h, cell, count, *, X0=None, **kwargs):
        out = original(apply_h, cell, count, X0=X0, **kwargs)
        calls.append({"count": count, "block": kwargs["block"], "X0": X0, "iterations": out[3]})
        return out

    monkeypatch.setattr(spinless, "eigensolve", recorded)
    return calls


def test_spinless_cold_start_solves_the_half_grid_first(monkeypatch):
    # the oracle's first eigensolve starts from the half-grid Ritz vectors of
    # its own operator and needs a few iterations; from random rows it needs ~30.
    # A failing half-grid solve falls back to the random start
    import magrhf.spinless as spinless

    spec = SystemSpec(Cell(8.0, 16), (Nucleus(2.0, (4.0,) * 3),), N=2.0, alpha=0.02)
    calls = _record_oracle_solves(monkeypatch)
    ref = spinless.scf_solve_spinless(spec, tol=1e-9)
    assert ref.converged
    assert calls[0]["X0"] is not None and calls[0]["X0"].shape[:2] == (4, 1)
    assert calls[0]["iterations"] <= 10
    for fallback in ("no_half_grid", "failing_half_grid"):
        calls.clear()
        with monkeypatch.context() as m:
            if fallback == "no_half_grid":
                m.setattr(spinless, "_coarse_start", lambda *args: None)
            else:
                def failing(*args, **kwargs):
                    raise EigensolveError("forced", np.zeros(0), np.zeros(0))

                m.setattr(scf, "_lobpcg", failing)
            random = spinless.scf_solve_spinless(spec, tol=1e-9)
        assert calls[0]["X0"] is None and calls[0]["iterations"] > 10
        assert random.converged
        assert abs(random.energy_total - ref.energy_total) <= 1e-12 * abs(ref.energy_total)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_spinless_converges_the_levels_its_filling_reads(monkeypatch, N):
    # the oracle converges ceil(N/2) + 1 spatial levels, the occupied ones and the
    # one above, in a block of two rows more, on the half grid and the fine grid
    import magrhf.spinless as spinless

    fine, coarse = _record_oracle_solves(monkeypatch), _record_solves(monkeypatch, "_lobpcg")
    spec = SystemSpec(Cell(8.0, 12), (Nucleus(float(N), (4.0,) * 3),), N=float(N), alpha=0.02)
    assert spinless.scf_solve_spinless(spec, tol=1e-9).converged
    count = math.ceil(N / 2) + 1
    assert len(coarse) == 1 and (coarse[0]["args"][2], coarse[0]["kwargs"]["block"]) == (count, count + 2)
    assert {(call["count"], call["block"]) for call in fine} == {(count, count + 2)}


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

    X = state.gamma.block
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
    # a balanced fill at A = 0 has an exactly zero source J, and a potential
    # the field solve cannot tell from zero is snapped to an exact zero, so
    # every build takes the A = 0 apply and the solve reproduces the
    # decoupled (pinned) one
    spec = _unpolarised_h()
    pinned = scf_solve(spec, SCFConfig(tol=1e-7, pin_A=True, seed=0))
    zero_a = _record_builds(monkeypatch)
    state = scf_solve(spec, SCFConfig(tol=1e-7, seed=0))
    assert state.converged and pinned.converged
    assert zero_a and all(zero_a)
    assert state.A.is_zero()
    assert state.iteration == pinned.iteration
    assert abs(state.energy.total - pinned.energy.total) <= 1e-12 * abs(pinned.energy.total)


def test_scf_unpolarised_evaluation_is_scalar_after_its_eigensolve(monkeypatch, transform_rows):
    # at A = 0 a balanced fill's pass runs on the scalar rows and its J is
    # exactly zero, so the field solve and its residual return zero: none of
    # the three takes a complex transform
    complex_rows = {}
    for name in ("kinetic_terms", "update_vector_potential", "_field_equation_residual"):

        def counted(*args, _name=name, _original=getattr(scf, name), **kwargs):
            before = transform_rows.get("to_spectral", 0) + transform_rows.get("from_spectral", 0)
            out = _original(*args, **kwargs)
            after = transform_rows.get("to_spectral", 0) + transform_rows.get("from_spectral", 0)
            complex_rows[_name] = complex_rows.get(_name, 0) + after - before
            return out

        monkeypatch.setattr(scf, name, counted)
    state = scf_solve(_unpolarised_h(), SCFConfig(tol=1e-7, seed=0))
    assert state.converged and state.A.is_zero() and state.residual_field == 0.0
    assert complex_rows == {"kinetic_terms": 0, "update_vector_potential": 0, "_field_equation_residual": 0}
    assert not kinetic_terms(state.gamma, state.A)[2].values.any()


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
    # grid holds 64 unknowns of the spin-block solve, too few for 3 blocks
    # of ceil(43 / 2) = 22 scalar rows
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


def _record_solves(monkeypatch, name: str, module=scf) -> list[dict]:
    """Patch ``module.<name>`` to record the arguments, start block and result of each call."""
    calls: list[dict] = []
    original = getattr(module, name)

    def recorded(*args, X0=None, **kwargs):
        out = original(*args, X0=X0, **kwargs)
        calls.append({"args": args, "kwargs": kwargs, "X0": X0, "levels": out[0], "orbitals": out[1],
                      "residuals": out[2], "iterations": out[3]})
        return out

    monkeypatch.setattr(module, name, recorded)
    return calls


def _pinned_he() -> tuple[SystemSpec, SCFConfig]:
    spec = SystemSpec(Cell(8.0, 12), (Nucleus(2.0, (4.0,) * 3),), N=2.0, alpha=0.02)
    return spec, SCFConfig(tol=1e-8, pin_A=True, seed=0)


@pytest.mark.parametrize("case", ["zero_A", "zero_deg_threshold", "nonzero_A"])
def test_scf_selects_the_spin_block_solve(monkeypatch, case):
    # H fills 1 level of a block of 4 spinors and reads the one above; at A = 0,
    # whatever deg_threshold, the fine and the half-grid solve converge 1 of 2
    # scalar rows, at A != 0 2 of 4 spinors
    spec, initial = _unpolarised_h(), None
    if case == "nonzero_A":
        spec = replace(spec, alpha=0.2)
        polarised = scf_solve(spec, SCFConfig(tol=1e-6, deg_threshold=0.0, max_iter=2, seed=0))
        assert not polarised.A.is_zero()
        initial = (polarised.gamma, polarised.A)
    fine, coarse = _record_solves(monkeypatch, "eigensolve"), _record_solves(monkeypatch, "_lobpcg")
    cfg = SCFConfig(tol=1e-6, deg_threshold=0.0 if case == "zero_deg_threshold" else 1e-6, max_iter=1, seed=0)
    state = scf_solve(spec, cfg, initial=initial)
    components, count, rows = (2, 2, 4) if case == "nonzero_A" else (1, 1, 2)
    for call in fine + coarse:
        assert (call["kwargs"]["components"], call["args"][2], call["kwargs"]["block"]) == (components, count, rows)
        assert call["orbitals"].shape[:2] == (rows, components)
    assert fine[0]["X0"].shape[:2] == (rows, components)
    assert len(coarse) == (initial is None)
    # the state carries spinors and their levels either way
    assert len(state.levels) == len(state.gamma.block) == 4


def _pinned_he_and_spinor_oracle(monkeypatch):
    """The pinned He state, and the levels and orbitals of a direct 2-component
    solve of the A = 0 operator of its last evaluation (4 levels, block 6)."""
    spec, cfg = _pinned_he()
    calls = _record_solves(monkeypatch, "eigensolve")
    state = scf_solve(spec, cfg)
    apply_h, cell, count = calls[-1]["args"]
    kwargs = calls[-1]["kwargs"]
    assert kwargs["components"] == 1 and (count, kwargs["block"]) == (2, 3)
    levels, X, *_ = eigensolve(
        apply_h, cell, 2 * count, block=2 * kwargs["block"], tol=1e-11, max_iter=scf.EIG_MAXITER, seed=1
    )
    calls.clear()
    return spec, cfg, state, levels, X, calls


def test_scf_spin_block_matches_spinor_solve(monkeypatch):
    # the oracle of the spin-block solve is a direct 2-component solve of the
    # same A = 0 operator, h (x) 1 on spinor rows
    spec, _, state, levels, X, _ = _pinned_he_and_spinor_oracle(monkeypatch)
    assert state.converged
    # the 4 converged levels: exact pairs, and the spinor levels to the eigensolver tolerance
    assert np.array_equal(state.levels[0:4:2], state.levels[1:4:2])
    assert np.abs(state.levels[:4] - levels[:4]).max() <= 1e-9
    # both fill the 1s pair: the same density, whatever spin directions the solve mixed
    rho_spinor = np.sum(np.abs(X[:2]) ** 2, axis=(0, 1))
    rho = density(state.gamma).values
    assert np.abs(rho - rho_spinor).max() <= 1e-9 * rho.max()


def test_scf_spin_block_warm_starts_from_a_spinor_state(monkeypatch):
    # He's block of 6 spinor orbitals from a 2-component solve becomes 3
    # scalar rows: the whitened span of their components, its 3 largest directions
    spec, cfg, cold, levels, X, calls = _pinned_he_and_spinor_oracle(monkeypatch)
    occ, _ = fermi_fill(levels, spec.N)
    spinor = DensityMatrix(tuple(SpinorField(spec.cell, x) for x in X), occ)
    warm = scf_solve(spec, cfg, initial=(spinor, MagneticPotential.zero(spec.cell)))
    assert warm.converged
    assert abs(warm.energy.total - cold.energy.total) <= 1e-12 * abs(cold.energy.total)
    first = calls[0]
    assert first["kwargs"]["components"] == 1 and first["X0"].shape[:2] == (3, 1)
    assert first["iterations"] <= 3


def test_scf_pairs_a_scalar_start_for_a_magnetic_solve(monkeypatch):
    # a zero-threshold fill of three electrons takes phi_0 (x) chi, phi_0 (x) chi_perp
    # and phi_1 (x) chi: the first iterate polarises, and the second solve, at
    # A != 0, starts from the spinor pairs of the first solve's scalar rows
    spec = SystemSpec(Cell(8.0, 12), (Nucleus(3.0, (4.0,) * 3),), N=3.0, alpha=0.2)
    calls = _record_solves(monkeypatch, "eigensolve")
    scf_solve(spec, SCFConfig(tol=1e-7, eig_block=4, deg_threshold=0.0, max_iter=2, seed=0))
    first, second = calls
    assert first["kwargs"]["components"] == 1 and second["kwargs"]["components"] == 2
    assert np.array_equal(second["X0"], _spin_pairs(first["orbitals"], 4, scf._spin_axis(0)))
    # the paired start beats a random one on the same operator
    random = eigensolve(*second["args"], **second["kwargs"])
    assert np.abs(random[0][:2] - second["levels"][:2]).max() <= second["kwargs"]["tol"]
    assert second["iterations"] < random[3]


def _record_warm_starts(monkeypatch) -> tuple[list[tuple], list[np.ndarray]]:
    """Record in order each eigensolve's ``("solve", X0, components)`` and each accepted
    iterate's ``("accept", gamma, None)`` (its audit), and the blocks ``_spatial_rows`` reads."""
    events, spatial = [], []
    solve, audit, rows = scf.eigensolve, scf.kinetic_inequality_report, scf._spatial_rows

    def recorded_solve(*args, X0=None, **kwargs):
        events.append(("solve", X0, kwargs["components"]))
        return solve(*args, X0=X0, **kwargs)

    def recorded_audit(gamma, A):
        events.append(("accept", gamma, None))
        return audit(gamma, A)

    def recorded_rows(cell, X, count):
        spatial.append(X)
        return rows(cell, X, count)

    monkeypatch.setattr(scf, "eigensolve", recorded_solve)
    monkeypatch.setattr(scf, "kinetic_inequality_report", recorded_audit)
    monkeypatch.setattr(scf, "_spatial_rows", recorded_rows)
    return events, spatial


def _warm_solves(events: list[tuple]) -> list[tuple]:
    """``(gamma, X0, components)`` of each eigensolve after an accepted iterate ``gamma``."""
    out, gamma = [], None
    for kind, obj, components in events:
        if kind == "accept":
            gamma = obj
        elif gamma is not None:
            out.append((gamma, obj, components))
    return out


def test_scf_zero_a_warm_start_reads_the_scalar_rows(monkeypatch):
    # at A = 0 the last spin-pair state, of this run or of a previous one,
    # gives its scalar rows as they are: no spinor block is taken apart
    spec, cfg = _pinned_he()
    events, spatial = _record_warm_starts(monkeypatch)
    state = scf_solve(spec, replace(cfg, max_iter=3))
    warm = _warm_solves(events)
    assert len(warm) == 2 and all(c == 1 and X0 is gamma._pairs[0] for gamma, X0, c in warm)
    events.clear()
    scf_solve(spec, replace(cfg, max_iter=1), initial=(state.gamma, state.A))
    assert events[0][1] is state.gamma._pairs[0]
    assert not spatial


def test_scf_zero_a_warm_start_from_a_checkpoint_takes_the_spatial_rows(monkeypatch, tmp_path):
    # a checkpoint keeps spinors only: their real span gives the scalar rows
    from magrhf.runio import checkpoint_load, checkpoint_save

    spec, cfg = _pinned_he()
    path = str(tmp_path / "he.ckpt")
    checkpoint_save(scf_solve(spec, replace(cfg, tol=1e-6)), path)
    gamma, A = checkpoint_load(path).initial_for(spec)
    events, spatial = _record_warm_starts(monkeypatch)
    scf_solve(spec, replace(cfg, max_iter=1), initial=(gamma, A))
    assert len(spatial) == 1 and spatial[0] is gamma.block
    assert events[0][1].shape[:2] == (3, 1)


def test_scf_magnetic_warm_start_reads_the_last_block(monkeypatch):
    # at A != 0 every solve starts from the block of the last accepted state:
    # the spin pairs of a scalar solve, then the spinors of a magnetic one
    spec = replace(_unpolarised_h(), alpha=0.2)
    events, _ = _record_warm_starts(monkeypatch)
    scf_solve(spec, SCFConfig(tol=1e-6, deg_threshold=0.0, max_iter=4, seed=0))
    warm = [(gamma, X0) for gamma, X0, c in _warm_solves(events) if c == 2]
    assert warm and all(X0 is gamma.block for gamma, X0 in warm)
    assert {gamma._pairs is None for gamma, _ in warm} == {True, False}


def test_scf_magnetic_state_adopts_the_eigensolver_rows(monkeypatch):
    # at A != 0 the state holds the very rows the last eigensolve returned, not a copy
    spec = replace(_unpolarised_h(), alpha=0.2)
    initial = white_noise_state(spec.cell, seed=3)  # a random transverse potential
    calls = _record_solves(monkeypatch, "eigensolve")
    state = scf_solve(spec, SCFConfig(tol=1e-6, deg_threshold=0.0, max_iter=1, seed=0), initial=initial)
    assert calls[-1]["kwargs"]["components"] == 2
    assert np.shares_memory(state.gamma.block, calls[-1]["orbitals"])


def test_spin_pairs_of_real_rows_are_complex_spinors():
    # along chi = up the pairs are phi (x) up and phi (x) down
    X = np.random.default_rng(0).standard_normal((2, 1, 4, 4, 4))
    pairs = _spin_pairs(X, 3, np.array([1.0, 0.0], dtype=complex))
    assert pairs.dtype == np.complex128 and pairs.shape == (3, 2, 4, 4, 4)
    for row, (phi, spin) in enumerate([(0, 0), (0, 1), (1, 0)]):
        assert np.array_equal(pairs[row, spin], X[phi, 0])
        assert not pairs[row, 1 - spin].any()


def _spin_direction(chi: np.ndarray) -> np.ndarray:
    """The unit vector chi^+ sigma chi of a unit spinor."""
    return np.real(np.einsum("s,ist,t->i", chi.conj(), PAULI, chi))


def test_scf_polarises_along_the_seeded_spin_axis():
    # a zero-threshold fill of H takes phi (x) chi of the run's axis chi, so the
    # first iterate's moment lies along chi^+ sigma chi; the axis is a function
    # of the seed alone
    spec = replace(_unpolarised_h(), alpha=0.2)
    axes = []
    for seed in (0, 0, 1):
        state = scf_solve(spec, SCFConfig(tol=1e-6, deg_threshold=0.0, max_iter=1, seed=seed))
        moment = magnetisation(state.gamma).values.sum(axis=(1, 2, 3)) * spec.cell.dV
        axes.append(moment)
        assert np.abs(moment - _spin_direction(scf._spin_axis(seed))).max() <= 1e-12
    assert np.array_equal(axes[0], axes[1])
    assert np.abs(axes[0] - axes[2]).max() > 0.1


def test_spin_pairs_along_an_axis_are_orthonormal_and_pair_to_zero_spin():
    # phi (x) chi and phi (x) chi_perp are orthonormal for orthonormal phi, the
    # first is polarised along chi^+ sigma chi, and an equally filled pair carries
    # no moment: exactly for a real chi, to the roundoff of the complex products
    # (which may be fused multiply-adds) for a complex one
    cell = Cell(6.0, 6)
    phi = np.linalg.qr(np.random.default_rng(5).standard_normal((6**3, 2)))[0].T / math.sqrt(cell.dV)
    scale = np.max(phi**2)
    for chi, exact in ((np.array([0.6, 0.8], dtype=complex), True), (scf._spin_axis(3), False)):
        pairs = _spin_pairs(phi.reshape(2, 1, 6, 6, 6), 4, chi)
        flat = pairs.reshape(4, -1)
        assert np.abs(flat.conj() @ flat.T * cell.dV - np.eye(4)).max() <= 1e-13
        orbitals = tuple(SpinorField(cell, x) for x in pairs)
        m = magnetisation(DensityMatrix(orbitals, [1.0, 0.0, 0.0, 0.0])).values
        want = _spin_direction(chi)[:, None, None, None] * phi[0].reshape(6, 6, 6) ** 2
        assert np.abs(m - want).max() <= 1e-15 * scale
        for occ in ([0.5, 0.5, 0.0, 0.0], [1.0, 1.0, 0.3, 0.3]):
            m = magnetisation(DensityMatrix(orbitals, occ)).values
            assert not m.any() if exact else np.abs(m).max() <= 1e-15 * scale


def test_spatial_rows_of_rotated_spinors_span_the_spatial_rows():
    # e^{i theta} phi (x) chi with a complex spin direction chi: the real and
    # imaginary parts of every component are multiples of the real phi
    from scipy.linalg import subspace_angles

    cell = Cell(6.0, 6)
    rng = np.random.default_rng(4)
    phi = rng.standard_normal((3, 6**3))
    chi = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    chi /= np.linalg.norm(chi, axis=1, keepdims=True)
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 3))
    X = (phase[:, None, None] * chi[:, :, None] * phi[:, None, :]).reshape(3, 2, 6, 6, 6)
    rows = scf._spatial_rows(cell, X, 3)
    assert rows.dtype == np.float64 and rows.shape == (3, 1, 6, 6, 6)
    flat = rows.reshape(3, -1)
    assert np.abs(flat @ flat.T * cell.dV - np.eye(3)).max() <= 1e-12
    assert subspace_angles(flat.T, phi.T).max() <= 1e-10


def test_scf_spin_block_round_trip_through_a_magnetic_potential(monkeypatch):
    # the first field solve is replaced by a potential well above the snap
    # bound: the evaluations go A = 0 (real scalar rows) -> A != 0 (spinors
    # paired from them) -> A snapped to 0 (real rows from the spinors), and
    # the unpolarised state's fixed point is reached again
    spec = _unpolarised_h()
    cfg = SCFConfig(tol=1e-7, seed=0)
    cold = scf_solve(spec, cfg)
    original = scf.update_vector_potential

    def kicked(J, spec):
        if kicked.first:
            kicked.first = False
            a = helmholtz_project(bandlimited_vector(spec.cell, np.random.default_rng(3)), zero_mean=True)
            return MagneticPotential(VectorField(spec.cell, a.values * (1e-5 / a.norm())), check_gauge=False)
        return original(J, spec)

    kicked.first = True
    monkeypatch.setattr(scf, "update_vector_potential", kicked)
    calls = _record_solves(monkeypatch, "eigensolve")
    state = scf_solve(spec, cfg)
    assert state.converged and state.A.is_zero()
    assert abs(state.energy.total - cold.energy.total) <= 1e-12 * abs(cold.energy.total)
    comps = [call["kwargs"]["components"] for call in calls]
    to_spinor, back = comps.index(2), len(comps) - comps[::-1].index(2)
    assert comps[0] == 1 and back < len(comps) and set(comps[back:]) == {1}
    assert calls[to_spinor]["X0"].dtype == np.complex128
    assert calls[back]["X0"].dtype == calls[back]["orbitals"].dtype == np.float64


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
    out = update_vector_potential(kinetic_terms(state.gamma, state.A)[2], spec)
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


@pytest.mark.parametrize("first_nan", [1, 3])
def test_scf_non_finite_apply_after_first_iterate_is_flagged(monkeypatch, first_nan):
    # the second Hamiltonian returns NaN from its first call (its start block)
    # or its third (a step): the eigensolve of iteration 2 raises
    # EigensolveError, and iteration 1 comes back flagged, not in a traceback
    builds = []
    original = scf.make_hamiltonian

    def build(*args):
        builds.append(1)
        apply_h, calls = original(*args), []

        def failing(X):
            calls.append(1)
            return apply_h(X) * (np.nan if len(calls) >= first_nan else 1.0)

        return apply_h if len(builds) == 1 else failing

    monkeypatch.setattr(scf, "make_hamiltonian", build)
    state = scf_solve(_unpolarised_h(), SCFConfig(tol=1e-10, seed=0))
    assert len(builds) == 2
    assert state.flag == "eigensolver_failed" and not state.converged
    assert state.iteration == 1 and np.isfinite(state.energy.total)


def test_scf_solve_rejects_block_below_occupied_levels():
    # three electrons need three levels and a guard row in the eigensolver's block
    spec = SystemSpec(Cell(8.0, 12), (Nucleus(1.0, (4.0,) * 3),), N=3.0, alpha=0.02)
    for block in (2, 3):
        with pytest.raises(ValueError, match=f"eig_block={block} cannot hold 3 occupied levels of N=3.0 and a guard"):
            scf_solve(spec, SCFConfig(eig_block=block, seed=0))
    assert SCFConfig(eig_block=4).check_block(spec.N) == 3


def test_scf_smallest_block_keeps_a_guard_row(monkeypatch):
    # Li at alpha = 0.2 in the smallest block, ceil(N) + 1: every solve finds the
    # lowest levels that a solve of twice the block finds, to its tolerance (at
    # A = 0 and, once the zero-threshold fill polarises, at A != 0); a block of
    # ceil(N) returned a higher third level here
    spec = SystemSpec(Cell(8.0, 12), (Nucleus(3.0, (4.0,) * 3),), N=3.0, alpha=0.2)
    calls = _record_solves(monkeypatch, "eigensolve")
    scf_solve(spec, SCFConfig(tol=1e-7, eig_block=4, deg_threshold=0.0, max_iter=2, seed=0))
    assert [call["kwargs"]["components"] for call in calls] == [1, 2]
    for call in calls:
        apply_h, cell, count = call["args"]
        wide = eigensolve(apply_h, cell, count, **{**call["kwargs"], "block": 2 * call["kwargs"]["block"]})
        assert np.abs(call["levels"][:count] - wide[0][:count]).max() <= call["kwargs"]["tol"]


@pytest.mark.parametrize("N", [1, 2, 3])
def test_scf_default_block_converges_the_levels_the_fill_reads(monkeypatch, N):
    # H, He and Li in the default block: every eigensolve (the half-grid one, the
    # fine ones at A = 0, warm-started after the first, and, from a warm start with
    # a potential, those at A != 0) asks for the levels the fill reads, the ceil(N)
    # occupied ones and the one above (their scalar rows at A = 0), keeps a guard
    # row, which gets no W, and finds those levels to its tolerance as a solve of
    # twice its block does; and so does every solve of the spin-free oracle
    import magrhf.spinless as spinless

    cell = Cell(8.0, 12)
    spec = SystemSpec(cell, (Nucleus(float(N), (4.0,) * 3),), N=float(N), alpha=0.2)
    fine, coarse = _record_solves(monkeypatch, "eigensolve"), _record_solves(monkeypatch, "_lobpcg")
    cfg = SCFConfig(tol=1e-7, max_iter=3, seed=0)
    cold = scf_solve(spec, cfg)
    n_cold = len(fine)
    a = 0.05 * bandlimited_vector(cell, np.random.default_rng(N)).values
    A = MagneticPotential(helmholtz_project(VectorField(cell, a)))
    scf_solve(spec, replace(cfg, deg_threshold=0.0), initial=(cold.gamma, A))
    assert len(coarse) == 1 and n_cold >= 2 and {call["kwargs"]["components"] for call in fine[:n_cold]} == {1}
    assert [call["kwargs"]["components"] for call in fine[n_cold:n_cold + 2]] == [2, 2]
    calls = coarse + fine
    wanted = [math.ceil((N + 1) / 2) if call["kwargs"]["components"] == 1 else N + 1 for call in calls]
    oracle = _record_solves(monkeypatch, "eigensolve", spinless)
    spinless.scf_solve_spinless(spec, tol=1e-6)
    oracle += coarse[1:]  # its half-grid start
    assert len(oracle) > 3
    calls += oracle
    wanted += [math.ceil(N / 2) + 1] * len(oracle)
    for call, count_wanted in zip(calls, wanted):
        apply_h, cell_, count = call["args"]
        block, tol = call["kwargs"]["block"], call["kwargs"]["tol"]
        assert count == count_wanted and block >= count + 1
        assert np.all(call["residuals"][:count] <= tol)
        wide = eigensolve(apply_h, cell_, count, **{**call["kwargs"], "block": 2 * block})
        assert np.abs(call["levels"][:count] - wide[0][:count]).max() <= tol


def test_scf_fill_reads_only_the_converged_levels(monkeypatch):
    # 5 electrons in a smeared Z = 8 well: 1s, 2s and a threefold 2p shell that
    # holds the fifth electron.  At A = 0 the solve converges 3 of 4 scalar rows,
    # so the block edge cuts the 2p shell and the guard row's level is an
    # unconverged Ritz value.  The fill reads the 6 converged spinor levels only:
    # the last electron goes to 2p_x, whatever the guard level reads
    spec = SystemSpec(Cell(8.0, 12), (Nucleus(8.0, (4.0,) * 3),), N=5.0, alpha=0.02)
    calls, fills = _record_solves(monkeypatch, "eigensolve"), []
    original = scf.fermi_fill

    def fill(levels, *args):
        fills.append(np.array(levels))
        return original(levels, *args)

    monkeypatch.setattr(scf, "fermi_fill", fill)
    state = scf_solve(spec, SCFConfig(tol=1e-6, max_iter=1, seed=0))
    apply_h, cell, count = calls[-1]["args"]
    assert (count, calls[-1]["kwargs"]["block"]) == (3, 4)
    wide = eigensolve(apply_h, cell, 5, **{**calls[-1]["kwargs"], "block": 8, "tol": 1e-9})[0]
    assert wide[3] - wide[2] <= 1e-6 < wide[2] - wide[1]  # the edge cuts the 2p shell
    assert state.converged_levels == 6 and len(state.levels) == 8
    assert np.array_equal(fills[-1], state.levels[:6])
    assert np.array_equal(state.gamma.occupations, [1.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.0, 0.0])


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
