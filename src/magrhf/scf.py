"""Self-consistent solution of the coupled orbital / vector-potential
stationarity system.

The fixed point solved here is

    gamma = aufbau filling of the lowest spinor states of
            H = (1/2)[sigma.(p+A)]^2 + V + rho * coulomb,
    J + (-lap A) / (4 pi alpha^2) = 0,

with the Fermi level chosen so the occupations sum to the electron
count, and ``J`` the A-gradient of the grid kinetic energy
(:func:`~magrhf.density.kinetic_terms`; ``(1/2)(j + curl m) + A rho`` in
the continuum): the field equation is the stationarity in A of the
energy the loop minimises.  The loop alternates a preconditioned block
eigensolve, aufbau filling, one spectral solve of the linear field
equation (with the ``A rho`` part of ``J`` lagged), Anderson mixing of
the density and linear mixing of the potential.  At A = 0 the operator
is ``h (x) 1``, and the evaluation is scalar end to end: the eigensolve
finds the levels of the scalar ``h`` once, on half the block and in
real arithmetic (``h`` is real symmetric), and pairs them into spinors
along one spin axis per run; the derivative pass, the orbital residual
and, for an equally filled state, the field solve then work on the
scalar rows or take no transform.
Convergence is declared on three residuals evaluated at the iterate
itself: the orbital residual of the occupied states in their own mean
field, the field-equation residual, and the continuity residual
``div(j/2 + A rho)``.  A step that raises the energy is retried from the
same inputs with linear mixing at half the fraction, halving again down
to a floor before it is accepted; every outer iteration starts again
from the configured fraction.  This keeps the accepted energy history
non-increasing in practice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.blas import get_blas_funcs

from .density import (
    DensityMatrix,
    EnergyBreakdown,
    current,  # uncalled: perfbench/spans.py patches it here (ROADMAP direction 3)
    density,
    kinetic_inequality_report,
    kinetic_terms,
    magnetisation,  # uncalled: perfbench/spans.py patches it here (ROADMAP direction 3)
    physical_current,
    total_energy,
)
from .fields import (
    Cell,
    ScalarField,
    VectorField,
    _gram,
    divergence,
    prolong,
    restrict,
    transverse_spectral,
)
from .hamiltonian import (
    MagneticPotential,
    SystemSpec,
    _kinetic,
    external_potential,
    hartree,
    make_hamiltonian,
)

__all__ = [
    "SCFConfig",
    "SCFState",
    "EigensolveError",
    "eigensolve",
    "fermi_fill",
    "update_vector_potential",
    "scf_solve",
    "scan_alpha",
    "concavity_defects",
    "AlphaScanRow",
    "make_hamiltonian",
]


#: history depth of the Anderson density mixing
ANDERSON_DEPTH = 5
#: floor of the halved mixing fraction; an outer iteration's retries stop once it is reached
MIN_MIX = 1e-3
#: LOBPCG iteration cap of each eigensolve
EIG_MAXITER = 300
#: relative floor below which a field-equation source or a current counts as zero
ZERO_FLOOR = 1e-6
#: eigensolver tolerance of an SCF's first outer iteration, and the loosest it is ever given
EIG_TOL_START = 1e-5
#: fraction of the outer residual that the eigensolver tolerance follows once it tightens
EIG_TOL_FRACTION = 0.03


@dataclass(frozen=True)
class SCFConfig:
    """Knobs of the fixed-point iteration.

    ``mix`` in (0, 1] is the Anderson mixing fraction of the density and
    the linear mixing fraction of the vector potential;
    ``deg_threshold`` >= 0 groups levels into a degenerate Fermi shell
    that shares its charge (at 0 every level is its own shell, so a spin
    pair is filled one member at a time and the state may polarise);
    ``eig_block`` must hold the occupied levels and a guard row
    (:meth:`check_block`).  ``seed`` draws the eigensolver's random rows
    and the run's spin axis.  ``pin_A`` freezes the vector potential at
    zero (the decoupled, non-magnetic limit).
    """

    max_iter: int = 80
    tol: float = 1e-8
    mix: float = 0.6
    eig_block: int | None = None
    eig_tol: float | None = None
    deg_threshold: float = 1e-6
    seed: int = 0
    pin_A: bool = False
    s_nuc: float | None = None
    energy_floor: float = -1.0e4
    energy_slack_rel: float = 1e-10

    def __post_init__(self) -> None:
        for ok, message in (
            (0.0 < self.mix <= 1.0, "the mixing fraction must lie in (0, 1]"),
            (self.tol > 0, "tolerance must be positive"),
            (self.max_iter >= 1, "max_iter must be at least 1"),
            (self.deg_threshold >= 0, "deg_threshold must be non-negative"),
            (self.eig_block is None or self.eig_block >= 1, "eig_block must be at least 1"),
            (self.eig_tol is None or self.eig_tol > 0, "eig_tol must be positive"),
            (self.s_nuc is None or self.s_nuc >= 0, "s_nuc must be non-negative"),
        ):
            if not ok:
                raise ValueError(message)

    def check_block(self, N: float) -> int:
        """The number ``ceil(N)`` of occupied levels; ``ValueError`` if ``eig_block`` has no row more."""
        n_occ = int(math.ceil(N - 1e-12))
        if self.eig_block is not None and self.eig_block <= n_occ:
            raise ValueError(f"eig_block={self.eig_block} cannot hold {n_occ} occupied levels of N={N} and a guard row")
        return n_occ


class EigensolveError(RuntimeError):
    """Eigensolver failed to converge; carries the best residuals found."""

    def __init__(self, message: str, levels: np.ndarray, residuals: np.ndarray):
        super().__init__(message)
        self.levels = levels
        self.residuals = residuals


def _row_norms(cell: Cell, X: np.ndarray) -> np.ndarray:
    """Grid norms of the rows of a real or complex block (rows, N)."""
    f = X.view(np.float64)
    return np.sqrt(np.einsum("ij,ij->i", f, f) * cell.dV)


def _lincomb(Y: np.ndarray, C: np.ndarray, X: np.ndarray, alpha: float = 1.0, beta: float = 0.0) -> None:
    """``Y = alpha C^T X + beta Y`` in place, as one ``zgemm`` (``dgemm`` for a real ``Y``)
    on the transposed views.

    ``Y`` must be C-ordered so that ``Y.T`` is the Fortran-ordered
    array BLAS overwrites.
    """
    get_blas_funcs("gemm", (Y,))(alpha, X.T, C, beta=beta, c=Y.T, overwrite_c=1)


def _whiten(g: np.ndarray, rel_tol: float) -> np.ndarray:
    """``T`` with ``T^H g T = 1`` on the eigen-directions of the Gram matrix ``g``
    scaled to unit diagonal that lie above ``rel_tol`` times its largest
    eigenvalue.  A vanishing row gets a zero row of ``T``; ``T`` may have no columns."""
    d = np.sqrt(np.real(np.diagonal(g)))
    s = np.divide(1.0, d, out=np.zeros_like(d), where=d > 1e-150)
    gs = s[:, None] * g * s
    vals, vecs = np.linalg.eigh(0.5 * (gs + gs.conj().T))
    keep = vals > rel_tol * max(vals.max(initial=0.0), 1e-300)
    return s[:, None] * vecs[:, keep] / np.sqrt(vals[keep])


def _complement(cell: Cell, B: np.ndarray, W: np.ndarray) -> int:
    """Project ``span(B)`` (orthonormal rows) out of the rows of ``W`` and make them
    orthonormal, in place.

    Twice is enough (Kahan, in Parlett, The Symmetric Eigenvalue Problem):
    a second pass runs only when the first removed more than half of a
    row's norm, and a row that loses more than half again lies in
    ``span(B)`` to working precision and is dropped.  The rows kept are
    whitened (:func:`_whiten` at 1e-10) into the top rows of ``W``;
    returns their number, which may be 0.
    """
    before = _row_norms(cell, W)
    for _ in range(2):
        _lincomb(W, _gram(cell, B, W), B, -1.0, 1.0)
        g = _gram(cell, W, W)
        after = np.sqrt(np.real(np.diagonal(g)))
        keep = after > 0.5 * before
        if keep.all():
            break
        before = after
    k = int(keep.sum())
    if k < len(W):
        W[:k] = W[keep]
        g = g[np.ix_(keep, keep)]
    T = _whiten(g, 1e-10)
    W[:T.shape[1]] = T.T @ W[:k]
    return T.shape[1]


def _ritz(h: np.ndarray, levels: np.ndarray, rel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the Hermitian part of ``h``, so finite Ritz values and residuals.  A non-finite
    ``h``, from an apply that returned NaN or inf, raises :class:`EigensolveError` with the last
    finite step's ``levels`` and ``rel``."""
    if not np.isfinite(h).all():
        raise EigensolveError("the Hamiltonian apply returned non-finite values", np.real(levels), rel)
    return np.linalg.eigh(0.5 * (h + h.conj().T))


def eigensolve(
    apply_h,
    cell: Cell,
    count: int,
    *,
    block: int | None = None,
    tol: float = 1e-9,
    max_iter: int = 300,
    X0: np.ndarray | None = None,
    seed: int = 0,
    components: int = 2,
    real: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, np.ndarray]:
    """Lowest eigenpairs of a Hermitian operator by preconditioned LOBPCG.

    Returns ``(levels, orbitals, residuals, iterations, h_orbitals)`` with
    levels ascending, orthonormal orbitals of shape (block, components, n, n, n),
    relative residuals ``||H x - t x|| / max(1, |t|)`` and the block H X the
    iteration keeps current, so callers need not apply H again.  The first
    ``count`` pairs are converged below ``tol``; otherwise an
    :class:`EigensolveError` carrying the best residuals is raised.

    The preconditioner is the shifted free-particle resolvent
    ``(|k|^2 / 2 - theta_i + shift)^(-1)`` applied to the residual of each
    unconverged pair among the first ``count`` (soft locking).  The guard
    rows past ``count`` spawn no ``W`` row: they stay in ``[X | P]`` and
    improve through their conjugate directions and the Rayleigh-Ritz step
    alone, so their levels are Ritz values that need not have converged.
    An apply that returns NaN or inf raises :class:`EigensolveError`.
    The basis ``S = [X | P | W]``
    and its image ``HS = [HX | HP | HW]`` are contiguous row blocks of
    two preallocated (3 block, components * n^3) buffers each; the
    slots are as wide as their blocks are.  ``W`` is projected against
    ``[X | P]`` (a second pass only where the first removed more than
    half of a row, "twice is enough") and whitened into orthonormal rows
    before its apply, so ``S`` is orthonormal and one ``zgemm`` gives the
    Rayleigh-Ritz matrix ``S^H HS``.  Its Ritz vectors
    ``Y`` and the conjugate directions ``Z``, the P and W part of ``Y``
    made orthonormal to ``Y`` in the small space (Hetmaniuk & Lehoucq,
    J. Comput. Phys. 218 (2006) 324) by two passes of projection and
    whitening, give the next ``[X | P]`` and its
    H image by one ``zgemm`` each over ``S`` and ``HS`` into the other
    buffer: the implicit update of Knyazev (SIAM J. Sci. Comput. 23
    (2001) 517).  ``X`` leaves each step as Ritz vectors, so it is not
    rotated again.

    With ``real=True`` the operator must be real symmetric on real rows
    (the A = 0 scalar ``h``, whose eigenvectors can be chosen real):
    every block, the start and the result are float64, the products are
    ``dgemm`` and the preconditioner goes through the half-spectrum pair
    (:meth:`~magrhf.fields.Cell.to_half_spectral`).  A complex ``X0`` is
    refused there; the caller converts it.
    """
    n = cell.n
    b = max(block or (count + 2), count, 2)
    rng = np.random.default_rng(seed)
    field_shape = (components,) + (n,) * 3
    shape = (b, components * n**3)
    dtype = float if real else complex

    def random_rows(m: int) -> np.ndarray:
        r = rng.standard_normal((m, shape[1]))
        return r if real else r + 1j * rng.standard_normal((m, shape[1]))

    # the start block: the rows of X0, filled up with random rows to b orthonormal ones
    # (a second fill only where the rows of X0 are dependent)
    X = np.zeros((0, shape[1]), dtype=dtype)
    if X0 is not None:
        if real and np.iscomplexobj(X0):
            raise TypeError("a real eigensolve needs a real start block X0")
        X = np.array(X0, dtype=dtype)[:b].reshape(-1, shape[1])
    for _ in range(2):
        if len(X) < b:
            X = np.concatenate([X, random_rows(b - len(X))])
        X = _whiten(_gram(cell, X, X), 1e-12).T @ X
        if len(X) == b:
            break

    def apply(Y: np.ndarray) -> np.ndarray:
        return apply_h(Y.reshape((-1,) + field_shape)).reshape(Y.shape)

    HX = apply(X)
    rel = np.full(b, np.inf)
    theta, U = _ritz(_gram(cell, X, HX), np.full(b, np.nan), rel)
    # two copies of the basis and of its H image: a step reads one and writes the next [X | P] into the other
    S = [np.empty((3 * b, shape[1]), dtype=dtype) for _ in range(2)]
    HS = [np.empty_like(S[0]) for _ in range(2)]
    kx, kp = X.shape[0], 0
    _lincomb(S[0][:kx], U, X)
    _lincomb(HS[0][:kx], U, HX)
    del X, HX
    # the preconditioner's transform pair: real rows keep to the half spectrum
    to_spectral, from_spectral, k2 = (
        (cell.to_half_spectral, cell.from_half_spectral, cell.k2_half) if real
        else (cell.to_spectral, cell.from_spectral, cell.k2_full)
    )

    for it in range(1, max_iter + 1):
        S0, HS0 = S[(it - 1) % 2], HS[(it - 1) % 2]
        X, HX, w0 = S0[:kx], HS0[:kx], kx + kp
        R = S0[w0:w0 + kx]  # the residuals take the W slot
        np.multiply(X, -theta[:, None], out=R)
        R += HX
        rel = _row_norms(cell, R) / np.maximum(1.0, np.abs(theta))
        if np.all(rel[:count] <= tol):
            # copies, so the 3-block buffers are not kept alive by the result
            return theta, X.reshape((-1,) + field_shape).copy(), rel, it, HX.reshape((-1,) + field_shape).copy()

        # preconditioned residuals of the unconverged wanted pairs only: converged
        # pairs (soft locking) and the guard rows past count stay in the basis but
        # spawn no search direction.  Some pair below count is unconverged, so W is not empty
        active = rel > 0.25 * tol
        active[count:] = False
        kw = int(active.sum())
        if kw < kx:
            R[:kw] = R[active]
        W = S0[w0:w0 + kw]
        shift = np.maximum(1.0, -theta[active] + 1.0)
        chat = to_spectral(W.reshape((-1,) + field_shape))
        chat /= 0.5 * k2 + shift[:, None, None, None, None]
        W[...] = from_spectral(chat).reshape(W.shape)
        del chat  # not alive during the apply
        kw = _complement(cell, S0[:w0], W)
        if not kw:
            # W lies in span[X | P] to working precision: restart it from random directions
            W[...] = random_rows(len(W))
            kw = _complement(cell, S0[:w0], W)
        m = w0 + kw
        HS0[w0:m] = apply(S0[w0:m])

        # Rayleigh-Ritz over the orthonormal basis S
        vals, Y = _ritz(_gram(cell, S0[:m], HS0[:m]), theta, rel)
        theta, Y = vals[:b], Y[:, :b]
        # conjugate directions: the P and W part of the Ritz vectors, made orthonormal to
        # them twice, since whitening a nearly dependent Z magnifies what one projection
        # leaves of Y, and [X | P] would drift from orthonormality step by step
        Z = Y.copy()
        Z[:kx] = 0.0
        for _ in range(2):
            Z -= Y @ (Y.conj().T @ Z)
            Z = Z @ _whiten(Z.conj().T @ Z, 1e-8)
        C = np.concatenate([Y, Z], axis=1)
        kx, kp = Y.shape[1], Z.shape[1]
        _lincomb(S[it % 2][:kx + kp], C, S0[:m])
        _lincomb(HS[it % 2][:kx + kp], C, HS0[:m])

    raise EigensolveError(
        f"eigensolver did not reach tol={tol} within {max_iter} iterations "
        f"(relative residuals of the lowest {count} pairs: {rel[:count]})",
        levels=np.real(theta),
        residuals=rel,
    )


# The coarse solve of a cold start is not one of the SCF's eigensolves, so it
# calls this private reference: callers that wrap the public name (tests, the
# benchmark's tracer) do not count it.
_lobpcg = eigensolve


def _coarse_start(build, v_eff: ScalarField, count: int, block: int, tol: float, seed: int) -> np.ndarray | None:
    """Start block of a cold eigensolve: Ritz vectors of the same mean field on the half grid.

    The two-grid idea (Xu & Zhou, Math. Comp. 70 (2001) 17): ``v_eff`` is
    restricted to ``Cell(L, 2 ceil(n/4))`` by Fourier truncation, the
    caller's scalar operator ``build(coarse, v)`` (the apply of
    ``-lap/2 + v`` on real rows (m, 1, n, n, n)) is solved there for
    ``block`` real rows, ``count`` of them to ``tol``, and the real part of
    its Ritz vectors zero-padded to the fine grid is returned (orthonormal
    by Parseval, but where the coarse Nyquist planes lose their partner
    mode; the fine solve whitens it anyway).  ``None`` (the random start)
    when the half grid has fewer than 4 points per axis or too few
    unknowns for the three-block LOBPCG basis, or when its solve fails.
    """
    cell = v_eff.cell
    n_c = 2 * math.ceil(cell.n / 4)
    if n_c < 4 or n_c**3 < 3 * block:
        return None
    coarse = Cell(cell.L, n_c)
    try:
        _, X, *_ = _lobpcg(
            build(coarse, restrict(cell, v_eff.values, coarse).real), coarse, count, block=block, tol=tol,
            max_iter=EIG_MAXITER, seed=seed, components=1, real=True,
        )
    except EigensolveError:
        return None
    return prolong(coarse, X, cell).real.copy()


def _spin_axis(seed: int) -> np.ndarray:
    """The unit spinor ``chi`` of a run: generic, since the cubic axes are stationary
    directions of the spin axis's anisotropy, where a polarised SCF pays in eigensolver
    iterations.  The anisotropy comes from the periodic box: at fixed spacing it falls
    with the edge ``L``, not with ``n``."""
    z = np.random.default_rng(seed).standard_normal(4)
    return (z[:2] + 1j * z[2:]) / np.linalg.norm(z)


def _spatial_rows(cell: Cell, X: np.ndarray, rows: int) -> np.ndarray:
    """Real scalar rows (k, 1, n, n, n), k <= ``rows``, from the spinor rows ``X``: the span of
    the real and imaginary parts of their components, whitened, keeping its ``rows``
    directions of largest weight."""
    comps = np.concatenate([X.real, X.imag]).reshape(-1, X[0, 0].size)
    vals, vecs = np.linalg.eigh(_gram(cell, comps, comps))
    keep = vals > 1e-12 * max(vals[-1], 1e-300)
    vals, vecs = vals[keep][::-1][:rows], vecs[:, keep][:, ::-1][:, :rows]
    return ((vecs / np.sqrt(vals)).T @ comps).reshape((len(vals), 1) + X.shape[2:])


def fermi_fill(
    levels: np.ndarray, N: float, deg_threshold: float = 1e-6
) -> tuple[np.ndarray, float]:
    """Aufbau occupations for ``N`` electrons over ascending levels.

    Levels within ``deg_threshold`` of the shell bottom form one
    degenerate shell and share the remaining charge equally, so the
    total is exactly ``N``; at 0 each level, equal ones too, is a shell of
    its own, filled in order.  Returns ``(occupations, fermi_energy)``;
    when the filling ends exactly between two shells the Fermi energy is
    the midpoint of the gap.
    """
    lv = np.asarray(levels, dtype=float)
    if lv.ndim != 1 or np.any(np.diff(lv) < -1e-12):
        raise ValueError("levels must be a 1-D ascending sequence")
    if N <= 0:
        raise ValueError("electron count must be positive")
    if N > lv.size + 1e-12:
        raise ValueError(f"cannot place N={N} electrons in {lv.size} available states")
    occ = np.zeros_like(lv)
    remaining = float(N)
    i = 0
    fermi = float(lv[-1])
    while i < lv.size:
        shell = np.flatnonzero((lv >= lv[i] - 1e-300) & (lv <= lv[i] + deg_threshold))
        shell = shell[shell >= i] if deg_threshold > 0 else np.array([i])
        cap = shell.size
        if remaining >= cap - 1e-12:
            occ[shell] = 1.0
            remaining -= cap
            i = int(shell[-1]) + 1
            if remaining <= 1e-12:
                fermi = 0.5 * (lv[i - 1] + lv[i]) if i < lv.size else float(lv[-1])
                remaining = 0.0
                break
        else:
            occ[shell] = remaining / cap
            fermi = float(lv[i])
            remaining = 0.0
            break
    if remaining > 1e-10:
        raise ValueError(f"fermi filling failed to place all electrons ({remaining} left)")
    total = occ.sum()
    if abs(total - N) > 0.0:
        frac = (occ > 0.0) & (occ < 1.0)
        if np.any(frac):
            occ[frac] += (N - total) / frac.sum()
    return occ, fermi


def update_vector_potential(J: VectorField, spec: SystemSpec) -> MagneticPotential:
    """One spectral solve of the linear field equation.

    Solves ``J + (-lap A)/(4 pi alpha^2) = 0`` transversally:
    ``A_k = -4 pi alpha^2 P_perp[J]_k / |k|^2`` for ``k != 0``, with a
    vanishing mean (this realises the constant multiplier of the periodic
    stationarity system, and the decay of the potential in the box
    picture).  ``J`` is the A-gradient of the kinetic energy from
    :func:`~magrhf.density.kinetic_terms`, taken in the incoming potential,
    whose ``A rho`` term it carries: the solve is lagged, and the outer
    iteration carries the lag.  An exactly zero ``J`` (a balanced fill of
    spin pairs at A = 0) gives the exact zero potential with no transform.
    """
    cell = J.cell
    if spec.cell != cell:
        raise ValueError("all fields must live on one cell")
    if not np.any(J.values):
        return MagneticPotential.zero(cell)
    shat = transverse_spectral(cell, cell.to_half_spectral(J.values))
    ahat = -4.0 * np.pi * spec.alpha**2 * shat * cell.inv_k2_half[None]
    ahat[:, 0, 0, 0] = 0.0
    return MagneticPotential(VectorField(cell, cell.from_half_spectral(ahat)), check_gauge=False)


def _source_floor(rho: ScalarField) -> float:
    """Field-equation source norm ``ZERO_FLOOR ||rho|| (2 pi / L)`` that counts as zero."""
    return ZERO_FLOOR * rho.norm() * (2.0 * np.pi / rho.cell.L)


def _snap_zero(A: MagneticPotential, rho: ScalarField, alpha: float) -> MagneticPotential:
    """``A``, or an exact zero when no source at the floor could produce a larger one.

    The field solve maps a source ``s`` to ``4 pi alpha^2 P_perp s / |k|^2``;
    ``P_perp`` is a contraction and the kernel peaks at ``|k| = 2 pi / L``, so
    a source at :func:`_source_floor` gives at most
    ``||A|| = 4 pi alpha^2 floor / (2 pi / L)^2``.  The bound is relative to
    ``||rho||`` and scales with ``alpha^2``, as a polarised state's ``A`` does.
    Roundoff-level potentials then take the A = 0 Hamiltonian apply.
    """
    k_min = 2.0 * np.pi / A.cell.L
    if A.A.norm() <= 4.0 * np.pi * alpha**2 * _source_floor(rho) / k_min**2:
        return MagneticPotential.zero(A.cell)
    return A


def _field_equation_residual(
    A: MagneticPotential, A_out: MagneticPotential, rho: ScalarField, alpha: float
) -> float:
    """Relative transverse residual of the stationarity equation for A.

    ``A_out`` is the field solve from ``A`` (:func:`update_vector_potential`):
    it sets ``-lap A_out / (4 pi alpha^2) = P_perp J(A)`` on every mode
    ``k != 0``, so the residual ``P_perp J(A) - lap A / (4 pi alpha^2)`` is
    ``lap(A_out - A) / (4 pi alpha^2)``, read off the half spectra by
    ``Cell.half_sum`` relative to ``||P_perp J(A)|| + ||lap A|| / (4 pi alpha^2)``.
    Source terms below :func:`_source_floor` count as an exactly
    satisfied equation rather than a noise-over-noise ratio.  A zero
    potential has no Laplacian term, so its residual needs no transform
    of ``A``, and with a zero ``A_out`` too the residual is 0 with no
    transform at all.
    """
    if A.is_zero() and A_out.is_zero():
        return 0.0
    cell = A_out.cell
    weight = cell.k2_half[None] / (4.0 * np.pi * alpha**2)

    def norm(c: np.ndarray) -> float:  # ||f||^2 = L^3 sum |c_k|^2
        return math.sqrt(cell.volume * float(cell.half_sum(c.real**2 + c.imag**2).sum()))

    lap_out = weight * cell.to_half_spectral(A_out.A.values)
    if A.is_zero():
        lhs_norm = scale = norm(lap_out)
    else:
        lap = weight * cell.to_half_spectral(A.A.values)
        lhs_norm = norm(lap - lap_out)
        scale = norm(lap_out) + norm(lap)
    if scale <= _source_floor(rho):
        return 0.0
    return lhs_norm / scale


def _continuity_residual(rho: ScalarField, j: VectorField, A: MagneticPotential) -> float:
    """||div(j/2 + A rho)|| / ||j/2 + A rho||; zero for a vanishing current.

    ``j/2 + A rho`` is the conserved gauge-invariant current of the
    kinetic operator (the divergence of the field stationarity equation
    kills the curl and Laplacian terms and leaves exactly this
    combination).  Degenerate-shell states carry no current analytically
    but the eigensolver leaves roundoff-level remnants; below the floor
    ``ZERO_FLOOR ||rho||`` the current counts as zero instead of dividing
    noise by noise.
    """
    phys = physical_current(rho, j, A)
    norm = phys.norm()
    if norm <= ZERO_FLOOR * rho.norm():
        return 0.0
    return divergence(phys).norm() / norm


def _orbital_residual(cell: Cell, X: np.ndarray, HX: np.ndarray, occ: np.ndarray) -> float:
    """Largest ``||H x - t x|| / max(1, |t|)``, ``t = <x, H x>``, over the occupied orbitals."""
    nmo = len(occ)
    lam = np.real(np.sum(np.conjugate(X.reshape(nmo, -1)) * HX.reshape(nmo, -1), axis=1) * cell.dV)
    R = HX - lam[:, None, None, None, None] * X
    res_per = np.sqrt(np.sum(np.abs(R.reshape(nmo, -1)) ** 2, axis=1) * cell.dV)
    occupied = occ > 1e-12
    return float(np.max(res_per[occupied] / np.maximum(1.0, np.abs(lam[occupied]))))


@dataclass
class SCFState:
    """Converged (or best-effort) self-consistent state of the system ``spec``."""

    spec: SystemSpec
    gamma: DensityMatrix
    A: MagneticPotential
    energy: EnergyBreakdown
    levels: np.ndarray
    fermi_energy: float
    iteration: int
    residual_orbital: float
    residual_field: float
    residual_continuity: float
    converged: bool
    flag: str | None = None
    #: the leading entries of ``levels`` the eigensolver converged, those the fill read;
    #: past them lie the guard rows' unconverged Ritz values (None: all of them)
    converged_levels: int | None = None
    energy_history: tuple[float, ...] = ()
    inequality_ledger: tuple[dict, ...] = ()
    forced_energy_increases: int = 0

    @property
    def residuals(self) -> tuple[float, float, float]:
        return (self.residual_orbital, self.residual_field, self.residual_continuity)


def _initial_density(spec: SystemSpec, s_nuc: float) -> ScalarField:
    """Superposed atomic Gaussians at the nuclei, scaled to N electrons.

    The widths are deliberately broad (a few bohr): a tight initial
    cloud puts its full self-repulsion on top of the nucleus in the
    first mean field, which can unbind the first iterate entirely.
    """
    cell = spec.cell
    rho = np.zeros((cell.n,) * 3)
    for nuc in spec.nuclei:
        width = min(max(3.0 / max(nuc.z, 1.0), 2.0 * cell.spacing), 0.25 * cell.L)
        dx, dy, dz = cell.displacements(nuc.R)
        g = np.exp(-0.5 * (dx * dx + dy * dy + dz * dz) / width**2)
        rho += max(nuc.z, 1.0) * g / (g.sum() * cell.dV)
    rho *= spec.N / max(rho.sum() * cell.dV, 1e-300)
    return ScalarField(cell, rho)


class _AndersonMixer:
    """Anderson (DIIS-like) mixing of the density fixed point ``rho -> rho_out``.

    Each step extrapolates over the last ``ANDERSON_DEPTH`` differences of
    inputs and residuals with the linear fraction ``beta``, clips the
    result to ``rho >= 0`` and scales it back to ``N`` electrons.
    """

    def __init__(self, beta: float, N: float):
        self.beta = beta
        self.N = N
        self.x_hist: list[np.ndarray] = []
        self.r_hist: list[np.ndarray] = []

    def push(self, rho: ScalarField, rho_out: ScalarField) -> ScalarField:
        x = rho.values
        res = rho_out.values - x
        self.x_hist.append(x)
        self.r_hist.append(res)
        if len(self.x_hist) > ANDERSON_DEPTH + 1:
            self.x_hist.pop(0)
            self.r_hist.pop(0)
        m = len(self.x_hist)
        if m == 1:
            new = x + self.beta * res
        else:
            dR = np.stack([self.r_hist[i + 1] - self.r_hist[i] for i in range(m - 1)]).reshape(m - 1, -1)
            dX = np.stack([self.x_hist[i + 1] - self.x_hist[i] for i in range(m - 1)]).reshape(m - 1, -1)
            gram = dR @ dR.T
            rhs = dR @ res.ravel()
            try:
                coef = np.linalg.solve(gram + 1e-12 * max(np.trace(gram), 1e-300) * np.eye(m - 1), rhs)
            except np.linalg.LinAlgError:
                coef = np.zeros(m - 1)
            step = res.ravel() - dR.T @ coef
            new = (x.ravel() + self.beta * step - dX.T @ coef).reshape(x.shape)
        new = np.maximum(new, 0.0)
        new *= self.N / max(new.sum() * rho.cell.dV, 1e-300)
        return ScalarField(rho.cell, new)


class _EigTolSchedule:
    """Adaptive eigensolver tolerance of an SCF loop (as in DFTK's adaptive
    diagonalisation; Herbst, Levitt, Cancès, Proc. JuliaCon Conf. 3 (2021) 69).

    The eigensolver runs loose while the mean field is far from
    self-consistent and tightens with the outer residual:
    ``tol`` starts at ``start = max(target, EIG_TOL_START)`` and each
    :meth:`tighten` sets it to ``EIG_TOL_FRACTION * residual`` clipped to
    ``[target, start]``.  A loop may declare convergence only once
    :attr:`at_target` holds, so its last iterate was solved at ``target``.
    """

    def __init__(self, target: float):
        self.target = target
        self.start = self.tol = max(target, EIG_TOL_START)

    @property
    def at_target(self) -> bool:
        return self.tol <= self.target

    def tighten(self, residual: float) -> None:
        self.tol = float(np.clip(EIG_TOL_FRACTION * residual, self.target, self.start))


@dataclass
class _Iterate:
    """One evaluation of the SCF map at its inputs ``(rho, A)``: all that the
    loop and the returned state read of an iterate."""

    rho: ScalarField
    A: MagneticPotential
    gamma: DensityMatrix
    levels: np.ndarray
    converged_levels: int
    fermi: float
    rho_out: ScalarField
    A_out: MagneticPotential
    energy: EnergyBreakdown
    residuals: tuple[float, float, float]


def scf_solve(
    spec: SystemSpec,
    config: SCFConfig | None = None,
    *,
    initial: tuple[DensityMatrix, MagneticPotential] | None = None,
) -> SCFState:
    """Run the alternating fixed-point loop to self-consistency.

    ``initial`` may carry a state ``(gamma, A)`` from a checkpoint or a
    previous solve to warm-start the iteration: its orbitals seed the
    eigensolver, its density (scaled to ``N``) the mean field and, unless
    ``pin_A``, its potential the field.  Without it the start is cold
    (A = 0): the first eigensolve starts from the Ritz vectors of the
    first mean field on the half grid ``Cell(L, 2 ceil(n/4))`` (see
    :func:`_coarse_start`), or from random vectors where that grid is
    too small or its solve fails.

    Every eigensolve converges only the levels the fill reads:
    ``count = min(ceil(N) + 1, block - 1)`` pairs, the occupied levels and
    the first above, whose gap sets the Fermi energy.  The default block
    ``ceil(N) + 3`` then keeps a guard row in the scalar solve below and
    two in the spinor solve, for every ``ceil(N)``; the eigensolver does
    not converge them, so the fill reads the converged levels only
    (``converged_levels`` of the state) and the guard rows stay empty.
    An evaluation at A = 0 solves the scalar ``h`` of ``H = h (x) 1`` on
    ``ceil(block/2)`` real rows for ``ceil(count/2)`` pairs (``h`` is real
    symmetric, so float64 arithmetic throughout:
    ``eigensolve(..., real=True)``); each ``phi`` becomes the spinors
    ``phi (x) chi`` and ``phi (x) chi_perp`` with its level repeated,
    truncated to the spinor block.  ``chi`` is one unit spinor
    per run, drawn from ``config.seed`` (:func:`_spin_axis`), so a
    zero-threshold fill, which takes ``phi (x) chi`` before its partner,
    polarises along ``chi^+ sigma chi`` on every platform and at every
    return to A = 0.  The rest of an A = 0 evaluation stays scalar: the
    state keeps its rows and ``chi``
    (:meth:`~magrhf.density.DensityMatrix.from_spin_pairs`), so the
    derivative pass takes its half-spectrum pair route; the orbital
    residual is taken on the occupied scalar rows and their ``h phi``,
    since ``||(H - t) phi (x) chi|| = ||(h - t) phi||``; and an equally
    filled state has ``J = 0`` exactly, for which the field solve and
    its residual return zero with no transform.  An evaluation at
    A != 0 solves the spinor block.
    Each evaluation is warm-started from the last accepted state, or from
    ``initial``'s: at A = 0 from its scalar rows if it has them, else from
    the real span of its spinor block (:func:`_spatial_rows`); at A != 0
    from :attr:`~magrhf.density.DensityMatrix.block`.  A potential the
    field solve could not tell from zero (see :func:`_snap_zero`) is
    replaced by an exact zero: the warm start, each field-solve output and
    each mixed potential.
    Only the accepted iterate of an outer iteration, not its retries,
    enters the iteration count, the energy history and the ledger.
    Non-convergence returns the last state flagged ``"not_converged"``;
    an energy below the configured floor returns it flagged
    ``"instability"``, and an eigensolver failure the last accepted one
    flagged ``"eigensolver_failed"`` (a failure of the first iterate
    raises :class:`EigensolveError`).
    """
    config = config or SCFConfig()
    cell = spec.cell
    s_nuc = config.s_nuc if config.s_nuc is not None else 2.0 * cell.spacing
    V = external_potential(spec, s_nuc=s_nuc)
    regime_flag = "negative_ion_regime" if (spec.mode == "molecular" and spec.N > spec.Z + 1e-12) else None

    n_occ = config.check_block(spec.N)
    block = config.eig_block or (n_occ + 3)
    count = min(n_occ + 1, block - 1)  # the levels the fill reads, and at least one guard row
    chi = _spin_axis(config.seed)
    eig_tol = config.eig_tol if config.eig_tol is not None else min(1e-9, 0.1 * config.tol)

    rho_in = _initial_density(spec, s_nuc)
    A_in = MagneticPotential.zero(cell)
    warm = None  # the state the next eigensolve starts from
    if initial is not None:
        warm, A0 = initial
        vals = density(warm).values
        if vals.sum() > 0:
            rho_in = ScalarField(cell, vals * spec.N / (vals.sum() * cell.dV))
        if not config.pin_A:
            A_in = _snap_zero(A0, rho_in, spec.alpha)

    mixer = _AndersonMixer(config.mix, spec.N)
    schedule = _EigTolSchedule(eig_tol)

    def evaluate(rho: ScalarField, A: MagneticPotential, warm: DensityMatrix | None) -> _Iterate:
        v_h, _ = hartree(rho)
        v_eff = ScalarField(cell, V.values + v_h.values)
        # H = h (x) 1 at A = 0: solve h once, on half the block
        spin_block = A.is_zero()
        comps, b, c = (1, (block + 1) // 2, (count + 1) // 2) if spin_block else (2, block, count)
        if warm is None:  # the cold start, where A = 0
            # h on the half grid: make_hamiltonian's A = 0 apply, taken directly so that
            # wrappers of make_hamiltonian (tests, the benchmark's tracer) do not count it
            X0 = _coarse_start(
                lambda coarse, v: lambda X: _kinetic(coarse, X, v), v_eff, c, b, schedule.tol, config.seed
            )
        elif spin_block:
            X0 = warm._pairs[0] if warm._pairs is not None else _spatial_rows(cell, warm.block, b)
        else:  # the last spinor rows, which are the spin pairs of a scalar block
            X0 = warm.block
        levels, start, _, _, h_orbitals = eigensolve(
            make_hamiltonian(cell, v_eff, A), cell, c, block=b, tol=schedule.tol,
            max_iter=EIG_MAXITER, X0=X0, seed=config.seed, components=comps, real=spin_block,
        )
        if spin_block:  # phi (x) chi and phi (x) chi_perp, truncated to the rows a spinor solve returns
            levels = np.repeat(levels, 2)[:block]
        # the fill reads the converged levels only: past them lie the guard rows' Ritz values
        k = 2 * c if spin_block else c
        occ = np.zeros(len(levels))
        occ[:k], fermi = fermi_fill(levels[:k], spec.N, config.deg_threshold)
        # the filled rows are a prefix; only they enter the residual, so H X keeps only them.
        # At A = 0 a pair's residual is its scalar row's, ||(H - t) phi (x) chi|| = ||(h - t) phi||,
        # and the fill, which never rises along the levels, takes phi (x) chi first
        filled = int(np.flatnonzero(occ)[-1]) + 1
        rows, occ_rows = ((filled + 1) // 2, occ[:filled:2]) if spin_block else (filled, occ[:filled])
        h_orbitals = h_orbitals[:rows].copy()
        if spin_block:
            gamma = DensityMatrix.from_spin_pairs(cell, start, chi, occ)
        else:  # gamma adopts the eigensolver's rows, which the residual reads too
            gamma = DensityMatrix.from_block(cell, start, occ)
        rho_out, j, J, _, _ = kinetic_terms(gamma, A)  # total_energy and the audit read the same pass
        # the orbital residual at the output mean field, whose H differs from
        # the eigensolver's only in the Hartree term: H_out X = H X + (v_h(rho_out) - v_h(rho)) X
        v_h_out, hartree_out = hartree(rho_out)  # the energy reads the same solve
        h_orbitals += (v_h_out.values - v_h.values) * start[:rows]
        res_orb = _orbital_residual(cell, start[:rows], h_orbitals, occ_rows)
        del h_orbitals  # free the H X rows before the field solve
        if config.pin_A:
            A_out, res_field = MagneticPotential.zero(cell), 0.0
        else:
            A_out = update_vector_potential(J, spec)
            res_field = _field_equation_residual(A, A_out, rho_out, spec.alpha)
            A_out = _snap_zero(A_out, rho_out, spec.alpha)
        return _Iterate(
            rho, A, gamma, levels, k, fermi, rho_out, A_out,
            energy=total_energy(gamma, A, spec, V=V, hartree_energy=hartree_out),
            residuals=(res_orb, res_field, _continuity_residual(rho_out, j, A)),
        )

    def mix_A(prev_A, out_A, theta, rho):
        a_vals = (1.0 - theta) * prev_A.A.values + theta * out_A.A.values
        new_A = MagneticPotential(VectorField(cell, a_vals), check_gauge=False)
        return _snap_zero(new_A, rho, spec.alpha)

    energy_history: list[float] = []
    ledger: list[dict] = []
    forced = 0
    last: _Iterate | None = None  # the last accepted iterate

    def finish(it: _Iterate, flag: str | None, converged: bool = False) -> SCFState:
        return SCFState(
            spec, it.gamma, it.A, it.energy, it.levels, it.fermi, len(energy_history), *it.residuals,
            converged=converged, flag=flag, converged_levels=it.converged_levels,
            energy_history=tuple(energy_history),
            inequality_ledger=tuple(ledger), forced_energy_increases=forced,
        )

    for it in range(1, config.max_iter + 1):
        try:
            cand = evaluate(rho_in, A_in, warm)
            if last is not None:
                ceiling = energy_history[-1] + max(abs(energy_history[-1]), 1.0) * config.energy_slack_rel
                theta = config.mix
                while cand.energy.total > ceiling and theta > MIN_MIX:
                    theta = max(theta / 2.0, MIN_MIX)
                    # a retry is linear: the mixer would return the same step again
                    rho = ScalarField(cell, (1.0 - theta) * last.rho.values + theta * last.rho_out.values)
                    cand = evaluate(rho, mix_A(last.A, last.A_out, theta, rho), warm)
                forced += int(cand.energy.total > ceiling)
        except EigensolveError:
            if last is None:
                raise
            return finish(last, "eigensolver_failed")

        last = cand
        energy_history.append(cand.energy.total)
        ledger.append({**kinetic_inequality_report(cand.gamma, cand.A), "iteration": it})
        if cand.energy.total < config.energy_floor:
            return finish(cand, "instability")
        if max(cand.residuals) <= config.tol and schedule.at_target:
            return finish(cand, regime_flag, converged=True)
        schedule.tighten(max(cand.residuals[:2]))

        rho_in = mixer.push(cand.rho, cand.rho_out)
        A_in = mix_A(cand.A, cand.A_out, config.mix, rho_in)
        warm = cand.gamma

    return finish(last, regime_flag or "not_converged")


@dataclass(frozen=True)
class AlphaScanRow:
    alpha: float
    energy: EnergyBreakdown
    converged: bool
    flag: str | None
    residuals: tuple[float, float, float]


def scan_alpha(
    spec: SystemSpec, alphas: "list[float] | np.ndarray", config: SCFConfig | None = None
) -> list[AlphaScanRow]:
    """Ground-state energy over an ascending list of couplings.

    Each solve is warm-started from the previous one; convergence
    failures are carried as row flags rather than raised.
    """
    alphas = [float(a) for a in alphas]
    if any(a <= 0 for a in alphas) or any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alphas must be positive and strictly ascending")
    config = config or SCFConfig()
    rows: list[AlphaScanRow] = []
    warm = None
    for a in alphas:
        state = scf_solve(replace(spec, alpha=a), config, initial=warm)
        rows.append(
            AlphaScanRow(
                alpha=a,
                energy=state.energy,
                converged=state.converged,
                flag=state.flag,
                residuals=state.residuals,
            )
        )
        warm = (state.gamma, state.A)
    return rows


def concavity_defects(rows: list[AlphaScanRow]) -> np.ndarray:
    """Second divided differences of the energy against u = alpha^(-2).

    The ground-state energy is an infimum of functions linear and
    non-decreasing in ``u``, hence concave in ``u``: these defects
    should be non-positive up to solver noise.
    """
    u = np.array([r.alpha**-2 for r in rows])
    e = np.array([r.energy.total for r in rows])
    order = np.argsort(u)
    u, e = u[order], e[order]
    out = []
    for i in range(1, len(u) - 1):
        s1 = (e[i] - e[i - 1]) / (u[i] - u[i - 1])
        s2 = (e[i + 1] - e[i]) / (u[i + 1] - u[i])
        out.append(2.0 * (s2 - s1) / (u[i + 1] - u[i - 1]))
    return np.asarray(out)
