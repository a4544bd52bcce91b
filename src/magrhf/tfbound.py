"""Thomas-Fermi energy and the lower-bound chain for the zero-mode
minimisation value.

The radial functional minimised here is

    E[rho] = int rho^(5/3) + (1/2) D(rho, rho) - int rho(x)/|x| dx

over nonnegative densities with no mass constraint.  Its infimum, a
negative finite number, feeds the chain of inequalities that bounds the
large-N zero-mode value from below:

    beta_c(z) >= (I_TF - 4 C0 / C_LT) z^(7/6),

where C0 collects the Hoelder/Sobolev/Young steps that eliminate the
``- ||rho||_2`` coupling of the magnetic field to the magnetisation, and
the powers of z come from the exact scaling ``rho(x) = z^(7/2)
rho_0(z^(5/6) x)`` together with the penalty weight ``lam =
(4 / C_LT) z^(7/6)``.  All constants are configuration inputs; the
result is a bound under the configured constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import C_LT_CLASSICAL, C_SOBOLEV_SHARP
from .density import DensityMatrix, kinetic_terms
from .hamiltonian import MagneticPotential, green_function_GR
from .hamiltonian import hartree as _hartree
from .zeromodes import ZeroModeFamily, f_z

__all__ = [
    "RadialGrid",
    "TFDensity",
    "tf_energy",
    "tf_energy_terms",
    "tf_minimize",
    "TFMinimizeResult",
    "penalised_f",
    "beta_lower_bound_chain",
    "ChainLedger",
]


@dataclass(frozen=True)
class RadialGrid:
    """Log-spaced radial quadrature for integrals int_0^inf f 4 pi r^2 dr."""

    r_min: float = 1e-5
    r_max: float = 1e3
    points: int = 4096

    def __post_init__(self) -> None:
        if not (0 < self.r_min < self.r_max) or self.points < 16:
            raise ValueError("radial grid needs 0 < r_min < r_max and >= 16 points")

    @cached_property
    def r(self) -> np.ndarray:
        r = np.geomspace(self.r_min, self.r_max, self.points)
        r.setflags(write=False)
        return r

    @cached_property
    def dlog(self) -> float:
        return math.log(self.r_max / self.r_min) / (self.points - 1)

    @cached_property
    def weights(self) -> np.ndarray:
        """Trapezoid weights in log(r) for the volume integral."""
        w = np.full(self.points, self.dlog)
        w[0] *= 0.5
        w[-1] *= 0.5
        w = 4.0 * np.pi * self.r**3 * w
        w.setflags(write=False)
        return w

    def integrate(self, f: np.ndarray) -> float:
        return float(np.sum(self.weights * f))

    def refined(self) -> "RadialGrid":
        """The grid with every log-spacing halved."""
        return RadialGrid(self.r_min, self.r_max, 2 * (self.points - 1) + 1)


@dataclass(frozen=True, eq=False)
class TFDensity:
    """Nonnegative radial density on a quadrature grid."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.r.shape:
            raise ValueError("density shape does not match the radial grid")
        v = np.maximum(v, 0.0)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def mass(self) -> float:
        return self.grid.integrate(self.values)

    def rescaled(self, amplitude: float, length: float) -> "TFDensity":
        """The density ``a b^3 rho(b x)`` on the matching shrunken grid.

        Under this map the kinetic, Hartree and attraction terms scale
        exactly by ``a^(5/3) b^2``, ``a^2 b`` and ``a b``.
        """
        if amplitude <= 0 or length <= 0:
            raise ValueError("scaling parameters must be positive")
        new_grid = RadialGrid(self.grid.r_min / length, self.grid.r_max / length, self.grid.points)
        return TFDensity(new_grid, amplitude * length**3 * self.values)


def _coulomb_shells(grid: RadialGrid, rho: np.ndarray) -> np.ndarray:
    """Radial Hartree potential by the shell theorem.

    phi(r) = 4 pi [ Q(r)/r + T(r) ],   Q(r) = int_0^r s^2 rho ds,
    T(r) = int_r^inf s rho ds, with cumulative trapezoids in log r.
    """
    r = grid.r
    dl = grid.dlog
    q_density = r**3 * rho  # s^2 rho ds = s^3 rho dln s
    q_mid = 0.5 * (q_density[1:] + q_density[:-1]) * dl
    Q = np.concatenate([[0.0], np.cumsum(q_mid)])
    t_density = r**2 * rho
    t_mid = 0.5 * (t_density[1:] + t_density[:-1]) * dl
    T_total = np.sum(t_mid)
    T = T_total - np.concatenate([[0.0], np.cumsum(t_mid)])
    return 4.0 * np.pi * (Q / r + T)


def tf_energy_terms(rho0: TFDensity) -> tuple[float, float, float]:
    """(kinetic, hartree, attraction) pieces of the functional."""
    grid = rho0.grid
    v = rho0.values
    kinetic = grid.integrate(v ** (5.0 / 3.0))
    phi = _coulomb_shells(grid, v)
    hartree = 0.5 * grid.integrate(v * phi)
    attraction = grid.integrate(v / grid.r)
    return kinetic, hartree, attraction


def tf_energy(rho0: TFDensity) -> float:
    """int rho^(5/3) + (1/2) D(rho, rho) - int rho/|x|."""
    kinetic, hartree, attraction = tf_energy_terms(rho0)
    return kinetic + hartree - attraction


def _tf_gradient(rho0: TFDensity) -> np.ndarray:
    """Pointwise functional derivative (5/3) rho^(2/3) + phi - 1/r."""
    grid = rho0.grid
    v = rho0.values
    return (5.0 / 3.0) * v ** (2.0 / 3.0) + _coulomb_shells(grid, v) - 1.0 / grid.r


def kkt_residual(rho0: TFDensity) -> float:
    """Sup norm of min(rho, grad E): zero exactly at the constrained optimum."""
    g = _tf_gradient(rho0)
    return float(np.max(np.abs(np.minimum(rho0.values, g))))


@dataclass
class TFMinimizeResult:
    energy: float
    rho: TFDensity
    kkt: float
    iterations: int
    converged: bool


def tf_minimize(
    grid: RadialGrid | None = None,
    *,
    tol: float = 1e-7,
    max_iter: int = 4000,
) -> TFMinimizeResult:
    """Minimise the radial functional over nonnegative densities.

    The functional is convex with a unique minimiser.  Starting from the
    bare-potential profile ``(3 / (5 r))^(3/2)``, cut off at large r,
    the solver takes metric-preconditioned projected gradient steps with
    backtracking on the energy, the metric being the inverse curvature of
    the local term.  It stops once the complementarity residual
    ``max |min(rho, grad)|`` is at most ``tol`` or after ``max_iter``
    steps.
    """
    grid = grid or RadialGrid()
    r = grid.r
    rho = TFDensity(grid, (3.0 / (5.0 * r)) ** 1.5 * np.exp(-r / 8.0))
    e = tf_energy(rho)
    g = _tf_gradient(rho)
    kkt = kkt_residual(rho)
    it = 0
    while kkt > tol and it < max_iter:
        it += 1
        # inverse curvature of the local (10/9) rho^(-1/3) term
        metric = 0.9 * np.maximum(rho.values, 1e-30) ** (1.0 / 3.0)
        step = 0.9
        for _ in range(60):
            cand = TFDensity(grid, rho.values - step * metric * g)
            e_cand = tf_energy(cand)
            if e_cand <= e + 1e-15 * abs(e):
                break
            step *= 0.5
        rho, e = cand, e_cand
        g = _tf_gradient(rho)
        kkt = kkt_residual(rho)
    return TFMinimizeResult(e, rho, kkt, it, kkt <= tol)


def penalised_f(
    state: ZeroModeFamily | tuple[DensityMatrix, MagneticPotential],
    z: float,
    lam: float,
) -> float:
    """Kinetic-penalised scale-invariant functional.

    For the analytic zero-mode family the kinetic trace vanishes and the
    value coincides with the unpenalised functional for every ``lam``.
    For a grid state ``(gamma, A)`` the integrals are taken on the cell
    (with the periodic Coulomb kernel standing in for 1/|x| about the
    cell centre, where ``zeromodes.sample_on_cell`` puts the zero mode)
    and the state is first dilated, exactly in the bookkeeping, so that
    the field energy is one:

        value = D/2 mu - z I mu + lam K mu^2,   mu = 1 / int |B|^2,

    with ``K = Tr([sigma.(p+A)]^2 gamma)``, twice the grid kinetic energy of
    :func:`~magrhf.density.kinetic_terms`.
    """
    if lam < 0:
        raise ValueError(f"penalty weight must be nonnegative, got {lam}")
    if isinstance(state, ZeroModeFamily):
        return f_z(state, z) + lam * state.kinetic_trace()
    gamma, A = state
    cell = gamma.cell
    rho, _, _, kinetic, _ = kinetic_terms(gamma, A)
    # the kernel translated by L/2: exp(i k . L/2) = (-1)^m is its own
    # inverse, so the sign of the translation does not matter
    c, (kx, ky, kz) = 0.5 * cell.L, cell.k_half
    shift = np.exp(1j * (kx * c + ky * c + kz * c))
    g_centered = cell.from_half_spectral(cell.to_half_spectral(green_function_GR(cell).values) * shift)
    attraction = float(np.sum(rho.values * g_centered) * cell.dV)
    _, hartree_energy = _hartree(rho)
    b2 = A.field_energy_raw
    if b2 <= 0:
        raise ValueError("grid state carries no magnetic field; cannot normalise")
    mu = 1.0 / b2
    return hartree_energy * mu - z * attraction * mu + lam * 2.0 * kinetic * mu**2


@dataclass(frozen=True)
class ChainLedger:
    """Every intermediate of the lower-bound assembly, for inspection."""

    z: float
    c_lt: float
    c_sobolev: float
    young_epsilon: float
    young_coefficient: float
    offset_constant: float
    lam: float
    scale_amplitude: float
    scale_length: float
    i_tf: float
    chain_constant: float
    bound: float


def beta_lower_bound_chain(
    z: float,
    constants: dict[str, float] | None = None,
    *,
    i_tf: float,
) -> ChainLedger:
    """Assemble the z^(7/6) lower bound on the zero-mode value.

    Steps, in order: bound the spin coupling by ``||rho||_2`` (the field
    is normalised); split ``||rho||_2`` by Hoelder into the 5/3 and 3
    norms; trade the 3-norm for the gradient through Sobolev; apply
    Young with exponents (8/3, 8/5) choosing the split so half the
    Lieb-Thirring term survives; drop the bounded-below remainder
    ``Y^2/2 - c Y^(6/5)``; rescale with ``a = z``, ``b = z^(-5/6)``,
    penalty ``lam = (4 / C_LT) z^(7/6)``; and add the Thomas-Fermi
    energy ``i_tf`` (from :func:`tf_minimize`).  Every step is recorded
    in the returned ledger.
    """
    if z <= 0:
        raise ValueError(f"nuclear charge must be positive, got z={z}")
    consts = dict(constants or {})
    c_lt = float(consts.get("C_LT", C_LT_CLASSICAL))
    c_sob = float(consts.get("C_sobolev", C_SOBOLEV_SHARP))
    if c_lt <= 0 or c_sob <= 0:
        raise ValueError("inequality constants must be positive")
    eps = c_lt / 4.0
    c_young = (5.0 / 8.0) * (3.0 / (8.0 * eps)) ** (3.0 / 5.0) * c_sob ** (-3.0 / 5.0)
    # sup over Y >= 0 of c Y^(6/5) - Y^2 / 2
    y_star = (6.0 * c_young / 5.0) ** (5.0 / 4.0)
    offset = c_young * y_star ** (6.0 / 5.0) - 0.5 * y_star**2
    lam = (4.0 / c_lt) * z ** (7.0 / 6.0)
    chain_constant = i_tf - (4.0 / c_lt) * offset
    bound = chain_constant * z ** (7.0 / 6.0)
    return ChainLedger(
        z=float(z),
        c_lt=c_lt,
        c_sobolev=c_sob,
        young_epsilon=eps,
        young_coefficient=c_young,
        offset_constant=offset,
        lam=lam,
        scale_amplitude=float(z),
        scale_length=float(z) ** (-5.0 / 6.0),
        i_tf=float(i_tf),
        chain_constant=chain_constant,
        bound=bound,
    )
