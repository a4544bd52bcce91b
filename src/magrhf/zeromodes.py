"""Analytic zero modes of the Pauli operator and the stability threshold.

The Loss-Yau construction gives an explicit square-integrable pair
(Psi, A) with ``sigma . (p + A) Psi = 0``:

    Psi(x) = c (1 + |x|^2)^(-3/2) (1 - i sigma . x) phi_w,   c = 1/pi,
    A(x)   = 3 (1 + |x|^2)^(-2) [ (1 - |x|^2) w + 2 (w . x) x + 2 (x cross w) ],

where ``phi_w`` is the spinor polarised along the unit vector ``w``.
Sign conventions for the spinor conjugation and the cross term vary
across the literature; the combination above is the one (for momentum
``p = -i grad``) whose residual vanishes identically, fixed once by a
symbolic/grid scan and frozen here with a regression test.  Its field is

    B(x) = 12 (1 + |x|^2)^(-3) [ (|x|^2 - 1) w - 2 (w . x) x + 2 (w cross x) ],

with |B| = 12 (1 + |x|^2)^(-2).

The rank-1 states ``gamma_eps = eps |Psi><Psi|`` built on this family
drive everything else: the scale-invariant functional, the upper bound
on the zero-mode minimisation value beta(z, N), the critical coupling
``alpha_c = (-8 pi beta)^(-1/2)``, and the dilation scan that exhibits
the collapse ``E -> -infinity`` in the unstable regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .density import EnergyBreakdown
from .fields import Axes, Cell, SpinorField, VectorField
from .hamiltonian import MagneticPotential, apply_sigma_kinetic_root

__all__ = [
    "ZeroModeFamily",
    "loss_yau",
    "unit_direction",
    "dilate",
    "f_z",
    "beta_rank1_upper_bound",
    "alpha_c_from_beta",
    "instability_scan",
    "InstabilityScan",
    "sample_on_cell",
    "grid_residual",
]

#: Frozen sign conventions (see module docstring): spinor factor
#: (1 + i * SPINOR_CONJ * sigma.x) and cross term 2 * CROSS_SIGN * (x cross w).
SPINOR_CONJ = -1.0
CROSS_SIGN = +1.0

_NORM_C = 1.0 / math.pi  # normalisation c of Psi at lam = 1

#: evaluation points: a (3, ...) array, or three arrays that broadcast together
Points = np.ndarray | Axes

#: closed-form integrals of the family at lam = 1, ||Psi|| = 1, where
#: |Psi|^2 = (1 + r^2)^(-2) / pi^2 and |B| = 12 (1 + r^2)^(-2):
#: I1 = int |Psi|^2 / |x|, D1 = D(|Psi|^2, |Psi|^2) (its potential is
#: (2 / pi) arctan(r) / r) and B2 = int |B|^2
I1 = 2.0 / math.pi
D1 = 1.0 / math.pi
B2 = 18.0 * math.pi**2


def spinor_along(w: np.ndarray) -> np.ndarray:
    """Unit spinor phi with <phi, sigma phi> = w (Bloch parametrisation)."""
    wx, wy, wz = w
    theta = math.acos(max(-1.0, min(1.0, wz)))
    phi_az = math.atan2(wy, wx)
    return np.array(
        [math.cos(theta / 2.0), math.sin(theta / 2.0) * complex(math.cos(phi_az), math.sin(phi_az))],
        dtype=complex,
    )


def _components(points: Points) -> Axes:
    """The three coordinate arrays of ``points``: a (3, ...) array or three broadcastable arrays,
    such as the axes of :meth:`~magrhf.fields.Cell.displacements`."""
    x, y, z = (np.asarray(c, dtype=float) for c in points)
    return x, y, z


def psi_values(points: Points, w: np.ndarray, *, conj_sign: float = SPINOR_CONJ) -> np.ndarray:
    """Evaluate Psi at points (3, ...) or three broadcast axes; returns (2, ...) complex, lam = 1."""
    phi = spinor_along(w)
    x, y, z = _components(points)
    pref = _NORM_C * (1.0 + (x * x + y * y + z * z)) ** -1.5
    s = 1j * conj_sign
    # (1 + s sigma.x) phi per spinor component; on broadcast axes each term
    # spans at most two of them, so only the sums, written in place, are full
    out = np.empty((2,) + np.shape(pref), dtype=complex)
    np.add((1.0 + s * z) * phi[0], s * (x - 1j * y) * phi[1], out=out[0, ...])
    np.add(s * (x + 1j * y) * phi[0], (1.0 - s * z) * phi[1], out=out[1, ...])
    return np.multiply(pref, out, out=out)


def a_values(points: Points, w: np.ndarray, *, cross_sign: float = CROSS_SIGN) -> np.ndarray:
    """Evaluate the vector potential at points (3, ...) or three broadcast axes; lam = 1."""
    x = _components(points)
    wv = [float(c) for c in w]
    r2 = x[0] * x[0] + x[1] * x[1] + x[2] * x[2]
    pref = 3.0 * (1.0 + r2) ** -2
    two_wdotx = 2.0 * (wv[0] * x[0] + wv[1] * x[1] + wv[2] * x[2])
    # component by component in place, so that the work arrays stay scalar grids
    out = np.empty((3,) + np.shape(r2))
    for i, (j, l) in enumerate(((1, 2), (2, 0), (0, 1))):
        a_i = np.subtract(1.0, r2, out=out[i, ...])
        a_i *= wv[i]
        a_i += two_wdotx * x[i]
        a_i += 2.0 * cross_sign * (x[j] * wv[l] - x[l] * wv[j])
        a_i *= pref
    return out


def b_values(points: Points, w: np.ndarray) -> np.ndarray:
    """Evaluate B = curl A at points (3, ...) or three broadcast axes; lam = 1, frozen conventions."""
    x = _components(points)
    wv = [float(c) for c in w]
    r2 = x[0] * x[0] + x[1] * x[1] + x[2] * x[2]
    wdotx = wv[0] * x[0] + wv[1] * x[1] + wv[2] * x[2]
    pref = 12.0 * (1.0 + r2) ** -3
    return np.stack([
        pref * ((r2 - 1.0) * wv[i] - 2.0 * wdotx * x[i] + 2.0 * (wv[j] * x[l] - wv[l] * x[j]))
        for i, (j, l) in enumerate(((1, 2), (2, 0), (0, 1)))
    ])


@dataclass(frozen=True)
class ZeroModeFamily:
    """Loss-Yau pair with dilation ``lam`` and rank-1 amplitude ``epsilon``.

    The integrals ``i1, d1, b2`` refer to ``lam = 1`` and ``||Psi|| = 1``
    and default to the Loss-Yau closed forms ``I1, D1, B2``; other values
    give a synthetic family.  The kinetic trace of the family is
    identically zero.  Dilation transforms the state as
    ``gamma_lam(x, y) = lam^3 gamma(lam x, lam y)``,
    ``A_lam(x) = lam A(lam x)``, under which the trace is unchanged, the
    kinetic trace picks up ``lam^2`` and the attraction, Hartree and
    field integrals each pick up one power of ``lam``.
    """

    w: tuple[float, float, float]
    epsilon: float = 1.0
    lam: float = 1.0
    i1: float = I1
    d1: float = D1
    b2: float = B2

    def __post_init__(self) -> None:
        if not (0.0 <= self.epsilon <= 1.0):
            raise ValueError(f"amplitude must lie in [0, 1], got {self.epsilon}")
        if self.lam <= 0.0:
            raise ValueError(f"dilation must be positive, got {self.lam}")

    # --- analytic bookkeeping, exact in lam -------------------------------
    def trace(self) -> float:
        """Tr(gamma_eps) = epsilon, invariant under dilation."""
        return self.epsilon

    def kinetic_trace(self) -> float:
        """Pauli kinetic energy of the family: zero at every dilation."""
        return 0.0

    def attraction_integral(self) -> float:
        """int rho / |x| for rho = eps |Psi_lam|^2."""
        return self.epsilon * self.lam * self.i1

    def hartree_quadratic(self) -> float:
        """D(rho, rho) for rho = eps |Psi_lam|^2."""
        return self.epsilon**2 * self.lam * self.d1

    def field_square_integral(self) -> float:
        """int |B_lam|^2."""
        return self.lam * self.b2

    def energy_terms(self, z: float, alpha: float) -> EnergyBreakdown:
        """Single-nucleus energy of the dilated rank-1 state."""
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        return EnergyBreakdown(
            kinetic=self.kinetic_trace(),
            external=-z * self.attraction_integral(),
            hartree=0.5 * self.hartree_quadratic(),
            magnetic=self.field_square_integral() / (8.0 * math.pi * alpha**2),
        )

    # --- pointwise evaluators, honouring the dilation ---------------------
    def psi(self, points: Points) -> np.ndarray:
        out = psi_values([self.lam * x for x in _components(points)], np.asarray(self.w))
        out *= self.lam**1.5
        return out

    def vector_potential(self, points: Points) -> np.ndarray:
        out = a_values([self.lam * x for x in _components(points)], np.asarray(self.w))
        out *= self.lam
        return out

    def magnetic_field(self, points: Points) -> np.ndarray:
        out = b_values([self.lam * x for x in _components(points)], np.asarray(self.w))
        out *= self.lam**2
        return out


def unit_direction(w: np.ndarray | tuple[float, float, float]) -> tuple[float, float, float]:
    """``w`` as a tuple; raises ``ValueError`` unless it is a unit 3-vector."""
    wv = np.asarray(w, dtype=float)
    if wv.shape != (3,) or abs(float(np.linalg.norm(wv)) - 1.0) > 1e-12:
        raise ValueError(f"spin direction must be a unit 3-vector, got {w}")
    return tuple(float(c) for c in wv)


def loss_yau(w: np.ndarray | tuple[float, float, float]) -> ZeroModeFamily:
    """Construct the zero-mode family polarised along the unit vector ``w``."""
    return ZeroModeFamily(w=unit_direction(w))


def dilate(fam: ZeroModeFamily, lam: float) -> ZeroModeFamily:
    """Dilate the family; all its integrals transform exactly."""
    if lam <= 0.0:
        raise ValueError(f"dilation must be positive, got {lam}")
    return replace(fam, lam=fam.lam * lam)


def f_z(fam: ZeroModeFamily, z: float) -> float:
    """Scale-invariant functional of the rank-1 family.

    ``( eps^2 D1 / 2 - z eps I1 ) / B2`` in the lam = 1 integrals, which
    makes the dilation invariance exact by construction.
    """
    if fam.b2 <= 0.0:
        raise ValueError("degenerate family: int |B|^2 must be positive")
    eps = fam.epsilon
    return (0.5 * eps * eps * fam.d1 - z * eps * fam.i1) / fam.b2


def beta_rank1_upper_bound(
    z: float, N: float, fam: ZeroModeFamily
) -> tuple[float, float]:
    """Optimise the amplitude of the rank-1 family.

    Minimises ``eps -> (eps^2 D1 / 2 - z eps I1) / B2`` over
    ``eps in [0, min(1, N)]`` (the trace constraint Tr <= N together
    with 0 <= gamma <= 1).  Returns ``(eps_star, beta_ub)`` where
    ``beta_ub`` upper-bounds the zero-mode minimisation value
    beta(z, N); it is strictly negative for every z > 0.
    """
    if z <= 0.0:
        raise ValueError(f"nuclear charge must be positive, got z={z}")
    if N <= 0.0:
        raise ValueError(f"electron budget must be positive, got N={N}")
    eps_cap = min(1.0, N)
    eps_star = min(z * fam.i1 / fam.d1, eps_cap)
    beta_ub = f_z(replace(fam, epsilon=eps_star), z)
    if not beta_ub < 0.0:
        raise AssertionError(f"rank-1 bound failed to be negative: {beta_ub}")
    return eps_star, beta_ub


def alpha_c_from_beta(beta: float) -> float:
    """Critical coupling ``(-1 / (8 pi beta))**0.5`` for beta < 0.

    The map is increasing on (-infinity, 0), so an upper bound for beta
    yields an upper bound for the critical coupling.
    """
    if beta >= 0.0:
        raise ValueError(f"stability threshold is undefined for beta >= 0, got {beta}")
    return math.sqrt(-1.0 / (8.0 * math.pi * beta))


@dataclass(frozen=True)
class InstabilityScan:
    """Dilation scan of the single-atom energy on the optimal rank-1 state."""

    lambdas: tuple[float, ...]
    energies: tuple[float, ...]
    slope: float
    slope_fit: float
    alpha: float
    alpha_c_ub: float
    epsilon_star: float

    @property
    def unstable(self) -> bool:
        return self.slope < 0.0


def instability_scan(
    z: float, N: float, alpha: float, lambdas: "list[float] | np.ndarray", fam: ZeroModeFamily
) -> InstabilityScan:
    """Energy along the dilation path of the amplitude-optimal family.

    On the zero-mode family the kinetic term vanishes, so the energy is
    exactly affine, ``E(lam) = lam * (eps^2 D1 / 2 - z eps I1 +
    B2 / (8 pi alpha^2))``, and the slope is negative precisely when
    ``alpha`` exceeds the family's critical coupling.
    """
    lam_arr = np.asarray(lambdas, dtype=float)
    if lam_arr.ndim != 1 or lam_arr.size < 1:
        raise ValueError("lambdas must be a nonempty 1-D sequence")
    if np.any(lam_arr <= 0.0) or np.any(np.diff(lam_arr) <= 0.0):
        raise ValueError("lambdas must be positive and strictly ascending")
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    eps_star, beta_ub = beta_rank1_upper_bound(z, N, fam)
    slope = (
        0.5 * eps_star**2 * fam.d1
        - z * eps_star * fam.i1
        + fam.b2 / (8.0 * math.pi * alpha**2)
    )
    energies = tuple(float(lam * slope) for lam in lam_arr)
    if lam_arr.size >= 2:
        coeffs = np.polyfit(lam_arr, np.asarray(energies), 1)
        slope_fit = float(coeffs[0])
    else:
        slope_fit = float(energies[0] / lam_arr[0])
    return InstabilityScan(
        lambdas=tuple(float(v) for v in lam_arr),
        energies=energies,
        slope=float(slope),
        slope_fit=slope_fit,
        alpha=float(alpha),
        alpha_c_ub=alpha_c_from_beta(beta_ub),
        epsilon_star=float(eps_star),
    )


def sample_on_cell(fam: ZeroModeFamily, cell: Cell) -> tuple[SpinorField, MagneticPotential]:
    """Sample (Psi, A) on a periodic grid, centred in the cell.

    The analytic pair is exactly Coulomb-gauge; the grid samples carry
    the periodisation error of the slowly decaying tails, so the gauge
    check is skipped and ``B`` is the spectral curl of the sampled ``A``.
    """
    disp = cell.displacements((0.5 * cell.L,) * 3)
    # A first: its work arrays are gone before Psi, the larger one, is allocated
    a = VectorField(cell, fam.vector_potential(disp))
    psi = SpinorField(cell, fam.psi(disp))
    return psi, MagneticPotential(a, check_gauge=False)


def grid_residual(fam: ZeroModeFamily, cell: Cell) -> float:
    """Relative grid residual ``||sigma.(p+A) Psi|| / ||Psi||``.

    The derivative is spectral, so this measures how well the sampled
    pair solves the zero-mode equation on the discrete torus.
    """
    psi, pot = sample_on_cell(fam, cell)
    res = apply_sigma_kinetic_root(psi, pot)
    return res.norm() / psi.norm()
