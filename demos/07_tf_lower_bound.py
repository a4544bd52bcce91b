"""The Thomas-Fermi route to a z^(7/6) lower bound on the zero-mode value.

Minimises the radial functional int rho^(5/3) + D(rho,rho)/2 -
int rho/|x| over nonnegative densities, then walks the inequality chain
(spin-field coupling -> Hoelder -> Sobolev -> Young -> scaling) whose
every intermediate is recorded in a ledger, and closes the sandwich
against the rank-1 upper bound.
"""

from magrhf import (
    RadialGrid,
    beta_lower_bound_chain,
    beta_rank1_upper_bound,
    loss_yau,
    tf_minimize,
)

grid = RadialGrid()
res = tf_minimize(grid, tol=1e-7)
print(f"I_TF = {res.energy:.8f}  (kkt residual {res.kkt:.2e}, "
      f"{res.iterations} iterations, mass {res.rho.mass():.4f})")
fine = tf_minimize(grid.refined(), tol=1e-7)
print(f"grid doubled: {fine.energy:.8f}  "
      f"(relative change {abs(fine.energy - res.energy) / abs(res.energy):.1e})")

led = beta_lower_bound_chain(1.0, i_tf=res.energy)
print("\nchain intermediates at z = 1:")
print(f"  Young split epsilon      = {led.young_epsilon:.6f}  (= C_LT / 4)")
print(f"  Young remainder coeff    = {led.young_coefficient:.6f}")
print(f"  dropped-offset constant  = {led.offset_constant:.6f}")
print(f"  penalty weight lam(z)    = {led.lam:.6f}")
print(f"  scaling (a, b)           = ({led.scale_amplitude}, {led.scale_length:.6f})")
print(f"  chain constant           = {led.chain_constant:.6f}")

fam = loss_yau((0.0, 0.0, 1.0))
print(f"\n{'z':>4} {'lower':>12} {'rank-1 upper':>14}   lower <= beta <= upper < 0")
for z in (1.0, 2.0, 8.0):
    lower = beta_lower_bound_chain(z, i_tf=res.energy).bound
    _, upper = beta_rank1_upper_bound(z, 1.0, fam)
    print(f"{z:4.1f} {lower:12.4f} {upper:14.8f}")
print("\nthe ratio bound(z) / z^(7/6) is the same float for every z (exact scaling)")
