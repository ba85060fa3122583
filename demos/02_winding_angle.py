"""The invariant Z and its lifted argument.

Z is the integral of zeta over the torus and does not move when the
curvature changes within its class.  Its argument is only defined modulo
2 pi; the canonical lift tracks the argument of
integral of prod(t + i lambda_j) continuously from very large t (where the
path is nearly real-positive) down to t = 1.  For phases beyond the
principal branch the lift and the principal argument genuinely differ.
"""

import numpy as np

import dhym_lab as dl



def class_coefficients(flow):
    """e_0..e_n of the flow's curvature planes at u = 0: those of its base's class."""
    return flow.phase_fields(flow.spectrum(np.zeros(flow.geometry.shape))).e


print("== invariance of Z under a Hessian shift (n = 1, N = 64)")
geom = dl.build_torus(1, 64, [1.0])
flow = dl.LineBundleFlow(dl.BaseCurvature.proportional(geom, 1.0))
x = geom.axis_coordinate(0)
u = 0.3 * np.broadcast_to(np.cos(x), geom.shape).copy()
Z_base = flow.state(np.zeros(geom.shape)).Z
Z_shift = flow.state(u).Z
print(f"  Z(F)              = {Z_base:.12f}")
print(f"  Z(F + dd-bar u)   = {Z_shift:.12f}")
print(f"  relative drift    = {abs(Z_shift - Z_base)/abs(Z_base):.2e}")

print("\n== lift vs principal argument inside the principal branch")
inv = dl.cohomology_invariants(geom, class_coefficients(flow))
print(f"  lift = {inv.hat_theta:.12f}, principal arg Z = {np.angle(inv.Z):.12f}")

print("\n== beyond the principal branch (n = 3, F = 2 omega)")
geom3 = dl.build_torus(3, 8, np.eye(3))
e = class_coefficients(dl.LineBundleFlow(dl.BaseCurvature.proportional(geom3, 2.0)))
inv3 = dl.cohomology_invariants(geom3, e)
print(f"  lift            = {inv3.hat_theta:.9f}  (3 arctan 2 = {3*np.arctan(2):.9f})")
print(f"  principal arg Z = {np.angle(inv3.Z):.9f}  (wrapped by 2 pi)")
print(f"  consistency |e^(i lift) - Z/|Z|| = "
      f"{abs(np.exp(1j*inv3.hat_theta) - inv3.Z/abs(inv3.Z)):.2e}")

print("\n== a few points along the winding path Z(t) = vol sum_k i^k <e_k> t^(n-k)")
means = [e[0]] + [geom3.mean(ek) for ek in e[1:]]
for t in np.geomspace(1e4, 1.0, 9):
    Z = geom3.vol * sum(1j**k * m * t ** (3 - k) for k, m in enumerate(means))
    print(f"  t = {t:12.3f}   Z(t) = {Z:.3e}   arg = {np.angle(Z):+.4f}")
