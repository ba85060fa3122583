"""Numerical certification of the flow's exact identities.

Each evolution identity is checked by comparing a central time difference
of the quantity (minus its eta-Laplacian) against the independently
assembled right-hand side; the discrepancy must shrink by about 4x when
the sample spacing halves, which certifies that the only error left is the
O(dt^2) differencing error.  The linearization of the phase operator is
checked against central finite differences in the same spirit.
"""

import numpy as np

import dhym_lab as dl

geom = dl.build_torus(1, 64, [1.0])
x = geom.axis_coordinate(0)
psi = 0.2 * np.broadcast_to(np.cos(x), geom.shape).copy()
base = dl.BaseCurvature(geometry=geom, F0=geom.g, psi=psi)  # nonconstant background
hat = dl.winding_hat_theta(geom, base.field())

u0 = dl.bandlimited_noise(geom, 2, 1.0, 11)
u0 *= 0.05 / dl.tensor_norms(geom, u0).hess_sup


def residuals(dt_s):
    traj = dl.run_fixed(geom, base, hat, u0, dt=dt_s, n_steps=8, sample_every=1)
    t_mid = list(traj.samples)[4].t
    return {rep.identity: rep.residual_rel
            for rep in dl.verify_evolution_identities(traj, t_mid)}


r1 = residuals(1e-3)
r2 = residuals(5e-4)
print("evolution identities (nonconstant background, base terms retained):")
print("  identity    rel. residual @ dt=1e-3   @ dt=5e-4    refinement slope")
for w in r1:
    print(f"  {w:9s}   {r1[w]:.3e}               {r2[w]:.3e}   {np.log2(r1[w]/r2[w]):.3f}")

print("\nlinearization against central differences:")
u = dl.bandlimited_noise(geom, 2, 1.0, 41)
u *= 0.3 / dl.tensor_norms(geom, u).hess_sup
phi = dl.bandlimited_noise(geom, 2, 1.0, 42)
for eps in (8e-4, 4e-4, 2e-4, 1e-5):
    print(f"  eps = {eps:.0e}: relative error {dl.verify_linearization(geom, dl.BaseCurvature.proportional(geom, 1.0), u, phi, eps):.3e}")

print("\nstationary-point identities at a converged reference:")
small = dl.build_torus(1, 32, [1.0])
psi_s = 0.2 * np.broadcast_to(np.cos(small.axis_coordinate(0)), small.shape).copy()
base_s = dl.BaseCurvature(geometry=small, F0=small.g, psi=psi_s)
hat_s = dl.winding_hat_theta(small, base_s.field())
cfg = dl.FlowConfig(geometry=small, base=base_s, u0=np.zeros(small.shape),
                    hat_theta=hat_s, dt_safety=1.0, t_max=400.0, sample_every=1000)
ref = dl.generate_reference(cfg)
r1, r2 = ref.identities
print(f"  endpoint residual  sup|theta - hat_theta| = {ref.residual_sup:.2e}")
print(f"  phase gradient     sup|eta^(p q) F_(p q, i)| = {r1.residual_rel:.2e}")
print(f"  second-derivative expansion residual        = {r2.residual_rel:.2e}")
