"""Perturbation-size sweep: measuring the stability basin.

For each target Hessian size delta and each noise seed, the flow runs to
tolerance and the sweep records the convergence time, the worst ratio
sup_t ||D^2 u_t|| / delta, and the fitted exponential decay rate of the
velocity oscillation.  Time to tolerance grows with delta while the rate
stays pinned at the linearized value.
"""

import dhym_lab as dl

geom = dl.build_torus(1, 32, [1.0])
base = dl.BaseCurvature.proportional(geom, 1.0)

sweep = dl.SweepConfig(flow=dl.LineBundleFlow(base),
                       delta_list=[0.01, 0.05, 0.1], seeds=2, k_band=2,
                       dt_safety=1.0, t_max=300.0, residual_tol=1e-10,
                       sample_every=128)
report = dl.stability_sweep(sweep)

print("delta   seed  status      time-to-tol   sup hess/delta   rate      R^2")
for c in report.cells:
    print(f"{c.delta:<7g} {c.seed:<5d} {c.status:<10s} {c.time_to_tol:11.2f}"
          f"   {c.hess_ratio_max:12.4f}   {c.rate:.5f}  {c.r_squared:.6f}")

print(f"\nlargest delta with every seed converged: {report.largest_delta_all_converged:g}")
print(f"warnings: {report.warnings or 'none'}")
