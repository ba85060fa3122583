"""Small-Hessian stability of the flow, end to end.

Starting from band-limited noise normalized to a small Hessian sup-norm,
the flow contracts to a stationary metric: the phase residual decays
exponentially at the linearized rate 1/(4(1+c^2)), the max/min of the
phase obey the maximum principle, and the Hessian never grows beyond a
small multiple of its initial size.
"""

import dhym_lab as dl

geom = dl.build_torus(1, 32, [1.0])
base = dl.BaseCurvature.proportional(geom, 1.0)
flow = dl.LineBundleFlow(base)  # at the winding lift of the base's class
print(f"target angle hat_theta = {flow.hat_theta:.12f} (= arctan 1)")

delta = 0.05
u0 = dl.bandlimited_noise(geom, 2, 1.0, 7)
u0 *= delta / dl.tensor_norms(geom, u0).hess_sup

cfg = dl.FlowConfig(flow=flow, u0=u0,
                    dt_safety=1.0, t_max=300.0, residual_tol=1e-10,
                    sample_every=256)
traj = dl.run_flow(cfg)
print(f"status = {traj.status} after {traj.steps} steps, t = {traj.t_final:.2f}")

print("\n   t      sup|du/dt|     osc(du/dt)    hess_sup/delta   theta range")
for r in traj.records[:: max(1, len(traj.records) // 12)]:
    print(f"{r.t:7.2f}  {r.residual_sup:12.3e}  {r.osc_udot:12.3e}"
          f"  {r.hess_sup/delta:12.4f}   [{r.theta_min:+.6f}, {r.theta_max:+.6f}]")

fit = dl.oscillation_decay(traj)
print(f"\nfitted decay rate of osc(du/dt): {fit.rate:.5f} "
      f"(linearized value 1/8 = 0.125), R^2 = {fit.r_squared:.6f}")

mp = dl.maximum_principle_monitor(traj)
print(f"maximum principle: pass = {mp.passed} (worst violation {mp.worst_violation:.2e})")

Z0 = complex(traj.records[0].Z_re, traj.records[0].Z_im)
drift = max(abs(complex(r.Z_re, r.Z_im) - Z0) for r in traj.records) / abs(Z0)
print(f"Z conservation: max relative drift {drift:.2e}")

ratio = max(r.hess_sup for r in traj.records) / delta
print(f"sup_t hess_sup / delta = {ratio:.4f}")
