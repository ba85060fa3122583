"""Pseudospectral laboratory for the line bundle mean curvature flow.

The flow evolves a real potential u on a flat Kahler torus by
du/dt = theta(F_hat + del delbar u) - hat_theta, where theta is the
Lagrangian phase of the curvature against the torus metric and hat_theta is
the lifted argument of the cohomological invariant Z.  Stationary points
are deformed Hermitian-Yang-Mills metrics; the package simulates the flow,
certifies its conserved and monotone quantities, and measures the
exponential convergence produced by small-Hessian initial data.
"""

from .cohomology import CohomologyInvariants, cohomology_invariants, winding_hat_theta
from .config_io import (
    ConfigError,
    RunConfig,
    parse_config,
    parse_sweep_config,
    read_snapshot,
    write_config,
    write_diagnostics,
    write_snapshot,
)
from .diagnostics import (
    CSV_COLUMNS,
    DiagnosticsRecord,
    IdentityReport,
    TensorNorms,
    dhym_point_identities,
    harnack_monitor,
    maximum_principle_monitor,
    oscillation_decay,
    q_functional,
    tensor_norms,
    verify_evolution_identities,
    verify_linearization,
)
from .flow import (
    BaseCurvature,
    FlowConfig,
    FlowDiverged,
    FlowSample,
    FlowState,
    LineBundleFlow,
    Schedule,
    Trajectory,
    etdrk4_step,
    rk4_step,
    run_fixed,
    run_flow,
    stable_dt,
)
from .geometry import (
    TorusGeometry,
    bandlimited_noise,
    build_torus,
    volume_integral,
)
from .harness import (
    Reference,
    SweepCell,
    SweepConfig,
    SweepReport,
    generate_reference,
    stability_sweep,
)
from .phase import (
    PhaseFields,
    PhasePointData,
    hypercritical_classify,
    pointwise_phase,
)

__version__ = "0.1.0"
