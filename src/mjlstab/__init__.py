"""Mean-square stability analysis for networked control systems whose
inter-agent links are subject to Markov-modeled random transmission delays.

The toolkit builds the switched-system representation of a delayed network,
decides mean-square stability through spectral tests (either on the full
mode enumeration or per agent on a reduced neighborhood closure), bounds the
admissible uncertainty on the delay chain's transition matrix, and
cross-validates verdicts with an exact covariance recursion and Monte Carlo
simulation.
"""

from .linalg import SizeLimitError, inf_norm, kron_power, spectral_radius
from .lp import lp_solve
from .model import (
    DelayChain,
    DncsModel,
    ModelError,
    PendulumParams,
    build_global_matrix,
    build_pendulum_model,
    default_chain,
    dump_model,
    load_model,
    neighborhood,
    nominal_stability,
)
from .robust import (
    BoundResult,
    BoundsInfeasibleError,
    column_corners,
    compute_bounds,
    grid_scan_max_rho,
    solve_bound_lp,
    weighted_bounds,
)
from .sim import (
    SimConfig,
    TrajectoryRecord,
    estimate_ms,
    mean_square_csv,
    simulate_trajectory,
    trajectory_csv,
)
from .stability import (
    CovarianceState,
    ScopeResult,
    StabilityReport,
    block_norm_sufficient,
    covariance_init,
    covariance_step,
    covariance_trace,
    dedup_agents,
    mss_matrix,
    mss_test_family,
    mss_test_full,
    mss_test_reduced,
    second_moment_map,
    verdict,
)
from .switched import (
    ModeFamily,
    build_mode_family,
    enumerate_links,
    mode_count,
    mode_count_formula,
)

__version__ = "0.1.0"

__all__ = [
    "BoundResult",
    "BoundsInfeasibleError",
    "CovarianceState",
    "DelayChain",
    "DncsModel",
    "ModeFamily",
    "ModelError",
    "PendulumParams",
    "ScopeResult",
    "SimConfig",
    "SizeLimitError",
    "StabilityReport",
    "TrajectoryRecord",
    "block_norm_sufficient",
    "build_global_matrix",
    "build_mode_family",
    "build_pendulum_model",
    "column_corners",
    "compute_bounds",
    "covariance_init",
    "covariance_step",
    "covariance_trace",
    "dedup_agents",
    "default_chain",
    "dump_model",
    "enumerate_links",
    "estimate_ms",
    "grid_scan_max_rho",
    "inf_norm",
    "kron_power",
    "load_model",
    "lp_solve",
    "mean_square_csv",
    "mode_count",
    "mode_count_formula",
    "mss_matrix",
    "mss_test_family",
    "mss_test_full",
    "mss_test_reduced",
    "neighborhood",
    "nominal_stability",
    "second_moment_map",
    "simulate_trajectory",
    "solve_bound_lp",
    "spectral_radius",
    "trajectory_csv",
    "verdict",
    "weighted_bounds",
    "__version__",
]
