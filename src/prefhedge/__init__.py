"""Equilibrium investment under stochastically evolving CRRA risk aversion.

Solves for the time-consistent equilibrium fraction of wealth held in the
risky asset when relative risk aversion is the exponential of an arithmetic
Brownian motion, by coupling a family of terminal-state-conditioned
continuation-factor PDEs with a density-weighted policy map, and verifies
the result against independent Monte Carlo oracles.
"""

from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateTimeError,
    DomainError,
    OutOfGridError,
    PositivityError,
    SingularGammaError,
)
from .model import (
    EPS_GAMMA,
    ModelParams,
    crra_utility,
    expected_terminal_gamma,
    phi,
    phi_prime,
)
from .conditional import (
    bridge_drift_y,
    conditional_density,
    score,
)
from .pide import (
    GridSpec,
    HSurface,
    LevelResidual,
    ResidualNorms,
    coefficients,
    default_grid,
    residual,
    solve_h,
)
from .equilibrium import (
    IterationMeta,
    PolicySurface,
    closed_form_policy_rho0,
    ehjb_supremand,
    fixed_point_solve,
    policy_from_h,
    reward_quadrature,
)
from .mc import (
    GRepReport,
    PathBatch,
    RewardEstimate,
    SimConfig,
    SpikeReport,
    equilibrium_spike_test,
    gh_terminal_quadrature,
    reward_mc,
    simulate_conditioned,
    simulate_unconditional,
    verify_g_representation_batch,
)
from .persist import (
    h_surface_writer,
    load_h_surface,
    load_policy_surface,
    read_h_surface,
    save_policy_surface,
)

__all__ = [
    "EPS_GAMMA",
    "ModelParams",
    "crra_utility",
    "phi",
    "phi_prime",
    "expected_terminal_gamma",
    "conditional_density",
    "score",
    "bridge_drift_y",
    "GridSpec",
    "HSurface",
    "LevelResidual",
    "ResidualNorms",
    "default_grid",
    "coefficients",
    "solve_h",
    "residual",
    "IterationMeta",
    "PolicySurface",
    "closed_form_policy_rho0",
    "policy_from_h",
    "fixed_point_solve",
    "ehjb_supremand",
    "reward_quadrature",
    "SimConfig",
    "PathBatch",
    "SpikeReport",
    "GRepReport",
    "RewardEstimate",
    "simulate_unconditional",
    "simulate_conditioned",
    "reward_mc",
    "verify_g_representation_batch",
    "equilibrium_spike_test",
    "gh_terminal_quadrature",
    "h_surface_writer",
    "load_h_surface",
    "read_h_surface",
    "save_policy_surface",
    "load_policy_surface",
    "ConfigError",
    "ConvergenceError",
    "DegenerateTimeError",
    "DomainError",
    "OutOfGridError",
    "PositivityError",
    "SingularGammaError",
]

__version__ = "0.1.0"
