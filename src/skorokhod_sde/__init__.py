"""Simulation toolkit for coupled reflected SDEs with compound-Poisson jumps:
exact 1d Skorokhod reflection, a left-endpoint-frozen Euler scheme, a
stochastic Wilson-Cowan application, and stability/convergence experiments.
"""

from .analysis import (
    ConvergenceReport,
    SeminormReport,
    StabilityReport,
    ensemble_moments,
    holder_seminorm,
    seminorm_report,
    sobolev_seminorm,
    stability_experiment,
    strong_convergence_experiment,
    sup_norm,
)
from .config import ConfigDocument, ConfigError, emit_config, parse_config
from .engine import (
    EnsembleResult,
    ReflectedJumpSDE,
    SimulationAbort,
    SimulationGrid,
    TrajectoryBundle,
    build_dyadic_partition,
    euler_step,
    simulate_ensemble,
    simulate_trajectory,
    uniform_grid,
)
from .models import (
    ScenarioConfig,
    ScenarioError,
    WilsonCowanParams,
    check_jump_coefficient_bound,
    estimate_lipschitz_constant,
    make_scenario,
    sigmoid_F,
    wilson_cowan_diffusion,
    wilson_cowan_drift,
)
from .skorokhod import (
    ReflectedPath,
    ReflectionAccumulator1D,
    ReflectionDomain,
    minimal_push_oracle,
    reflect_box,
    reflect_path_1d,
    reflect_stream_1d,
    total_variation,
)
from .sources import (
    CompoundPoissonSpec,
    JumpEvent,
    JumpSizeDist,
    OUParams,
    PathInputs,
    SeedSpec,
    sample_compound_poisson,
    sample_compound_poisson_arrays,
    sample_ou_path,
    sample_ou_paths,
    sample_path_inputs,
    sample_wiener_increments,
)

__version__ = "0.1.0"
