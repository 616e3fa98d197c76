"""Skip-transition diffusion sampling with draft-and-refine parallel schedulers.

Convention used throughout: ``alpha_bar[t]`` is the cumulative signal
retention (the forward marginal is x_t = sqrt(alpha_bar) x_0 +
sqrt(1 - alpha_bar) eps), with alpha_bar[0] = 1.
"""

from .denoiser import (
    AnalyticEps,
    Counting,
    GaussianMixture,
    Latency,
    LatencyModel,
    Perturbed,
    StateIndependent,
    VirtualClock,
    eps_oracle,
    evaluate,
    standard_normal_mixture,
    state_independent_eps,
    velocity_oracle,
    x0_posterior_mean,
)
from .metrics import (
    SampleSet,
    mmd_gaussian,
    mmd_permutation_threshold,
    sliced_w2,
    trajectory_max_dev,
)
from .parallel import (
    BlockPlan,
    Mode,
    RoundReport,
    execute_round,
    plan_blocks,
    run_parallel,
)
from .rng import RngStream, Role, derive_noise
from .schedule import (
    NoiseSchedule,
    ScheduleKind,
    SigmaGrid,
    alpha_at,
    build_cosine,
    build_linear_beta,
    build_sigma_grid,
    default_schedule,
)
from .sequential import (
    Operator,
    Trajectory,
    predicted_x0,
    sample,
)
from .transitions import (
    SkipCoeffs,
    SkipPosterior,
    VarianceRule,
    ddim_skip,
    ddim_skip_coeffs,
    ddpm_skip_posterior,
    ddpm_skip_sample,
    euler_skip,
)

__all__ = [name for name in dir() if not name.startswith("_")]
