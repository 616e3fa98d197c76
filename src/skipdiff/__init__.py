"""Skip-transition diffusion sampling with draft-and-refine parallel schedulers.

Convention used throughout: ``alpha_bar[t]`` is the cumulative signal
retention (the forward marginal is x_t = sqrt(alpha_bar) x_0 +
sqrt(1 - alpha_bar) eps), with alpha_bar[0] = 1.
"""

from .denoiser import (
    AnalyticEps,
    GaussianMixture,
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
    sliced_w2,
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
    SigmaGrid,
    build_cosine,
    build_linear_beta,
    build_sigma_grid,
    default_schedule,
)
from .sequential import (
    Operator,
    Trajectory,
    sample,
)
from .transitions import (
    SkipCoeffs,
    VarianceRule,
    ddim_skip,
    ddim_skip_coeffs,
    ddpm_skip_sample,
    euler_skip,
    predicted_x0,
)

__all__ = [name for name in dir() if not name.startswith("_")]
