"""Exception hierarchy shared across the package."""


class SkipDiffError(Exception):
    """Base class for all package errors."""


class InvalidScheduleParams(SkipDiffError):
    """Schedule construction parameters out of range."""


class TimestepOutOfRange(SkipDiffError):
    """Timestep index outside the schedule's 0..T range."""


class DimensionMismatch(SkipDiffError):
    """State vectors with incompatible dimensions."""


class NonPositiveSigma(SkipDiffError):
    """Velocity oracle queried at sigma <= 0."""


class InvalidSkip(SkipDiffError):
    """Skip length k < 1."""


class VarianceTooLarge(SkipDiffError):
    """Transition variance exceeds 1 - alpha_bar[t-k] (negative radicand)."""


class IndexOutOfRange(SkipDiffError):
    """Sigma-grid index outside 0..N."""


class InvalidSubsequence(SkipDiffError):
    """DDIM timestep subsequence not strictly decreasing to 0."""


class InvalidPlanParams(SkipDiffError):
    """Block-plan parameters invalid (T < 1, devices < 1, oversubscribed round)."""


class PlanMismatch(SkipDiffError):
    """Executed trajectory disagrees with the block plan."""


class NonFiniteState(SkipDiffError):
    """A skip or a denoiser prediction produced a NaN or infinite value."""


class EmptySet(SkipDiffError):
    """Metric called on an empty sample set."""


class InsufficientSamples(SkipDiffError):
    """Unbiased MMD needs at least two samples per set."""


class ParseError(SkipDiffError):
    """Malformed CSV input file."""


class ConfigError(SkipDiffError):
    """Malformed run configuration (unknown key, bad value, missing field)."""


class SuiteNotFound(SkipDiffError):
    """Verification suite name not recognized."""
