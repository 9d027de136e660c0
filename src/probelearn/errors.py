"""Exception taxonomy shared across the package.

Every error raised on purpose by probelearn is one of these, so callers can
distinguish "you called it wrong" from "the data broke a model assumption"
from "probelearn itself is broken".
"""


class UsageError(ValueError):
    """Bad arguments: out-of-range indices, malformed inputs, misused APIs."""


class RealizabilityError(RuntimeError):
    """A scratch learner cannot fit the target within its depth/size caps."""


class ModelViolationError(RuntimeError):
    """Input data breaks a structural assumption of the chosen model."""


class OracleMisuseError(RuntimeError):
    """A ground-truth oracle (teacher gain, exact correlation) was called
    outside its contract, e.g. on data inconsistent with the target."""


class VarianceUnderflowError(ModelViolationError):
    """An empirical variance fell below half its guaranteed floor."""


class GeneratorExhaustedError(RuntimeError):
    """A stream generator ran out of retries for its structural constraints."""


class InternalError(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""
