"""Exception types shared across the package.

The split matters for the CLI: contract violations (bad parameters, basis
mismatches, normalizability failures, insufficient cutoffs, oscillator
profiles that are not a bare frequency) map to exit code 2, internal numeric
failures (over/underflowed amplitudes or moments, eigen-residuals above their
bound, integrator step collapse) map to exit code 1.
"""


class UrstatesError(Exception):
    """Base class for all package errors."""


class InvalidInputError(UrstatesError):
    """A caller-supplied value violates a documented precondition."""


class BasisMismatchError(InvalidInputError):
    """Operators/states over different bases were combined."""


class NormalizabilityError(InvalidInputError):
    """Requested state family member is not normalizable for these parameters."""


class UnsupportedScaleError(InvalidInputError):
    """Mode count / representation size outside the supported range."""


class TruncationError(UrstatesError):
    """Basis cutoff too small: tail mass above the requested certificate."""


class NumericError(UrstatesError):
    """Internal numerical failure (non-convergence, drift, residual blow-up)."""
