"""Exception taxonomy shared across the package.

Two error families map onto the CLI exit codes: problems with the shape,
range, or format of inputs raise :class:`ValidationError` (exit code 2),
while degenerate values discovered during computation (zero projections,
flat spectra with no direction to perturb toward, non-convergent
factorizations) raise :class:`NumericalError` (exit code 3).
"""


class DcMergeError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(DcMergeError, ValueError):
    """Input failed a shape, range, or format check."""


class NumericalError(DcMergeError, ArithmeticError):
    """Computation hit a degenerate or ill-conditioned value."""


class ContainerError(ValidationError):
    """Checkpoint container file is malformed."""
