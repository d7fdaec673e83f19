"""Exception types shared across the package, with the CLI's exit code and stderr label of each."""


class ValidationError(ValueError):
    """Violated precondition, malformed input, or degenerate configuration."""

    exit_code = 2
    label = "error"


class ResourceLimitError(RuntimeError):
    """An enumeration or allocation exceeded its configured cap."""

    exit_code = 3
    label = "resource limit"


class NumericalDiagnosticError(ArithmeticError):
    """A numerical self-check failed (e.g. an autocorrelation bin collision)."""

    exit_code = 4
    label = "numerical diagnostic"
