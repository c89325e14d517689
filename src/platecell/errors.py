"""Exception taxonomy shared across the package, and its strict number checks.

Config/validation problems and numerical failures are kept distinct so the
command-line layer can map them to different exit codes (2 and 1).
"""

import math
import numbers
import operator


class ConfigError(ValueError):
    """Invalid configuration or arguments; message names the offending field."""


def as_index(value, name, low=None):
    """`value` as an int, at least `low` if given; Python and numpy integers
    pass, while bools, floats (8.0 too) and strings raise instead of being
    truncated or coerced."""
    if not isinstance(value, bool):
        try:
            index = operator.index(value)
        except TypeError:
            pass
        else:
            if low is None or index >= low:
                return index
            raise ConfigError("%s must be >= %d, got %r" % (name, low, value))
    raise ConfigError("%s must be an integer, got %r" % (name, value))


def as_real(value, name):
    """`value` as a finite float; Python and numpy numbers pass, while bools,
    strings, nan and infinities raise instead of being coerced."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            real = float(value)
        except OverflowError:       # an int beyond the float range
            real = math.inf
        if math.isfinite(real):
            return real
    raise ConfigError("%s must be a finite number, got %r" % (name, value))


def as_tolerance(value, name):
    """`value` as a solver tolerance: a finite float in (0, 1)."""
    tol = as_real(value, name)
    if not 0 < tol < 1:
        raise ConfigError("%s must lie in (0, 1), got %r" % (name, value))
    return tol


class NumericalError(RuntimeError):
    """A solver or sampling step failed (non-convergence, degenerate draw, ...)."""


class ConvergenceError(NumericalError):
    """A solver did not reach the requested residual tolerance.

    Carries the relative residual history so callers can dump diagnostics.
    """

    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = [] if residual_history is None else list(residual_history)


class DegenerateRealizationError(NumericalError):
    """A random draw produced an unusable realization (e.g. zero Poisson points)."""
