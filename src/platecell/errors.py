"""Exception taxonomy shared across the package, and its one reader of
outside values.

Config/validation problems and numerical failures are kept distinct so the
command-line layer can map them to different exit codes (2 and 1).  Every
number, index, tolerance and numeric array that enters the package from a
caller or a file is read by `as_index`, `as_real` or `as_array`, which raise
a ConfigError naming the argument instead of truncating or coercing.
"""

import math
import numbers
import operator
import reprlib

import numpy as np


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


def as_real(value, name, low=-math.inf, high=math.inf):
    """`value` as a finite float in the open interval (low, high); Python and
    numpy numbers pass, while bools, strings, nan and infinities raise
    instead of being coerced.  A tolerance is as_real(tol, name, 0, 1)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            real = float(value)
        except OverflowError:       # an int beyond the float range
            real = math.inf
        if math.isfinite(real):
            if low < real < high:
                return real
            raise ConfigError("%s must %s, got %r" % (
                name, "be > %g" % low if high == math.inf
                else "lie in (%g, %g)" % (low, high), value))
    raise ConfigError("%s must be a finite number, got %r" % (name, value))


def as_array(value, name, shape=None, integer=False):
    """`value` as a float64 array of finite entries, or an int64 array if
    `integer`, of `shape` if given (None in it matches any length).

    Arrays and nestings of Python or numpy numbers pass; bool, string and
    object entries (a bool beside numbers too, which numpy would coerce),
    ragged nestings and, for `integer`, floats raise.  An array of the
    target dtype is returned as is, not copied."""
    try:
        array = np.asarray(value)
        ok = array.dtype.kind in ("iu" if integer else "iuf") and (
            isinstance(value, np.ndarray) or not any(
                isinstance(x, (bool, np.bool_))
                for x in np.asarray(value, dtype=object).flat))
    except ValueError:                     # a ragged nesting
        ok = False
    if not ok or integer and not np.can_cast(array.dtype, np.int64):
        raise ConfigError("%s must be an array of %s, got %s" % (
            name, "integers" if integer else "numbers", reprlib.repr(value)))
    if shape is not None and (array.ndim != len(shape) or any(
            n not in (None, m) for n, m in zip(shape, array.shape))):
        raise ConfigError("%s must have shape (%s), got %s" % (
            name, ", ".join("n" if n is None else str(n) for n in shape),
            array.shape))
    array = array.astype(np.int64 if integer else float, copy=False)
    if not integer and not np.isfinite(array).all():
        raise ConfigError("%s must be finite; %d of its %d entries are not"
                          % (name, array.size - np.isfinite(array).sum(),
                             array.size))
    return array


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
