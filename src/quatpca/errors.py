"""Exception types and the hyperparameter rule table shared across the package."""

import math
from numbers import Integral, Real


class QuatPcaError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(QuatPcaError):
    """Operands have incompatible dimensions."""


class InvalidParameter(QuatPcaError):
    """A parameter lies outside its legal range."""


class DegenerateDirection(QuatPcaError):
    """No usable direction remains (zero ascent vector or exhausted subspace)."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class InvalidWeight(QuatPcaError):
    """A weighting value cannot be built or inverted."""


class InvalidDataset(QuatPcaError):
    """The sample collection violates a structural requirement."""


class IoError(QuatPcaError):
    """A file could not be read or written."""


class FormatError(QuatPcaError):
    """A serialized artifact is malformed."""


class ConfigError(QuatPcaError):
    """One or more configuration entries are invalid."""

    def __init__(self, messages):
        if isinstance(messages, str):
            messages = [messages]
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


# The legal range of each hyperparameter as (test, rule).  Every check in
# the package, the CLI's included, reads it here and reports a value that
# fails as "<name> <rule>, got <value>".  The numbers ABCs admit numpy
# scalars, which np.random.default_rng and the solver accept too.
_COUNT = (lambda v: isinstance(v, Integral) and v >= 1, "must be a positive integer")
_RULES = {
    "s": (lambda v: isinstance(v, Real) and 1 <= v < math.inf,
          "must satisfy 1 <= s < inf"),
    "p": (lambda v: isinstance(v, Real) and (v == math.inf or v > 0),
          "must satisfy p > 0 or p = inf"),
    "k1": _COUNT,
    "k2": _COUNT,
    "tol": (lambda v: isinstance(v, Real) and v > 0, "must be positive"),
    "max_iter": _COUNT,
    "repeats": _COUNT,
    "seed": (lambda v: isinstance(v, Integral) and v >= 0,
             "must be a nonnegative integer"),
}


def _violation(name, value):
    """The message for ``value`` breaking the rule of ``name``; None when legal."""
    legal, rule = _RULES[name]
    return None if legal(value) else f"{name} {rule}, got {value}"


def _check(name, value):
    """Raise InvalidParameter when ``value`` breaks the rule of ``name``."""
    problem = _violation(name, value)
    if problem:
        raise InvalidParameter(problem)
