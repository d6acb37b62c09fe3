"""Exception hierarchy shared by all simulator modules, and the field rules
that every config section checks its numeric fields by.

``require`` spells each rule once: "positive", "non-negative" and "finite".
NaN fails all three; infinity passes the two sign rules.
"""

import math

# rule -> test of one value, False for NaN
_FIELD_RULES = {"positive": lambda x: x > 0, "non-negative": lambda x: x >= 0,
               "finite": math.isfinite}


class RobothumbError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(RobothumbError):
    """A configuration value violates its documented invariant.

    The message always names the offending key.
    """


def require(obj, rule: str, *names: str) -> None:
    """Raise ``ConfigurationError`` for the first of the fields ``names`` of
    ``obj`` whose value fails ``rule``, naming that field."""
    test = _FIELD_RULES[rule]
    for name in names:
        if not test(getattr(obj, name)):
            raise ConfigurationError(f"{name} must be {rule}")


class InputError(RobothumbError):
    """An input value lies outside the domain an operation accepts."""


class ReachError(RobothumbError):
    """A requested key-line position is outside the finger's reach."""


class TravelRangeError(RobothumbError):
    """A requested press travel cannot be produced within the joint range."""


class CalibrationIncompleteError(RobothumbError):
    """A calibration trace or anchor file is missing a required entry."""

    def __init__(self, name: str):
        super().__init__(f"{name} missing")


class DegenerateCalibrationError(RobothumbError):
    """A calibration anchor pair collapsed to a single value."""


class TraceFormatError(RobothumbError):
    """A sensor trace file is malformed or violates trace invariants."""
