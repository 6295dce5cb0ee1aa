"""Exception types shared across the package, and the rules a scalar
parameter value must meet.

The CLI maps the exceptions onto process exit codes, so library code should
raise the most specific type that applies. Each rule takes (name, value) and
returns the value (an integer as int), or raises ParameterError("NAME must be
RULE, got VALUE"): a ParameterTypeError if the value is not of its type.
"""
import csv
import math
from contextlib import contextmanager
from numbers import Integral, Real


class TriageSimError(Exception):
    """Base class for all package errors."""


class FormatError(TriageSimError):
    """An input file does not match its documented schema (exit code 2)."""


class ParameterError(TriageSimError, ValueError):
    """An argument is outside its valid domain (exit code 3)."""


class ParameterTypeError(ParameterError, TypeError):
    """An argument is of the wrong type (exit code 3, or 2 for a value read from a file)."""


class InfeasibleParametersError(ParameterError):
    """A workload has utilization >= 1 and admits no steady state (exit code 3)."""


class InsufficientDataError(TriageSimError):
    """Not enough data survives filtering to compute the requested statistic (exit code 4)."""


@contextmanager
def reading(path):
    """Report an input file that cannot be opened, is not UTF-8 text or that
    the csv module refuses (a cell past its field size limit) as a
    FormatError that names it."""
    try:
        yield
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"cannot read {path}: not UTF-8 text ({exc})") from exc
    except csv.Error as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def integer(name: str, value, low: int = 0, high: int | None = None) -> int:
    """value as an int if it is a Python or numpy integer, not a bool, in
    [low, high]."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ParameterTypeError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < low or high is not None and value > high:
        rule = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ParameterError(f"{name} must be {rule}, got {value}")
    return value


def _number(name: str, value, rule: str, holds):
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ParameterTypeError(f"{name} must be {rule}, got {value!r}")
    if not holds(value):
        raise ParameterError(f"{name} must be {rule}, got {value!r}")
    return value


def share(name: str, value, interior: bool = False):
    """value if it is a real number, not a bool, in [0, 1], or in (0, 1)
    when interior."""
    if interior:
        return _number(name, value, "in (0, 1)", lambda v: 0 < v < 1)
    return _number(name, value, "in [0, 1]", lambda v: 0 <= v <= 1)


def positive(name: str, value):
    """value if it is a finite real number > 0, not a bool."""
    _number(name, value, "finite and > 0", lambda v: -math.inf < v < math.inf)
    return _number(name, value, "> 0", lambda v: v > 0)


def non_negative(name: str, value):
    """value if it is a finite real number >= 0, not a bool."""
    _number(name, value, "finite and >= 0", lambda v: -math.inf < v < math.inf)
    return _number(name, value, ">= 0", lambda v: v >= 0)


def check_fields(record, rule, *names: str, **bounds) -> None:
    """Pass each named field of a frozen dataclass through rule, keeping what
    it returns (an integer as int)."""
    for name in names:
        object.__setattr__(record, name, rule(name, getattr(record, name), **bounds))
