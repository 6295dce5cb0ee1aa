"""Exception types shared across the package.

The CLI maps these onto process exit codes, so library code should raise
the most specific type that applies.
"""
import csv
from contextlib import contextmanager


class TriageSimError(Exception):
    """Base class for all package errors."""


class FormatError(TriageSimError):
    """An input file does not match its documented schema (exit code 2)."""


class ParameterError(TriageSimError, ValueError):
    """An argument is outside its valid domain (exit code 3)."""


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
