"""Exception types shared across the package.

Every error raised on bad input derives from :class:`CopulaBnError` so
callers (and the command line front end) can distinguish usage problems,
data problems, and numerical failures with a single ``except`` clause per
category.
"""

import numbers


class CopulaBnError(Exception):
    """Base class for all errors raised by this package."""


class DataError(CopulaBnError):
    """Base class for problems with user-supplied data."""


class NumericalError(CopulaBnError):
    """Base class for numerical failures during fitting or evaluation."""


class EmptyInputError(DataError):
    """An input that must contain at least one element was empty."""


class DegenerateInputError(DataError):
    """Input has no usable variation (e.g. all sample values identical)."""


class DegenerateColumnError(DataError):
    """A data column is constant or has too few observed cells to model."""


class TooFewRowsError(DataError):
    """A table has fewer rows than the requested operation needs."""


class ParseError(DataError):
    """A file or text value could not be parsed."""


class ValidationError(DataError):
    """A structured value (graph, model file, config) violates its contract."""


class OutOfRangeError(CopulaBnError):
    """A scalar argument lies outside its documented domain."""


class InvalidRhoError(OutOfRangeError):
    """A correlation parameter lies outside the positive-definite range."""


class InvalidInputError(CopulaBnError):
    """An argument has the wrong shape, dtype, or contains non-finite values."""


class SingularDesignError(NumericalError):
    """A least-squares design matrix is rank deficient."""


class ConvergenceError(NumericalError):
    """An iterative solver ran out of iterations before meeting its tolerance."""


def _integer(value, name, floor, error):
    """``value`` as an ``int`` if it is an integer (numpy's too, never a
    boolean) of at least ``floor``; otherwise raises ``error``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < floor:
        need = "a non-negative integer" if floor == 0 else f"an integer >= {floor}"
        raise error(f"{name} must be {need}, got {value!r}")
    return int(value)


def _check_columns(num_cols, num_vars, holder):
    """Raise ``InvalidInputError`` unless a table of ``num_cols`` columns fits
    a ``holder`` (``"model"`` or ``"graph"``) of ``num_vars`` variables."""
    if num_cols != num_vars:
        unit = {"model": "variables", "graph": "nodes"}[holder]
        raise InvalidInputError(
            f"data has {num_cols} columns but the {holder} has {num_vars} {unit}"
        )
