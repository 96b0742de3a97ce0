"""Exception types shared across the library, and _integer, the check
of every integer setting.

The CLI maps these onto exit codes: parameter problems exit with 2,
malformed or invalid input data with 3, numerical failures and internal
errors with 4. Reading a CSV file, a kNN search (every hypergraph), an
attention solve, a Laplacian, a β > 0 code sweep or objective, a
dictionary sweep (every train, at β = 0 too) or a test encoding where
the compiled kernels cannot be built (no C compiler) is an internal
error, so exits with 4: every command that reads CSV input does.
"""

import operator


class ParameterError(ValueError):
    """A caller-supplied parameter is out of range or inconsistent."""


class InputError(ValueError):
    """Input data violates a precondition (non-finite values, bad labels)."""


class FormatError(InputError):
    """A data file does not conform to its declared layout."""


class NumericalError(ArithmeticError):
    """An iterative solver produced non-finite values or diverged."""


class InternalError(RuntimeError):
    """An internal invariant was violated; indicates a bug upstream."""


def _integer(value, name):
    """value as an int; a float or other non-integer raises
    ParameterError naming the setting."""
    try:
        return operator.index(value)
    except TypeError:
        raise ParameterError(
            f"{name} must be an integer, got {value!r}") from None
