"""Shared exception types, and the size limit the seeded generators check."""

# Most float64 values one seeded generator may draw (1 GiB).
FLOAT_LIMIT = 1 << 27


class InputError(ValueError):
    """An input violates a documented precondition or file-format rule."""


class NumericalError(ArithmeticError):
    """A numerical routine failed: non-convergence or non-finite values."""


def check_float_count(count: int, sizes: str) -> None:
    """InputError when ``count``, the floats that ``sizes`` need, exceeds ``FLOAT_LIMIT``.

    Callers count with Python ints, so no size can overflow before the check.
    """
    if count > FLOAT_LIMIT:
        raise InputError(f"{sizes} need {count} float64 values, "
                         f"over the limit of {FLOAT_LIMIT}")
