"""Exceptions shared across the library, and the integer and list argument checks."""

import operator

__all__ = ["ParameterError", "QuadratureError", "SizeLimitError"]


class ParameterError(ValueError):
    """A parameter is outside its documented domain or violates a precondition."""


class SizeLimitError(ValueError):
    """An enumeration or simulation was requested above its guarded size bound."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature stopped short of the requested tolerance."""

    def __init__(self, achieved: float, requested: float):
        self.achieved = achieved
        self.requested = requested
        super().__init__(
            "quadrature reached relative tolerance %.3e, requested %.3e"
            % (achieved, requested)
        )


def require_int(value, name: str, minimum: int) -> int:
    """value as an int, or ParameterError if it is not an integer >= minimum."""
    try:
        if isinstance(value, bool):  # an int to Python, but no count
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value}")
    return value


def require_list(values, name: str) -> list:
    """values as a list, or ParameterError if it is not iterable (a lone record)."""
    try:
        return list(values)
    except TypeError:
        raise ParameterError(f"{name} must be an iterable, got {values!r}") from None
