"""Fraction readings of exact vectors, the references integer readings are
checked against: the package itself computes on integer vectors only."""

from fractions import Fraction

ZERO = Fraction(0)


def dot(a, b) -> Fraction:
    """Exact dot product of int or Fraction vectors, always a Fraction."""
    return sum((x * y for x, y in zip(a, b)), ZERO)


def as_fracvec(a) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in a)
