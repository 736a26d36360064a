"""Fraction readings of exact vectors, the references integer readings are
checked against: the package itself computes on integer vectors only.  Also
the pairwise-minor test of proportionality, which the package reads off
primitive vectors instead."""

from fractions import Fraction

ZERO = Fraction(0)


def dot(a, b) -> Fraction:
    """Exact dot product of int or Fraction vectors, always a Fraction."""
    return sum((x * y for x, y in zip(a, b)), ZERO)


def as_fracvec(a) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in a)


def proportional(a, b) -> bool:
    """True iff the integer vectors a and b are linearly dependent (all 2x2
    minors vanish), decided without floats."""
    n = len(a)
    return all(a[i] * b[j] == a[j] * b[i] for i in range(n) for j in range(n))
