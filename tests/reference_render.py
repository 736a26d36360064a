"""The `Fraction` projection, viewport map, clipping and coordinate printing
that the integer fixed-point renderer replaced, kept as an oracle for it.

Same formulas and the same roundings: the square roots are floor roots at
2^-80, projected coordinates snap half-even to the 2^-48 grid, the viewport
map is exact, Liang-Barsky clipping keeps its parameters as `Fraction`s,
and a coordinate prints as three decimals rounded half-even.  Plane points
are `(x, y)` pairs of `Fraction`s.
"""

from fractions import Fraction
from math import isqrt

from ghostpic.errors import GhostpicError, RankError
from ghostpic.geometry import primitive
from ghostpic.render import SQRT_BITS, VIEWPORT, WINDOW
from reference_vectors import as_fracvec, dot


def rational_sqrt(x, bits: int = SQRT_BITS) -> Fraction:
    """Floor square root of a nonnegative rational at 2^-bits precision."""
    x = Fraction(x)
    if x < 0:
        raise GhostpicError("square root of a negative rational")
    n, d = x.numerator, x.denominator
    return Fraction(isqrt((n * d) << (2 * bits)), d << bits)


_SQRT2 = rational_sqrt(2)
_SQRT3 = rational_sqrt(3)
_SQRT6 = rational_sqrt(6)

_GRID_BITS = 48


def _quantize(x: Fraction) -> Fraction:
    return Fraction(round(x * (1 << _GRID_BITS)), 1 << _GRID_BITS)


def fraction_stereographic(theta) -> tuple[Fraction, Fraction]:
    theta = as_fracvec(theta)
    if len(theta) != 3:
        raise RankError("stereographic projection is rank-3 only")
    if all(x == 0 for x in theta):
        raise GhostpicError("cannot project the zero vector")
    theta = primitive(theta)
    if theta[0] == theta[1] == theta[2] and theta[0] < 0:
        raise GhostpicError("at-pole: ray is antipodal to eta")
    a = theta[0] + theta[1] + theta[2]
    r = rational_sqrt(dot(theta, theta))
    denom = a + _SQRT3 * r
    if denom <= 0:
        raise GhostpicError("at-pole: ray is antipodal to eta")
    return (
        _quantize(_SQRT6 * (theta[0] - theta[1]) / denom),
        _quantize(_SQRT2 * (theta[0] + theta[1] - 2 * theta[2]) / denom),
    )


def fraction_px(value: Fraction) -> str:
    scaled = round(value * 1000)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    return f"{sign}{scaled // 1000}.{scaled % 1000:03d}"


def fraction_to_viewport(p: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    x, y = p
    scale = Fraction(VIEWPORT, 2) / WINDOW
    return (Fraction(VIEWPORT, 2) + x * scale, Fraction(VIEWPORT, 2) - y * scale)


def fraction_clip_segment(p, q):
    x0, y0 = p
    x1, y1 = q
    t0, t1 = Fraction(0), Fraction(1)
    dx, dy = x1 - x0, y1 - y0
    for coeff, offset in (
        (-dx, x0),
        (dx, Fraction(VIEWPORT) - x0),
        (-dy, y0),
        (dy, Fraction(VIEWPORT) - y0),
    ):
        if coeff == 0:
            if offset < 0:
                return None
            continue
        t = offset / coeff
        if coeff < 0:
            if t > t1:
                return None
            if t > t0:
                t0 = t
        else:
            if t < t0:
                return None
            if t < t1:
                t1 = t
    return ((x0 + t0 * dx, y0 + t0 * dy), (x0 + t1 * dx, y0 + t1 * dy))


def fraction_polyline_paths(points) -> list[str]:
    view = [fraction_to_viewport(p) for p in points]
    paths = []
    run: list[tuple] = []
    for i in range(len(view) - 1):
        seg = fraction_clip_segment(view[i], view[i + 1])
        if seg is None:
            if len(run) >= 2:
                paths.append(run)
            run = []
            continue
        a, b = seg
        if not run:
            run = [a, b]
        elif run[-1] == a:
            run.append(b)
        else:
            if len(run) >= 2:
                paths.append(run)
            run = [a, b]
    if len(run) >= 2:
        paths.append(run)
    return ["M " + " L ".join(f"{fraction_px(x)} {fraction_px(y)}" for x, y in path) for path in paths]
