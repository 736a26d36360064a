"""Exact rational polyhedral services.

Cones are given by an H-representation (equalities, weak and strict
inequalities, all homogeneous, all with integer entries).  Feasibility and
relative-interior points are computed with a small dense simplex that pivots
fraction-free on integer rows using Bland's rule; its answers are exact
``fractions.Fraction`` points, and every run is reproducible.  There are no
floating-point fast paths.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from ghostpic.errors import GhostpicError, GuardExceededError, guard_limit

Vec = tuple[Fraction, ...]
IntVec = tuple[int, ...]

ZERO = Fraction(0)
ONE = Fraction(1)

CELL_GUARD = 20


def dot(a, b) -> Fraction:
    """Exact dot product of int or Fraction vectors, always a Fraction."""
    return sum((x * y for x, y in zip(a, b)), ZERO)


def int_dot(a, b) -> int:
    """Dot product of two integer vectors, as an int."""
    return sum(map(mul, a, b))


def proportional(a, b) -> bool:
    """True iff the integer vectors a and b are linearly dependent (all 2x2
    minors vanish), decided without floats."""
    n = len(a)
    return all(a[i] * b[j] == a[j] * b[i] for i in range(n) for j in range(n))


def is_intvec(v) -> bool:
    """True iff every coordinate is an int: the vector is its own integral
    multiple, and callers skip `integral`."""
    return all(type(x) is int for x in v)


def integral(v) -> IntVec:
    """The positive integer multiple of a rational vector by the lcm of its
    denominators (ints have denominator 1, so int vectors come back as is)."""
    den = 1
    for x in v:
        if x.denominator != 1:
            den = lcm(den, x.denominator)
    return tuple(x.numerator * (den // x.denominator) for x in v)


def as_fracvec(a) -> Vec:
    return tuple(Fraction(x) for x in a)


def vec_str(v) -> list[str]:
    """Exact rationals as JSON strings, e.g. ["1/2", "-3", "0"]."""
    return [str(Fraction(x)) for x in v]


def primitive(v) -> IntVec:
    """Divide an integer vector (a rational one made `integral` first) by the
    gcd of its entries; preserves direction."""
    ints = v if is_intvec(v) else integral(v)
    g = gcd(*ints)
    if g == 0:
        raise GhostpicError("zero vector has no primitive form")
    return tuple(x // g for x in ints)


class Cone(NamedTuple):
    """Homogeneous cone {theta : E theta = 0, W theta >= 0, S theta > 0}."""

    dim: int
    equalities: tuple[IntVec, ...] = ()
    weak: tuple[IntVec, ...] = ()
    strict: tuple[IntVec, ...] = ()

    def contains(self, theta) -> bool:
        # cones are homogeneous: test the integer multiple of theta instead
        return self.contains_int(theta if is_intvec(theta) else integral(theta))

    def contains_int(self, p: IntVec) -> bool:
        """Membership of an integer point."""
        for e in self.equalities:
            if sum(map(mul, e, p)) != 0:
                return False
        for w in self.weak:
            if sum(map(mul, w, p)) < 0:
                return False
        for s in self.strict:
            if sum(map(mul, s, p)) <= 0:
                return False
        return True

    def interior(self) -> "Cone":
        """Strictened cone: every weak inequality becomes strict."""
        return Cone(self.dim, self.equalities, (), self.strict + self.weak)

    def closure(self) -> "Cone":
        return Cone(self.dim, self.equalities, self.weak + self.strict, ())

    def negated(self) -> "Cone":
        """The cone {theta : -theta in self} (equalities are sign-blind)."""
        neg = lambda vs: tuple(tuple(-x for x in v) for v in vs)
        return Cone(self.dim, self.equalities, neg(self.weak), neg(self.strict))

    def with_equality(self, v: IntVec) -> "Cone":
        return Cone(self.dim, self.equalities + (tuple(v),), self.weak, self.strict)

    def with_strict(self, v: IntVec) -> "Cone":
        return Cone(self.dim, self.equalities, self.weak, self.strict + (tuple(v),))

    def doc(self) -> dict:
        """The JSON document of a closed cone: its equalities and weak rows."""
        return {
            "equalities": [list(e) for e in self.equalities],
            "weak": [list(w) for w in self.weak],
        }


class Cell(NamedTuple):
    """An open full-dimensional region of a hyperplane arrangement.

    ``signs[i]`` is +1 or -1 and records on which side of hyperplane i the
    cell lies; ``sample`` strictly satisfies every recorded sign.
    """

    signs: tuple[int, ...]
    sample: Vec


# ---------------------------------------------------------------------------
# Fraction-free integer simplex.
#
# maximize c.x subject to A x <= b, x >= 0, with b >= 0 (the origin is a
# basic feasible solution, so no phase one is needed).  Bland's rule keeps
# the pivoting finite and deterministic.
#
# Each tableau row is stored as a gcd-reduced integer row that is a positive
# multiple of the rational row, in the spirit of Bareiss fraction-free
# elimination and the integer pivoting of Avis's lrs; the objective row
# carries one positive denominator besides.  Every test the pivoting makes
# (the sign of an objective entry, the sign of a column entry, ratio
# comparisons by cross-multiplication) is invariant under positive row
# scaling, so every pivot, every basis and every returned point is exactly
# the one of the rational tableau.
# ---------------------------------------------------------------------------


def _reduced(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries, a positive factor."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _simplex_max(c: list[int], rows: list[list[int]], rhs: list[int]):
    m = len(rows)
    n = len(c)
    total = n + m
    # Tableau with slack columns; basis starts as the slacks.
    tab = [_reduced(rows[i] + [1 if j == i else 0 for j in range(m)] + [rhs[i]]) for i in range(m)]
    obj = [-x for x in c] + [0] * m + [0]  # the objective row is obj / den
    den = 1
    basis = list(range(n, total))
    while True:
        enter = -1
        for j in range(total):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best_num = best_den = 0  # the best ratio so far, best_num / best_den
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                b = tab[i][total]
                if (
                    leave < 0
                    or b * best_den < best_num * a
                    or (b * best_den == best_num * a and basis[i] < basis[leave])
                ):
                    best_num, best_den = b, a
                    leave = i
        if leave < 0:
            raise GhostpicError("unbounded LP (missing box constraints)")
        prow = tab[leave]
        piv = prow[enter]  # > 0 by the ratio test
        for i in range(m):
            f = tab[i][enter]
            if i != leave and f != 0:
                tab[i] = _reduced([piv * x - f * y for x, y in zip(tab[i], prow)])
        f = obj[enter]  # < 0: the entering column
        *obj, den = _reduced([piv * x - f * y for x, y in zip(obj, prow)] + [den * piv])
        basis[leave] = enter
    # row i is a positive multiple of the rational row, whose basic entry is 1
    x = [ZERO] * total
    for i, b in enumerate(basis):
        x[b] = Fraction(tab[i][total], tab[i][b])
    return Fraction(obj[total], den), x[:n]


def _cone_lp(cone: Cone, slack_rows: tuple[IntVec, ...]):
    """Maximize a single slack below the given rows, inside the cone closure.

    Variables are theta = p - q (componentwise, p, q >= 0) and the slack s.
    A unit box on theta and s <= 1 keep the LP bounded; by homogeneity this
    does not affect feasibility questions.  Every row is an integer row, as
    the cone's are.  Returns (s*, theta*).
    """
    n = cone.dim
    nv = 2 * n + 1

    def theta_row(v, scale=1, slack=0):
        return [scale * x for x in v] + [-scale * x for x in v] + [slack]

    rows: list[list[int]] = []
    for e in cone.equalities:
        rows.append(theta_row(e))
        rows.append(theta_row(e, -1))
    for w in cone.weak:
        rows.append(theta_row(w, -1))
    for s_vec in slack_rows:
        rows.append(theta_row(s_vec, -1, 1))
    rhs = [0] * len(rows)
    for j in range(n):
        unit = [0] * n
        unit[j] = 1
        rows.append(theta_row(unit))
        rows.append(theta_row(unit, -1))
    rows.append([0] * (nv - 1) + [1])
    rhs += [1] * (2 * n + 1)
    c = [0] * nv
    c[2 * n] = 1
    value, x = _simplex_max(c, rows, rhs)
    theta = tuple(x[j] - x[n + j] for j in range(n))
    return value, theta


def feasible_point(cone: Cone) -> Vec | None:
    """An exact point of the cone, or None when it is empty.

    Strictness is achieved by maximizing a common slack under the strict
    inequalities.  Cones without strict inequalities always contain the
    origin; for those a relative-interior point of the weak system is
    returned instead, so the answer is as generic as the cone allows.
    """
    if cone.strict:
        value, theta = _cone_lp(cone, cone.strict)
        if value <= 0:
            return None
        if not cone.contains(theta):
            raise GhostpicError("simplex returned an infeasible point")
        return theta
    return relative_interior_point(cone)


def relative_interior_point(cone: Cone) -> Vec:
    """A point with every non-forced weak inequality strictly positive."""
    if cone.strict:
        raise GhostpicError("relative_interior_point expects a closed cone")
    improvable = []
    for w in cone.weak:
        value, _ = _cone_lp(Cone(cone.dim, cone.equalities, cone.weak, ()), (w,))
        if value > 0:
            improvable.append(w)
    if not improvable:
        return tuple([ZERO] * cone.dim)
    base = Cone(cone.dim, cone.equalities, cone.weak, ())
    value, theta = _cone_lp(base, tuple(improvable))
    if value <= 0:
        raise GhostpicError("relative interior slack vanished unexpectedly")
    return theta


def cone_is_empty(cone: Cone) -> bool:
    return feasible_point(cone) is None


def cone_contains_cone(outer: Cone, inner: Cone) -> bool:
    """Exact containment test: every constraint of outer is valid on inner.

    A weak constraint a of outer fails on inner iff inner has a point with
    a.theta < 0; equalities are checked in both directions.  Strict
    constraints of the outer cone are checked against the closure boundary
    conservatively (valid for the full-dimensional uses in this package).
    """
    inner_closed = inner.closure()
    for e in outer.equalities:
        for signed in (e, tuple(-x for x in e)):
            if feasible_point(inner_closed.with_strict(tuple(-x for x in signed))) is not None:
                return False
    for w in outer.weak + outer.strict:
        if feasible_point(inner_closed.with_strict(tuple(-x for x in w))) is not None:
            return False
    return True


def cone_equal(a: Cone, b: Cone) -> bool:
    return cone_contains_cone(a, b) and cone_contains_cone(b, a)


# ---------------------------------------------------------------------------
# Hyperplane arrangements.
# ---------------------------------------------------------------------------


def _normals(vectors) -> list[IntVec]:
    """The primitive form of each normal vector, its sign kept; the vectors
    must be nonzero, of one length and pairwise non-proportional."""
    if not vectors:
        raise GhostpicError("empty hyperplane list")
    normals = [primitive(v) for v in vectors]
    n = len(normals[0])
    seen = set()
    for p in normals:
        if len(p) != n:
            raise GhostpicError("hyperplane dimension mismatch")
        if next(x for x in p if x != 0) < 0:
            p = tuple(-x for x in p)
        if p in seen:
            raise GhostpicError(f"hyperplanes must be pairwise non-proportional: {p}")
        seen.add(p)
    return normals


def enumerate_cells(vectors) -> list[Cell]:
    """All nonempty open sign regions of the arrangement of the hyperplanes
    v.theta = 0, one per normal vector v, in lexicographic order of their
    sign vectors (+ before -, the sign of v.theta), each with an exact
    strict sample point."""
    normals = _normals(vectors)
    n = len(normals[0])
    if len(normals) > guard_limit(CELL_GUARD):
        raise GuardExceededError(
            f"{len(normals)} hyperplanes exceeds the cell enumeration guard"
        )
    partials: list[tuple[tuple[int, ...], Vec]] = [((), tuple([ZERO] * n))]
    for k in range(len(normals)):
        grown: list[tuple[tuple[int, ...], Vec]] = []
        for signs, _ in partials:
            for s in (1, -1):
                new = signs + (s,)
                cone = Cone(
                    n,
                    strict=tuple(
                        tuple(sg * x for x in normals[i]) for i, sg in enumerate(new)
                    ),
                )
                point = feasible_point(cone)
                if point is not None:
                    grown.append((new, point))
        partials = grown
    return [Cell(signs, sample) for signs, sample in partials]


class FacetAdjacency(NamedTuple):
    cell_a: Cell
    cell_b: Cell
    hyperplane_index: int
    facet_sample: Vec


def _kernel_vector(normal: IntVec) -> Vec:
    # Deterministic nonzero rational vector orthogonal to a single normal.
    n = len(normal)
    i = next(j for j, x in enumerate(normal) if x != 0)
    for j in range(n):
        if j != i:
            v = [ZERO] * n
            v[j] = ONE
            v[i] = Fraction(-normal[j], normal[i])
            return tuple(v)
    return tuple([ZERO] * n)


def cell_facet_neighbors(cells: list[Cell], vectors) -> list[FacetAdjacency]:
    """Pairs of cells sharing a full (n-1)-dimensional facet.

    Candidates differ in exactly one sign; the shared facet is certified by
    an exact relative-interior point lying on the separating hyperplane and
    strictly on the common side of every other hyperplane.
    """
    normals = _normals(vectors)
    n = len(normals[0])
    by_signs = {c.signs: c for c in cells}
    out: list[FacetAdjacency] = []
    for cell in cells:
        for i in range(len(normals)):
            if cell.signs[i] != 1:
                continue  # visit each unordered pair once, from the + side
            flipped = cell.signs[:i] + (-1,) + cell.signs[i + 1 :]
            other = by_signs.get(flipped)
            if other is None:
                continue
            stricts = tuple(
                tuple(cell.signs[j] * x for x in normals[j])
                for j in range(len(normals))
                if j != i
            )
            cone = Cone(n, equalities=(normals[i],), strict=stricts)
            if stricts:
                sample = feasible_point(cone)
                if sample is None:
                    continue
            else:  # a lone hyperplane: any point of it will do
                sample = _kernel_vector(normals[i])
            out.append(FacetAdjacency(cell, other, i, sample))
    out.sort(key=lambda f: (f.hyperplane_index, f.cell_a.signs))
    return out
