"""Exact rational polyhedral services.

Cones are given by an H-representation (equalities, weak and strict
inequalities, all homogeneous, all with integer entries).  Feasibility and
relative-interior points are computed with a simplex in dictionary form that
pivots fraction-free on integer rows using Bland's rule.  A point is an
integer vector: the numerators of the exact rational point over their least
common denominator ``den``.  Cones are homogeneous, so every decision reads
the numerators alone; ``den`` is kept only where a sample is printed
(`vec_str`).  There are no floating-point fast paths.
"""

from __future__ import annotations

import itertools
from functools import cache
from math import gcd, lcm
from operator import add, mul
from typing import NamedTuple

from ghostpic.errors import GhostpicError, InternalConsistencyError, check_guard

IntVec = tuple[int, ...]

CELL_GUARD = 20


def int_dot(a, b) -> int:
    """Dot product of two integer vectors, as an int."""
    return sum(map(mul, a, b))


def _combination(row, cols: list[list[int]], size: int):
    """An iterator over the column sum_j row[j]*cols[j] of a block of size
    points held as columns (of ints, or of Fractions)."""
    total = None
    for c, col in zip(row, cols):
        if c:
            term = col if c == 1 else map(mul, col, itertools.repeat(c))
            total = term if total is None else map(add, total, term)
    return itertools.repeat(0, size) if total is None else iter(total)


def integral(v) -> IntVec:
    """The positive integer multiple of a rational vector by the lcm of its
    denominators: the one place a rational vector enters the integer engine.
    A vector of exact ints comes back as a tuple of the same ints after one
    type scan; any other entry (a Fraction, a bool) takes the lcm route,
    which also turns a bool into an int."""
    if all(type(x) is int for x in v):
        return tuple(v)
    den = 1
    for x in v:
        if x.denominator != 1:
            den = lcm(den, x.denominator)
    return tuple(x.numerator * (den // x.denominator) for x in v)


def vec_str(num, den: int = 1) -> list[str]:
    """The exact rationals num[i]/den (ints, den > 0) in lowest terms as JSON
    strings, e.g. ["1/2", "-3", "0"]."""
    return [f"{x // g}/{den // g}" if (g := gcd(x, den)) < den else str(x // den) for x in num]


def _lowest(num, den: int) -> tuple[IntVec, int]:
    """num/den (den > 0) over the least common denominator of its entries."""
    g = gcd(*num, den)
    return tuple([x // g for x in num]), den // g


def primitive(v) -> IntVec:
    """Divide a vector, made `integral` first, by the gcd of its entries;
    preserves direction."""
    ints = integral(v)
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

    def contains(self, p: IntVec) -> bool:
        """Membership of a point; cones are homogeneous, so an integer
        multiple of a rational point answers for it."""
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
    cell lies; ``sample`` (numerators over ``den``) strictly satisfies every
    recorded sign.
    """

    signs: tuple[int, ...]
    sample: IntVec
    den: int


# ---------------------------------------------------------------------------
# Fraction-free integer simplex.
#
# maximize c.x subject to A x <= b, x >= 0, with b >= 0 (the origin is a
# basic feasible solution, so no phase one is needed).  Bland's rule keeps
# the pivoting finite and deterministic.
#
# The tableau is kept in dictionary form: a row holds its entries on the n
# nonbasic columns, its right-hand side and its entry on its own basic column
# (the other basic columns are 0, so they are not stored).  Each row, the
# objective row included (basic entry 0), is a gcd-reduced integer row that is
# a positive multiple of the rational row, in the spirit of Bareiss
# fraction-free elimination and the integer pivoting of Avis's lrs.  Every
# test the pivoting makes (the sign of an objective entry, the sign of a
# column entry, ratio comparisons by cross-multiplication) is invariant under
# positive row scaling, so every pivot, every basis and every returned vertex
# is exactly the one of the rational tableau.
# ---------------------------------------------------------------------------


def _simplex_max(c: list[int], rows: list[list[int]], rhs: list[int]) -> tuple[int, IntVec, int]:
    """(c.num, num, den): the optimal vertex is num/den."""
    m = len(rows)
    n = len(c)
    # row i: [nonbasic entries..., rhs, basic entry], the slacks basic first
    tab = [row + [b, 1] for row, b in zip(rows, rhs)]
    tab.append([-x for x in c] + [0, 0])
    nonbasic = list(range(n))  # the variable of each nonbasic column
    basis = list(range(n, n + m))  # the variable of each row
    while True:
        obj = tab[m]
        enter = -1  # the column of the least variable with a negative entry
        for j in range(n):
            if obj[j] < 0 and (enter < 0 or nonbasic[j] < nonbasic[enter]):
                enter = j
        if enter < 0:
            break
        leave = -1
        best_num = best_den = 0  # the best ratio so far, best_num / best_den
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                b = tab[i][n]
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
        # the leaving variable takes the entering column and its basic entry
        prow[enter], prow[n + 1] = prow[n + 1], piv
        nonzero = [(j, y) for j, y in enumerate(prow[: n + 1]) if y]  # its basic entry is no column
        for i, row in enumerate(tab):  # the objective row too: its entry is < 0
            f = row[enter]
            if f and i != leave:  # piv*row - f*prow on the new columns, made on prow's nonzero ones
                row[enter] = 0  # its entry on the leaving variable, now at enter
                new = row[:] if piv == 1 else [piv * x for x in row]
                for j, y in nonzero:
                    new[j] -= f * y
                g = gcd(*new)  # a positive factor: the row stays gcd-reduced
                tab[i] = [x // g for x in new] if g > 1 else new
        nonbasic[enter], basis[leave] = basis[leave], nonbasic[enter]
    # row i is a positive multiple of the rational row, whose basic entry is
    # 1: the basic variable is tab[i][n] / tab[i][n + 1]
    den = lcm(*[tab[i][n + 1] for i, b in enumerate(basis) if b < n])
    x = [0] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = tab[i][n] * (den // tab[i][n + 1])
    x, den = _lowest(x, den)
    return int_dot(c, x), x, den


def _theta_row(v, scale=1, slack=0) -> list[int]:
    """The row scale*v on theta = p - q, then the slack's coefficient."""
    return [scale * x for x in v] + [-scale * x for x in v] + [slack]


@cache
def _box(n: int) -> tuple[list[list[int]], list[int]]:
    """The unit box rows on theta, s <= 1 and the objective s of the LPs of
    rank n, built once: `_simplex_max` writes neither rows nor objective."""
    rows = [_theta_row([s * (i == j) for i in range(n)]) for j in range(n) for s in (1, -1)]
    return rows + [[0] * 2 * n + [1]], [0] * 2 * n + [1]


def _cone_lp(cone: Cone, slack_rows: tuple[IntVec, ...]) -> tuple[int, IntVec, int]:
    """Maximize a single slack below the given rows, inside the cone closure.

    Variables are theta = p - q (componentwise, p, q >= 0) and the slack s.
    A unit box on theta and s <= 1 keep the LP bounded; by homogeneity this
    does not affect feasibility questions.  Every row is an integer row, as
    the cone's are.  Returns (s, num, den) with s* = s/den and theta* =
    num/den; den is theta*'s least common denominator, as s* is 0, 1 or a
    tight slack row's value at theta*.
    """
    n = cone.dim
    rows = [row for e in cone.equalities for row in (_theta_row(e), _theta_row(e, -1))]
    rows += [_theta_row(w, -1) for w in cone.weak]
    rows += [_theta_row(s_vec, -1, 1) for s_vec in slack_rows]
    box, c = _box(n)
    _, x, den = _simplex_max(c, rows + box, [0] * len(rows) + [1] * len(box))
    (value, *theta), den = _lowest((x[2 * n], *(x[j] - x[n + j] for j in range(n))), den)
    return value, tuple(theta), den


def _sample(cone: Cone) -> tuple[IntVec, int] | None:
    """A point (num, den) of a cone with strict rows, or None when it is
    empty: a common slack under the strict rows is maximized."""
    value, num, den = _cone_lp(cone, cone.strict)
    if value <= 0:
        return None
    if not cone.contains(num):
        raise GhostpicError("simplex returned an infeasible point")
    return num, den


def feasible_point(cone: Cone) -> IntVec | None:
    """An exact point of the cone as integer numerators, or None when it is
    empty.

    Cones without strict inequalities always contain the origin; for those a
    relative-interior point of the weak system is returned instead, so the
    answer is as generic as the cone allows.
    """
    if cone.strict:
        sample = _sample(cone)
        return sample and sample[0]
    return relative_interior_point(cone)


def relative_interior_point(cone: Cone) -> IntVec:
    """A point with every non-forced weak inequality strictly positive, as
    integer numerators."""
    if cone.strict:
        raise GhostpicError("relative_interior_point expects a closed cone")
    improvable = tuple(w for w in cone.weak if _cone_lp(cone, (w,))[0] > 0)
    if not improvable:
        return (0,) * cone.dim
    value, theta, _ = _cone_lp(cone, improvable)
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
    check_guard(len(normals), "hyperplanes", "CELL_GUARD", CELL_GUARD)
    cells = [Cell((), (0,) * n, 1)]
    last = len(normals) - 1
    for k, normal in enumerate(normals):
        grown: list[Cell] = []
        for cell in cells:
            # below the last level a child on its parent's side of the new
            # hyperplane keeps the parent's sample, which needs no LP; the
            # last level's samples are the output, so each is solved
            side = int_dot(normal, cell.sample) if k < last else 0
            for s in (1, -1):
                signs = cell.signs + (s,)
                if side * s > 0:
                    grown.append(Cell(signs, cell.sample, cell.den))
                    continue
                strict = tuple(tuple(sg * x for x in normals[i]) for i, sg in enumerate(signs))
                sample = _sample(Cone(n, strict=strict))
                if sample is not None:
                    grown.append(Cell(signs, *sample))
        cells = grown
    return cells


class FacetAdjacency(NamedTuple):
    cell_a: Cell  # on the + side of the hyperplane
    cell_b: Cell
    hyperplane_index: int
    facet_sample: IntVec  # read off the cells: gcd 1, or the origin


def cell_facet_neighbors(cells: list[Cell], vectors) -> list[FacetAdjacency]:
    """Pairs of cells sharing a full (n-1)-dimensional facet, each with a
    point of the facet's relative interior read off the cells with no LP.

    The cells differ in exactly one sign, i.  With a and b the + and - cell's
    samples and fa = n_i.a > 0 > fb = n_i.b, the point fa*b - fb*a (divided by
    its gcd) is a positive combination of a and b on hyperplane i, strictly on
    the cells' common side of every other hyperplane.  It is the origin only
    for a lone hyperplane with opposite samples, whose facet holds the origin.
    """
    normals = _normals(vectors)
    by_signs = {c.signs: c for c in cells}
    out: list[FacetAdjacency] = []
    for cell in cells:
        for i, normal in enumerate(normals):
            if cell.signs[i] != 1:
                continue  # visit each unordered pair once, from the + side
            other = by_signs.get(cell.signs[:i] + (-1,) + cell.signs[i + 1 :])
            if other is None:
                continue
            fa, fb = int_dot(normal, cell.sample), int_dot(normal, other.sample)
            point = [fa * y - fb * x for x, y in zip(cell.sample, other.sample)]
            g = gcd(*point) or 1
            out.append(FacetAdjacency(cell, other, i, tuple(x // g for x in point)))
    out.sort(key=lambda f: (f.hyperplane_index, f.cell_a.signs))
    return out


def facet_lp_sample(normals: list[IntVec], adj: FacetAdjacency) -> tuple[IntVec, int]:
    """The point (num, den) the simplex finds in an adjacency's facet of the
    arrangement of these primitive normals: the sample `render.export_report`
    prints for the edge on this facet.  A lone hyperplane takes
    e_j - (normal[j]/normal[k]) e_k, k the normal's first nonzero entry and j
    the first other index (the origin at rank 1).  Cells that differ in one
    sign share a facet, so an empty facet cone is a fault, named by both."""
    i, signs, normal = adj.hyperplane_index, adj.cell_a.signs, normals[adj.hyperplane_index]
    strict = tuple(tuple(s * x for x in v) for j, (s, v) in enumerate(zip(signs, normals)) if j != i)
    if not strict:
        k = next(j for j, x in enumerate(normal) if x != 0)
        v = [0] * len(normal)
        if len(normal) > 1:
            j = int(k == 0)
            v[j], v[k] = abs(normal[k]), -normal[j] if normal[k] > 0 else normal[j]
        return _lowest(v, abs(normal[k]))
    if sample := _sample(Cone(len(normal), equalities=(normal,), strict=strict)):
        return sample
    raise InternalConsistencyError(f"cells {signs} and {adj.cell_b.signs} share no facet on hyperplane {i}")
