"""Property tests of the integer exact kernel: integer crossing-time keys,
integer crossing points, integer cone membership, the fraction-free simplex
and the per-class tables.  Every integer reading is checked against the
Fraction reading it replaces."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghostpic.catalog import BrickCatalog, ModuleClass, ModuleSum
from ghostpic.errors import GhostpicError, NonGenericPathError
from ghostpic.geometry import (
    Cone,
    _cone_lp,
    _simplex_max,
    cell_facet_neighbors,
    dot,
    enumerate_cells,
    feasible_point,
    integral,
)
from ghostpic.ghosts import QUOTIENT, SUBOBJECT, _ghost_table, enumerate_ghosts
from ghostpic.greenpaths import LinearPath, _class_dims, check_generic, linear_mgs
from ghostpic.stability import chamber_graph, wall
from reference_simplex import fraction_cone_lp, fraction_feasible_point, fraction_simplex_max

rationals = st.fractions(min_value=-12, max_value=12, max_denominator=9)
positives = st.fractions(min_value=Fraction(1, 9), max_value=12, max_denominator=9)


@st.composite
def paths_and_dims(draw, count=2):
    n = draw(st.integers(1, 4))
    h = tuple(draw(rationals) for _ in range(n))
    k = tuple(draw(positives) for _ in range(n))
    dim = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    return LinearPath(h, k), [draw(dim) for _ in range(count)]


@st.composite
def table_paths(draw):
    """h and k as given to LinearPath, either all ints (as `verify` draws
    them) or all Fractions, with a few nonzero dims, repeats allowed."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        coord, positive = st.integers(-12, 12), st.integers(1, 12)
    else:
        coord, positive = rationals, positives
    h = tuple(draw(coord) for _ in range(n))
    k = tuple(draw(positive) for _ in range(n))
    dim = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    return h, k, draw(st.lists(dim, min_size=1, max_size=5))


def assert_positive_multiple(point, exact):
    """point is an integer vector and a positive multiple of exact."""
    assert all(type(x) is int for x in point)
    nonzero = [i for i, x in enumerate(exact) if x != 0]
    if not nonzero:
        assert not any(point)
        return
    scale = Fraction(point[nonzero[0]]) / exact[nonzero[0]]
    assert scale > 0
    assert all(p == scale * x for p, x in zip(point, exact))


@st.composite
def cones_and_points(draw):
    n = draw(st.integers(1, 4))
    row = st.tuples(*[st.integers(-2, 2)] * n)
    cone = Cone(
        n,
        equalities=tuple(draw(st.lists(row, max_size=1))),
        weak=tuple(draw(st.lists(row, max_size=3))),
        strict=tuple(draw(st.lists(row, max_size=3))),
    )
    theta = tuple(draw(st.fractions(min_value=-3, max_value=3, max_denominator=4)) for _ in range(n))
    return cone, theta


@st.composite
def integer_cones(draw):
    n = draw(st.integers(2, 4))
    row = st.tuples(*[st.integers(-3, 3)] * n)
    return Cone(
        n,
        equalities=tuple(draw(st.lists(row, max_size=2))),
        weak=tuple(draw(st.lists(row, max_size=4))),
        strict=tuple(draw(st.lists(row, max_size=4))),
    )


@st.composite
def integer_lps(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 5))
    entry = st.integers(-3, 3)
    c = [draw(entry) for _ in range(n)]
    rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    rhs = [draw(st.integers(0, 3)) for _ in range(m)]
    return c, rows, rhs


def fraction_contains(cone, theta):
    return (
        all(dot(e, theta) == 0 for e in cone.equalities)
        and all(dot(w, theta) >= 0 for w in cone.weak)
        and all(dot(s, theta) > 0 for s in cone.strict)
    )


class TestTimeKey:
    @settings(max_examples=300, deadline=None)
    @given(paths_and_dims())
    def test_is_the_reduced_crossing_time(self, drawn):
        path, (d, _) = drawn
        num, den = path.time_key(d)
        assert den > 0 and gcd(num, den) == 1
        assert Fraction(num, den) == path.crossing_time(d)

    @settings(max_examples=300, deadline=None)
    @given(paths_and_dims())
    def test_order_and_equality_match_crossing_time(self, drawn):
        path, (d1, d2) = drawn
        (n1, e1), (n2, e2) = path.time_key(d1), path.time_key(d2)
        t1, t2 = path.crossing_time(d1), path.crossing_time(d2)
        assert ((n1, e1) == (n2, e2)) == (t1 == t2)
        assert (n1 * e2 < n2 * e1) == (t1 < t2)


class TestCrossingPoint:
    @settings(max_examples=300, deadline=None)
    @given(paths_and_dims(count=1))
    def test_positive_multiple_of_the_crossing(self, drawn):
        path, (d,) = drawn
        point = path.crossing_point(d)
        assert all(isinstance(x, int) for x in point)
        exact = path.at(path.crossing_time(d))
        nonzero = [i for i, x in enumerate(exact) if x != 0]
        if not nonzero:
            assert not any(point)
            return
        scale = Fraction(point[nonzero[0]]) / exact[nonzero[0]]
        assert scale > 0
        assert all(p == scale * x for p, x in zip(point, exact))
        assert dot(d, point) == 0


class TestCrossingTable:
    """Every reading of a path's crossing table against the Fraction
    reference t_d = -dot(h, d)/dot(k, d), on the first and a second lookup."""

    @settings(max_examples=300, deadline=None)
    @given(table_paths())
    def test_readings_match_the_fraction_reference(self, drawn):
        h, k, dims = drawn
        path = LinearPath(h, k)

        def readings():
            return [(path.time_key(d), path.crossing_time(d), path.crossing_point(d)) for d in dims]

        first = readings()
        for d, (key, t, point) in zip(dims, first):
            reference = -dot(h, d) / dot(k, d)
            num, den = key
            assert den > 0 and gcd(num, den) == 1 and Fraction(num, den) == reference
            assert type(t) is Fraction and t == reference
            assert_positive_multiple(point, path.at(reference))
            assert dot(d, point) == 0
        assert readings() == first

    @settings(max_examples=300, deadline=None)
    @given(table_paths(), st.integers(-50, 50), st.integers(1, 20))
    def test_point_at_is_a_positive_multiple_of_at(self, drawn, num, den):
        h, k, _ = drawn
        path = LinearPath(h, k)
        point = path.point_at(num, den)
        assert_positive_multiple(point, path.at(Fraction(num, den)))
        assert path.point_at(num, den) == point
        assert path.point_at(2 * num, 2 * den) == tuple(2 * x for x in point)


class TestIntegerContains:
    @settings(max_examples=400, deadline=None)
    @given(cones_and_points(), st.fractions(min_value=Fraction(1, 7), max_value=7, max_denominator=7))
    def test_scale_invariant_and_matches_fractions(self, drawn, q):
        cone, theta = drawn
        reference = fraction_contains(cone, theta)
        assert cone.contains(theta) == reference
        assert cone.contains(tuple(q * x for x in theta)) == reference
        assert cone.contains(integral(theta)) == reference

    @given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6), min_size=1, max_size=4))
    def test_integral_is_a_positive_integer_multiple(self, v):
        p = integral(v)
        assert all(isinstance(x, int) for x in p)
        nonzero = [i for i, x in enumerate(v) if x != 0]
        if nonzero:
            scale = Fraction(p[nonzero[0]]) / v[nonzero[0]]
            assert scale >= 1 and scale.denominator == 1
            assert all(a == scale * b for a, b in zip(p, v))
        else:
            assert not any(p)


class TestIntegerSimplex:
    """The fraction-free simplex takes the rational simplex's pivots, so it
    returns exactly the same optimum and the same vertex."""

    @settings(max_examples=400, deadline=None)
    @given(integer_lps())
    def test_simplex_matches_the_rational_one(self, lp):
        c, rows, rhs = lp
        try:
            expected = fraction_simplex_max(c, rows, rhs)
        except GhostpicError:
            with pytest.raises(GhostpicError, match="unbounded"):
                _simplex_max(c, rows, rhs)
            return
        value, x = _simplex_max(c, rows, rhs)
        assert (value, x) == expected
        assert all(isinstance(v, Fraction) for v in (value, *x))

    @settings(max_examples=400, deadline=None)
    @given(integer_cones(), st.data())
    def test_cone_lp_matches_the_rational_one(self, cone, data):
        row = st.tuples(*[st.integers(-3, 3)] * cone.dim)
        slack_rows = tuple(data.draw(st.lists(row, max_size=3)))
        assert _cone_lp(cone, slack_rows) == fraction_cone_lp(cone, slack_rows)

    @settings(max_examples=400, deadline=None)
    @given(integer_cones())
    def test_feasible_point_matches_the_rational_one(self, cone):
        point = feasible_point(cone)
        assert point == fraction_feasible_point(cone)
        if point is not None:
            assert cone.contains(point)


class TestPerClassTables:
    def test_one_table_holds_every_per_class_fact(self, cat_ll, monkeypatch):
        cls = ModuleClass(cat_ll, ["S1", "P3", "I2", "S3"])
        chamber_graph(cls)
        enumerate_ghosts(cls)
        _class_dims(cls)
        sums = [ModuleSum(["P3", "S1"]), ModuleSum(["I2", "I2"]), ModuleSum(["P2"]), ModuleSum()]
        verdicts = [cls.in_filt(x) for x in sums]
        assert verdicts == [True, True, False, True]
        path = LinearPath((3, 0, 2), (1, 1, 1))
        assert linear_mgs(cls, path) == ["S1", "S3", "I2"]
        assert set(vars(cls)) == {"catalog", "bricks", "_brick_set", "flags", "_table"}
        # a second Filt query reads its table entry: no subquotient pair is
        # looked at again
        monkeypatch.setattr(BrickCatalog, "pairs", lambda self, m: pytest.fail("recomputed"))
        assert [cls.in_filt(x) for x in sums] == verdicts

    def test_quotient_table_is_computed_once_and_immutable(self, full6):
        for m in full6.bricks:
            first = full6.weakly_admissible_quotients(m)
            assert isinstance(first, tuple)
            assert full6.weakly_admissible_quotients(m) is first
            every = full6.weakly_admissible_quotients(m, proper=False)
            assert set(first) <= set(every)

    def test_generic_dims_are_built_once_and_extras_merge_after(self, torsion4):
        table = _class_dims(torsion4)
        assert _class_dims(torsion4) is table
        assert table == (((0, 0, 1), "S3"), ((0, 1, 1), "I2"), ((1, 0, 0), "S1"), ((1, 1, 1), "P3"))
        zero = LinearPath((Fraction(0),) * 3, (Fraction(1),) * 3)  # every dim crosses at 0

        def clash(extra):
            with pytest.raises(NonGenericPathError) as err:
                check_generic(zero, torsion4, extra_dims=extra)
            return err.value.first, err.value.second

        assert clash(()) == ("S3", "I2")
        # first name wins: an extra dim the class already has keeps its name
        assert clash([((0, 0, 1), "X")]) == ("S3", "I2")
        # a new extra dim is sorted in among the class's
        assert clash([((0, 1, 0), "Y")]) == ("S3", "Y")

    def test_ghost_dims_are_built_once_per_kinds(self, torsion4):
        kinds = (SUBOBJECT, QUOTIENT)
        ghosts, dims = _ghost_table(torsion4, kinds)
        assert _ghost_table(torsion4, list(kinds)) == (ghosts, dims)
        assert _ghost_table(torsion4, kinds)[1] is dims
        assert ghosts == tuple(g for g in enumerate_ghosts(torsion4) if g.kind in kinds)
        expected = [(g.event_dim, g.display()) for g in ghosts]
        expected += [(torsion4.dim_of(c.obj), repr(c.obj)) for g in ghosts for c in g.conditions]
        assert dims == tuple(expected)
        # check_generic keeps one merged, sorted table per tuple of extra dims
        merged = _class_dims(torsion4, dims)
        assert _class_dims(torsion4, dims) is merged
        assert [d for d, _ in merged] == sorted({d for d, _ in _class_dims(torsion4) + dims})

    def test_wall_is_built_once_with_its_interior(self, torsion4):
        for m in torsion4.bricks:
            w = wall(torsion4, m)
            assert wall(torsion4, m) is w
            assert w.interior == w.cone.interior()

    def test_graph_carries_its_arrangement(self, case1):
        graph = chamber_graph(case1)
        hyperplanes = [graph.walls[b].hyperplane() for b in case1.bricks]
        cells = enumerate_cells(hyperplanes)
        assert list(graph.cells) == cells
        assert list(graph.adjacencies) == cell_facet_neighbors(cells, hyperplanes)
        assert sorted(c.signs for ch in graph.chambers for c in ch.cells) == sorted(
            c.signs for c in cells
        )

    def test_out_edges_index_matches_a_scan(self, full6):
        graph = chamber_graph(full6)
        for ch in graph.chambers:
            assert list(graph.out_edges(ch.id)) == [e for e in graph.edges if e.src == ch.id]
