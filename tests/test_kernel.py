"""Property tests of the integer exact kernel: integer time keys and
crossing points, integer cone membership, the fraction-free simplex and the
per-class tables.  Every integer reading is checked against the
Fraction reading it replaces."""

from fractions import Fraction
from math import lcm

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
    enumerate_cells,
    feasible_point,
    integral,
)
from ghostpic.ghosts import enumerate_ghosts, ghost_plan
from ghostpic.greenpaths import LinearPath, PathColumns, check_generic, linear_mgs
from ghostpic.stability import CrossingPlan, chamber_graph, crossing_plan, wall
from reference_paths import point_at, point_on_path
from reference_simplex import fraction_cone_lp, fraction_feasible_point, fraction_simplex_max
from reference_vectors import dot

rationals = st.fractions(min_value=-12, max_value=12, max_denominator=9)
positives = st.fractions(min_value=Fraction(1, 9), max_value=12, max_denominator=9)


@st.composite
def paths_and_dims(draw, count=2):
    n = draw(st.integers(1, 4))
    h = tuple(draw(rationals) for _ in range(n))
    k = tuple(draw(positives) for _ in range(n))
    dim = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    return LinearPath(h, k), [draw(dim) for _ in range(count)]


def plan_over(dims) -> CrossingPlan:
    """A bare crossing plan over the given dims, for their time keys."""
    return CrossingPlan(tuple(dims), names=(), ray=(), bricks={}, ghosts={}, schedule=())


def time_of(h, k, d) -> Fraction:
    return -dot(h, d) / dot(k, d)


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
    """Up to verify's rank-3 LP size, 7 variables and 14 rows, with many
    zero right-hand sides, so that the ratio test meets ties."""
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, 14))
    entry = st.integers(-3, 3)
    c = [draw(entry) for _ in range(n)]
    rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    rhs = [draw(st.one_of(st.just(0), st.integers(0, 3))) for _ in range(m)]
    return c, rows, rhs


def fraction_contains(cone, theta):
    return (
        all(dot(e, theta) == 0 for e in cone.equalities)
        and all(dot(w, theta) >= 0 for w in cone.weak)
        and all(dot(s, theta) > 0 for s in cone.strict)
    )


class TestCrossingPoint:
    @settings(max_examples=300, deadline=None)
    @given(paths_and_dims(count=1))
    def test_positive_multiple_of_the_crossing(self, drawn):
        path, (d,) = drawn
        block = PathColumns.of_paths(plan_over([d]), [path])
        ((key,),), (scale,) = block.keys, block.scale
        point = point_at(path, -key, scale)
        assert all(isinstance(x, int) for x in point)
        exact = point_on_path(path, time_of(path.h, path.k, d))
        nonzero = [i for i, x in enumerate(exact) if x != 0]
        if not nonzero:
            assert not any(point)
            return
        scale = Fraction(point[nonzero[0]]) / exact[nonzero[0]]
        assert scale > 0
        assert all(p == scale * x for p, x in zip(point, exact))
        assert dot(d, point) == 0


class TestCrossingTable:
    """Every reading of a path's time keys against the Fraction reference
    t_d = -dot(h, d)/dot(k, d)."""

    @settings(max_examples=300, deadline=None)
    @given(table_paths())
    def test_readings_match_the_fraction_reference(self, drawn):
        h, k, dims = drawn
        path = LinearPath(h, k)
        plan = plan_over(dims)
        block = PathColumns.of_paths(plan, [path])
        (scale,) = block.scale
        for d, (key,) in zip(dims, block.keys):
            t, point = Fraction(-key, scale), point_at(path, -key, scale)
            reference = time_of(h, k, d)
            assert t == reference
            assert_positive_multiple(point, point_on_path(path, reference))
            assert dot(d, point) == 0

    @settings(max_examples=300, deadline=None)
    @given(table_paths(), st.integers(-50, 50), st.integers(1, 20))
    def test_point_at_is_a_positive_multiple_of_at(self, drawn, num, den):
        h, k, _ = drawn
        path = LinearPath(h, k)
        point = point_at(path, num, den)
        assert_positive_multiple(point, point_on_path(path, Fraction(num, den)))
        assert point_at(path, num, den) == point
        assert point_at(path, 2 * num, 2 * den) == tuple(2 * x for x in point)


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

    @given(st.lists(st.integers(-9, 9), max_size=4))
    def test_integral_keeps_an_int_vector(self, v):
        assert integral(v) == tuple(v)
        t = tuple(v)
        assert integral(t) is t  # no copy: the scan is the whole cost
        assert all(type(x) is int for x in integral(v))

    def test_integral_normalizes_a_bool_to_int(self):
        p = integral((True, False, 2))
        assert p == (1, 0, 2) and all(type(x) is int for x in p)
        assert integral((True, Fraction(1, 2))) == (2, 1)


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
        value, num, den = _simplex_max(c, rows, rhs)
        assert (Fraction(value, den), [Fraction(x, den) for x in num]) == expected
        assert all(type(v) is int for v in (value, *num, den))

    def test_every_lp_of_verify_and_of_a_full_a4_build_is_the_rational_one(self, monkeypatch):
        """The LPs a verify pass and the full A4-LLL chamber build solve, at
        their own sizes (7 variables and up to 14 rows at rank 3, 9
        variables at rank 4), recorded as solved, give the rational
        simplex's value and vertex."""
        from ghostpic import geometry
        from ghostpic.catalog import generate_type_a
        from ghostpic.verify import Verifier

        lps, solve = [], geometry._simplex_max

        def recorded(c, rows, rhs):
            lps.append((list(c), [list(r) for r in rows], list(rhs)))
            return solve(c, rows, rhs)

        monkeypatch.setattr(geometry, "_simplex_max", recorded)
        assert all(r.passed for r in Verifier(paths_per_fixture=50, seed=3).run())
        cat = generate_type_a(4, "LLL")
        chamber_graph(ModuleClass(cat, [m.id for m in cat.indecs]))
        monkeypatch.undo()
        sizes = {(len(c), len(rows)) for c, rows, _ in lps}
        assert (7, 14) in sizes and any(n == 9 for n, _ in sizes)
        for c, rows, rhs in lps:
            value, num, den = _simplex_max(c, rows, rhs)
            assert (Fraction(value, den), [Fraction(x, den) for x in num]) == fraction_simplex_max(c, rows, rhs)

    @settings(max_examples=400, deadline=None)
    @given(integer_cones(), st.data())
    def test_cone_lp_matches_the_rational_one(self, cone, data):
        row = st.tuples(*[st.integers(-3, 3)] * cone.dim)
        slack_rows = tuple(data.draw(st.lists(row, max_size=3)))
        value, num, den = _cone_lp(cone, slack_rows)
        expected = fraction_cone_lp(cone, slack_rows)
        assert (Fraction(value, den), tuple(Fraction(x, den) for x in num)) == expected

    @settings(max_examples=400, deadline=None)
    @given(integer_cones())
    def test_feasible_point_matches_the_rational_one(self, cone):
        point = feasible_point(cone)
        expected = fraction_feasible_point(cone)
        den = lcm(*(x.denominator for x in expected or ()))
        assert (point and tuple(Fraction(x, den) for x in point)) == expected
        if point is not None:
            assert cone.contains(point)


class TestPerClassTables:
    def test_one_table_holds_every_per_class_fact(self, cat_ll, monkeypatch):
        cls = ModuleClass(cat_ll, ["S1", "P3", "I2", "S3"])
        chamber_graph(cls)
        enumerate_ghosts(cls)
        crossing_plan(cls)
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
            first = full6.weakly_admissible_quotients(m, True)
            assert isinstance(first, tuple)
            assert full6.weakly_admissible_quotients(m, True) is first
            every = full6.weakly_admissible_quotients(m, False)
            assert set(first) <= set(every)

    def test_generic_dims_are_built_once_and_extras_merge_after(self, torsion4):
        plan = crossing_plan(torsion4)
        assert crossing_plan(torsion4) is plan
        assert tuple(zip(plan.dims, plan.names)) == (
            ((0, 0, 1), "S3"), ((0, 1, 1), "I2"), ((1, 0, 0), "S1"), ((1, 1, 1), "P3")
        )
        zero = LinearPath((Fraction(0),) * 3, (Fraction(1),) * 3)  # every dim crosses at 0

        def clash(plan):
            with pytest.raises(NonGenericPathError) as err:
                check_generic(zero, plan)
            return err.value.first, err.value.second

        assert clash(plan) == ("S3", "I2")
        ghosts = ghost_plan(torsion4)
        # first name wins: a ghost dim the class already has keeps its name,
        # here the event dim of the extension ghost Gh(S1->P3->I2)
        assert dict(zip(ghosts.dims, ghosts.names))[(1, 1, 1)] == "P3"
        # a new ghost dim is sorted in among the class's
        assert clash(ghosts) == ("S3", "Gh(S2;I2)")

    def test_ghost_plan_is_built_once_per_class(self, torsion4):
        plan = ghost_plan(torsion4)
        assert ghost_plan(torsion4) is plan
        ghosts = enumerate_ghosts(torsion4)
        assert [g for g, _ in plan.ghosts.values()] == list(ghosts)
        assert [c.label for _, c in plan.ghosts.values()] == [g.display() for g in ghosts]
        assert plan.bricks.keys() == crossing_plan(torsion4).bricks.keys()
        # one merged, sorted plan: the class dims and every ghost event and condition dim
        ghost_dims = [g.event_dim for g in ghosts]
        ghost_dims += [torsion4.dim_of(c.obj) for g in ghosts for c in g.conditions]
        class_dims = crossing_plan(torsion4).dims
        assert list(plan.dims) == sorted({*class_dims, *ghost_dims})

    def test_wall_is_built_once_with_its_interior(self, torsion4):
        for m in torsion4.bricks:
            w = wall(torsion4, m)
            assert wall(torsion4, m) is w
            assert w.interior == w.cone.interior()

    def test_graph_carries_its_arrangement(self, case1):
        graph = chamber_graph(case1)
        dims = [graph.walls[b].cone.equalities[0] for b in case1.bricks]
        cells = enumerate_cells(dims)
        assert list(graph.cells) == cells
        assert list(graph.adjacencies) == cell_facet_neighbors(cells, dims)
        assert sorted(c.signs for ch in graph.chambers for c in ch.cells) == sorted(
            c.signs for c in cells
        )

    def test_out_edges_index_matches_a_scan(self, full6):
        graph = chamber_graph(full6)
        for ch in graph.chambers:
            assert list(graph.out_edges(ch.id)) == [e for e in graph.edges if e.src == ch.id]
