import itertools
import random
import re
from fractions import Fraction

import pytest

from ghostpic import verify
from ghostpic.catalog import ModuleClass, ModuleSum, generate_type_a
from ghostpic.errors import CatalogError, GuardExceededError, InternalConsistencyError
from ghostpic.geometry import enumerate_cells
from ghostpic.stability import (
    chamber_graph,
    enumerate_chambers,
    locate_chamber,
    locate_columns,
    semistable_columns,
    semistable_set,
    semistable_sets,
    wall,
)
from reference_vectors import dot

ETA3 = (Fraction(1), Fraction(1), Fraction(1))

TORSION4_LABELS = [
    set(),
    {"S1"},
    {"S1", "I2", "P3"},
    {"I2", "P3"},
    {"I2"},
    {"S1", "S3"},
    {"S1", "P3", "I2", "S3"},
    {"S3", "I2", "P3"},
    {"S3", "I2"},
    {"S3"},
]


def fixture_and_a3_classes() -> list[ModuleClass]:
    """The ten standard fixtures, then every class over each A3 orientation."""
    classes = list(verify.standard_fixtures().values())
    for orient in ("LL", "LR", "RL", "RR"):
        catalog = generate_type_a(3, orient)
        ids = [m.id for m in catalog.indecs]
        classes += [
            ModuleClass(catalog, bricks)
            for size in range(1, len(ids) + 1)
            for bricks in itertools.combinations(ids, size)
        ]
    return classes


class TestWalls:
    def test_kronecker_minimal(self, kronecker_class):
        w = wall(kronecker_class, "P1")
        assert w.minimal and w.cone.weak == ()
        assert w.cone.equalities == ((1, 0),)
        assert wall(kronecker_class, "M").minimal

    def test_kronecker_p2(self, kronecker_class):
        w = wall(kronecker_class, "P2")
        assert not w.minimal
        assert w.cone.equalities == ((2, 1),)
        assert w.cone.weak == ((1, 1),)

    def test_minimal_brick_class(self, minimal3):
        for b in minimal3.bricks:
            assert wall(minimal3, b).minimal

    def test_torsion4_p3_wall(self, torsion4):
        w = wall(torsion4, "P3")
        assert w.cone.weak == ((0, 1, 1),)

    def test_a_module_outside_the_class_is_refused_as_input(self, torsion4):
        with pytest.raises(CatalogError) as caught:
            wall(torsion4, "P2")
        assert str(caught.value) == f"P2 is not a brick of {torsion4!r}"


class TestSemistableSet:
    def test_eta_gives_everything(self, torsion4, full6, case2, kronecker_class):
        for cls in (torsion4, full6, case2):
            assert semistable_set(cls, ETA3) == frozenset(cls.bricks)
            assert semistable_set(cls, tuple(-x for x in ETA3)) == frozenset()
        eta2 = (Fraction(1), Fraction(1))
        assert semistable_set(kronecker_class, eta2) == frozenset(
            kronecker_class.bricks
        )

    def test_torsion4_chamber_label(self, torsion4):
        graph = chamber_graph(torsion4)
        ch = next(
            c for c in graph.chambers if c.label == frozenset({"I2", "P3"})
        )
        assert semistable_set(torsion4, ch.cells[0].sample) == {"I2", "P3"}

    def test_closed_under_weakly_admissible_quotients(self, full6):
        rng = random.Random(11)
        for _ in range(200):
            theta = tuple(Fraction(rng.randint(-9, 9)) for _ in range(3))
            label = semistable_set(full6, theta)
            for m in label:
                for p in full6.weakly_admissible_quotients(m, True):
                    assert all(i in label for i in p.quot.ids)


    def test_the_definition_on_every_fixture_and_a3_class(self):
        """S(theta), read from the crossing plan, is its definition read from
        the weakly admissible quotients themselves (`definition_cases`)."""
        classes = on_walls = 0
        for cls, thetas, expected in definition_cases(random.Random(22)):
            for theta, wanted in zip(thetas, expected):
                assert semistable_set(cls, theta) == wanted, (cls, theta)
                on_walls += any(theta) and any(wall(cls, m).cone.contains(theta) for m in cls.bricks)
            classes += 1
        assert classes == 262 and on_walls > 1000


def columns(points):
    """A block of points as its coordinate columns."""
    return [list(c) for c in zip(*points)]


def definition_cases(rng):
    """(class, theta, S(theta) by its definition) over the fixtures and
    every A3 class: seeded theta, and points on the hyperplane of each brick
    and quotient dim, so on walls too.  S(theta) by definition is the
    bricks with theta positive on their dim and on the dim of every proper
    weakly admissible quotient."""
    for cls in fixture_and_a3_classes():
        n = cls.catalog.quiver.n
        dims = {
            m: [cls.dim_of(m), *(cls.dim_of(p.quot) for p in cls.weakly_admissible_quotients(m, True))]
            for m in cls.bricks
        }
        thetas = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(10)]
        for d in sorted({d for ds in dims.values() for d in ds}):
            for _ in range(2):  # r projected onto the hyperplane of d, times d.d
                r = [rng.randint(-4, 4) for _ in range(n)]
                thetas.append(tuple(int(dot(d, d) * x - dot(r, d) * y) for x, y in zip(r, d)))
        yield cls, thetas, [{m for m, ds in dims.items() if all(dot(d, t) > 0 for d in ds)} for t in thetas]


class TestKernels:
    """`semistable_columns` and `locate_columns` decide a block of points
    given as columns; `semistable_set` and `locate_chamber` are blocks of
    one."""

    def test_the_membership_columns_are_the_definition_and_the_block_of_one(self):
        classes = 0
        for cls, thetas, expected in definition_cases(random.Random(23)):
            members = semistable_columns(cls, columns(thetas))
            assert [len(m) for m in members] == [len(thetas)] * len(cls.bricks)
            rows = [{b for b, on in zip(cls.bricks, row) if on} for row in zip(*members)]
            assert rows == expected == [semistable_set(cls, t) for t in thetas], cls.bricks
            assert semistable_sets(cls, thetas) == rows
            classes += 1
        assert classes == 262

    def test_a_block_is_located_as_its_points_one_by_one(self):
        rng = random.Random(5)
        for cls in verify.standard_fixtures().values():
            graph = chamber_graph(cls)
            dims = [cls.dim_of(b) for b in cls.bricks]
            n = cls.catalog.quiver.n
            draws = (tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(400))
            thetas = [t for t in draws if all(dot(d, t) for d in dims)]
            ids = locate_columns(graph, columns(thetas))
            assert ids == [locate_chamber(graph, t) for t in thetas]
            assert [graph.chamber(c).label for c in ids] == [semistable_set(cls, t) for t in thetas]

    @pytest.mark.parametrize("name", sorted(verify.standard_fixtures()))
    def test_an_empty_block_decides_no_point(self, name):
        cls = verify.standard_fixtures()[name]
        graph = chamber_graph(cls)
        empty = [[] for _ in range(cls.catalog.quiver.n)]
        assert semistable_sets(cls, []) == []
        assert semistable_columns(cls, empty) == [[] for _ in cls.bricks]
        assert locate_columns(graph, empty) == []

    def test_a_theta_of_another_rank_is_refused_for_the_block(self, torsion4):
        graph = chamber_graph(torsion4)
        for block in (columns([(1, 1), (2, 3)]), columns([(1, 1, 1, 1)])):
            message = f"theta of rank {len(block)} on a class of rank 3"
            with pytest.raises(CatalogError, match=message):
                semistable_columns(torsion4, block)
            with pytest.raises(CatalogError, match=message):
                locate_columns(graph, block)

    def test_the_first_point_on_a_brick_hyperplane_is_named(self, torsion4):
        """Two points of the block lie on brick hyperplanes (theta(S3) = 0,
        then theta(S1) = 0): the first in block order is named, with the
        text of a block of one."""
        graph = chamber_graph(torsion4)
        thetas = [(1, 2, 3), (-1, 2, -3), (4, -1, 0), (2, 2, 2), (0, 5, -1)]
        with pytest.raises(InternalConsistencyError, match=re.escape("(4, -1, 0) lies on a brick hyperplane")):
            locate_columns(graph, columns(thetas))
        for theta in thetas[2::2]:
            with pytest.raises(InternalConsistencyError, match=re.escape(f"{theta} lies on a brick hyperplane")):
                locate_chamber(graph, theta)


class TestChambers:
    def test_torsion4_exactly_ten(self, torsion4):
        chambers = enumerate_chambers(torsion4)
        assert len(chambers) == 10
        labels = sorted(sorted(c.label) for c in chambers)
        assert labels == sorted(sorted(s) for s in TORSION4_LABELS)

    def test_a1(self, a1):
        chambers = enumerate_chambers(a1)
        assert sorted(sorted(c.label) for c in chambers) == [[], ["S1"]]

    def test_kronecker_sampling_oracle(self, kronecker_class):
        """Every integer theta of the box [-60, 60]^2 off the brick lines
        lands in one of the five chambers, and each chamber is hit."""
        chambers = enumerate_chambers(kronecker_class)
        dims = [kronecker_class.dim_of(b) for b in kronecker_class.bricks]
        thetas = [
            theta
            for theta in itertools.product(range(-60, 61), repeat=2)
            if all(dot(d, theta) != 0 for d in dims)
        ]
        labels = {semistable_set(kronecker_class, theta) for theta in thetas}
        assert len(thetas) == 14340
        assert len(chambers) == len(labels) == 5

    def test_label_constant_on_cells(self, torsion4, case2):
        for cls in (torsion4, case2):
            for ch in enumerate_chambers(cls):
                for cell in ch.cells:
                    assert semistable_set(cls, cell.sample) == ch.label


def convex_with_distinct_labels(cls) -> bool:
    """Verify check (g)'s property of a class: its chamber labels are
    pairwise distinct, and each chamber's cells are exactly the cells on its
    side of every one of its bounding walls.  The cells are enumerated
    afresh, not read off the graph."""
    graph = chamber_graph(cls)
    cells = enumerate_cells([cls.dim_of(b) for b in cls.bricks])
    index_of = {b: i for i, b in enumerate(cls.bricks)}
    for ch in graph.chambers:
        sides = [(index_of[w.brick], sign) for w, sign in ch.bounding_walls]
        region = {c.signs for c in cells if all(c.signs[i] == sign for i, sign in sides)}
        if region != {c.signs for c in ch.cells}:
            return False
    labels = [ch.label for ch in graph.chambers]
    return len(set(labels)) == len(labels)


A4 = {w: generate_type_a(4, w) for w in map("".join, itertools.product("LR", repeat=3))}
A4_DRAWS = 30  # distinct seeded A4 classes, about half of them flagged: about 1 s


class TestExtensionClosedClasses:
    """Wherever `flags.extension_closed` reads True, the chambers are convex
    and their labels distinct (check (g)), also on the A3 classes, mixed5
    among them, whose flag misses an extension with a decomposable middle
    term."""

    def test_every_a2_and_a3_class(self):
        flagged = []
        for w in ("L", "R", "LL", "LR", "RL", "RR"):
            catalog = generate_type_a(len(w) + 1, w)
            ids = [m.id for m in catalog.indecs]
            for size in range(1, len(ids) + 1):
                flagged += [
                    cls
                    for cls in (ModuleClass(catalog, b) for b in itertools.combinations(ids, size))
                    if cls.flags.extension_closed
                ]
        assert len(flagged) == 168
        assert [cls for cls in flagged if not convex_with_distinct_labels(cls)] == []

    def test_seeded_a4_classes(self):
        rng = random.Random(4)
        drawn = set()
        while len(drawn) < A4_DRAWS:
            drawn.add((rng.choice(sorted(A4)), tuple(sorted(rng.sample(range(10), rng.randint(1, 10))))))
        flagged = []
        for orient, picks in sorted(drawn):
            catalog = A4[orient]
            cls = ModuleClass(catalog, [catalog.indecs[i].id for i in picks])
            flagged += [cls] if cls.flags.extension_closed else []
        assert flagged and [cls for cls in flagged if not convex_with_distinct_labels(cls)] == []


def check_g(fixtures) -> verify.CheckResult:
    """Verify check (g) run on the given fixtures alone."""
    verifier = verify.Verifier()
    verifier.fixtures = fixtures
    verifier.check_convexity_and_distinct_labels()
    (result,) = verifier.results
    return result


def replace_chamber(graph, chamber):
    chambers = list(graph.chambers)
    chambers[chamber.id] = chamber
    return graph._replace(chambers=tuple(chambers))


class TestConvexityCheck:
    """Check (g) reads each chamber's region off the sign table of the
    graph: a cell is on the chamber's side of every bounding wall iff the
    table puts it in the chamber."""

    def test_the_check_agrees_with_a_scan_of_the_enumerated_cells(self):
        for cls in fixture_and_a3_classes():
            # a flagged class prints its verdict only on FAIL, any other always
            result = check_g({"c": cls})
            assert (result.passed and "False" not in result.detail) == convex_with_distinct_labels(cls), cls

    @staticmethod
    def drop_a_bounding_wall(graph):
        """Chamber 1's region grows across the wall it no longer names."""
        ch = graph.chambers[1]
        return replace_chamber(graph, ch._replace(bounding_walls=ch.bounding_walls[1:]))

    @staticmethod
    def bound_a_chamber_inside_itself(graph):
        """Chamber 3's two cells were merged across a brick hyperplane off
        its walls: bounding the chamber by that hyperplane leaves its second
        cell off its region."""
        ch = graph.chambers[3]
        a, b = (c.signs for c in ch.cells)
        i = next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)
        side = (list(graph.walls.values())[i], a[i])
        return replace_chamber(graph, ch._replace(bounding_walls=ch.bounding_walls + (side,)))

    @staticmethod
    def move_a_cell_across_an_edge(graph):
        """The sign table puts a cell of an edge's source in its target."""
        e = graph.edges[0]
        table = dict(graph.chamber_of_signs)
        table[graph.chamber(e.src).cells[0].signs] = e.dst
        return graph._replace(chamber_of_signs=table)

    @pytest.mark.parametrize(
        "plant", ["drop_a_bounding_wall", "bound_a_chamber_inside_itself", "move_a_cell_across_an_edge"]
    )
    def test_a_planted_non_convex_chamber_fails_the_check(self, monkeypatch, plant):
        fixtures = verify.standard_fixtures()
        torsion4 = fixtures["torsion4"]
        assert torsion4.flags.extension_closed is True
        assert check_g({"torsion4": torsion4}).passed

        def planted(cls):
            graph = chamber_graph(cls)
            return getattr(self, plant)(graph) if cls is torsion4 else graph

        monkeypatch.setattr(verify, "chamber_graph", planted)
        result = check_g(fixtures)
        assert not result.passed
        assert result.detail.endswith("; 1 failures, first: torsion4: convex=False distinct=True")


class TestChamberGraph:
    def test_torsion4_crossing_d_i2_adds_two(self, torsion4):
        graph = chamber_graph(torsion4)
        by_id = {c.id: c.label for c in graph.chambers}
        edges = [
            e
            for e in graph.edges
            if e.wall_brick == "I2" and by_id[e.src] == frozenset({"S1"})
        ]
        assert len(edges) == 1
        assert by_id[edges[0].dst] == frozenset({"S1", "I2", "P3"})

    def test_a1_single_edge(self, a1):
        graph = chamber_graph(a1)
        assert len(graph.edges) == 1
        assert graph.edges[0].src == graph.source
        assert graph.edges[0].dst == graph.sink

    def test_full_class_source_sink_acyclic(self, full6):
        graph = chamber_graph(full6)
        assert all(e.dst != graph.source for e in graph.edges)
        assert all(e.src != graph.sink for e in graph.edges)
        # strict label growth gives acyclicity; verify by topological order
        order = {c.id: len(c.label) for c in graph.chambers}
        for e in graph.edges:
            assert order[e.src] < order[e.dst]

    def test_every_gained_brick_has_an_epimorphism_onto_the_wall(self):
        """The wall-crossing theorem on every edge of every fixture and A3
        class: each brick that becomes semistable across D(B) has a catalog
        pair whose quotient is B and whose submodule is in Filt of the class."""
        classes = fixture_and_a3_classes()
        for cls in classes:
            graph = chamber_graph(cls)
            labels = {c.id: c.label for c in graph.chambers}
            for e in graph.edges:
                target = ModuleSum([e.wall_brick])
                for x in labels[e.dst] - labels[e.src]:
                    assert any(
                        p.quot == target and cls.in_filt(p.sub) for p in cls.catalog.pairs(x)
                    ), (cls, e.wall_brick, x)
        assert len(classes) == 262

    def test_a_missing_epimorphism_onto_the_wall_is_refused(self, cat_ll, monkeypatch):
        """Crossing D(I2) from {S1} makes P3 semistable; with every
        epimorphism P3 ->> I2 hidden from the build, it raises."""
        cls = ModuleClass(cat_ll, ["S1", "P3", "I2", "S3"])  # torsion4, nothing built yet
        quotients = ModuleClass.weakly_admissible_quotients

        def hiding(self, m, proper=True):
            pairs = quotients(self, m, proper)
            if self is cls and m == "P3" and not proper:
                return tuple(p for p in pairs if p.quot != ModuleSum(["I2"]))
            return pairs

        monkeypatch.setattr(ModuleClass, "weakly_admissible_quotients", hiding)
        message = "no weakly admissible epimorphism P3 ->> I2 although P3 becomes semistable across D(I2)"
        with pytest.raises(InternalConsistencyError, match=re.escape(message)):
            chamber_graph(cls)

    def test_wall_crossing_signs(self, torsion4):
        graph = chamber_graph(torsion4)
        for e in graph.edges:
            d = torsion4.dim_of(e.wall_brick)
            assert dot(d, graph.chamber(e.src).cells[0].sample) < 0
            assert dot(d, graph.chamber(e.dst).cells[0].sample) > 0
            assert dot(d, e.facet.facet_sample) == 0

    def test_an_edge_holds_its_first_wall_facet(self, full6):
        """The facet the report solves an edge's sample on is the first
        adjacency on the wall's hyperplane that joins the edge's chambers."""
        graph = chamber_graph(full6)
        chamber = graph.chamber_of_signs
        for e in graph.edges:
            i = full6.bricks.index(e.wall_brick)
            joining = [
                a
                for a in graph.adjacencies
                if a.hyperplane_index == i and {chamber[a.cell_a.signs], chamber[a.cell_b.signs]} == {e.src, e.dst}
            ]
            assert e.facet == joining[0]

    def test_locate_chamber(self, torsion4):
        graph = chamber_graph(torsion4)
        for c in graph.chambers:
            assert locate_chamber(graph, c.cells[0].sample) == c.id

    def test_bounding_walls_have_signs(self, torsion4):
        graph = chamber_graph(torsion4)
        for c in graph.chambers:
            for w, sign in c.bounding_walls:
                assert sign in (1, -1)
                val = dot(torsion4.dim_of(w.brick), c.cells[0].sample)
                assert (val > 0) == (sign == 1)


class TestOneBuildPerClass:
    def test_graph_is_built_once(self, torsion4):
        assert chamber_graph(torsion4) is chamber_graph(torsion4)

    def test_enumerate_chambers_reads_the_graph(self, cat_lr):
        cls = ModuleClass(cat_lr, ["S1", "P2", "S2", "I3", "I1"])
        chambers = enumerate_chambers(cls)
        assert chambers == list(chamber_graph(cls).chambers)

    def test_lowered_guard_raises_for_a_built_graph(self, torsion4, monkeypatch):
        chamber_graph(torsion4)
        monkeypatch.setenv("GHOSTPIC_GUARD", str(len(torsion4.bricks) - 1))
        with pytest.raises(GuardExceededError):
            chamber_graph(torsion4)
        with pytest.raises(GuardExceededError):
            enumerate_chambers(torsion4)
