import random
from fractions import Fraction

import pytest

from ghostpic.catalog import ModuleClass, ModuleSum
from ghostpic.errors import GuardExceededError
from ghostpic.geometry import dot
from ghostpic.stability import (
    chamber_graph,
    enumerate_chambers,
    locate_chamber,
    semistable_set,
    wall,
)

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


class TestSemistableSet:
    def test_eta_gives_everything(self, torsion4, full6, case2, kronecker_class):
        for cls in (torsion4, full6, case2):
            assert semistable_set(cls, ETA3).bricks == frozenset(cls.bricks)
            assert semistable_set(cls, tuple(-x for x in ETA3)).bricks == frozenset()
        eta2 = (Fraction(1), Fraction(1))
        assert semistable_set(kronecker_class, eta2).bricks == frozenset(
            kronecker_class.bricks
        )

    def test_torsion4_chamber_label(self, torsion4):
        graph = chamber_graph(torsion4)
        ch = next(
            c for c in graph.chambers if c.label.bricks == frozenset({"I2", "P3"})
        )
        assert semistable_set(torsion4, ch.sample).bricks == {"I2", "P3"}

    def test_closed_under_weakly_admissible_quotients(self, full6):
        rng = random.Random(11)
        for _ in range(200):
            theta = tuple(Fraction(rng.randint(-9, 9)) for _ in range(3))
            label = semistable_set(full6, theta)
            for m in label.bricks:
                for p in full6.weakly_admissible_quotients(m):
                    assert all(i in label for i in p.quot.ids)


class TestChambers:
    def test_torsion4_exactly_ten(self, torsion4):
        chambers = enumerate_chambers(torsion4)
        assert len(chambers) == 10
        labels = sorted(sorted(c.label.bricks) for c in chambers)
        assert labels == sorted(sorted(s) for s in TORSION4_LABELS)

    def test_a1(self, a1):
        chambers = enumerate_chambers(a1)
        assert sorted(sorted(c.label.bricks) for c in chambers) == [[], ["S1"]]

    def test_kronecker_sampling_oracle(self, kronecker_class):
        chambers = enumerate_chambers(kronecker_class)
        rng = random.Random(13)
        labels = set()
        for _ in range(10**5):
            theta = (Fraction(rng.randint(-60, 60)), Fraction(rng.randint(-60, 60)))
            if any(
                dot(kronecker_class.dim_of(b), theta) == 0
                for b in kronecker_class.bricks
            ):
                continue
            labels.add(semistable_set(kronecker_class, theta).bricks)
        assert len(chambers) == len(labels) == 5

    def test_label_constant_on_cells(self, torsion4, case2):
        for cls in (torsion4, case2):
            for ch in enumerate_chambers(cls):
                for cell in ch.cells:
                    assert semistable_set(cls, cell.sample).bricks == ch.label.bricks


class TestChamberGraph:
    def test_torsion4_crossing_d_i2_adds_two(self, torsion4):
        graph = chamber_graph(torsion4)
        by_id = {c.id: c.label.bricks for c in graph.chambers}
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
        order = {c.id: len(c.label.bricks) for c in graph.chambers}
        for e in graph.edges:
            assert order[e.src] < order[e.dst]

    def test_edges_carry_witnesses(self, torsion4):
        graph = chamber_graph(torsion4)
        by_id = {c.id: c.label.bricks for c in graph.chambers}
        for e in graph.edges:
            gained = by_id[e.dst] - by_id[e.src]
            assert {w[0] for w in e.witnesses} == gained
            for x, tag in e.witnesses:
                pair = next(
                    p for p in torsion4.catalog.pairs(x) if p.tag == tag
                )
                assert pair.quot == ModuleSum([e.wall_brick])
                assert torsion4.in_filt(pair.sub)

    def test_wall_crossing_signs(self, torsion4):
        graph = chamber_graph(torsion4)
        for e in graph.edges:
            d = torsion4.dim_of(e.wall_brick)
            assert dot(d, graph.chamber(e.src).sample) < 0
            assert dot(d, graph.chamber(e.dst).sample) > 0
            assert dot(d, e.facet_sample) == 0

    def test_locate_chamber(self, torsion4):
        graph = chamber_graph(torsion4)
        for c in graph.chambers:
            assert locate_chamber(graph, c.sample) == c.id

    def test_bounding_walls_have_signs(self, torsion4):
        graph = chamber_graph(torsion4)
        for c in graph.chambers:
            for w, sign in c.bounding_walls:
                assert sign in (1, -1)
                val = dot(torsion4.dim_of(w.brick), c.sample)
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
