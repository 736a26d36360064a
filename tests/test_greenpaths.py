import gc
import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghostpic.catalog import ModuleClass, ModuleSum, generate_type_a
from ghostpic.errors import CatalogError, NonGenericPathError
from ghostpic.greenpaths import (
    Event,
    LinearPath,
    Mgs,
    check_hn_minimality,
    check_mgs_maximality,
    check_relative_hom_orthogonality,
    count_mgs,
    crossing_schedule,
    enumerate_mgs,
    filtration_exists,
    find_linear_path,
    hn_stratification,
    is_relatively_stable,
    linear_mgs,
    resolve_mgs,
    weakly_admissible_morphism_witness,
)
from ghostpic.stability import chamber_graph
from reference_paths import point_on_path
from reference_vectors import dot

ONES = (Fraction(1), Fraction(1), Fraction(1))


@cache
def type_a(n, orient):
    return generate_type_a(n, orient)


def path3(h, k=ONES):
    return LinearPath(tuple(Fraction(x) for x in h), tuple(Fraction(x) for x in k))


def time_of(path, d) -> Fraction:
    return -dot(path.h, d) / dot(path.k, d)


# frozen realizations; orders verified against the crossing-time formula
LEFT_PATH = path3((3, 0, 2))       # S1, S3, I2 for the torsion4 class
RIGHT_PATH = path3((-1, 4, 2))     # I2, S3, P3, S1 for the torsion4 class
CASE1_PATH = path3((0, 3, 1))      # S2 < I2 < P2 < P3 < S3 < S1 crossing times


class TestCrossingSchedule:
    def test_a1(self, a1):
        path = LinearPath((Fraction(-1),), (Fraction(1),))
        schedule = crossing_schedule(a1, path)
        assert [(e.label, e.stable) for e in schedule] == [("S1", True)]

    def test_case1_event_order_and_flags(self, case1):
        schedule = crossing_schedule(case1, CASE1_PATH)
        assert [(e.label, e.stable) for e in schedule] == [
            ("S2", True),
            ("I2", False),
            ("P2", True),
            ("P3", False),
            ("S3", True),
        ]

    def test_crossing_times_sorted(self, case1):
        schedule = crossing_schedule(case1, CASE1_PATH)
        times = [e.t for e in schedule]
        assert times == sorted(times)
        for e in schedule:
            point = point_on_path(CASE1_PATH, e.t)
            assert sum(
                a * b for a, b in zip(case1.dim_of(e.label), point)
            ) == 0

    def test_is_the_tuple_of_its_events(self, a1):
        path = LinearPath((Fraction(-1),), (Fraction(1),))
        assert crossing_schedule(a1, path) == (Event(Fraction(1), "brick", "S1", True),)

    def test_non_generic_rejected(self, torsion4):
        with pytest.raises(NonGenericPathError):
            crossing_schedule(torsion4, path3((0, 0, 0)))


class TestRelativeStability:
    def test_minimal_always_stable(self, minimal3):
        rng = random.Random(3)
        for _ in range(50):
            h = tuple(Fraction(rng.randint(-9, 9)) for _ in range(3))
            try:
                path = path3(h)
                for b in minimal3.bricks:
                    assert is_relatively_stable(minimal3, path, b)
            except NonGenericPathError:
                continue

    def test_case1_i2_unstable(self, case1):
        assert not is_relatively_stable(case1, CASE1_PATH, "I2")
        assert is_relatively_stable(case1, CASE1_PATH, "S3")

    def test_a_module_outside_the_class_is_refused_as_input(self, torsion4):
        """Like `ghost_stability` for a foreign ghost: a bad argument, not a
        broken invariant."""
        with pytest.raises(CatalogError) as caught:
            is_relatively_stable(torsion4, LEFT_PATH, "P2")
        assert str(caught.value) == f"P2 is not a brick of {torsion4!r}"


class TestLinearMgs:
    def test_torsion4_left_and_right(self, torsion4):
        assert linear_mgs(torsion4, LEFT_PATH) == ["S1", "S3", "I2"]
        assert linear_mgs(torsion4, RIGHT_PATH) == ["I2", "S3", "P3", "S1"]

    def test_a1(self, a1):
        assert linear_mgs(a1, LinearPath((Fraction(-2),), (Fraction(1),))) == ["S1"]

    def test_search_finds_quoted_sequences(self, torsion4):
        for target in (("S1", "S3", "I2"), ("I2", "S3", "P3", "S1")):
            path = find_linear_path(torsion4, target)
            assert path is not None
            assert tuple(linear_mgs(torsion4, path)) == target


class TestEnumerateMgs:
    def test_torsion4_contains_quoted(self, torsion4):
        seqs = {m.walls for m in enumerate_mgs(torsion4)}
        assert ("S1", "S3", "I2") in seqs
        assert ("I2", "S3", "P3", "S1") in seqs

    def test_some_mgs_omits_p3(self, torsion4):
        seqs = [m.walls for m in enumerate_mgs(torsion4)]
        assert any("P3" not in s for s in seqs)

    def test_a1(self, a1):
        assert [m.walls for m in enumerate_mgs(a1)] == [("S1",)]

    def test_lexicographic_order(self, torsion4):
        seqs = [m.walls for m in enumerate_mgs(torsion4)]
        assert seqs == sorted(seqs)

    def test_chamber_paths_are_graph_paths(self, torsion4):
        graph = chamber_graph(torsion4)
        for mgs in enumerate_mgs(torsion4, graph):
            assert mgs.chamber_ids[0] == graph.source
            assert mgs.chamber_ids[-1] == graph.sink
            for (a, b), w in zip(
                zip(mgs.chamber_ids, mgs.chamber_ids[1:]), mgs.walls
            ):
                assert any(
                    e.src == a and e.dst == b and e.wall_brick == w
                    for e in graph.edges
                )

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(orient=st.text(alphabet="LR", max_size=3), data=st.data())
    def test_count_is_the_enumeration(self, orient, data):
        """count_mgs, a path count over the chamber graph, is the number of
        sequences enumerate_mgs lists, on random classes of type A1-A4."""
        catalog = type_a(len(orient) + 1, orient)
        picks = data.draw(st.sets(st.integers(0, len(catalog.indecs) - 1), min_size=1))
        cls = ModuleClass(catalog, [catalog.indecs[i].id for i in sorted(picks)])
        graph = chamber_graph(cls)
        assert count_mgs(graph) == len(enumerate_mgs(cls, graph))


class TestHomOrthogonality:
    def test_quoted_sequence(self, torsion4):
        ok, witness = check_relative_hom_orthogonality(torsion4, ["S1", "S3", "I2"])
        assert ok and witness is None

    def test_i2_before_s3_allowed(self, torsion4):
        # the only map I2 -> S3 has kernel S2 outside Filt, so not weakly
        # admissible and the pair stays orthogonal
        assert weakly_admissible_morphism_witness(torsion4, "I2", "S3") is None

    def test_p3_onto_i2_blocks(self, full6):
        ok, witness = check_relative_hom_orthogonality(full6, ["P3", "I2"])
        assert not ok
        assert witness[2] == ModuleSum(["I2"])

    def test_every_enumerated_mgs_is_orthogonal(self, torsion4, case2, case4, case5):
        for cls in (torsion4, case2, case4, case5):
            for mgs in enumerate_mgs(cls):
                ok, _ = check_relative_hom_orthogonality(cls, list(mgs.walls))
                assert ok


class TestMaximality:
    def test_quoted_mgs_maximal(self, torsion4):
        graph = chamber_graph(torsion4)
        mgs = resolve_mgs(graph, ["S1", "S3", "I2"])
        assert check_mgs_maximality(torsion4, mgs)

    def test_a1(self, a1):
        graph = chamber_graph(a1)
        assert check_mgs_maximality(a1, resolve_mgs(graph, ["S1"]))

    def test_truncation_not_maximal(self, torsion4):
        # [S1, S3] admits the insertion of I2 at the end
        truncated = Mgs(("S1", "S3"), ())
        assert not check_mgs_maximality(torsion4, truncated)
        ok, _ = check_relative_hom_orthogonality(torsion4, ["S1", "S3", "I2"])
        assert ok


class TestHn:
    def test_single_term(self, torsion4):
        graph = chamber_graph(torsion4)
        for mgs in enumerate_mgs(torsion4, graph):
            for i, b in enumerate(mgs.walls, start=1):
                hn = hn_stratification(torsion4, graph, mgs, ModuleSum([b]))
                assert hn.layers == ((i, 1),)

    def test_p3_layers(self, torsion4):
        graph = chamber_graph(torsion4)
        mgs = resolve_mgs(graph, ["S1", "S3", "I2"])
        hn = hn_stratification(torsion4, graph, mgs, ModuleSum(["P3"]))
        # S1 at position 1, I2 at position 3, nothing from S3; the only
        # dimension-vector solution uses S1 and I2 once each, realized by
        # the chain S1 < P3
        assert hn.layers == ((1, 1), (3, 1))
        assert filtration_exists(torsion4, ModuleSum(["P3"]), ("S1", "S3", "I2"))
        assert not filtration_exists(torsion4, ModuleSum(["P3"]), ("S3",))

    def test_dim_additivity_all_mgs(self, full6):
        graph = chamber_graph(full6)
        for mgs in enumerate_mgs(full6, graph):
            hn = hn_stratification(full6, graph, mgs, ModuleSum(["P3"]))
            total = [0, 0, 0]
            for i, mult in hn.layers:
                d = full6.dim_of(mgs.walls[i - 1])
                total = [a + mult * b for a, b in zip(total, d)]
            assert tuple(total) == (1, 1, 1)

    def test_rejects_non_member(self, minimal3):
        graph = chamber_graph(minimal3)
        mgs = enumerate_mgs(minimal3, graph)[0]
        with pytest.raises(CatalogError):
            hn_stratification(minimal3, graph, mgs, ModuleSum(["S1"]))


class TestHnMinimality:
    def test_all_torsion4_mgs(self, torsion4):
        graph = chamber_graph(torsion4)
        for mgs in enumerate_mgs(torsion4, graph):
            assert check_hn_minimality(torsion4, mgs)

    def test_a1(self, a1):
        graph = chamber_graph(a1)
        assert check_hn_minimality(a1, resolve_mgs(graph, ["S1"]))

    def test_duplicates_rejected(self, torsion4):
        with pytest.raises(CatalogError):
            check_hn_minimality(torsion4, Mgs(("S1", "S1", "S3", "I2"), ()))


class TestLastCrossing:
    def test_brick_in_mgs_iff_quotients_cross_earlier(self, torsion4, case1, case2):
        rng = random.Random(17)
        for cls in (torsion4, case1, case2):
            count = 0
            while count < 50:
                h = tuple(Fraction(rng.randint(-9, 9)) for _ in range(3))
                try:
                    path = path3(h)
                    stable = set(linear_mgs(cls, path))
                except NonGenericPathError:
                    continue
                count += 1
                for b in cls.bricks:
                    t_b = time_of(path, cls.dim_of(b))
                    quots_before = all(
                        time_of(path, cls.dim_of(p.quot)) < t_b
                        for p in cls.weakly_admissible_quotients(b, True)
                    )
                    assert (b in stable) == quots_before


class TestNoCyclicGarbage:
    def test_mgs_and_hn_walks_leave_no_reference_cycles(self, full6):
        graph = chamber_graph(full6)
        everything = ModuleSum(full6.bricks)
        for mgs in enumerate_mgs(full6, graph):  # fill the per-class tables first
            hn_stratification(full6, graph, mgs, everything)
        gc.collect()
        gc.disable()
        try:
            for mgs in enumerate_mgs(full6, graph):
                hn_stratification(full6, graph, mgs, everything)
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert unreachable == 0
