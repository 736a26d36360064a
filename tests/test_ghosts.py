import itertools
import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghostpic.catalog import ModuleClass, ModuleSum, dump_catalog, generate_type_a, load_catalog
from ghostpic.errors import CatalogError
from ghostpic.geometry import Cone, cone_contains_cone, cone_equal, feasible_point
from ghostpic.ghosts import (
    EXTENSION,
    QUOTIENT,
    SUBOBJECT,
    classify_bifurcations,
    dualize,
    enumerate_ghosts,
    extension_ghost_domain,
    format_schedule,
    ghost_stability,
    mgs_with_ghosts,
    quotient_ghost_domain,
    subobject_ghost_domain,
)
from ghostpic.greenpaths import LinearPath, NonGenericPathError, crossing_schedule
from ghostpic.verify import _dual_labels

ONES = (Fraction(1), Fraction(1), Fraction(1))


def path3(h, k=ONES):
    return LinearPath(tuple(Fraction(x) for x in h), tuple(Fraction(x) for x in k))


def ghost_by(cls_ghosts, kind, a, b):
    return next(g for g in cls_ghosts if g.kind == kind and (g.a, g.b) == (a, b))


@cache
def type_a(n, orient):
    return generate_type_a(n, orient)


@cache
def loaded_type_a(n, orient):
    return load_catalog(dump_catalog(generate_type_a(n, orient)))


def a3_classes(orient):
    """Every class of at least two bricks over the A3 orientation."""
    catalog = type_a(3, orient)
    ids = [m.id for m in catalog.indecs]
    for size in range(2, len(ids) + 1):
        for bricks in itertools.combinations(ids, size):
            yield ModuleClass(catalog, bricks)


def transport_failures(cls):
    """Where the ghosts of the class and of its dual class disagree under the
    duality: the census, or a transported domain and its twin's domain, each
    tested for containment both ways."""
    duality = dualize(cls)
    ghosts = enumerate_ghosts(cls)
    dual = {g.key(): g for g in enumerate_ghosts(duality.dual_class)}
    if sorted(duality.transport_key(g.key()) for g in ghosts) != sorted(dual):
        return [f"{cls!r}: census"]
    failures = []
    for g in ghosts:
        twin = dual[duality.transport_key(g.key())].domain
        moved = duality.transport_domain(g.domain)
        if not cone_contains_cone(twin, moved):
            failures.append(f"{cls!r}: {g.display()}'s twin misses part of its domain")
        if not cone_contains_cone(moved, twin):
            failures.append(f"{cls!r}: {g.display()}'s twin reaches past its domain")
    return failures


def tokens(cls, h):
    schedule = crossing_schedule(cls, path3(h), include_ghosts=True)
    return format_schedule(schedule)


class TestCensus:
    def test_kronecker(self, kronecker_class):
        ghosts = enumerate_ghosts(kronecker_class)
        assert [(g.kind, g.a, g.b, g.c) for g in ghosts] == [
            (EXTENSION, "P1", "P2", "M"),
            (QUOTIENT, "P1", "M", "S2"),
        ]

    def test_minimal3_three_minimal_subobject_ghosts(self, minimal3):
        ghosts = enumerate_ghosts(minimal3)
        assert sorted((g.a, g.b) for g in ghosts) == [
            ("P2", "P3"),
            ("S1", "P3"),
            ("S2", "I2"),
        ]
        assert all(g.kind == SUBOBJECT and g.minimal for g in ghosts)

    def test_mixed5_all_three_kinds(self, mixed5):
        keys = sorted(g.key() for g in enumerate_ghosts(mixed5))
        assert keys == [
            (EXTENSION, "P2", "P3", "S3"),
            (EXTENSION, "S1", "P3", "I2"),
            (QUOTIENT, "S1", "P2", "S2"),
            (SUBOBJECT, "S2", "I2", "S3"),
        ]

    def test_full6_extension_census(self, full6):
        ghosts = enumerate_ghosts(full6)
        assert all(g.kind == EXTENSION for g in ghosts)
        assert sorted((g.a, g.b, g.c) for g in ghosts) == [
            ("P2", "P3", "S3"),
            ("S1", "P2", "S2"),
            ("S1", "P3", "I2"),
            ("S2", "I2", "S3"),
        ]
        assert sorted((g.a, g.b, g.c) for g in ghosts if g.minimal) == [
            ("S1", "P2", "S2"),
            ("S2", "I2", "S3"),
        ]

    def test_census_is_built_once(self, mixed5):
        ghosts = enumerate_ghosts(mixed5)
        assert isinstance(ghosts, tuple)
        assert enumerate_ghosts(mixed5) is ghosts


class TestDomains:
    def test_minimal_subobject_half_hyperplane(self, minimal3):
        g = ghost_by(enumerate_ghosts(minimal3), SUBOBJECT, "S2", "I2")
        cone = subobject_ghost_domain(minimal3, g)
        assert cone.equalities == ((0, 1, 0),)
        assert cone.weak == ((0, 1, 1),)

    def test_case3_side_condition(self, torsion4):
        g = ghost_by(enumerate_ghosts(torsion4), SUBOBJECT, "P2", "P3")
        cone = subobject_ghost_domain(torsion4, g)
        assert (1, 1, 1) in cone.weak  # theta(P3) >= 0
        assert (-1, 0, 0) in cone.weak  # theta(S1) <= 0, splitting wall side
        assert not g.minimal

    def test_case1_common_quotient_condition(self, case1):
        g = ghost_by(enumerate_ghosts(case1), SUBOBJECT, "S1", "P3")
        cone = subobject_ghost_domain(case1, g)
        assert (0, 0, 1) in cone.weak  # theta(S3) >= 0 from Y = S3

    def test_kronecker_quotient_domain(self, kronecker_class):
        g = ghost_by(enumerate_ghosts(kronecker_class), QUOTIENT, "P1", "M")
        cone = quotient_ghost_domain(kronecker_class, g)
        assert cone.equalities == ((0, 1),)
        assert cone.weak == ((-1, -1),)  # theta(M) <= 0: below the wall of M
        assert g.minimal

    def test_quotient_with_minimal_ends_single_inequality(self, mixed5):
        g = ghost_by(enumerate_ghosts(mixed5), QUOTIENT, "S1", "P2")
        assert g.minimal
        assert quotient_ghost_domain(mixed5, g).weak == ((-1, -1, 0),)

    def test_extension_domains_and_overlap(self, mixed5):
        ghosts = enumerate_ghosts(mixed5)
        ga = ghost_by(ghosts, EXTENSION, "S1", "P3")
        gb = ghost_by(ghosts, EXTENSION, "P2", "P3")
        ca = extension_ghost_domain(mixed5, ga)
        cb = extension_ghost_domain(mixed5, gb)
        assert ca.equalities == ((1, 1, 1),) and ca.weak == ((0, -1, -1),)
        assert cb.equalities == ((1, 1, 1),) and cb.weak == ((0, 0, -1),)
        overlap = Cone(3, ca.equalities, ca.weak + cb.weak)
        assert feasible_point(overlap.interior()) is not None

    def test_kronecker_extension_domain(self, kronecker_class):
        g = ghost_by(enumerate_ghosts(kronecker_class), EXTENSION, "P1", "P2")
        cone = extension_ghost_domain(kronecker_class, g)
        assert cone.equalities == ((2, 1),)
        assert cone.weak == ((-1, -1),)

    def test_kind_mismatch_raises(self, minimal3):
        g = enumerate_ghosts(minimal3)[0]
        with pytest.raises(CatalogError):
            quotient_ghost_domain(minimal3, g)

    def test_domain_shrinkage(self, torsion4, case1, case2, case4, case5):
        from ghostpic.geometry import cone_contains_cone

        for cls in (torsion4, case1, case2, case4, case5):
            for g in enumerate_ghosts(cls):
                if g.kind != SUBOBJECT or g.minimal:
                    continue
                half = Cone(
                    3,
                    equalities=g.domain.equalities,
                    weak=(cls.dim_of(g.b),),
                )
                assert cone_contains_cone(half, g.domain)


class TestStability:
    def test_case2_stable_run(self, case2):
        # all bricks and both ghosts stable on the frozen path
        ghosts = enumerate_ghosts(case2)
        path = path3((0, 3, 1))
        za = ghost_by(ghosts, SUBOBJECT, "S3", "P2")
        zb = ghost_by(ghosts, SUBOBJECT, "S3", "I3")
        assert ghost_stability(case2, path, za)
        assert ghost_stability(case2, path, zb)

    def test_case2_unstable_variants(self, case2):
        ghosts = enumerate_ghosts(case2)
        za = ghost_by(ghosts, SUBOBJECT, "S3", "P2")
        zb = ghost_by(ghosts, SUBOBJECT, "S3", "I3")
        # the splitting wall D(S1) crosses before the ghosts
        assert not ghost_stability(case2, path3((1, 3, 0)), za)
        assert ghost_stability(case2, path3((1, 3, 0)), zb)
        # the middle term P2 crosses before the end term I1
        assert not ghost_stability(case2, path3((0, 4, 3)), za)
        assert ghost_stability(case2, path3((0, 4, 3)), zb)

    def test_minimal_ghost_needs_c_before_b(self, minimal3):
        # stable iff t_C < t_B, i.e. iff S3 crosses before I2
        g = ghost_by(enumerate_ghosts(minimal3), SUBOBJECT, "S2", "I2")
        assert ghost_stability(minimal3, g=g, path=path3((1, 0, 4)))
        assert not ghost_stability(minimal3, g=g, path=path3((1, 4, 0)))

    def test_random_cross_check_never_disagrees(self, case1, case2, case4, case5, full6):
        rng = random.Random(23)
        for cls in (case1, case2, case4, case5, full6):
            ghosts = enumerate_ghosts(cls)
            done = 0
            while done < 40:
                h = tuple(Fraction(rng.randint(-9, 9)) for _ in range(3))
                try:
                    for g in ghosts:
                        ghost_stability(cls, path3(h), g)  # raises on mismatch
                except NonGenericPathError:
                    continue
                done += 1


class TestMgsWithGhosts:
    def test_case1_strings(self, case1):
        assert tokens(case1, (0, 3, 1)) == [
            "S2",
            "(I2)",
            "P2",
            "(P3)",
            "S3",
            "Gh(S1;P3)",
            "Gh(S1;P2)",
        ]
        assert tokens(case1, (1, 0, 4)) == [
            "S3",
            "I2",
            "P3",
            "Gh(S1;P3)",
            "P2",
            "S2",
        ]

    def test_case2_strings(self, case2):
        assert tokens(case2, (0, 3, 1)) == [
            "S2",
            "I3",
            "I1",
            "P2",
            "Gh(S3;I3)",
            "Gh(S3;P2)",
            "S1",
        ]
        assert tokens(case2, (1, 3, 0)) == ["S2", "I1", "I3", "P2", "S1", "Gh(S3;I3)"]
        assert tokens(case2, (0, 4, 3)) == ["S2", "I3", "Gh(S3;I3)", "P2", "I1", "S1"]

    def test_case4_unique_string(self, case4):
        assert tokens(case4, (1, 0, 4)) == [
            "S3",
            "I2",
            "P3",
            "Gh(S1;P3)",
            "Gh(P2;P3)",
            "S2",
        ]

    def test_case5_string(self, case5):
        assert tokens(case5, (4, 0, 5)) == [
            "S3",
            "S1",
            "I2",
            "Gh(P3;I2)",
            "P1",
            "Gh(S2;P1)",
        ]

    def test_case3_strings(self, torsion4):
        left = mgs_with_ghosts(torsion4, path3((3, 0, 2)))
        assert [e.label for e in left] == ["S1", "S3", "I2", "Gh(S2;I2)"]
        right = mgs_with_ghosts(torsion4, path3((-1, 4, 2)))
        assert [e.label for e in right] == ["I2", "S3", "P3", "Gh(P2;P3)", "S1"]

    def test_deleting_ghosts_recovers_linear_mgs(self, case1, case2, case4, case5):
        from ghostpic.greenpaths import linear_mgs

        rng = random.Random(29)
        for cls in (case1, case2, case4, case5):
            done = 0
            while done < 25:
                h = tuple(Fraction(rng.randint(-9, 9)) for _ in range(3))
                try:
                    events = mgs_with_ghosts(cls, path3(h))
                    plain = linear_mgs(cls, path3(h))
                except NonGenericPathError:
                    continue
                done += 1
                assert [e.label for e in events if e.kind == "brick"] == plain

    def test_concurrent_flag(self, case2):
        schedule = crossing_schedule(case2, path3((0, 3, 1)), include_ghosts=True)
        ghosts = [e for e in schedule if e.kind == "ghost"]
        assert len(ghosts) == 2
        assert all(e.concurrent for e in ghosts)
        assert ghosts[0].t == ghosts[1].t

    def test_a1_equals_linear_mgs(self, a1):
        path = LinearPath((Fraction(-1),), (Fraction(1),))
        events = mgs_with_ghosts(a1, path)
        assert [e.label for e in events] == ["S1"]

    def test_kronecker_quotient_ghost_crossing(self, kronecker_class):
        # below the wall of M the ghost of the missing simple is stable and
        # crossed first; above it the ghost is unstable
        below = LinearPath((Fraction(0), Fraction(2)), (Fraction(1), Fraction(1)))
        events = mgs_with_ghosts(kronecker_class, below)
        assert [e.label for e in events] == ["Gh*(S2;M)", "M", "P2", "P1"]
        above = LinearPath((Fraction(1), Fraction(0)), (Fraction(1), Fraction(1)))
        schedule = crossing_schedule(kronecker_class, above, include_ghosts=True)
        assert format_schedule(schedule) == ["P1", "(P2)", "M"]


class TestBifurcations:
    def expect(self, cls, child, parent, case, wall):
        report = classify_bifurcations(cls)
        got = [
            ((b.child[1], b.child[2]), (b.parent[1], b.parent[2]), b.case, b.splitting_wall)
            for b in report.bifurcations
        ]
        assert got == [(child, parent, case, wall)], got
        return report

    def test_case1(self, case1):
        report = self.expect(case1, ("S1", "P3"), ("S1", "P2"), 1, "S3")
        assert report.bifurcations[0].wall_kind == "quotient-splitting"

    def test_case2(self, case2):
        report = self.expect(case2, ("S3", "P2"), ("S3", "I3"), 2, "S1")
        assert report.bifurcations[0].wall_kind == "subobject-splitting"

    def test_case3(self, torsion4):
        self.expect(torsion4, ("P2", "P3"), ("S2", "I2"), 3, "S1")

    def test_case4(self, case4):
        self.expect(case4, ("S1", "P3"), ("P2", "P3"), 4, "S2")

    def test_case5(self, case5):
        report = self.expect(case5, ("P3", "I2"), ("S2", "P1"), 5, "S3")
        assert report.bifurcations[0].wall_kind == "quotient-splitting"

    @pytest.mark.parametrize("orient", ["LL", "LR", "RL", "RR"])
    def test_every_side_of_a_non_minimal_ghost_is_reported(self, orient):
        # over every A3 class: a splitting wall is a class brick, and each
        # nonzero-case side condition of a non-minimal subobject or quotient
        # ghost is a bifurcation or an unclassified entry
        failures = []
        for cls in a3_classes(orient):
            report = classify_bifurcations(cls)
            reported = {(b.child, b.case, b.splitting_wall) for b in report.bifurcations}
            reported |= {(child, case, None) for child, case, _ in report.unclassified}
            failures += [
                f"{cls!r}: D({b.splitting_wall}) is no wall of the class"
                for b in report.bifurcations
                if not cls.contains_indec(b.splitting_wall)
            ]
            for g in enumerate_ghosts(cls):
                if g.kind == EXTENSION or g.minimal:
                    continue
                for cond in g.conditions[1:]:
                    wall = cond.obj.ids[0] if cond.obj.is_indec() else None
                    if not {(g.key(), cond.case, wall), (g.key(), cond.case, None)} & reported:
                        failures.append(f"{cls!r}: {g.display()} case {cond.case} ({cond.obj})")
        assert failures == []

    def test_full6_extension_links(self, full6):
        report = classify_bifurcations(full6)
        links = sorted(
            (l.child[1:], l.parent[1:], l.splitting_wall)
            for l in report.extension_links
        )
        assert links == [
            (("P2", "P3", "S3"), ("S1", "P2", "S2"), "S3"),
            (("S1", "P3", "I2"), ("S2", "I2", "S3"), "S1"),
        ]

    def test_no_pathological_in_torsion_fixtures(self, torsion4, case1, case2, case4, case5):
        for cls in (torsion4, case1, case2, case4, case5):
            report = classify_bifurcations(cls)
            assert report.pathological == ()

    def test_child_facet_on_splitting_wall(self, torsion4, case1, case2, case4, case5):
        for cls in (torsion4, case1, case2, case4, case5):
            ghosts = enumerate_ghosts(cls)
            by_key = {g.key(): g for g in ghosts}
            for b in classify_bifurcations(cls).bifurcations:
                child = by_key[b.child]
                parent = by_key[b.parent]
                wall_dim = cls.dim_of(b.splitting_wall)
                assert any(feasible_point(child.domain.with_equality(wall_dim)))  # not just 0
                for sgn in (1, -1):
                    side = parent.domain.with_strict(tuple(sgn * x for x in wall_dim))
                    assert feasible_point(side) is not None


class TestDuality:
    @pytest.mark.parametrize("orient", ["LL", "LR", "RL", "RR"])
    def test_every_a3_class_transports(self, orient):
        failures = [f for cls in a3_classes(orient) for f in transport_failures(cls)]
        assert failures == []

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        orient=st.text(alphabet="LR", min_size=3, max_size=3),
        picks=st.sets(st.integers(0, 9), min_size=2),
    )
    def test_random_a4_classes_transport(self, orient, picks):
        catalog = type_a(4, orient)
        cls = ModuleClass(catalog, [catalog.indecs[i].id for i in sorted(picks)])
        assert transport_failures(cls) == []

    def test_torsion4_quotient_census(self, torsion4):
        duality = dualize(torsion4)
        subs = [g for g in enumerate_ghosts(torsion4) if g.kind == SUBOBJECT]
        dual_ghosts = enumerate_ghosts(duality.dual_class)
        got = sorted(g.key() for g in dual_ghosts if g.kind == QUOTIENT)
        assert got == sorted(duality.transport_key(g.key()) for g in subs)

    def test_domains_correspond(self, torsion4):
        duality = dualize(torsion4)
        dual_ghosts = {g.key(): g for g in enumerate_ghosts(duality.dual_class)}
        for g in enumerate_ghosts(torsion4):
            if g.kind != SUBOBJECT:
                continue
            twin = dual_ghosts[duality.transport_key(g.key())]
            assert cone_equal(twin.domain, duality.transport_domain(g.domain))

    def test_mgs_reversal(self, torsion4):
        # the dual class keeps the brick ids: the opposite's S1 stands for D(S1)
        duality = dualize(torsion4)
        path = path3((3, 0, 2))
        orig = [e.label for e in mgs_with_ghosts(torsion4, path)]
        dual = [
            e.label
            for e in mgs_with_ghosts(duality.dual_class, duality.transport_path(path))
        ]
        assert orig == ["S1", "S3", "I2", "Gh(S2;I2)"]
        assert dual == ["Gh*(S2;I2)", "I2", "S3", "S1"]

    def test_labels_transport_by_ghost_key(self, cat_ll, torsion4):
        """verify's check (h) maps a label through the ghost's key: a quotient
        ghost becomes its dual subobject ghost, and back."""
        for cls, expected in (
            (ModuleClass(cat_ll, ("S2", "I2")), {"Gh*(S3;I2)": "Gh(S3;I2)"}),
            (torsion4, {
                "Gh(S2;I2)": "Gh*(S2;I2)",
                "Gh(P2;P3)": "Gh*(P2;P3)",
                "Gh(S1->P3->I2)": "Gh(I2->P3->S1)",
            }),
        ):
            duality = dualize(cls)
            dual_ghosts = {g.key(): g for g in enumerate_ghosts(duality.dual_class)}
            labels = _dual_labels(duality, enumerate_ghosts(cls), dual_ghosts)
            assert labels == expected

    def test_flags_swap(self, torsion4):
        duality = dualize(torsion4)
        assert duality.dual_class.flags.is_torsion_free is True
        assert duality.dual_class.flags.is_torsion is False

    def test_double_dual_identity(self, torsion4):
        duality = dualize(torsion4)
        double = dualize(duality.dual_class)
        assert double.dual_class.bricks == torsion4.bricks
        assert dump_catalog(double.dual_class.catalog) == dump_catalog(torsion4.catalog)
        keys = [g.key() for g in enumerate_ghosts(torsion4)]
        assert [double.transport_key(duality.transport_key(k)) for k in keys] == keys
        assert [g.key() for g in enumerate_ghosts(double.dual_class)] == keys

    @settings(max_examples=75, deadline=None, derandomize=True)
    @given(orient=st.text(alphabet="LR", max_size=3), data=st.data())
    def test_the_double_dual_of_a_loaded_class_is_the_class(self, orient, data):
        """Over a catalog read back from its dump, with n <= 4 and a random
        brick subset: the class dualized twice has the class's ghost keys,
        and each ghost's domain is its twin's."""
        catalog = loaded_type_a(len(orient) + 1, orient)
        picks = data.draw(st.sets(st.integers(0, len(catalog.indecs) - 1), min_size=1))
        cls = ModuleClass(catalog, [catalog.indecs[i].id for i in sorted(picks)])
        double = dualize(dualize(cls).dual_class).dual_class
        ghosts = {g.key(): g for g in enumerate_ghosts(cls)}
        twins = {g.key(): g for g in enumerate_ghosts(double)}
        assert list(twins) == list(ghosts)
        assert all(cone_equal(twins[key].domain, g.domain) for key, g in ghosts.items())

    def test_one_opposite_per_catalog(self, torsion4):
        assert dualize(torsion4).dual_class.catalog is dualize(torsion4).dual_class.catalog

    def test_every_kronecker_class_transports(self, kronecker):
        ids = [m.id for m in kronecker.indecs]
        classes = [
            ModuleClass(kronecker, bricks)
            for size in range(1, len(ids) + 1)
            for bricks in itertools.combinations(ids, size)
        ]
        assert len(classes) == 15
        assert [f for cls in classes for f in transport_failures(cls)] == []
