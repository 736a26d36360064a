"""The per-class crossing plan: genericity and stability read index-aligned
integer lists, and their verdicts are those of a Fraction reference that
compares crossing times -h.d/k.d; the interior cross-check stays on; paths
take exact coordinates only; `verify` names the first counterexample of a
failed check."""

import itertools
import json
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghostpic import ghosts as ghosts_module
from ghostpic import verify
from ghostpic.catalog import ModuleClass, builtin_kronecker, generate_type_a
from ghostpic.errors import (
    CatalogError,
    GuardExceededError,
    InternalConsistencyError,
    NonGenericPathError,
)
from ghostpic.geometry import Cone, int_dot, integral
from ghostpic.ghosts import (
    ALL_KINDS,
    EXTENSION,
    classify_bifurcations,
    enumerate_ghosts,
    ghost_events,
    ghost_plan,
    ghost_stability,
    order_concurrent,
)
from ghostpic import greenpaths
from ghostpic.greenpaths import (
    LinearPath,
    PathColumns,
    check_generic,
    crossing_schedule,
    is_relatively_stable,
    linear_mgs,
)
from ghostpic.render import export_report
from ghostpic.stability import (
    chamber_graph,
    crossing_plan,
    locate_chamber,
    semistable_columns,
    semistable_set,
    wall,
)
from reference_paths import drawn_paths, point_at, reference_check_generic, reference_crossings
from reference_schedule import reference_ghost_events, reference_schedule
from reference_vectors import dot, proportional

FIXTURES = verify.standard_fixtures()


def time_of(h, k, d) -> Fraction:
    return -dot(h, d) / dot(k, d)


def first_clash(pairs, h, k):
    """The NonGenericPathError arguments for (h, k), or None when generic:
    the (dim, name) pairs in sorted order, each against the first dim seen
    at its time."""
    first_at: dict[Fraction, tuple] = {}
    for d, name in sorted(pairs):
        t = time_of(h, k, d)
        if t in first_at and not proportional(d, first_at[t][0]):
            return first_at[t][1], name, t
        first_at.setdefault(t, (d, name))
    return None


def reference_clash(plan, h, k):
    return first_clash(zip(plan.dims, plan.names), h, k)


def schedule_dims(cls):
    """The (dim, name) pairs a schedule with ghosts depends on, each dim
    under the first name given to it: the class bricks, the sides of their
    walls, then the event and the sides of each subobject and quotient
    ghost."""
    names = {}
    for b in cls.bricks:
        names.setdefault(cls.dim_of(b), b)
    for b in cls.bricks:
        for side in wall(cls, b).sides:
            names.setdefault(side.dim, side.name)
    ghosts = [g for g in enumerate_ghosts(cls) if g.kind != EXTENSION]
    for g in ghosts:
        names.setdefault(g.event_dim, g.display())
    for g in ghosts:
        for c in g.conditions:
            names.setdefault(cls.dim_of(c.obj), repr(c.obj))
    return names.items()


def reference_stable(h, k, event_dim, sides):
    """True or False by crossing times, or "clash" when a non-proportional
    side crosses together with the event."""
    t_event = time_of(h, k, event_dim)
    for s in sides:
        t_side = time_of(h, k, s.dim)
        if t_side == t_event and not proportional(s.dim, event_dim):
            return "clash"
        if (t_side <= t_event) if s.late else (t_side >= t_event):
            return False
    return True


def verdict(decide):
    """decide's value, or the arguments of the NonGenericPathError it raises."""
    try:
        return decide()
    except NonGenericPathError as err:
        return err.first, err.second, err.time


def generic_args(path, plan):
    try:
        check_generic(path, plan)
    except NonGenericPathError as err:
        return err.first, err.second, err.time
    return None


@st.composite
def fixture_paths(draw):
    name = draw(st.sampled_from(sorted(FIXTURES)))
    n = FIXTURES[name].catalog.quiver.n
    h = tuple(draw(st.integers(-9, 9)) for _ in range(n))
    k = tuple(draw(st.integers(1, 9)) for _ in range(n))
    return name, h, k


def routes(h, k):
    """The drawn integer path given three ways, each with the values the
    reference reads: the ints as drawn, the same values as Fractions, and
    h/3, k/2 as Fractions (H = 6; every time is scaled by 2/3, so the order
    of crossings and every verdict are the same)."""
    yield h, k
    yield tuple(map(Fraction, h)), tuple(map(Fraction, k))
    yield tuple(Fraction(x, 3) for x in h), tuple(Fraction(x, 2) for x in k)


class TestPlanMatchesFractionReference:
    """A path that is not generic for the plan is refused with the plan's
    first clash, whatever the event; on a generic path no side crosses
    together with its event, and the verdict is the reference's."""

    @settings(max_examples=300, deadline=None)
    @given(fixture_paths())
    def test_genericity_and_brick_stability(self, drawn):
        name, h0, k0 = drawn
        cls = FIXTURES[name]
        plan = crossing_plan(cls)
        for h, k in routes(h0, k0):
            path = LinearPath(h, k)
            clash = reference_clash(plan, h, k)
            assert generic_args(path, plan) == clash
            for b in cls.bricks:
                expected = reference_stable(h, k, cls.dim_of(b), wall(cls, b).sides)
                assert expected == reference_stable(h0, k0, cls.dim_of(b), wall(cls, b).sides)
                assert clash or expected != "clash"
                assert verdict(lambda: is_relatively_stable(cls, path, b)) == (clash or expected)

    @settings(max_examples=300, deadline=None)
    @given(fixture_paths())
    def test_genericity_and_ghost_stability(self, drawn):
        name, h0, k0 = drawn
        cls = FIXTURES[name]
        plan = ghost_plan(cls)
        ghosts = [g for g, _ in plan.ghosts.values()]
        assert {g.kind for g in ghosts} <= set(ALL_KINDS)
        for h, k in routes(h0, k0):
            path = LinearPath(h, k)
            clash = reference_clash(plan, h, k)
            assert generic_args(path, plan) == clash
            for g in ghosts:
                expected = reference_stable(h, k, g.event_dim, g.sides)
                assert expected == reference_stable(h0, k0, g.event_dim, g.sides)
                assert clash or expected != "clash"
                assert verdict(lambda: ghost_stability(cls, path, g)) == (clash or expected)

    @settings(max_examples=300, deadline=None)
    @given(fixture_paths())
    def test_a_schedule_with_ghosts_clashes_as_the_reference(self, drawn):
        """One plan over every ghost decides the genericity of a schedule
        exactly as the class dims plus the subobject and quotient ghost dims
        do: the same first clash, or none."""
        name, h0, k0 = drawn
        cls = FIXTURES[name]
        for h, k in routes(h0, k0):
            expected = first_clash(schedule_dims(cls), h, k)
            try:
                crossing_schedule(cls, LinearPath(h, k), include_ghosts=True)
            except NonGenericPathError as err:
                assert (err.first, err.second, err.time) == expected
            else:
                assert expected is None

    def test_every_kind_is_drawn_from(self):
        kinds = {g.kind for cls in FIXTURES.values() for g, _ in ghost_plan(cls).ghosts.values()}
        assert kinds == set(ALL_KINDS)

    def test_a_fraction_path_reads_the_same_plan(self):
        cls = FIXTURES["case1"]
        ints = LinearPath((2, -3, 1), (1, 2, 3))
        halves = LinearPath(tuple(Fraction(x, 2) for x in ints.h), tuple(Fraction(x, 2) for x in ints.k))
        plan = crossing_plan(cls)
        block, other = PathColumns.of_paths(plan, [ints]), PathColumns.of_paths(plan, [halves])
        assert (block.keys, block.scale) == (other.keys, other.scale)

    @pytest.mark.parametrize("name", ["torsion4", "case2", "kronecker"])
    def test_a_schedule_with_ghosts_computes_one_pair_of_lists(self, monkeypatch, name):
        """The ghost plan holds every brick crossing too, so a schedule with
        ghosts reads its bricks and its ghosts from one pair of lists, the
        keys and L of the one block it makes, for the ghost plan."""
        cls = FIXTURES[name]
        path = next(drawn_paths(cls, verify.random.Random(7), 1, ghost_plan(cls)))
        made, of_rows = [], PathColumns.of_rows

        def counted(plan, hs, ks):
            made.append(of_rows(plan, hs, ks))
            return made[-1]

        monkeypatch.setattr(PathColumns, "of_rows", counted)
        crossing_schedule(cls, path, include_ghosts=True)
        assert [block.plan for block in made] == [ghost_plan(cls)]


def every_class(catalog):
    ids = [m.id for m in catalog.indecs]
    for size in range(1, len(ids) + 1):
        for bricks in itertools.combinations(ids, size):
            yield ModuleClass(catalog, bricks)


class TestRays:
    """A plan's ``ray`` partitions its dims into lines through the origin:
    ray[i] is the first index whose dim is proportional to dim i, as the
    pairwise 2x2-minor oracle reads it, on the brick plan and the ghost plan
    of every A3 class, of every class over the Kronecker fragment and its
    opposite, and of the fixtures."""

    @staticmethod
    def oracle_ray(dims):
        return tuple(next(j for j in range(i + 1) if proportional(dims[j], d)) for i, d in enumerate(dims))

    def test_the_partition_is_the_proportionality_oracle(self):
        kronecker = builtin_kronecker()
        catalogs = [generate_type_a(3, o) for o in ("LL", "LR", "RL", "RR")] + [kronecker, kronecker.opposite()]
        classes = [cls for catalog in catalogs for cls in every_class(catalog)] + list(FIXTURES.values())
        shared = []
        for cls in classes:
            for plan in (crossing_plan(cls), ghost_plan(cls)):
                assert plan.ray == self.oracle_ray(plan.dims), cls
                shared += [(cls, plan.names[j], plan.names[i]) for i, j in enumerate(plan.ray) if i != j]
        # over the opposite Kronecker fragment, P2's quotient P1+P1 shares the ray of P1
        assert {(cls.bricks, first, other) for cls, first, other in shared} == {
            (("P1", "S2", "P2"), "P1", "P1+P1"),
            (("P1", "S2", "M", "P2"), "P1", "P1+P1"),
        }


class TestRank:
    """A path or a theta whose rank is not the class's is refused, not cut
    to the shorter length."""

    def test_a_path_of_another_rank_is_rejected(self):
        cls = FIXTURES["torsion4"]
        for path in (LinearPath((3, 0, 2, 5), (1, 1, 1, 1)), LinearPath((3, 0), (1, 1))):
            with pytest.raises(CatalogError, match=f"path of rank {len(path.h)} on a class of rank 3"):
                linear_mgs(cls, path)
            with pytest.raises(CatalogError, match=f"path of rank {len(path.h)} on a class of rank 3"):
                crossing_schedule(cls, path, include_ghosts=True)

    def test_a_theta_of_another_rank_is_rejected(self):
        cls = FIXTURES["torsion4"]
        graph = chamber_graph(cls)
        for theta in ((1, 1), (1, 1, 1, 1)):
            with pytest.raises(CatalogError, match=f"theta of rank {len(theta)} on a class of rank 3"):
                semistable_set(cls, theta)
            with pytest.raises(CatalogError, match=f"theta of rank {len(theta)} on a class of rank 3"):
                locate_chamber(graph, theta)


class TestDots:
    """The keys are read from the direct dot products with every plan dim,
    on classes of rank 1, 3, 4 and 5."""

    CLASSES = {
        1: ModuleClass(generate_type_a(1, ""), ["S1"]),
        3: FIXTURES["case2"],
        4: ModuleClass(generate_type_a(4, "LRL"), [m.id for m in generate_type_a(4, "LRL").indecs][:6]),
        5: ModuleClass(generate_type_a(5, "LLLL"), [m.id for m in generate_type_a(5, "LLLL").indecs][:7]),
    }

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from(sorted(CLASSES)), st.data())
    def test_lists_are_the_dot_products(self, rank, data):
        plan = crossing_plan(self.CLASSES[rank])
        h = data.draw(st.tuples(*[st.integers(-9, 9)] * rank))
        k = data.draw(st.tuples(*[st.integers(1, 9)] * rank))
        keys, (scale,) = greenpaths._keyed(plan.dims, [[x] for x in h], [[x] for x in k])
        hd = [int_dot(h, d) for d in plan.dims]
        kd = [int_dot(k, d) for d in plan.dims]
        assert scale == lcm(*kd)
        assert [key for key, in keys] == [a * (scale // b) for a, b in zip(hd, kd)]
        for d, (key,) in zip(plan.dims, keys):
            assert time_of(h, k, d) == Fraction(-key, scale)
        block = PathColumns.of_paths(plan, [LinearPath(h, k)])  # the same keys, if it keeps the path
        assert (block.keys, block.scale) == ((keys, [scale]) if block.size else ([[] for _ in keys], []))


class TestInteriorCrossCheck:
    @pytest.mark.parametrize("name", ["torsion4", "case2", "kronecker"])
    def test_a_cone_that_disagrees_raises(self, monkeypatch, name):
        """An interior that excludes the crossing point of a stable event, or
        contains that of an unstable one, is caught by the second reading."""
        cls = FIXTURES[name]
        plan = crossing_plan(cls)
        path = next(drawn_paths(cls, verify.random.Random(5), 1, plan))
        hd, kd = reference_crossings(path, plan)
        for b, crossing in plan.bricks.items():
            point = point_at(path, -hd[crossing.event], kd[crossing.event])
            stable = is_relatively_stable(cls, path, b)
            excluding = Cone(len(point), strict=(tuple(-x for x in point),))
            wrong = excluding if stable else Cone(len(point))
            assert wrong.contains(point) is not stable
            with monkeypatch.context() as m:
                m.setitem(plan.bricks, b, crossing._replace(interior=wrong))
                with pytest.raises(InternalConsistencyError, match=f"stability of {b}"):
                    is_relatively_stable(cls, path, b)

    def test_linear_mgs_keeps_the_cross_check(self, monkeypatch):
        """A brick interior that disagrees with the time verdict makes
        `linear_mgs` raise, stable brick or not."""
        cls = FIXTURES["torsion4"]
        plan = crossing_plan(cls)
        path = next(drawn_paths(cls, verify.random.Random(5), 1, plan))
        hd, kd = reference_crossings(path, plan)
        for b, crossing in plan.bricks.items():
            point = point_at(path, -hd[crossing.event], kd[crossing.event])
            stable = is_relatively_stable(cls, path, b)
            excluding = Cone(len(point), strict=(tuple(-x for x in point),))
            wrong = excluding if stable else Cone(len(point))
            with monkeypatch.context() as m:
                m.setitem(plan.bricks, b, crossing._replace(interior=wrong))
                with pytest.raises(InternalConsistencyError, match=f"stability of {b}"):
                    linear_mgs(cls, path)
        assert linear_mgs(cls, path)


ORIENTATIONS = ["".join(o) for r in range(4) for o in itertools.product("LR", repeat=r)]


def full_class(orientation):
    cat = generate_type_a(len(orientation) + 1, orientation)
    return ModuleClass(cat, [m.id for m in cat.indecs])


@pytest.mark.parametrize(
    "cls",
    [*FIXTURES.values(), *map(full_class, ORIENTATIONS)],
    ids=[*FIXTURES, *(f"A{len(o) + 1}{o}" for o in ORIENTATIONS)],
)
def test_extension_ghosts_cross_on_class_dims(cls):
    """An extension ghost's event object and side object are class bricks,
    so one ghost plan over every kind has the dims of the subobject and
    quotient ghosts alone."""
    brick_dims = {cls.dim_of(b) for b in cls.bricks}
    for g in enumerate_ghosts(cls):
        if g.kind == EXTENSION:
            assert g.event_dim in brick_dims
            assert {s.dim for s in g.sides} <= brick_dims


class TestGhostOfTheClass:
    def test_an_equal_ghost_is_decided_and_a_different_one_rejected(self):
        """`ghost_stability` reads the class's plan only for a ghost of the
        class: an equal ghost of another instance of the fixture is decided
        the same, a ghost with the same key and another domain is refused."""
        cls, twin = FIXTURES["kronecker"], verify.standard_fixtures()["kronecker"]
        ghosts = enumerate_ghosts(cls)
        path = next(drawn_paths(cls, verify.random.Random(3), 1, ghost_plan(cls)))
        for g, other in zip(ghosts, enumerate_ghosts(twin)):
            assert other is not g and other == g
            assert ghost_stability(cls, path, other) == ghost_stability(cls, path, g)
            foreign = g._replace(domain=Cone(len(g.event_dim)))
            with pytest.raises(CatalogError, match="is not a ghost of"):
                ghost_stability(cls, path, foreign)


class TestExactCoordinates:
    def test_float_coordinates_are_rejected(self):
        with pytest.raises(CatalogError, match=r"h\[0\] = 0\.1 is a float"):
            LinearPath((0.1, 1.0), (1, 1))
        with pytest.raises(CatalogError, match=r"k\[1\] = 2\.0 is a float"):
            LinearPath((1, Fraction(1, 2)), (1, 2.0))

    def test_int_and_fraction_coordinates_give_one_path(self):
        a = LinearPath((3, 0, -2), (1, 4, 1))
        b = LinearPath(tuple(map(Fraction, (3, 0, -2))), tuple(map(Fraction, (1, 4, 1))))
        assert a == b and a._hi == b._hi and a._ki == b._ki
        assert all(type(x) is Fraction for x in a.h + a.k)
        assert all(type(x) is int for x in a._hi + a._ki)

    def test_an_int_path_keeps_its_coordinates(self):
        h, k = (3, 0, -2), (1, 4, 1)
        path = LinearPath(h, k)
        assert (path._hi, path._ki, path._den) == (h, k, 1)
        assert path == LinearPath([3, 0, -2], [1, 4, 1])

    def test_a_bool_coordinate_is_normalized_to_int(self):
        path = LinearPath((True, 0, -2), (1, True, 1))
        assert (path._hi, path._ki, path._den) == ((1, 0, -2), (1, 1, 1), 1)
        assert all(type(x) is int for x in path._hi + path._ki)
        assert path == LinearPath((1, 0, -2), (1, 1, 1))


class TestWorkCounts:
    """What a path, a block and a verify pass do, counted, not timed: a path
    is made integral once, a block computes its time keys once per plan, and
    checks (d) and (e) resolve their plan once per fixture, not once per
    (path, object)."""

    def test_every_path_is_made_integral_once(self, monkeypatch):
        """A path has one construction route, whatever its coordinates: one
        `integral` call over (h, k, 1)."""
        calls = []

        def counted(v):
            calls.append(v)
            return integral(v)

        monkeypatch.setattr("ghostpic.greenpaths.integral", counted)
        given = [((3, 0, -2), (1, 4, 1)), ((Fraction(1, 2), 0, -2), (1, 1, 1)), ((True, 0, -2), (1, 1, 1))]
        for h, k in given:
            LinearPath(h, k)
        assert calls == [(*h, *k, 1) for h, k in given]

    @pytest.mark.parametrize(
        "check, fetch",
        [
            ("check_stability_equivalence", crossing_plan),
            ("check_ghost_stability_equivalence", ghost_plan),
        ],
    )
    def test_a_stability_check_fetches_its_plan_once_per_fixture(self, monkeypatch, check, fetch):
        fetched = []

        def counted(cls):
            fetched.append(cls)
            return fetch(cls)

        # every module that looks the plan up by name
        for module in ("verify", "greenpaths", "ghosts"):
            monkeypatch.setattr(f"ghostpic.{module}.{fetch.__name__}", counted, raising=False)
        checker = verify.Verifier(paths_per_fixture=5, seed=0)
        getattr(checker, check)()
        assert [r.passed for r in checker.results] == [True]
        expected = list(checker.fixtures.values())
        if fetch is ghost_plan:
            expected = [cls for cls in expected if enumerate_ghosts(cls)]
        assert fetched == expected

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_linear_mgs_is_the_schedule_without_its_events(self, monkeypatch, name):
        """`linear_mgs` gives the stable bricks of `crossing_schedule` in its
        order, on int and Fraction paths alike, and raises the schedule's
        NonGenericPathError on a path that is not generic; it builds no
        `Event` (no Fraction time) to do so."""
        cls = FIXTURES[name]
        rng = verify.random.Random(("linear-mgs", name).__repr__())
        n = cls.catalog.quiver.n
        # small coordinates: many drawn paths are not generic
        drawn = [
            ([rng.randint(-3, 3) for _ in range(n)], [rng.randint(1, 3) for _ in range(n)])
            for _ in range(150)
        ]
        drawn.append(([0] * n, [1] * n))  # every dim crosses at t = 0
        nongeneric = 0
        for h, k in drawn:
            scaled = ([Fraction(x, 3) for x in h], [Fraction(x, 2) for x in k])
            for path in (LinearPath(h, k), LinearPath(*scaled)):
                try:
                    expected = [e.label for e in crossing_schedule(cls, path) if e.stable]
                except NonGenericPathError as exc:
                    expected = str(exc)
                with monkeypatch.context() as m:
                    m.setattr("ghostpic.greenpaths.Event", None)
                    try:
                        got = linear_mgs(cls, path)
                    except NonGenericPathError as exc:
                        got = str(exc)
                nongeneric += isinstance(got, str)
                assert got == expected, (h, k)
        assert nongeneric or name == "a1"

    @staticmethod
    def count_scans(monkeypatch):
        """Count the paths keyed: a block takes the lcm of each path's kd."""
        scans = []

        def counted(*kd):
            scans.append(kd)
            return verify.lcm(*kd)

        monkeypatch.setattr("ghostpic.greenpaths.lcm", counted)
        return scans

    def test_a_block_computes_its_crossings_once_per_plan(self, monkeypatch):
        """The genericity of a block, every stability verdict and its MGS
        read its time keys, computed once when the block is made for its
        plan; a call of the stability kernel dots each distinct cone row of
        its crossings with the block's h and k once, and keys nothing again;
        a schedule keys its path once."""
        cls = FIXTURES["case2"]
        plan = ghost_plan(cls)
        paths = list(drawn_paths(cls, verify.random.Random(2), 20, plan))
        reads, combination = [], greenpaths._combination

        def counted(row, cols, size):
            reads.append((row, cols))
            return combination(row, cols, size)

        monkeypatch.setattr(greenpaths, "_combination", counted)
        scans = self.count_scans(monkeypatch)
        block = PathColumns.of_paths(plan, paths)
        assert block.size == len(paths) and len(reads) == 2 * len(plan.dims)
        schedule = [c for c, _, _ in plan.schedule]
        calls = [
            (lambda: greenpaths.stable_verdicts(block, schedule), schedule),
            (lambda: greenpaths.mgs_columns(block), list(plan.bricks.values())),
        ]
        for decide, crossings in calls:
            reads.clear()
            decide()
            rows = [r for c in crossings for part in c.interior[1:] for r in part]
            distinct = sorted(set(rows))
            dotted = lambda cols: sorted(row for row, c in reads if c is cols)
            assert len(distinct) < len(rows)  # some rows are shared by crossings
            assert dotted(block.h) == dotted(block.k) == distinct and len(reads) == 2 * len(distinct)
        assert len(scans) == block.size
        scans.clear()
        crossing_schedule(cls, paths[0], include_ghosts=True)
        assert len(scans) == 1

    def test_the_paths_check_decides_each_drawn_path_once(self, monkeypatch):
        """In the paths-vs-graph check the blocks made of the draws are the
        one genericity decision, made once per candidate: the candidates
        the blocks are made of are those of a path-by-path draw, and each
        is keyed once, kept or refused.  A block carries the keys of the
        kept paths, and their MGS and chamber chains read them, keying
        nothing again."""
        scans = self.count_scans(monkeypatch)
        drawn, candidates = [], []
        draw_blocks, of_columns = verify._generic_blocks, PathColumns.of_columns

        def counted_columns(plan, h, k):
            candidates.extend(zip(zip(*h), zip(*k)))
            return of_columns(plan, h, k)

        def counted_blocks(*args):
            for block in draw_blocks(*args):
                drawn.extend(block.path(p) for p in range(block.size))
                yield block

        monkeypatch.setattr(verify, "_generic_blocks", counted_blocks)
        monkeypatch.setattr(PathColumns, "of_columns", counted_columns)
        monkeypatch.setattr(greenpaths, "_generic_one", None)  # no single-path decision
        checker = verify.Verifier(paths_per_fixture=100, seed=0)
        checker.check_linear_paths_vs_graph()
        assert [r.passed for r in checker.results] == [True]
        assert len(drawn) == 10 * len(checker.fixtures)
        rng = verify.random.Random((checker.seed, "paths-vs-graph").__repr__())
        expected = []  # the candidates drawn and refused one at a time
        for cls in checker.fixtures.values():
            n, plan, kept = cls.catalog.quiver.n, crossing_plan(cls), 0
            while kept < 10:
                h, k = tuple(verify._randints(rng, -9, 9, n)), tuple(verify._randints(rng, 1, 9, n))
                expected.append((h, k))
                try:
                    reference_check_generic(LinearPath(h, k), plan)
                except NonGenericPathError:
                    continue
                kept += 1
        assert candidates == expected and len(expected) > len(drawn)  # some draws were refused
        assert len(scans) == len(candidates)

    def test_the_admissible_check_reads_each_bricks_subobjects_once(self, monkeypatch):
        calls = []
        checker = verify.Verifier(paths_per_fixture=50, seed=0)
        original = ModuleClass.admissible_quotients

        def counted(cls, m, *args, **kwargs):
            calls.append((cls, m))
            return original(cls, m, *args, **kwargs)

        monkeypatch.setattr(ModuleClass, "admissible_quotients", counted)
        checker.check_admissible_subobject()
        assert [r.passed for r in checker.results] == [True]
        assert calls and len(calls) == len(set(calls))


def schedule_or_message(schedule, cls, h, k, include_ghosts):
    """The events of a schedule on a fresh path, or its NonGenericPathError message."""
    try:
        return schedule(cls, LinearPath(h, k), include_ghosts)
    except NonGenericPathError as exc:
        return str(exc)


def concurrent_a3_classes() -> dict[str, ModuleClass]:
    """Every A3 class with two subobject or quotient ghosts whose event dims
    are proportional (they cross together on every path), by orientation
    and bricks."""
    found = {}
    for orient in ("LL", "LR", "RL", "RR"):
        catalog = generate_type_a(3, orient)
        ids = [m.id for m in catalog.indecs]
        for size in range(1, len(ids) + 1):
            for bricks in itertools.combinations(ids, size):
                cls = ModuleClass(catalog, bricks)
                ghosts = [g for g in enumerate_ghosts(cls) if g.kind != EXTENSION]
                if any(proportional(g.event_dim, o.event_dim) for g, o in itertools.combinations(ghosts, 2)):
                    found[f"{orient}:{','.join(bricks)}"] = cls
    return found


CONCURRENT_A3 = concurrent_a3_classes()
SCHEDULED = {**FIXTURES, **CONCURRENT_A3}


class TestOneSchedule:
    """The one-pass schedule gives the events of the two-pass Fraction
    reference, field by field, on every fixture and on every A3 class with
    ghosts that cross together, and `ghost_events` is its ghost part."""

    @staticmethod
    def drawn(name):
        """150 seeded int paths with small coordinates (many not generic, and
        ghosts crossing together), the all-zero h, and each path's twin
        h/3, k/2 in Fractions, which crosses in the same order."""
        n = SCHEDULED[name].catalog.quiver.n
        rng = verify.random.Random(("schedule", name).__repr__())
        paths = [
            ([rng.randint(-3, 3) for _ in range(n)], [rng.randint(1, 3) for _ in range(n)])
            for _ in range(150)
        ]
        paths.append(([0] * n, [1] * n))
        for h, k in list(paths):
            paths.append(([Fraction(x, 3) for x in h], [Fraction(x, 2) for x in k]))
        return paths

    def test_twenty_a3_classes_have_ghosts_that_cross_together(self):
        assert len(CONCURRENT_A3) == 20

    @pytest.mark.parametrize("name", [*sorted(FIXTURES), *sorted(CONCURRENT_A3)])
    def test_the_schedule_is_the_reference(self, name):
        cls = SCHEDULED[name]
        seen = {"generic": 0, "nongeneric": 0, "concurrent": 0}
        for h, k in self.drawn(name):
            for include_ghosts in (False, True):
                got = schedule_or_message(crossing_schedule, cls, h, k, include_ghosts)
                assert got == schedule_or_message(reference_schedule, cls, h, k, include_ghosts)
                if isinstance(got, str):
                    seen["nongeneric"] += 1
                    continue
                seen["generic"] += 1
                seen["concurrent"] += any(e.concurrent for e in got)
                assert all(type(e.t) is Fraction for e in got)
        assert seen["generic"] and (seen["nongeneric"] or name == "a1")
        assert seen["concurrent"] or name not in ("case1", "case2", "mixed5", *CONCURRENT_A3)

    def test_a_second_path_orders_no_concurrent_ghosts(self, monkeypatch):
        """The ghost plan groups and orders the ghosts that cross together
        once per class: a schedule on a second path reads its rows."""
        case1 = FIXTURES["case1"]
        cls = ModuleClass(case1.catalog, case1.bricks)  # a fresh class: no plan yet
        first, second = drawn_paths(cls, verify.random.Random(0), 2, ghost_plan(case1))
        groups = []

        def counted(cls, ghosts):
            groups.append(len(ghosts))
            return order_concurrent(cls, ghosts)

        monkeypatch.setattr(ghosts_module, "order_concurrent", counted)
        assert any(e.concurrent for e in crossing_schedule(cls, first, include_ghosts=True))
        assert max(groups) > 1
        groups.clear()
        assert any(e.concurrent for e in crossing_schedule(cls, second, include_ghosts=True))
        assert groups == []

    @pytest.mark.parametrize("name", ["case1", "case2", "kronecker", "torsion4"])
    def test_ghost_events_are_the_ghost_part_of_the_schedule(self, name):
        cls = FIXTURES[name]
        for h, k in self.drawn(name):
            path = LinearPath(h, k)
            try:
                events = crossing_schedule(cls, path, include_ghosts=True)
            except NonGenericPathError as exc:
                with pytest.raises(NonGenericPathError) as again:
                    ghost_events(cls, LinearPath(h, k))
                assert str(again.value) == str(exc)
                continue
            ghosts = ghost_events(cls, LinearPath(h, k))
            assert ghosts == [e for e in events if e.kind == "ghost"]
            assert sorted(ghosts) == sorted(reference_ghost_events(cls, LinearPath(h, k)))


class TestVerifyFailures:
    def test_a_failing_enumeration_is_not_a_pass(self, monkeypatch):
        def broken(cls, graph=None):
            raise ValueError("broken enumeration")

        monkeypatch.setattr(verify, "enumerate_mgs", broken)
        checker = verify.Verifier(paths_per_fixture=10, seed=0)
        with pytest.raises(ValueError, match="broken enumeration"):
            checker.check_linear_paths_vs_graph()
        assert not any(r.passed for r in checker.results)

    def test_a_guard_abort_skips_only_the_enumerated_comparison(self, monkeypatch):
        def guarded(cls, graph=None):
            raise GuardExceededError("too many sequences", count=10**7)

        monkeypatch.setattr(verify, "enumerate_mgs", guarded)
        checker = verify.Verifier(paths_per_fixture=10, seed=0)
        checker.check_linear_paths_vs_graph()
        assert [r.line() for r in checker.results] == ["[PASS] paths:linear-mgs-traverse-graph"]

    def test_a_bifurcation_wall_meeting_the_child_only_at_zero_fails(self, monkeypatch):
        """The facet of a child domain on its splitting wall must hold a
        nonzero point: torsion4's Gh(P2;P3) split on I2 meets D(I2) only at
        the origin."""
        checker = verify.Verifier(paths_per_fixture=2, seed=0)
        torsion4 = checker.fixtures["torsion4"]

        def split_on_i2(cls):
            report = classify_bifurcations(cls)
            if cls is not torsion4:
                return report
            (b,) = report.bifurcations
            assert b.child[1:3] == ("P2", "P3")
            moved = b._replace(splitting_wall="I2")
            return report._replace(bifurcations=(moved,))

        monkeypatch.setattr(verify, "classify_bifurcations", split_on_i2)
        checker.check_ghost_geometry()
        (result,) = checker.results
        assert not result.passed
        assert "first: torsion4: Gh(P2;P3) from Gh(S2;I2): no facet on D(I2))" in result.line()

    @staticmethod
    def plant_disagreement(monkeypatch):
        """Make the kernel report a disagreement on every (path, crossing)
        that verify decides, worded as planted; returns the (path, label)
        of each decision, block by block and crossing by crossing."""
        seen = []

        def disagree(block, crossings):
            seen.extend((block.path(p), c.label) for c in crossings for p in range(block.size))
            return [([True] * block.size, list(range(block.size))) for _ in crossings]

        def planted(crossing, by_times):
            return InternalConsistencyError(f"stability of {crossing.label}: planted")

        monkeypatch.setattr(verify, "stable_columns", disagree)
        monkeypatch.setattr(verify, "disagreement", planted)
        return seen

    def test_a_failed_check_names_its_first_counterexample(self, monkeypatch):
        seen = self.plant_disagreement(monkeypatch)
        checker = verify.Verifier(paths_per_fixture=2, seed=0)
        checker.check_stability_equivalence()
        (result,) = checker.results
        path, m = seen[0]
        assert m == "S1"
        assert len(seen) == 2 * sum(len(cls.bricks) for cls in checker.fixtures.values())
        assert result.line() == (
            "[FAIL] d:brick-stability-equivalence  (2 paths x 10 fixtures; "
            f"{len(seen)} failures, first: a1: h=({path.h[0]}) k=({path.k[0]}): "
            "stability of S1: planted)"
        )

    def test_a_failed_ghost_check_names_its_first_counterexample(self, monkeypatch):
        seen = self.plant_disagreement(monkeypatch)
        checker = verify.Verifier(paths_per_fixture=2, seed=0)
        checker.check_ghost_stability_equivalence()
        (result,) = checker.results
        name, cls = next((n, c) for n, c in checker.fixtures.items() if enumerate_ghosts(c))
        path, label = seen[0]
        assert label == enumerate_ghosts(cls)[0].display()
        assert len(seen) == 2 * sum(len(enumerate_ghosts(c)) for c in checker.fixtures.values())
        h, k = ",".join(map(str, path.h)), ",".join(map(str, path.k))
        assert result.line() == (
            "[FAIL] e:ghost-stability-equivalence  ("
            f"{len(seen)} failures, first: {name}: h=({h}) k=({k}): "
            f"stability of {label}: planted)"
        )

    def test_a_wall_crossing_failure_names_its_facet_sample_in_exact_rationals(self, monkeypatch):
        """Check (c) probes an edge at the integer point of its first wall
        facet, and the FAIL line names that point exactly (`vec_str`)."""
        checker = verify.Verifier(paths_per_fixture=2, seed=0)
        torsion4 = checker.fixtures["torsion4"]
        edge = next(e for e in chamber_graph(torsion4).edges if (e.src, e.dst) == (1, 6))
        assert (edge.facet.facet_sample, edge.wall_brick) == ((-2, 1, 0), "S3")

        def wrong_at_the_sample(cls, theta):
            found = semistable_columns(cls, theta)
            for p, point in enumerate(zip(*theta)):
                if cls is torsion4 and point == edge.facet.facet_sample:
                    for column in found:
                        column[p] = True
            return found

        monkeypatch.setattr("ghostpic.stability.semistable_columns", wrong_at_the_sample)
        checker.check_wall_crossing()
        (result,) = checker.results
        assert result.line() == (
            "[FAIL] c:wall-crossing-monotone  (149 edges; 1 failures, "
            "first: torsion4: theta0=(-2,1,0) on D(S3))"
        )

    def test_the_report_prints_an_edge_sample_in_exact_rationals(self):
        """The report solves an edge's sample on its facet and prints the
        rational point over its least denominator, not its numerators."""
        torsion4 = verify.standard_fixtures()["torsion4"]
        edges = json.loads(export_report(torsion4))["edges"]
        assert {"from": 1, "to": 6, "wall": "S3", "facet_sample": ["-1", "1/2", "0"]} in edges
