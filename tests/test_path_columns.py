"""The column kernel of `greenpaths` against the scalar reference of
`reference_paths`: a block keeps the paths the reference finds generic, in
order, with the reference keys, `stable_columns` gives the reference verdict
and interior cross-check, path by path, and the lists of the crossing-point
kernel it replaced, block by block, and the single-path `check_generic`
(a block of one) gives the reference keys or error, on both plans of every
standard fixture and on random type-A classes.  Every single-path entry
refuses the paths `check_generic` refuses, with its message."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghostpic.catalog import ModuleClass, generate_type_a
from ghostpic.errors import CatalogError, InternalConsistencyError, NonGenericPathError
from ghostpic.geometry import Cone, int_dot
from ghostpic.ghosts import ghost_plan, ghost_stability, mgs_with_ghosts
from ghostpic.greenpaths import (
    LinearPath,
    PathColumns,
    check_generic,
    crossing_schedule,
    disagreement,
    is_relatively_stable,
    linear_mgs,
    stable_columns,
)
from ghostpic.stability import crossing_plan
from ghostpic.verify import standard_fixtures
from reference_columns import crossing_point_columns
from reference_paths import reference_check_generic, reference_stable_along

FIXTURES = standard_fixtures()


def outcome(decide, *args):
    """decide's value, or the type and text of the error it raises."""
    try:
        return decide(*args)
    except (NonGenericPathError, InternalConsistencyError) as exc:
        return type(exc), str(exc)


def generic(path, plan) -> bool:
    return not raises(outcome(reference_check_generic, path, plan))


def scalar(path, plan, crossing):
    """The reference stability outcome on one path."""
    return outcome(reference_stable_along, path, plan, crossing)


def kernel(paths, plan, crossing):
    """`stable_columns` on the block of the paths, read back per kept path
    in the form of `scalar`."""
    ((by_times, disagree),) = stable_columns(PathColumns.of_paths(plan, paths), [crossing])
    out = list(by_times)
    for p in disagree:
        out[p] = InternalConsistencyError, str(disagreement(crossing, by_times[p]))
    return out


def variants(plan, crossing):
    """The crossing, and the same with interiors that disagree with its
    time criterion: negated, the whole space, the closed cone, and the
    half-space theta(event) >= 0, which holds every crossing point on its
    boundary."""
    n = crossing.interior.dim
    return [
        crossing,
        crossing._replace(interior=crossing.interior.negated()),
        crossing._replace(interior=Cone(n)),
        crossing._replace(interior=crossing.interior.closure()),
        crossing._replace(interior=Cone(n, weak=(plan.dims[crossing.event],))),
    ]


def raises(outcome) -> bool:
    return type(outcome) is tuple and outcome[0] is NonGenericPathError


def assert_block_keeps_the_generic_paths(paths, plan):
    """The block of the paths holds those the reference finds generic, in
    order, with their reference keys and scale."""
    block = PathColumns.of_paths(plan, paths)
    kept = [p for p in paths if generic(p, plan)]
    rows = lambda cols, p: tuple(c[p] for c in cols)
    assert [(rows(block.h, p), rows(block.k, p)) for p in range(block.size)] == [(p._hi, p._ki) for p in kept]
    assert [(list(rows(block.keys, p)), block.scale[p]) for p in range(block.size)] == [
        reference_check_generic(p, plan) for p in kept
    ]
    assert block.plan is plan


def assert_kernel_is_scalar(paths, plan):
    """The block of the paths, the outcome of `check_generic` on each, and
    for each crossing of the plan (and its variants) the outcome on the
    generic paths, on the whole block (which drops the others), and on
    each generic path alone."""
    assert_block_keeps_the_generic_paths(paths, plan)
    for path in paths:
        assert outcome(check_generic, path, plan) == outcome(reference_check_generic, path, plan)
    calm = [p for p in paths if generic(p, plan)]
    crossings = [*plan.bricks.values(), *(c for _, c in plan.ghosts.values())]
    for crossing in (v for c in crossings for v in variants(plan, c)):
        want = [scalar(p, plan, crossing) for p in calm]
        assert not any(map(raises, want))
        assert kernel(calm, plan, crossing) == want
        assert kernel(paths, plan, crossing) == want
        for path, one in zip(calm, want):
            assert kernel([path], plan, crossing) == [one]
    assert kernel([], plan, crossings[0]) == []


def small_paths(rng, n, count):
    """Paths with small coordinates, so that many are not generic; every
    fourth one has h and k over a common denominator H > 1."""
    paths = []
    for i in range(count):
        h = [rng.randint(-2, 2) for _ in range(n)]
        k = [rng.randint(1, 2) for _ in range(n)]
        if i % 4 == 3:
            h, k = [Fraction(x, 3) for x in h], [Fraction(x, 2) for x in k]
        paths.append(LinearPath(h, k))
    return paths


@pytest.mark.parametrize("name", sorted(FIXTURES))
@pytest.mark.parametrize("which", ["bricks", "ghosts"])
def test_the_kernel_is_the_scalar_reference_on_every_fixture(name, which):
    cls = FIXTURES[name]
    plan = crossing_plan(cls) if which == "bricks" else ghost_plan(cls)
    rng = random.Random(("columns", name, which).__repr__())
    paths = small_paths(rng, cls.catalog.quiver.n, 60)
    paths += [LinearPath([rng.randint(-9, 9) for _ in p.h], [rng.randint(1, 9) for _ in p.h]) for p in paths]
    assert not all(generic(p, plan) for p in paths) or len(plan.dims) == 1
    assert_kernel_is_scalar(paths, plan)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(orient=st.text(alphabet="LR", max_size=3), data=st.data())
def test_the_kernel_is_the_scalar_reference_on_random_classes(orient, data):
    """Type-A classes with n <= 4 and random brick subsets, on both plans."""
    catalog = generate_type_a(len(orient) + 1, orient)
    picks = data.draw(st.sets(st.integers(0, len(catalog.indecs) - 1), min_size=1))
    cls = ModuleClass(catalog, [catalog.indecs[i].id for i in sorted(picks)])
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    paths = small_paths(rng, catalog.quiver.n, 12)
    assert_kernel_is_scalar(paths, crossing_plan(cls))
    assert_kernel_is_scalar(paths, ghost_plan(cls))


def test_a_block_drops_its_non_generic_paths():
    """A block of paths that cross a brick and its side together, with a
    generic path among them, keeps the generic path alone, whatever comes
    before or after it; `is_relatively_stable` refuses each dropped path
    with the first clash of the plan, as the reference names it."""
    cls = FIXTURES["torsion4"]
    plan = crossing_plan(cls)
    crossing = next(c for c in plan.bricks.values() if c.sides)
    fine = next(p for p in small_paths(random.Random(0), 3, 200) if generic(p, plan))
    bad = [p for p in small_paths(random.Random(1), 3, 400) if isinstance(scalar(p, plan, crossing), tuple)]
    assert len(bad) >= 2 and scalar(bad[0], plan, crossing) != scalar(bad[1], plan, crossing)
    assert kernel([bad[1], fine, bad[0]], plan, crossing) == [scalar(fine, plan, crossing)]
    for path in bad:
        with pytest.raises(NonGenericPathError) as caught:
            is_relatively_stable(cls, path, crossing.label)
        assert (NonGenericPathError, str(caught.value)) == outcome(reference_check_generic, path, plan)


def refusal(decide, *args):
    """The message of the NonGenericPathError decide raises, or None."""
    try:
        decide(*args)
    except NonGenericPathError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_every_single_path_entry_refuses_the_same_paths(name):
    """`check_generic`, `is_relatively_stable`, `ghost_stability`,
    `linear_mgs`, `mgs_with_ghosts` and `crossing_schedule` with and
    without ghosts refuse exactly the paths the reference finds not generic
    for their plan, each with the reference's message."""
    cls = FIXTURES[name]
    paths = small_paths(random.Random(("refusals", name).__repr__()), cls.catalog.quiver.n, 40)
    bricks, ghosts = crossing_plan(cls), ghost_plan(cls)
    refused = {"bricks": 0, "ghosts": 0}
    for path in paths:
        entries = {
            "bricks": (bricks, [(linear_mgs, cls, path), (crossing_schedule, cls, path, False)]
                       + [(is_relatively_stable, cls, path, b) for b in cls.bricks]),
            "ghosts": (ghosts, [(crossing_schedule, cls, path, True), (mgs_with_ghosts, cls, path)]
                       + [(ghost_stability, cls, path, g) for g, _ in ghosts.ghosts.values()]),
        }
        for which, (plan, calls) in entries.items():
            want = refusal(reference_check_generic, path, plan)
            assert refusal(check_generic, path, plan) == want
            assert [refusal(*call) for call in calls] == [want] * len(calls), which
            refused[which] += want is not None
    assert all(0 < n < len(paths) for n in refused.values()) or name == "a1"


def test_a_path_of_the_wrong_rank_is_refused():
    plan = crossing_plan(FIXTURES["kronecker"])
    with pytest.raises(CatalogError, match="path of rank 3 on a class of rank 2"):
        PathColumns.of_rows(plan, [(1, 2, 3)], [(1, 1, 1)])


def test_a_selection_keeps_its_paths_and_their_crossings():
    """The block keys every path when it is made and keeps exactly the
    paths the reference finds generic for its plan, in order, with their
    reference keys: those over a common denominator H > 1 too."""
    paths = small_paths(random.Random(2), 3, 60)
    for plan in (crossing_plan(FIXTURES["full6"]), ghost_plan(FIXTURES["full6"])):
        assert 0 < sum(generic(p, plan) for p in paths) < len(paths)
        assert_block_keeps_the_generic_paths(paths, plan)


def stress_paths(rng, n, count):
    """Paths that stress the integer keys, over Fraction and large integer
    coordinates: h = -T*k + w/10**6, on which every dim crosses within a
    few millionths of T and some cross together; h and k with coordinates
    up to 10**9, whose lcm L of the k.d exceeds 2**64; and h = -T*k + w
    with such a k, whose dims cross within about 10**-8 of T."""
    paths = []
    for _ in range(count):
        t = Fraction(rng.randint(-50, 50), rng.randint(1, 7))
        k = [rng.randint(1, 9) for _ in range(n)]
        w = [rng.randint(-2, 2) for _ in range(n)]
        paths.append(LinearPath([-t * b + Fraction(c, 10**6) for b, c in zip(k, w)], k))
        big = [rng.randint(1, 10**9) for _ in range(n)]
        paths.append(LinearPath([rng.randint(-(10**9), 10**9) for _ in range(n)], big))
        paths.append(LinearPath([-t * b + c for b, c in zip(big, w)], big))
    return paths


@pytest.mark.parametrize("name", ["full6", "mixed5", "case4"])
@pytest.mark.parametrize("which", ["bricks", "ghosts"])
def test_the_keys_decide_near_ties_and_large_coordinates(name, which):
    cls = FIXTURES[name]
    plan = crossing_plan(cls) if which == "bricks" else ghost_plan(cls)
    paths = stress_paths(random.Random(("stress", name, which).__repr__()), cls.catalog.quiver.n, 8)
    scale = PathColumns.of_paths(plan, paths).scale
    assert max(scale) > 2**64
    gaps = set()  # the times between two non-proportional dims on a generic path
    for path in paths:
        if generic(path, plan):
            times = sorted(
                {-int_dot(path._hi, d) / Fraction(int_dot(path._ki, d)) for d in plan.dims}
            )
            gaps.update(b - a for a, b in zip(times, times[1:]))
    assert 0 < min(gaps) <= Fraction(1, 10**6)
    assert not all(generic(p, plan) for p in paths)
    assert_kernel_is_scalar(paths, plan)


SRC = Path(__file__).resolve().parent.parent / "src" / "ghostpic"


def test_a_block_is_decided_under_its_own_plan():
    """A block is made for one plan and carries its keys: no function of the
    path, ghost or verify layers takes a block and a plan beside it, and the
    path layer defines no `time_keys` to key a block for another plan."""
    for module in ("greenpaths", "ghosts", "verify"):
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        for f in ast.walk(tree):
            if isinstance(f, (ast.FunctionDef, ast.Lambda)):
                a = f.args
                names = {x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs)}
                assert not {"block", "plan"} <= names, f"{module}:{f.lineno}"
        if module == "greenpaths":
            defined = {n.name for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
            assert "time_keys" not in defined


def own_nodes(tree):
    """(qualified function name, node) for every node of the module, each
    under the innermost function holding it ("<module>" outside any)."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            yield scope or "<module>", child
            yield from visit(child, scope)

    return visit(tree, "")


def test_a_path_is_refused_in_one_place_and_a_plan_is_never_patched():
    """`NonGenericPathError` is raised by `greenpaths._generic_one` alone,
    and no function of the package assigns to, or deletes, an attribute of
    a plan: a plan is a finished NamedTuple."""
    raisers, patched = set(), []
    for source in sorted(SRC.glob("*.py")):
        for scope, node in own_nodes(ast.parse(source.read_text(encoding="utf-8"))):
            where = f"{source.stem}.{scope}"
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "NonGenericPathError":
                    raisers.add(where)
            target = None
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
                target = node.value
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("setattr", "delattr"):
                target = node.args[0]
            if isinstance(target, ast.Name) and "plan" in target.id.lower():
                patched.append(f"{where}:{node.lineno}")
    assert raisers == {"greenpaths._generic_one"}
    assert patched == []
    plan = crossing_plan(FIXTURES["torsion4"])
    assert isinstance(plan, tuple) and plan._fields == ("dims", "names", "ray", "bricks", "ghosts", "schedule")
    with pytest.raises(AttributeError):
        plan.schedule = ()


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_the_kernel_gives_the_lists_of_the_crossing_point_kernel(name):
    """On blocks drawn for the fixture's brick plan and ghost plan, one
    `stable_columns` call gives, crossing by crossing, the time verdicts and
    disagreements of the kernel that read each crossing's interior at its
    crossing point; a crossing with one planted wrong cone row disagrees on
    some paths, and on the same ones."""
    from ghostpic.verify import _generic_blocks

    cls = FIXTURES[name]
    rng = random.Random(("columns", name).__repr__())
    plans = [crossing_plan(cls)] + ([ghost_plan(cls)] if ghost_plan(cls).ghosts else [])
    disagreed = 0
    for plan in plans:
        crossings = [*plan.bricks.values(), *(c for _, c in plan.ghosts.values())]
        first = crossings[0]
        wrong = first._replace(interior=first.interior.with_strict((1,) + (0,) * (first.interior.dim - 1)))
        crossings.append(wrong)  # theta_1 > 0 does not hold at every stable crossing point
        for block in _generic_blocks(cls, rng, 600, plan):
            got = stable_columns(block, crossings)
            assert got == [crossing_point_columns(block, c) for c in crossings]
            assert got[0][1] == []
            disagreed += len(got[-1][1])
    assert disagreed
