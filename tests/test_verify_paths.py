"""The random linear paths of `ghostpic verify`: the draws are pinned, drawn
a block at a time they are the draws made path by path, checks (d) and (e)
decide them in columns with the verdicts and first counterexamples of the
path-by-path loop, and the chamber chain read at integer probes is the chain
read at Fraction probes."""

import gc
import hashlib
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghostpic import verify
from ghostpic.catalog import ModuleClass, builtin_kronecker, generate_type_a
from ghostpic.errors import NonGenericPathError
from ghostpic.ghosts import enumerate_ghosts, ghost_plan
from ghostpic.greenpaths import LinearPath, PathColumns, linear_mgs, stable_columns
from ghostpic.stability import chamber_graph, crossing_plan
from ghostpic.verify import (
    Verifier,
    _chamber_chains,
    _generic_blocks,
    _path_str,
    _randints,
    standard_fixtures,
)
from reference_chain import fraction_chamber_chain
from reference_paths import drawn_paths, reference_check_generic, reference_stable_along

FIXTURES = standard_fixtures()

# SHA-256 of the (h, k) of the first 200 draws per fixture, generic for the
# crossing plan and for the ghost plan, which adds the ghost event and
# condition dims.  Recorded on the commit before the draws became a generator
# of integer paths.
DRAW_DIGESTS = {
    "a1": (
        "26979173a797b374b51de4fb7f5d3b6ee3249fb6e4a7c3e713c22177da95592a",
        "26979173a797b374b51de4fb7f5d3b6ee3249fb6e4a7c3e713c22177da95592a",
    ),
    "torsion4": (
        "3923674308e3e2e2ab5420d8dd0fabdf8dd33de6801af6f41a41fcf23f669589",
        "9a2ad24292cd683efe039a74c7e781d9092da283d1e12c44cc4ac6f97f2d80d2",
    ),
    "minimal3": (
        "92214d4654d2622cc62ad31104416479371ccccdb32271f1db6d124a81d5b435",
        "49cdac675b10f0751791dffd556c0feb3365e8b5e8b056a21b072e752295fa05",
    ),
    "case1": (
        "d0f3859993840390395c22f51ac325b5320170f74f9320d61b69abcec854de90",
        "b9b2b4b0b0b64a6d314a900845b53182d44687453e87b7027944926ff40ee29d",
    ),
    "case2": (
        "7d93b9d39b2728b53b04b673c5e701d13a86fa05fd88ff935328cad2363179e2",
        "dd424744566e66dac2a0d081f133fc4cc9a9c725ed0a411b7631701c6d90f02c",
    ),
    "case4": (
        "95f8fc70bc491bbf7266263f868e7705a6cf449f459baed1013f37d917039512",
        "89aa87ff8da4455c279146fe19a7443cb574e92d036977111338c842e1cd9b21",
    ),
    "case5": (
        "54b9c0e557a1d0d58996a71961902311ef2532d4903c9c0c7c68a1b3261a5dc0",
        "837fdc9a4ab0d88cb81d942548b48bd2c195f02f247ad664c7dccbb1537d0663",
    ),
    "mixed5": (
        "d2d97deab9da3019da070bc6e4d4006b67c6bed8c960b05186b8af65468066bc",
        "d2d97deab9da3019da070bc6e4d4006b67c6bed8c960b05186b8af65468066bc",
    ),
    "full6": (
        "694b1a1b4370463d5abd02210c8b142f4c2268707cc725334a68b23190fafcbb",
        "694b1a1b4370463d5abd02210c8b142f4c2268707cc725334a68b23190fafcbb",
    ),
    "kronecker": (
        "a2f26df3cea79d692ffec374d16f03762c7457e7a06151e6a1cd21b897a1919d",
        "a2f26df3cea79d692ffec374d16f03762c7457e7a06151e6a1cd21b897a1919d",
    ),
}


def ghost_dims(cls):
    """Each ghost's event dim, then the dims of its condition objects."""
    ghosts = enumerate_ghosts(cls)
    dims = [(g.event_dim, g.display()) for g in ghosts]
    for g in ghosts:
        for cond in g.conditions:
            dims.append((cls.dim_of(cond.obj), repr(cond.obj)))
    return dims


def draws_digest(name, cls, plan):
    rng = random.Random(("pinned-draws", name).__repr__())
    digest = hashlib.sha256()
    for path in list(drawn_paths(cls, rng, 200, plan)):
        line = ",".join(map(str, path.h)) + ";" + ",".join(map(str, path.k)) + "\n"
        digest.update(line.encode())
    return digest.hexdigest()


@pytest.mark.parametrize("lo, hi", [(-9, 9), (1, 9), (2, 3), (0, 15)])
@pytest.mark.parametrize("seed", [0, 1, 7, "adm-subobject"])
def test_randints_are_randint_draws(seed, lo, hi):
    """`_randints` gives the values of as many `randint` calls and leaves
    the generator in the same state, a redrawn value past the width included
    (the width 16 of (0, 15) is a power of two: half its 5-bit draws are
    redrawn)."""
    ours, theirs = random.Random(seed), random.Random(seed)
    for count in (1, 3, 4, 25):
        assert _randints(ours, lo, hi, count) == [theirs.randint(lo, hi) for _ in range(count)]
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_draws_are_pinned(name):
    cls = FIXTURES[name]
    plain, with_ghosts = DRAW_DIGESTS[name]
    assert draws_digest(name, cls, crossing_plan(cls)) == plain
    dims = {*crossing_plan(cls).dims, *(d for d, _ in ghost_dims(cls))}
    assert ghost_plan(cls).dims == tuple(sorted(dims))
    assert draws_digest(name, cls, ghost_plan(cls)) == with_ghosts


def chamber_chain(cls, graph, path):
    """`_chamber_chains` of the block of one path, over its keys of the
    class bricks."""
    (chain,) = _chamber_chains(graph, PathColumns.of_paths(crossing_plan(cls), [path]))
    return chain


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_integer_probes_give_the_fraction_chain(name):
    cls = FIXTURES[name]
    graph = chamber_graph(cls)
    rng = random.Random(("chain", name).__repr__())
    for path in drawn_paths(cls, rng, 100, crossing_plan(cls)):
        chain = chamber_chain(cls, graph, path)
        assert chain == fraction_chamber_chain(cls, graph, path)
        assert chain[0] == graph.source and chain[-1] == graph.sink
        # the same times over a common denominator H > 1
        scaled = LinearPath(
            tuple(x / 3 for x in path.h), tuple(x / 2 for x in path.k)
        )
        assert chamber_chain(cls, graph, scaled) == fraction_chamber_chain(cls, graph, scaled)


def test_a_path_is_drawn_only_when_asked_for():
    """Paths are drawn a block at a time, when the next block is asked for."""
    cls = FIXTURES["torsion4"]
    rng = random.Random(0)
    draws = _generic_blocks(cls, rng, 3, crossing_plan(cls))
    state = rng.getstate()
    first = next(draws)
    assert rng.getstate() != state
    state = rng.getstate()
    path = first.path(0)
    assert isinstance(path, LinearPath) and all(type(x) is Fraction for x in path.h)
    assert rng.getstate() == state
    assert first.size + sum(b.size for b in draws) == 3


def test_a_verifier_pass_leaves_no_cyclic_garbage():
    """No per-class fact refers back to its class, so a dropped verifier and
    its fixtures are freed by reference counting alone."""
    gc.collect()
    gc.disable()
    try:
        Verifier(50, 1).run()
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


def path_by_path(cls, rng, count, plan):
    """The draw as it was made one path at a time: h, then k, from
    `_randints`, each candidate refused by the reference genericity scan
    alone."""
    n = cls.catalog.quiver.n
    made = 0
    while made < count:
        path = LinearPath(_randints(rng, -9, 9, n), _randints(rng, 1, 9, n))
        try:
            reference_check_generic(path, plan)
        except NonGenericPathError:
            continue
        made += 1
        yield path


@pytest.mark.parametrize("name", sorted(FIXTURES))
@pytest.mark.parametrize("block", [7, verify.BLOCK])
def test_blocks_draw_the_paths_of_a_path_by_path_draw(monkeypatch, name, block):
    """Counts that are not multiples of the block size, on both plans: the
    same paths in the same order, and the generator left in the same state
    (no candidate is drawn past the last path)."""
    monkeypatch.setattr(verify, "BLOCK", block)
    cls = FIXTURES[name]
    for plan in (crossing_plan(cls), ghost_plan(cls)):
        for count in (1, 3 * block + 2):
            ours, theirs = random.Random(name), random.Random(name)
            blocks = list(_generic_blocks(cls, ours, count, plan))
            assert all(0 < b.size <= block for b in blocks)
            paths = [b.path(p) for b in blocks for p in range(b.size)]
            assert paths == list(path_by_path(cls, theirs, count, plan))
            assert ours.getstate() == theirs.getstate()


def path_major_result(checker, check: str):
    """The result line of check (d) or (e) as the loop before the column
    kernel made it: path by path, each crossing by the reference."""
    seed = "stability" if check == "d" else "ghost-stability"
    rng = random.Random((checker.seed, seed).__repr__())
    count, first = 0, ""
    for name, cls in checker.fixtures.items():
        if check == "d":
            plan = crossing_plan(cls)
            crossings = [plan.bricks[b] for b in cls.bricks]
        else:
            if not enumerate_ghosts(cls):
                continue
            plan = ghost_plan(cls)
            crossings = [plan.ghosts[g.key()][1] for g in enumerate_ghosts(cls)]
        for path in path_by_path(cls, rng, checker.paths, plan):
            for crossing in crossings:
                try:
                    reference_stable_along(path, plan, crossing)
                except verify.InternalConsistencyError as exc:
                    first = first or f"{name}: {_path_str(path)}: {exc}"
                    count += 1
    return count, first


def negate_every_other_interior(checker, monkeypatch):
    """Plant a disagreement on half of the bricks and half of the ghosts of
    every fixture: their interiors negated."""
    for cls in checker.fixtures.values():
        plan = crossing_plan(cls)
        for b in cls.bricks[1::2]:
            c = plan.bricks[b]
            monkeypatch.setitem(plan.bricks, b, c._replace(interior=c.interior.negated()))
        plan = ghost_plan(cls)
        for g in enumerate_ghosts(cls)[::2]:
            ghost, c = plan.ghosts[g.key()]
            monkeypatch.setitem(plan.ghosts, g.key(), (ghost, c._replace(interior=c.interior.negated())))


@pytest.mark.parametrize("check", ["d", "e"])
def test_planted_interiors_fail_as_in_the_path_major_loop(monkeypatch, check):
    monkeypatch.setattr(verify, "BLOCK", 7)
    checker = Verifier(paths_per_fixture=30, seed=4)
    negate_every_other_interior(checker, monkeypatch)
    count, first = path_major_result(checker, check)
    getattr(checker, "check_stability_equivalence" if check == "d" else "check_ghost_stability_equivalence")()
    (result,) = checker.results
    assert count > 30 and not result.passed
    assert result.line().endswith(f"{count} failures, first: {first})")


def test_a_failure_first_met_in_a_later_block_is_named(monkeypatch):
    """Disagreements planted in mixed5's second block: at its second path's
    first brick, and at its first path's third and second bricks.  The
    three are counted, and the first path at the second brick is named, as
    a path-major loop meets them."""
    monkeypatch.setattr(verify, "BLOCK", 5)
    checker = Verifier(paths_per_fixture=12, seed=0)
    cls = checker.fixtures["mixed5"]
    plan = crossing_plan(cls)
    bricks = [plan.bricks[b] for b in cls.bricks]
    planted = {(1, bricks[0].label), (0, bricks[2].label), (0, bricks[1].label)}
    blocks = []

    def with_planted(block, crossings):
        decided = stable_columns(block, crossings)
        if block.plan is plan:
            blocks.append(block)
            if len(blocks) == 2:
                decided = [
                    (by_times, sorted({*disagree, *(p for p, label in planted if label == crossing.label)}))
                    for crossing, (by_times, disagree) in zip(crossings, decided)
                ]
        return decided

    monkeypatch.setattr(verify, "stable_columns", with_planted)
    checker.check_stability_equivalence()
    (result,) = checker.results
    rng = random.Random((checker.seed, "stability").__repr__())
    for name, drawn in checker.fixtures.items():
        paths = list(path_by_path(drawn, rng, checker.paths, crossing_plan(drawn)))
        if name == "mixed5":
            break
    first = blocks[1].path(0)
    assert len(blocks) >= 2 and first == paths[blocks[0].size]
    stable = reference_stable_along(first, plan, bricks[1])
    assert result.line() == (
        "[FAIL] d:brick-stability-equivalence  (12 paths x 10 fixtures; 3 failures, first: "
        f"mixed5: {_path_str(first)}: stability of {bricks[1].label}: time criterion "
        f"({stable}) disagrees with interior membership ({not stable}))"
    )


def test_check_d_holds_one_block_whatever_the_path_count(monkeypatch):
    """tracemalloc's peak of check (d) over 8 blocks of paths per fixture is
    that of 1 block: the draw holds one block of columns at a time (a second
    block held while the next is drawn adds about a third)."""
    monkeypatch.setattr(verify, "BLOCK", 128)
    checker = Verifier(paths_per_fixture=10, seed=0)
    checker.check_stability_equivalence()  # per-class plans built outside the measurement
    peaks = []
    for blocks in (1, 8):
        checker.paths = blocks * verify.BLOCK
        tracemalloc.start()
        try:
            checker.check_stability_equivalence()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert all(r.passed for r in checker.results)
    assert peaks[1] <= peaks[0] * 1.1


@settings(max_examples=30, deadline=None, derandomize=True)
@given(orient=st.text(alphabet="LR", max_size=3), data=st.data())
def test_linear_mgs_is_the_walls_of_the_chamber_chain(orient, data):
    """On type-A classes with n <= 4 and random brick subsets, the relatively
    stable bricks of a drawn path, in crossing order, are the walls of the
    chambers it passes through."""
    catalog = generate_type_a(len(orient) + 1, orient)
    picks = data.draw(st.sets(st.integers(0, len(catalog.indecs) - 1), min_size=1))
    cls = ModuleClass(catalog, [catalog.indecs[i].id for i in sorted(picks)])
    graph = chamber_graph(cls)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    for path in drawn_paths(cls, rng, 10, crossing_plan(cls)):
        chain = chamber_chain(cls, graph, path)
        assert chain[0] == graph.source and chain[-1] == graph.sink
        walls = [next(e.wall_brick for e in graph.out_edges(a) if e.dst == b) for a, b in zip(chain, chain[1:])]
        assert linear_mgs(cls, path) == walls


def test_checks_d_and_e_decide_plans_with_two_dims_on_one_ray():
    """Over the opposite Kronecker fragment P2's quotient P1+P1 shares the
    ray of P1, which no standard fixture has: checks (d) and (e) pass on its
    classes {P1,S2,P2} and {P1,S2,M,P2} (the second has ghosts), and on the
    same draws the kernel's verdicts are the path-by-path reference's."""
    opposite = builtin_kronecker().opposite()
    checker = Verifier(paths_per_fixture=300, seed=0)
    checker.fixtures = {
        "p1s2p2": ModuleClass(opposite, ["P1", "S2", "P2"]),
        "p1s2mp2": ModuleClass(opposite, ["P1", "S2", "M", "P2"]),
    }
    checker.check_stability_equivalence()
    checker.check_ghost_stability_equivalence()
    assert [r.line() for r in checker.results] == [
        "[PASS] d:brick-stability-equivalence  (300 paths x 2 fixtures)",
        "[PASS] e:ghost-stability-equivalence",
    ]
    decided = 0
    for check in ("stability", "ghost-stability"):
        rng = random.Random((checker.seed, check).__repr__())
        for cls in checker.fixtures.values():
            ghosts = enumerate_ghosts(cls)
            if check == "stability":
                plan = crossing_plan(cls)
                crossings = [plan.bricks[b] for b in cls.bricks]
            elif ghosts:
                plan = ghost_plan(cls)
                crossings = [plan.ghosts[g.key()][1] for g in ghosts]
            else:
                continue
            assert plan.ray != tuple(range(len(plan.dims)))
            theirs = random.Random()
            theirs.setstate(rng.getstate())
            blocks = list(_generic_blocks(cls, rng, checker.paths, plan))
            paths = [b.path(p) for b in blocks for p in range(b.size)]
            assert paths == list(path_by_path(cls, theirs, checker.paths, plan))
            by_block = [stable_columns(block, crossings) for block in blocks]
            for c, crossing in enumerate(crossings):
                verdicts = []
                for by_crossing in by_block:
                    by_times, disagree = by_crossing[c]
                    assert disagree == []
                    verdicts += by_times
                assert verdicts == [reference_stable_along(path, plan, crossing) for path in paths]
                decided += len(paths)
    assert decided == 300 * (3 + 4 + 2)
