"""The random linear paths of `ghostpic verify`: the draws are pinned, and the
chamber chain read at integer probes is the chain read at Fraction probes."""

import gc
import hashlib
import random
from fractions import Fraction

import pytest

from ghostpic.ghosts import enumerate_ghosts, ghost_plan
from ghostpic.greenpaths import LinearPath
from ghostpic.stability import chamber_graph, crossing_plan
from ghostpic.verify import (
    Verifier,
    _chamber_chain,
    _randints,
    _random_generic_paths,
    standard_fixtures,
)
from reference_chain import fraction_chamber_chain

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
    for path in list(_random_generic_paths(cls, rng, 200, plan)):
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


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_integer_probes_give_the_fraction_chain(name):
    cls = FIXTURES[name]
    graph = chamber_graph(cls)
    rng = random.Random(("chain", name).__repr__())
    for path in _random_generic_paths(cls, rng, 100, crossing_plan(cls)):
        chain = _chamber_chain(cls, graph, path)
        assert chain == fraction_chamber_chain(cls, graph, path)
        assert chain[0] == graph.source and chain[-1] == graph.sink
        # the same times over a common denominator H > 1
        scaled = LinearPath(
            tuple(x / 3 for x in path.h), tuple(x / 2 for x in path.k)
        )
        assert _chamber_chain(cls, graph, scaled) == fraction_chamber_chain(cls, graph, scaled)


def test_a_path_is_drawn_only_when_asked_for():
    cls = FIXTURES["torsion4"]
    rng = random.Random(0)
    draws = _random_generic_paths(cls, rng, 3, crossing_plan(cls))
    state = rng.getstate()
    first = next(draws)
    assert rng.getstate() != state
    state = rng.getstate()
    assert isinstance(first, LinearPath) and all(type(x) is Fraction for x in first.h)
    assert rng.getstate() == state
    assert len([first, *draws]) == 3


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
