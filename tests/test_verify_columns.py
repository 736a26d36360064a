"""The sampled stability points of `ghostpic verify` are decided in
columns: check (b), check (c) and the admissible-subobject lemma hand each
fixture's points to `semistable_columns` in one block, and the
paths-vs-graph check hands its probe points to `locate_columns`.  A planted
kernel failure is counted and named as the point-major loop
(`reference_checks`) counts and names it."""

import ast
import itertools
import random
from pathlib import Path

import pytest

from ghostpic import stability, verify
from ghostpic.stability import chamber_graph, locate_columns, semistable_columns
from ghostpic.verify import _randints
from reference_checks import (
    reference_admissible_subobject,
    reference_locally_constant,
    reference_paths_vs_graph,
    reference_wall_crossing,
)

CHECKS = {
    "b": ("check_locally_constant", reference_locally_constant),
    "c": ("check_wall_crossing", reference_wall_crossing),
    "lemma": ("check_admissible_subobject", reference_admissible_subobject),
}


def built_checker(paths, seed):
    """A verifier whose chamber graphs are built, so a kernel planted
    afterwards reaches the checks alone."""
    checker = verify.Verifier(paths_per_fixture=paths, seed=seed)
    for cls in checker.fixtures.values():
        chamber_graph(cls)
    return checker


def planted_members(cls, theta):
    """The kernel with every other brick's membership flipped at each point
    of rank > 1 whose coordinates sum to a multiple of 3 (the odd bricks
    where the sum // 3 is even, else the even ones): a point can fail at a
    later brick first, and at several bricks."""
    members = semistable_columns(cls, theta)
    for p, point in enumerate(zip(*theta)):
        if len(point) > 1 and sum(point) % 3 == 0:
            for j, column in enumerate(members):
                if (sum(point) // 3 + j) % 2:
                    column[p] = not column[p]
    return members


def planted_label(cls, theta):
    """S(theta) of one point by the planted kernel."""
    return frozenset(itertools.compress(cls.bricks, [m for m, in planted_members(cls, [[x] for x in theta])]))


def planted_locate(graph, theta):
    """`locate_columns` with every point of rank > 1 whose coordinates sum
    to a multiple of 5 placed in the sink chamber."""
    ids = locate_columns(graph, theta)
    return [graph.sink if len(p) > 1 and sum(p) % 5 == 0 else cid for cid, p in zip(ids, zip(*theta))]


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_planted_kernel_failures_fail_as_in_the_point_major_loop(monkeypatch, check):
    method, reference = CHECKS[check]
    checker = built_checker(30, 4)
    monkeypatch.setattr(stability, "semistable_columns", planted_members)
    monkeypatch.setattr(verify, "semistable_columns", planted_members)
    count, first = reference(checker, planted_label)
    getattr(checker, method)()
    (result,) = checker.results
    assert count > 1 and not result.passed
    assert result.line().endswith(f"{count} failures, first: {first})")


def test_planted_locations_fail_as_in_the_point_major_loop(monkeypatch):
    checker = built_checker(300, 4)
    monkeypatch.setattr(verify, "locate_columns", planted_locate)
    count, first = reference_paths_vs_graph(checker, lambda graph, t: planted_locate(graph, [[x] for x in t])[0])
    checker.check_linear_paths_vs_graph()
    (result,) = checker.results
    assert count > 1 and not result.passed
    assert result.line().endswith(f"{count} failures, first: {first})")


def merged(calls):
    """(id of the first argument, points) of each run of calls on one
    class or graph."""
    runs = []
    for first, size in calls:
        if runs and runs[-1][0] == id(first):
            runs[-1][1] += size
        else:
            runs.append([id(first), size])
    return [tuple(r) for r in runs]


def test_each_fixture_reaches_a_kernel_once_per_check(monkeypatch):
    """One call per fixture and check, with all of the fixture's points: 25
    per chamber in (b), 3 per edge in (c) and one per draw in the lemma (on
    the extension-closed fixtures).  The paths check locates the probes of
    a drawn block of paths in one call, brick crossings plus one per path,
    and a fixture's paths come in one block, or a few when refused
    candidates are redrawn."""
    checker = built_checker(50, 1)
    calls = []

    def counted(kernel):
        def wrapper(first, theta):
            calls.append((first, len(theta[0])))
            return kernel(first, theta)

        return wrapper

    monkeypatch.setattr(stability, "semistable_columns", counted(semistable_columns))
    monkeypatch.setattr(verify, "semistable_columns", counted(semistable_columns))
    monkeypatch.setattr(verify, "locate_columns", counted(locate_columns))
    fixtures = list(checker.fixtures.values())
    expected = {
        "check_locally_constant": [(cls, 25 * len(chamber_graph(cls).chambers)) for cls in fixtures],
        "check_wall_crossing": [(cls, 3 * len(chamber_graph(cls).edges)) for cls in fixtures],
        "check_admissible_subobject": [(cls, 50) for cls in fixtures if cls.flags.extension_closed is True],
        "check_linear_paths_vs_graph": [(chamber_graph(cls), 10 * (len(cls.bricks) + 1)) for cls in fixtures],
    }
    for method, wanted in expected.items():
        calls.clear()
        getattr(checker, method)()
        if method != "check_linear_paths_vs_graph":
            assert len(calls) == len(wanted), method
        assert len(calls) < 2 * len(fixtures) and merged(calls) == merged(wanted), method
    assert all(r.passed for r in checker.results)


def test_verify_decides_no_point_alone(monkeypatch):
    """verify names neither block of one, and a whole pass runs with both
    refused."""
    tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert not names & {"semistable_set", "locate_chamber"}

    def alone(*args):
        raise AssertionError("a point decided alone")

    monkeypatch.setattr(stability, "semistable_set", alone)
    monkeypatch.setattr(stability, "locate_chamber", alone)
    assert all(r.passed for r in verify.Verifier(paths_per_fixture=20, seed=2).run())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_draw_of_n_times_count_values_is_count_draws_of_n(n):
    """The lemma draws a fixture's 1,000 theta in one `_randints` call: the
    values and the generator's final state of 1,000 calls of n."""
    ours, theirs = random.Random(("fused", n).__repr__()), random.Random(("fused", n).__repr__())
    fused = _randints(ours, -9, 9, n * 1000)
    assert fused == [x for _ in range(1000) for x in _randints(theirs, -9, 9, n)]
    assert ours.getstate() == theirs.getstate()
