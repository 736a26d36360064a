"""`find_linear_paths` (one grid sweep for all targets) against the search it
replaced: one scan of the grid from the start per MGS, kept here as the
reference."""

import pytest

from ghostpic import greenpaths
from ghostpic.errors import NonGenericPathError
from ghostpic.greenpaths import (
    LinearPath,
    _search_grid,
    enumerate_mgs,
    find_linear_path,
    find_linear_paths,
    linear_mgs,
)
from ghostpic.verify import standard_fixtures
from reference_vectors import as_fracvec


def reference_find_linear_path(cls, walls, radius):
    """The per-MGS grid scan: first grid path whose linear MGS is `walls`."""
    for h, k in _search_grid(cls.catalog.quiver.n, radius):
        path = LinearPath(as_fracvec(h), as_fracvec(k))
        try:
            if tuple(linear_mgs(cls, path)) == tuple(walls):
                return path
        except NonGenericPathError:
            continue
    return None


def key(path):
    return None if path is None else (path.h, path.k)


FIXTURES = standard_fixtures()


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_sweep_matches_per_mgs_scans(name):
    cls = FIXTURES[name]
    targets = [m.walls for m in enumerate_mgs(cls)]
    found = find_linear_paths(cls, targets, radius=4)
    assert list(found) == targets
    for walls in targets:
        assert key(found[walls]) == key(reference_find_linear_path(cls, walls, 4))


def test_sweep_visits_the_union_of_the_scans(monkeypatch):
    cls = FIXTURES["torsion4"]
    targets = [m.walls for m in enumerate_mgs(cls)]
    calls = []

    def counting(c, path):
        calls.append(path)
        return linear_mgs(c, path)

    monkeypatch.setattr(greenpaths, "linear_mgs", counting)
    longest = 0
    for walls in targets:
        calls.clear()
        greenpaths.find_linear_path(cls, walls, radius=4)
        longest = max(longest, len(calls))
    calls.clear()
    find_linear_paths(cls, targets, radius=4)
    assert len(calls) == longest


def test_one_target_wrapper_and_empty_sweep(torsion4):
    walls = ("S1", "S3", "I2")
    assert key(find_linear_path(torsion4, walls, radius=4)) == key(
        reference_find_linear_path(torsion4, walls, 4)
    )
    assert find_linear_path(torsion4, ("S1", "S1"), radius=1) is None
    assert find_linear_paths(torsion4, [], radius=4) == {}
