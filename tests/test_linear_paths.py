"""`find_linear_paths` (one grid sweep for all targets, decided a block at a
time) against the searches it replaced: one scan of the grid from the start
per MGS, and one scan for all targets deciding a path at a time
(`reference_paths.reference_find_linear_paths`), kept here as references."""

import pytest

from ghostpic import greenpaths
from ghostpic.catalog import ModuleClass, generate_type_a
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
from reference_paths import reference_find_linear_paths
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


def type_a_class(orient, step):
    """Every step-th brick of the type-A class of the orientation."""
    catalog = generate_type_a(len(orient) + 1, orient)
    return ModuleClass(catalog, [m.id for m in catalog.indecs][::step])


SWEPT = {**FIXTURES, "A4-LLL": type_a_class("LLL", 1), "A4-LRL-every-other": type_a_class("LRL", 2)}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_sweep_matches_per_mgs_scans(name):
    cls = FIXTURES[name]
    targets = [m.walls for m in enumerate_mgs(cls)]
    found = find_linear_paths(cls, targets, radius=4)
    assert list(found) == targets
    for walls in targets:
        assert key(found[walls]) == key(reference_find_linear_path(cls, walls, 4))


@pytest.mark.parametrize("name", sorted(SWEPT))
def test_the_block_sweep_is_the_path_by_path_sweep(name):
    """The same first path per target, and the same misses, as the sweep
    that decides one grid path at a time, on the fixtures and two A4
    classes."""
    cls = SWEPT[name]
    targets = [m.walls for m in enumerate_mgs(cls)]
    found = find_linear_paths(cls, targets, radius=4)
    expected = reference_find_linear_paths(cls, targets, 4)
    assert {w: key(p) for w, p in found.items()} == {w: key(p) for w, p in expected.items()}


def test_sweep_visits_the_union_of_the_scans(monkeypatch):
    """The sweep decides the grid points that separate searches for each
    target would visit together, rounded up to whole blocks: it stops after
    the block that holds the last target's path, and decides every block
    when a target has no path. Checked for several block sizes."""
    cls = FIXTURES["torsion4"]
    targets = [m.walls for m in enumerate_mgs(cls)]
    grid = [LinearPath(h, k) for h, k in _search_grid(3, 4)]
    last = max(grid.index(p) for p in reference_find_linear_paths(cls, targets, 4).values())
    decided, mgs_columns = [], greenpaths.mgs_columns

    def counted(*args):
        decided.append(args[0].size)
        return mgs_columns(*args)

    monkeypatch.setattr(greenpaths, "mgs_columns", counted)
    for block in (7, 64, greenpaths.BLOCK):
        monkeypatch.setattr(greenpaths, "BLOCK", block)
        decided.clear()
        find_linear_paths(cls, targets, radius=4)
        assert len(decided) == last // block + 1, block
        decided.clear()
        find_linear_paths(cls, [*targets, ("S1", "S1")], radius=4)
        assert len(decided) == -(-len(grid) // block), block


def test_one_target_wrapper_and_empty_sweep(torsion4):
    walls = ("S1", "S3", "I2")
    assert key(find_linear_path(torsion4, walls, radius=4)) == key(
        reference_find_linear_path(torsion4, walls, 4)
    )
    assert find_linear_path(torsion4, ("S1", "S1"), radius=1) is None
    assert find_linear_paths(torsion4, [], radius=4) == {}
