"""Facet points read off the cells give the chamber graph the facet LPs gave.

The merge and the wall test read each facet's point.  The point
`cell_facet_neighbors` reads off the two cells' samples differs from the one
the facet LP found, but both lie in the facet's relative interior, so the
graph must not move.  Each class is built twice, on fresh objects: once as
the package builds it, and once with `stability.cell_facet_neighbors`
replaced by the LP oracle of `reference_facets`.  An edge holds its first
wall facet: the two builds must pick the same cells on the same hyperplane,
and the sample the report solves there must be the oracle's facet LP point.
"""

import itertools
import random

import pytest

from ghostpic.catalog import ModuleClass, generate_type_a
from ghostpic.geometry import facet_lp_sample, primitive
from ghostpic.stability import chamber_graph
from reference_facets import reference_cell_facet_neighbors


def every_a3_class(orientation):
    catalog = generate_type_a(3, orientation)
    ids = [m.id for m in catalog.indecs]
    for size in range(1, len(ids) + 1):
        for bricks in itertools.combinations(ids, size):
            yield catalog, bricks


def seeded_a4_classes(count):
    rng = random.Random(42)
    catalogs = [generate_type_a(4, o) for o in ("LLL", "LRL", "RLR", "RRL")]
    for k in range(count):
        catalog = catalogs[k % len(catalogs)]
        yield catalog, tuple(rng.sample([m.id for m in catalog.indecs], rng.randint(3, 6)))


def full_a4_lll():
    catalog = generate_type_a(4, "LLL")
    yield catalog, tuple(m.id for m in catalog.indecs)


CLASSES = {
    "A3-LL": lambda: every_a3_class("LL"),
    "A3-LR": lambda: every_a3_class("LR"),
    "A4-seeded": lambda: seeded_a4_classes(40),
    "A4-LLL-full": full_a4_lll,
}


def edge_key(e):
    """An edge's chambers and wall brick, and its facet's cells and hyperplane."""
    return e.src, e.dst, e.wall_brick, e.facet.cell_a, e.facet.cell_b, e.facet.hyperplane_index


@pytest.mark.parametrize("name", list(CLASSES))
def test_the_graph_is_the_one_the_facet_lps_gave(name, monkeypatch):
    built = 0
    for catalog, bricks in CLASSES[name]():
        cls = ModuleClass(catalog, bricks)
        graph = chamber_graph(cls)
        with monkeypatch.context() as patched:
            patched.setattr("ghostpic.stability.cell_facet_neighbors", reference_cell_facet_neighbors)
            reference = chamber_graph(ModuleClass(catalog, bricks))
        # chambers with their cells, labels, samples and bounding walls
        assert graph.chambers == reference.chambers, bricks
        assert list(map(edge_key, graph.edges)) == list(map(edge_key, reference.edges)), bricks
        normals = [primitive(cls.dim_of(b)) for b in cls.bricks]
        printed = [facet_lp_sample(normals, e.facet) for e in graph.edges]
        assert printed == [(e.facet.facet_sample, e.facet.den) for e in reference.edges], bricks
        assert (graph.walls, graph.source, graph.sink) == (reference.walls, reference.source, reference.sink)
        built += 1
    assert built == {"A3-LL": 63, "A3-LR": 63, "A4-seeded": 40, "A4-LLL-full": 1}[name]
