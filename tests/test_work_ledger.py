"""Exact LP counts of chamber builds and reports, pinned.

A count does not swing with the load of the machine the way a time does, so
a change in the work a build does shows here exactly.  LPs are counted by
wrapping `geometry._simplex_max`.  A chamber build solves LPs for its cells
only; the one facet LP left is the edge sample the report prints.  A change
that moves a count re-pins it here, with the old and the new value in
CHANGES.md.
"""

import pytest

from ghostpic import geometry
from ghostpic.catalog import ModuleClass, generate_type_a
from ghostpic.geometry import enumerate_cells
from ghostpic.render import export_report
from ghostpic.stability import chamber_graph
from ghostpic.verify import Verifier, standard_fixtures


def counted_lps(monkeypatch) -> list:
    """The list every `_simplex_max` call appends to from now on."""
    solved, simplex = [], geometry._simplex_max

    def counted(*args):
        solved.append(args)
        return simplex(*args)

    monkeypatch.setattr(geometry, "_simplex_max", counted)
    return solved


def assert_pinned(what, pinned, counted):
    assert counted == pinned, f"{what}: was {pinned}, now {counted}"


def full_class(n, orientation):
    catalog = generate_type_a(n, orientation)
    return ModuleClass(catalog, [m.id for m in catalog.indecs])


def test_lps_of_the_ten_fixture_graphs(monkeypatch):
    """314, the LPs of their cells; 462 while each edge solved its sample
    in the build, 506 before the facet points were read off the cells."""
    solved = counted_lps(monkeypatch)
    for cls in standard_fixtures().values():
        chamber_graph(cls)
    assert_pinned("LPs of the ten fixtures' graphs", 314, len(solved))


def test_lps_of_the_fixture_reports(monkeypatch):
    """148, one per edge off a lone hyperplane, on graphs built before: the
    edge samples the builds solved before, so build and report together
    still solve 314 + 148 = 462."""
    fixtures = list(standard_fixtures().values())
    graphs = [chamber_graph(cls) for cls in fixtures]
    solved = counted_lps(monkeypatch)
    for cls, graph in zip(fixtures, graphs):
        export_report(cls, graph)
    assert_pinned("LPs of the ten fixtures' reports", 148, len(solved))
    assert len(solved) == sum(len(g.edges) for cls, g in zip(fixtures, graphs) if len(cls.bricks) > 1)


def test_lps_of_a_verify_pass(monkeypatch):
    """577; 725 while each edge solved its sample in the build, 769 before
    the facet points were read off the cells.  The graphs and the ghost and
    duality checks solve LPs; the paths solve none, so the path count does
    not move the count."""
    solved = counted_lps(monkeypatch)
    assert all(r.passed for r in Verifier(paths_per_fixture=50, seed=3).run())
    assert_pinned("LPs of a verify pass", 577, len(solved))


def test_lps_of_the_a4_lll_build(monkeypatch):
    """484; 568 while each edge solved its sample in the build, 724 before
    the facet points were read off the cells, 866 before the kept samples
    and the box built once per rank."""
    solved = counted_lps(monkeypatch)
    graph = chamber_graph(full_class(4, "LLL"))
    assert_pinned("cells and chambers of A4-LLL", (120, 42), (len(graph.chamber_of_signs), len(graph.chambers)))
    assert_pinned("LPs of the A4-LLL build", 484, len(solved))


def test_lps_of_the_a5_llll_build(monkeypatch):
    """3,470; 3,800 while each edge solved its sample in the build, 5,270
    before the facet points were read off the cells."""
    solved = counted_lps(monkeypatch)
    graph = chamber_graph(full_class(5, "LLLL"))
    assert_pinned("chambers and edges of A5-LLLL", (132, 330), (len(graph.chambers), len(graph.edges)))
    assert_pinned("LPs of the A5-LLLL build", 3470, len(solved))


BUILDS = {name: lambda name=name: standard_fixtures()[name] for name in standard_fixtures()}
BUILDS["A4-LLL-full"] = lambda: full_class(4, "LLL")


@pytest.mark.parametrize("name", list(BUILDS))
def test_a_fresh_build_solves_the_lps_of_its_cells_only(name, monkeypatch):
    cls = BUILDS[name]()
    solved = counted_lps(monkeypatch)
    enumerate_cells([cls.dim_of(b) for b in cls.bricks])
    cells = len(solved)
    chamber_graph(cls)
    assert_pinned(f"LPs of the {name} build", cells, len(solved) - cells)
