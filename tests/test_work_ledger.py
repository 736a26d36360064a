"""Exact LP counts of chamber builds, pinned.

A count does not swing with the load of the machine the way a time does, so
a change in the work a build does shows here exactly.  LPs are counted by
wrapping `geometry._simplex_max`, as `test_geometry` does for the full
A4-LLL build (568 LPs, 724 before the facet points were read off the cells).  A change that moves a count
re-pins it here, with the old and the new value in CHANGES.md.
"""

from ghostpic import geometry
from ghostpic.catalog import ModuleClass, generate_type_a
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


def test_the_ten_fixture_graphs_solve_462_lps(monkeypatch):
    """506 before the facet points were read off the cells."""
    solved = counted_lps(monkeypatch)
    for cls in standard_fixtures().values():
        chamber_graph(cls)
    assert_pinned("LPs of the ten fixtures' graphs", 462, len(solved))


def test_a_verify_pass_solves_725_lps(monkeypatch):
    """769 before the facet points were read off the cells.  The graphs and
    the ghost and duality checks solve LPs; the paths solve none, so the
    path count does not move the count."""
    solved = counted_lps(monkeypatch)
    assert all(r.passed for r in Verifier(paths_per_fixture=50, seed=3).run())
    assert_pinned("LPs of a verify pass", 725, len(solved))


def test_the_a5_llll_chamber_build_solves_3800_lps(monkeypatch):
    """5,270 before the facet points were read off the cells."""
    solved = counted_lps(monkeypatch)
    catalog = generate_type_a(5, "LLLL")
    graph = chamber_graph(ModuleClass(catalog, [m.id for m in catalog.indecs]))
    assert_pinned("chambers and edges of A5-LLLL", (132, 330), (len(graph.chambers), len(graph.edges)))
    assert_pinned("LPs of the A5-LLLL build", 3800, len(solved))
