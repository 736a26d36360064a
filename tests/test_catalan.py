"""Catalan oracle for the chamber graph of a full class.

The bricks of a type-A_n path algebra are all of its indecomposables, and
the chambers of the full class are its torsion classes: there are
Catalan(n+1) of them for every orientation (Ingalls-Thomas 2009, torsion
classes <-> noncrossing partitions).  The chamber graph is the Hasse diagram
of the torsion-class lattice, which is n-regular, so it has
n * Catalan(n+1) / 2 edges.
"""

import itertools
from math import comb

import pytest

from ghostpic.catalog import ModuleClass, generate_type_a
from ghostpic.stability import chamber_graph


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def full_class(n, orientation):
    cat = generate_type_a(n, orientation)
    return ModuleClass(cat, [m.id for m in cat.indecs])


def orientations(n):
    return ["".join(w) for w in itertools.product("LR", repeat=n - 1)]


@pytest.mark.parametrize(
    "n,orientation",
    [(3, o) for o in orientations(3)] + [(4, o) for o in orientations(4)] + [(5, "LLLL")],
)
def test_full_class_chamber_and_edge_counts(n, orientation):
    graph = chamber_graph(full_class(n, orientation))
    chambers = catalan(n + 1)
    assert (n, chambers) in ((3, 14), (4, 42), (5, 132))
    assert len(graph.chambers) == chambers
    assert len(graph.edges) == n * chambers // 2
    # n-regular: every chamber lies on exactly n edges
    degree = {ch.id: 0 for ch in graph.chambers}
    for e in graph.edges:
        degree[e.src] += 1
        degree[e.dst] += 1
    assert set(degree.values()) == {n}
