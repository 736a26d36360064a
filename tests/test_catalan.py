"""Catalan oracle for the chamber graph of a full class, and the torsion-class
lattice as an oracle without geometry.

The bricks of a type-A_n path algebra are all of its indecomposables, and
the chambers of the full class are its torsion classes: there are
Catalan(n+1) of them for every orientation (Ingalls-Thomas 2009, torsion
classes <-> noncrossing partitions).  The chamber graph is the Hasse diagram
of the torsion-class lattice, which is n-regular, so it has
n * Catalan(n+1) / 2 edges.

The lattice itself is computed from the catalog alone, with no LP: a torsion
class is a set of indecomposables closed under quotients (`pairs(m)`) and
under the extensions of `ses_list`.  The chamber labels are these sets, the
green edges are the covers, each labelled by its brick (King 1994,
Demonet-Iyama-Jasso's brick labelling), and the maximal green sequences are
the maximal chains.
"""

import itertools
from functools import cache
from math import comb

import pytest

from ghostpic.catalog import ModuleClass, generate_type_a
from ghostpic.greenpaths import count_mgs
from ghostpic.stability import chamber_graph


def catalan(n):
    return comb(2 * n, n) // (n + 1)


@cache
def full_class(n, orientation):
    """The full class and its chamber graph, built once per test run."""
    cat = generate_type_a(n, orientation)
    cls = ModuleClass(cat, [m.id for m in cat.indecs])
    return cls, chamber_graph(cls)


def orientations(n):
    return ["".join(w) for w in itertools.product("LR", repeat=n - 1)]


FULL_CLASSES = pytest.mark.parametrize(
    "n,orientation",
    [(3, o) for o in orientations(3)] + [(4, o) for o in orientations(4)] + [(5, "LLLL")],
)


@FULL_CLASSES
def test_full_class_chamber_and_edge_counts(n, orientation):
    _, graph = full_class(n, orientation)
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


def torsion_classes(catalog) -> list[frozenset]:
    """Every set of indecomposables closed under quotients and extensions,
    as bitmasks over the catalog's indecomposables, returned as sets."""
    ids = [m.id for m in catalog.indecs]
    bit = {m: 1 << i for i, m in enumerate(ids)}
    quotients = [sum({bit[q] for p in catalog.pairs(m) for q in p.quot.ids}) for m in ids]
    extensions = [(bit[s.a] | bit[s.c], bit[s.b]) for s in catalog.ses_list]
    found = []
    for mask in range(1 << len(ids)):
        if all(quotients[i] & ~mask == 0 for i in range(len(ids)) if mask >> i & 1) and all(
            mask & ends != ends or mask & middle for ends, middle in extensions
        ):
            found.append(frozenset(m for m in ids if mask & bit[m]))
    return found


def covers(classes) -> set[tuple[frozenset, frozenset]]:
    """The pairs (T, U) of torsion classes with U covering T by inclusion."""
    out = set()
    for t in classes:
        above = [u for u in classes if t < u]
        out |= {(t, u) for u in above if not any(v < u for v in above)}
    return out


def brick_label(catalog, t, u) -> list[str]:
    """The members of U outside T whose proper quotients all lie in T and
    which no member of T maps to: the brick that labels the cover T < U."""
    return [
        m
        for m in sorted(u - t)
        if all(q in t for p in catalog.pairs(m) if p.sub for q in p.quot.ids)
        and not any(catalog.hom_dim(x, m) for x in t)
    ]


def maximal_chains(classes, cover_pairs) -> int:
    up: dict[frozenset, list] = {}
    for t, u in cover_pairs:
        up.setdefault(t, []).append(u)
    chains = {}
    for t in sorted(classes, key=len, reverse=True):
        chains[t] = sum(chains[u] for u in up.get(t, ())) or 1  # the top ends every chain
    return chains[frozenset()]


@FULL_CLASSES
def test_the_chamber_graph_is_the_torsion_class_lattice(n, orientation):
    cls, graph = full_class(n, orientation)
    classes = torsion_classes(cls.catalog)
    assert len(classes) == catalan(n + 1)
    labels = {ch.id: ch.label for ch in graph.chambers}
    assert sorted(labels.values(), key=sorted) == sorted(classes, key=sorted)
    lattice = covers(classes)
    assert {(labels[e.src], labels[e.dst]) for e in graph.edges} == lattice
    assert len(lattice) == len(graph.edges)
    for e in graph.edges:
        assert brick_label(cls.catalog, labels[e.src], labels[e.dst]) == [e.wall_brick]
    assert count_mgs(graph) == maximal_chains(classes, lattice)
