"""Cluster-fan oracle for the chamber graph of a full class.

For a Dynkin quiver the chambers of the full class are the clusters of its
cluster algebra, and the green edges are the green mutations.  Both are
computed here from the quiver alone, by c-vector mutation (Fomin-Zelevinsky,
"Cluster algebras IV", 2007; Nakanishi-Zelevinsky, "On tropical dualities in
cluster algebras", 2012), with no hyperplane, LP or module:

* B[i][j] = #(i -> j) - #(j -> i), read off the quiver's arrows;
* the source chamber is C = I, the identity matrix of c-vectors (columns);
* a green mutation at k, where the column c_k is positive, maps c_k to -c_k
  and every other entry c_ij to c_ij + sgn(c_ik) [c_ik b_kj]_+, and mutates B
  by the Fomin-Zelevinsky rule.

A chamber is the set of (|c_j|, side) over its columns, side -1 for a
positive c-vector and +1 for a negative one: the wall of dim |c_j| bounds the
chamber on that side.
"""

from fractions import Fraction

import pytest

from ghostpic.greenpaths import count_mgs
from test_catalan import full_class, orientations

CLASSES = pytest.mark.parametrize(
    "n,orientation",
    [(n, o) for n in (2, 3, 4) for o in orientations(n)] + [(5, "LLLL")],
)


def exchange_matrix(quiver):
    n = quiver.n
    b = [[0] * n for _ in range(n)]
    for s, t in quiver.arrows:
        b[s - 1][t - 1] += 1
        b[t - 1][s - 1] -= 1
    return b


def mutate(b, c, k):
    """The exchange matrix and c-vector matrix mutated at k."""
    n = len(b)
    pos = lambda x: max(x, 0)  # noqa: E731
    sign = lambda x: (x > 0) - (x < 0)  # noqa: E731
    b2 = [
        [-b[i][j] if k in (i, j) else b[i][j] + sign(b[i][k]) * pos(b[i][k] * b[k][j]) for j in range(n)]
        for i in range(n)
    ]
    c2 = [
        [-c[i][j] if j == k else c[i][j] + sign(c[i][k]) * pos(c[i][k] * b[k][j]) for j in range(n)]
        for i in range(n)
    ]
    return b2, c2


def column(c, j):
    return tuple(row[j] for row in c)


def chamber(c):
    """The chamber of a c-vector matrix: (|c_j|, side) for every column."""
    out = set()
    for j in range(len(c)):
        v = column(c, j)
        positive = any(x > 0 for x in v)
        out.add((tuple(abs(x) for x in v), -1 if positive else 1))
    return frozenset(out)


def cluster_fan(quiver):
    """The green mutation graph: its chambers, its edges as (source chamber,
    target chamber, c-vector mutated), the source chamber and the number of
    maximal green mutation sequences."""
    n = quiver.n
    c0 = [[int(i == j) for j in range(n)] for i in range(n)]
    start = chamber(c0)
    seen, edges, todo = {start}, set(), [(exchange_matrix(quiver), c0)]
    out: dict = {}
    while todo:
        b, c = todo.pop()
        here = chamber(c)
        for k in range(n):
            ck = column(c, k)
            assert all(x >= 0 for x in ck) or all(x <= 0 for x in ck), "sign-coherence"
            if any(x > 0 for x in ck):
                b2, c2 = mutate(b, c, k)
                there = chamber(c2)
                edges.add((here, there, ck))
                out.setdefault(here, set()).add(there)
                if there not in seen:
                    seen.add(there)
                    todo.append((b2, c2))
    counts: dict = {}

    def paths_to_sink(ch):
        if ch not in counts:
            counts[ch] = sum(paths_to_sink(t) for t in out[ch]) if ch in out else 1
        return counts[ch]

    return seen, edges, start, paths_to_sink(start)


def determinant(rows) -> Fraction:
    m = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for i in range(len(m)):
        pivot = next((r for r in range(i, len(m)) if m[r][i]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != i:
            m[i], m[pivot] = m[pivot], m[i]
            det = -det
        det *= m[i][i]
        for r in range(i + 1, len(m)):
            f = m[r][i] / m[i][i]
            m[r] = [a - f * p for a, p in zip(m[r], m[i])]
    return det


@CLASSES
def test_the_chamber_graph_is_the_cluster_fan(n, orientation):
    cls, graph = full_class(n, orientation)
    dim = cls.catalog.dim_of
    walls = {ch.id: frozenset((dim(w.brick), side) for w, side in ch.bounding_walls) for ch in graph.chambers}
    chambers, edges, source, sequences = cluster_fan(cls.catalog.quiver)
    assert set(walls.values()) == chambers
    assert len(walls) == len(chambers)
    assert {(walls[e.src], walls[e.dst], dim(e.wall_brick)) for e in graph.edges} == edges
    assert len(graph.edges) == len(edges)
    assert walls[graph.source] == source
    assert all(side == 1 for _, side in walls[graph.sink])
    assert count_mgs(graph) == sequences


@CLASSES
def test_every_chamber_is_simplicial_and_unimodular(n, orientation):
    cls, graph = full_class(n, orientation)
    for ch in graph.chambers:
        assert len(ch.bounding_walls) == n
        assert abs(determinant([cls.catalog.dim_of(w.brick) for w, _ in ch.bounding_walls])) == 1
