"""Walls, semistable sets, chambers and the green-oriented chamber graph.

The wall of a brick M is the cone cut out of the hyperplane theta(M)=0 by
theta(M') >= 0 over the proper weakly admissible quotients M'.  Chambers are
computed by refining along *all* brick hyperplanes and then merging adjacent
cells across facets that are not contained in any wall; this is necessary
because a wall is in general a proper subset of its hyperplane.

The walls are indexed once per class by a crossing plan (`crossing_plan`):
the distinct dims of the bricks and of their weakly admissible quotients,
and for each brick the index of its dim and of its wall's sides.  S(theta)
reads it for a block of theta at once (`semistable_columns`), and so do
genericity and stability along a linear path (`greenpaths`); `build_plan`
also makes the ghost plan of `ghosts`, which indexes every ghost domain too.
"""

from __future__ import annotations

import itertools
from operator import gt
from typing import NamedTuple

from ghostpic.catalog import ModuleClass, ModuleSum, per_class
from ghostpic.errors import CatalogError, InternalConsistencyError, check_guard
from ghostpic.geometry import (
    Cell,
    Cone,
    FacetAdjacency,
    IntVec,
    _combination,
    cell_facet_neighbors,
    enumerate_cells,
    facet_lp_sample,
    primitive,
    vec_str,
)

BRICK_GUARD = 20


class Side(NamedTuple):
    """One side condition of a wall or a ghost domain: the object of this
    dim (named ``name``) crosses before the event object (theta(dim) > 0 on
    the interior), or after it when ``late`` (theta(dim) < 0)."""

    dim: tuple[int, ...]
    name: str
    late: bool = False


def side_cone(event_dim, sides) -> Cone:
    """The closed cone in the hyperplane of event_dim cut out by the sides,
    one weak inequality per distinct signed dim."""
    weak = (tuple(-x for x in s.dim) if s.late else s.dim for s in sides)
    return Cone(len(event_dim), equalities=(tuple(event_dim),), weak=tuple(dict.fromkeys(weak)))


class Wall(NamedTuple):
    brick: str
    cone: Cone
    minimal: bool
    sides: tuple[Side, ...]  # the proper weakly admissible quotients, one per dim
    interior: Cone  # cone.interior()


@per_class
def wall(cls: ModuleClass, m: str) -> Wall:
    """The wall of a class brick: theta(m)=0 with one side per dim of the
    proper nonzero weakly admissible quotients, the first name kept."""
    if not cls.contains_indec(m):
        raise CatalogError(f"{m} is not a brick of {cls!r}")
    names: dict[tuple, str] = {}
    for p in cls.weakly_admissible_quotients(m, True):
        names.setdefault(cls.dim_of(p.quot), repr(p.quot))
    sides = tuple(Side(d, name) for d, name in names.items())
    cone = side_cone(cls.dim_of(m), sides)
    return Wall(m, cone, minimal=not sides, sides=sides, interior=cone.interior())


class Crossing(NamedTuple):
    """An event object (a brick, or a ghost's crossing object) in a crossing
    plan: its label, the index of its dim, one (index, late, name) per side
    condition, in order, and the interior of its wall or ghost domain."""

    label: str
    event: int
    sides: tuple[tuple[int, bool, str], ...]
    interior: Cone


class CrossingPlan(NamedTuple):
    """What chamber labels and genericity and stability along any path need
    of a class: its relevant dims, sorted, the first name of each, and
    ``ray`` with ray[i] == ray[j] iff dims i and j are proportional (they
    cross at the same time on every path), ray[i] being the first such
    index.  ``bricks`` holds the crossing of each class brick, ``ghosts``
    each planned ghost with its crossing, by key.  ``schedule`` lists the
    (crossing, kind, concurrent) rows of a crossing schedule, the bricks
    first; a ghost plan adds its subobject and quotient ghosts."""

    dims: tuple[tuple[int, ...], ...]
    names: tuple[str, ...]
    ray: tuple[int, ...]
    bricks: dict[str, Crossing]
    ghosts: dict[tuple, tuple]  # ghost key -> (Ghost, Crossing)
    schedule: tuple[tuple[Crossing, str, bool], ...]


def build_plan(cls: ModuleClass, ghosts=()) -> CrossingPlan:
    """The crossing plan of the class bricks and the given ghosts.  Its dims
    are those of the bricks, of the sides of their walls (every weakly
    admissible quotient sum), of the ghost events and of the ghost sides,
    each under the first name given to it in that order."""
    walls = [wall(cls, b) for b in cls.bricks]
    labels = [g.display() for g in ghosts]
    named = [(cls.dim_of(b), b) for b in cls.bricks]
    named += [(s.dim, s.name) for w in walls for s in w.sides]
    named += zip([g.event_dim for g in ghosts], labels)
    named += [(s.dim, s.name) for g in ghosts for s in g.sides]
    names = dict(reversed(named))  # the first name given to a dim wins
    dims = tuple(sorted(names))
    first: dict[IntVec, int] = {}  # dims are nonnegative: one primitive vector per ray
    ray = tuple(first.setdefault(primitive(d), i) for i, d in enumerate(dims))
    index = {d: i for i, d in enumerate(dims)}

    def crossing(label, event_dim, sides, interior) -> Crossing:
        sides = tuple((index[s.dim], s.late, s.name) for s in sides)
        return Crossing(label, index[event_dim], sides, interior)

    bricks = {b: crossing(b, cls.dim_of(b), w.sides, w.interior) for b, w in zip(cls.bricks, walls)}
    return CrossingPlan(
        dims,
        tuple(names[d] for d in dims),
        ray,
        bricks,
        {
            g.key(): (g, crossing(label, g.event_dim, g.sides, g.domain.interior()))
            for g, label in zip(ghosts, labels)
        },
        tuple((c, "brick", False) for c in bricks.values()),
    )


@per_class
def crossing_plan(cls: ModuleClass) -> CrossingPlan:
    """The crossing plan of the class bricks alone, built once per class."""
    return build_plan(cls)


def semistable_columns(cls: ModuleClass, theta) -> list[list[bool]]:
    """The membership in S(theta) of each class brick, in brick order, for a
    block of theta given as its n coordinate columns: a brick's column is
    true where theta is positive on its event dim and on every side dim of
    the crossing plan, each dim's dot products taken once for the block.
    theta may lie on walls; a positive multiple of a point reads the same."""
    if len(theta) != cls.catalog.quiver.n:
        raise CatalogError(f"theta of rank {len(theta)} on a class of rank {cls.catalog.quiver.n}")
    plan, size, zeros = crossing_plan(cls), len(theta[0]), itertools.repeat(0)
    on = [list(map(gt, _combination(d, theta, size), zeros)) for d in plan.dims]
    return [list(map(all, zip(on[c.event], *[on[i] for i, _, _ in c.sides]))) for c in plan.bricks.values()]


def semistable_sets(cls: ModuleClass, points) -> list[frozenset[str]]:
    """S(theta) of each point, decided by `semistable_columns`, and for one
    point by `semistable_set`.  Direct sums of the members are derivable."""
    theta = list(zip(*points)) or [()] * cls.catalog.quiver.n  # an empty block has the class's rank
    members = zip(*semistable_columns(cls, theta))
    return [frozenset(itertools.compress(cls.bricks, m)) for m in members]


def semistable_set(cls: ModuleClass, theta: IntVec) -> frozenset[str]:
    """S(theta) of one point: `semistable_sets` of a block of one."""
    return semistable_sets(cls, [theta])[0]


class Chamber(NamedTuple):
    id: int
    cells: tuple[Cell, ...]
    label: frozenset[str]  # S(theta) on the chamber
    sample: IntVec  # its first cell's sample: numerators over den
    den: int
    bounding_walls: tuple[tuple[Wall, int], ...]  # (wall, side sign)


class ChamberEdge(NamedTuple):
    src: int
    dst: int
    wall_brick: str
    facet_sample: IntVec  # the simplex's point of the facet: numerators over den
    den: int


class ChamberGraph(NamedTuple):
    chambers: tuple[Chamber, ...]
    edges: tuple[ChamberEdge, ...]
    source: int
    sink: int
    walls: dict[str, Wall]  # in brick order
    # the brick-hyperplane arrangement the chambers were merged from: all of
    # its cells, and every facet adjacency, on a wall or not
    cells: tuple[Cell, ...]
    adjacencies: tuple[FacetAdjacency, ...]
    chamber_of_signs: dict[tuple[int, ...], int]  # cell sign vector -> chamber id
    out: dict[int, tuple[ChamberEdge, ...]]  # chamber id -> its out-edges, in edge order

    def chamber(self, cid: int) -> Chamber:
        return self.chambers[cid]

    def out_edges(self, cid: int) -> tuple[ChamberEdge, ...]:
        return self.out.get(cid, ())


def enumerate_chambers(cls: ModuleClass) -> list[Chamber]:
    """Connected components of the complement of the union of walls."""
    return list(chamber_graph(cls).chambers)


def chamber_graph(cls: ModuleClass) -> ChamberGraph:
    """Chambers plus one green-oriented edge per wall-interior adjacency,
    built once per class.

    Every edge is checked against the wall-crossing theorem: the label grows
    strictly, the wall brick is among the new semistables, and each new
    semistable admits a weakly admissible epimorphism onto the wall brick.
    """
    check_guard(len(cls.bricks), "bricks", "BRICK_GUARD", BRICK_GUARD)
    return _build_chamber_graph(cls)


@per_class
def _build_chamber_graph(cls: ModuleClass) -> ChamberGraph:
    catalog = cls.catalog
    bricks = cls.bricks
    dims = [cls.dim_of(b) for b in bricks]
    cells = enumerate_cells(dims)
    adjacencies = cell_facet_neighbors(cells, dims)
    walls = {b: wall(cls, b) for b in bricks}

    # merge cells across facets that are not contained in any wall
    parent = {c.signs: c.signs for c in cells}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    wall_facets: list[FacetAdjacency] = []
    for adj in adjacencies:
        if walls[bricks[adj.hyperplane_index]].cone.contains(adj.facet_sample):
            wall_facets.append(adj)
        else:
            parent[find(adj.cell_a.signs)] = find(adj.cell_b.signs)

    groups: dict[tuple, list[Cell]] = {}
    for c in cells:
        groups.setdefault(find(c.signs), []).append(c)
    ordered = sorted(
        (sorted(cs, key=lambda c: c.signs) for cs in groups.values()),
        key=lambda cs: cs[0].signs,
    )
    label_of = dict(zip([c.signs for c in cells], semistable_sets(cls, [c.sample for c in cells])))
    chamber_of: dict[tuple, int] = {}
    labels: list[frozenset[str]] = []
    for cid, cell_group in enumerate(ordered):
        found = {label_of[c.signs] for c in cell_group}
        if len(found) != 1:
            raise InternalConsistencyError(
                f"semistable label not constant on merged chamber {cid}"
            )
        labels.append(found.pop())
        for c in cell_group:
            chamber_of[c.signs] = cid

    # one pass over the wall facets: the bounding walls of the chambers on
    # both sides, with each chamber's sign of the wall's hyperplane, and one
    # edge from the negative side to the positive side, sampled by the
    # simplex on its first facet
    normals = [primitive(d) for d in dims]
    bounding: list[dict[str, int]] = [{} for _ in ordered]
    edges: dict[tuple[int, int, str], ChamberEdge] = {}
    for adj in wall_facets:
        i = adj.hyperplane_index
        brick = bricks[i]
        ca, cb = chamber_of[adj.cell_a.signs], chamber_of[adj.cell_b.signs]
        if ca == cb:
            raise InternalConsistencyError(
                f"wall facet of {brick} inside a single chamber "
                f"at ({','.join(vec_str(adj.facet_sample))})"
            )
        bounding[ca][brick] = adj.cell_a.signs[i]
        bounding[cb][brick] = adj.cell_b.signs[i]
        src, dst = (cb, ca) if adj.cell_a.signs[i] == 1 else (ca, cb)
        key = (src, dst, brick)
        if key in edges:
            continue
        label_src, label_dst = labels[src], labels[dst]
        if not (label_src < label_dst) or brick not in label_dst or brick in label_src:
            raise InternalConsistencyError(
                f"wall crossing of {brick} violates strict label growth "
                f"at facet sample ({','.join(vec_str(adj.facet_sample))})"
            )
        target = ModuleSum([brick])
        for x in sorted(label_dst - label_src, key=catalog.position):
            if not any(p.quot == target for p in cls.weakly_admissible_quotients(x, False)):
                raise InternalConsistencyError(
                    f"no weakly admissible epimorphism {x} ->> {brick} although "
                    f"{x} becomes semistable across D({brick})"
                )
        edges[key] = ChamberEdge(src, dst, brick, *facet_lp_sample(normals, adj))

    source = chamber_of[tuple(-1 for _ in bricks)]
    sink = chamber_of[tuple(1 for _ in bricks)]
    if labels[source]:
        raise InternalConsistencyError("source chamber label is not empty")
    if labels[sink] != frozenset(bricks):
        raise InternalConsistencyError("sink chamber label is not the whole class")
    chambers = tuple(
        Chamber(
            id=cid,
            cells=tuple(cell_group),
            label=labels[cid],
            sample=cell_group[0].sample,
            den=cell_group[0].den,
            bounding_walls=tuple(
                (walls[b], s)
                for b, s in sorted(bounding[cid].items(), key=lambda kv: catalog.position(kv[0]))
            ),
        )
        for cid, cell_group in enumerate(ordered)
    )
    ordered_edges = tuple(
        sorted(edges.values(), key=lambda e: (e.src, catalog.position(e.wall_brick), e.dst))
    )
    out: dict[int, list[ChamberEdge]] = {}
    for e in ordered_edges:
        out.setdefault(e.src, []).append(e)
    return ChamberGraph(
        chambers=chambers,
        edges=ordered_edges,
        source=source,
        sink=sink,
        walls=walls,
        cells=tuple(cells),
        adjacencies=tuple(adjacencies),
        chamber_of_signs=chamber_of,
        out={cid: tuple(es) for cid, es in out.items()},
    )


def chamber_docs(cls: ModuleClass, graph: ChamberGraph) -> list[dict]:
    """The JSON document of each chamber: id, sorted label and sample."""
    return [
        {"id": c.id, "label": sorted(c.label, key=cls.catalog.position), "sample": vec_str(c.sample, c.den)}
        for c in graph.chambers
    ]


def edge_docs(graph: ChamberGraph) -> list[dict]:
    """The JSON document of each green edge: its chambers and wall brick."""
    return [{"from": e.src, "to": e.dst, "wall": e.wall_brick} for e in graph.edges]


def locate_columns(graph: ChamberGraph, theta) -> list[int]:
    """The chamber of each off-wall point of a block of theta given as its
    coordinate columns, read from the sign columns of the brick hyperplanes;
    `locate_chamber` is a block of one.  A point on a brick hyperplane
    raises, the first in block order named."""
    n = len(graph.chambers[0].sample)
    if len(theta) != n:
        raise CatalogError(f"theta of rank {len(theta)} on a class of rank {n}")
    values = [list(_combination(w.cone.equalities[0], theta, len(theta[0]))) for w in graph.walls.values()]
    if on := [v.index(0) for v in values if 0 in v]:
        raise InternalConsistencyError(f"{tuple(c[min(on)] for c in theta)} lies on a brick hyperplane")
    signs = zip(*[[1 if x > 0 else -1 for x in v] for v in values])
    return list(map(graph.chamber_of_signs.__getitem__, signs))


def locate_chamber(graph: ChamberGraph, theta: IntVec) -> int:
    """Chamber containing an off-wall point: `locate_columns` of a block of one."""
    return locate_columns(graph, [[x] for x in theta])[0]
