"""Walls, semistable sets, chambers and the green-oriented chamber graph.

The wall of a brick M is the cone cut out of the hyperplane theta(M)=0 by
theta(M') >= 0 over the proper weakly admissible quotients M'.  Chambers are
computed by refining along *all* brick hyperplanes and then merging adjacent
cells across facets that are not contained in any wall; this is necessary
because a wall is in general a proper subset of its hyperplane.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from ghostpic.catalog import ModuleClass, ModuleSum, per_class
from ghostpic.errors import GuardExceededError, InternalConsistencyError, guard_limit
from ghostpic.geometry import (
    Cell,
    Cone,
    FacetAdjacency,
    Hyperplane,
    Vec,
    cell_facet_neighbors,
    enumerate_cells,
    int_dot,
    integral,
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


@dataclass(frozen=True)
class Wall:
    brick: str
    cone: Cone
    minimal: bool
    sides: tuple[Side, ...]  # the proper weakly admissible quotients, one per dim

    def hyperplane(self) -> Hyperplane:
        return Hyperplane.from_vector(self.cone.equalities[0])

    @cached_property
    def interior(self) -> Cone:
        return self.cone.interior()


@per_class
def wall(cls: ModuleClass, m: str) -> Wall:
    """The wall of a class brick: theta(m)=0 with one side per dim of the
    proper nonzero weakly admissible quotients, the first name kept."""
    if not cls.contains_indec(m):
        raise InternalConsistencyError(f"{m} is not a brick of the class")
    names: dict[tuple, str] = {}
    for p in cls.weakly_admissible_quotients(m):
        names.setdefault(cls.dim_of(p.quot), repr(p.quot))
    sides = tuple(Side(d, name) for d, name in names.items())
    return Wall(m, side_cone(cls.dim_of(m), sides), minimal=not sides, sides=sides)


@dataclass(frozen=True)
class SemistableSet:
    """Indecomposable members of S(theta); direct sums are derivable."""

    bricks: frozenset[str]

    def __contains__(self, m: str) -> bool:
        return m in self.bricks

    def sorted(self, cls: ModuleClass) -> list[str]:
        return sorted(self.bricks, key=cls.catalog.position)


def semistable_set(cls: ModuleClass, theta) -> SemistableSet:
    """S(theta): bricks M with theta(M) > 0 and theta(M') > 0 for every
    proper weakly admissible quotient M'.  theta may lie on walls."""
    point = integral(theta)  # a positive multiple: same signs, integer dots
    members = set()
    for m in cls.bricks:
        if int_dot(cls.dim_of(m), point) > 0 and all(
            int_dot(s.dim, point) > 0 for s in wall(cls, m).sides
        ):
            members.add(m)
    return SemistableSet(frozenset(members))


@dataclass(frozen=True)
class Chamber:
    id: int
    cells: tuple[Cell, ...]
    label: SemistableSet
    sample: Vec
    bounding_walls: tuple[tuple[Wall, int], ...]  # (wall, side sign)


@dataclass(frozen=True)
class ChamberEdge:
    src: int
    dst: int
    wall_brick: str
    facet_sample: Vec
    # weakly admissible epimorphism witnesses: new label member -> pair tag
    witnesses: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class ChamberGraph:
    cls: ModuleClass
    chambers: tuple[Chamber, ...]
    edges: tuple[ChamberEdge, ...]
    source: int
    sink: int
    walls: dict[str, Wall]
    # the brick-hyperplane arrangement the chambers were merged from: all of
    # its cells, and every facet adjacency, on a wall or not
    cells: tuple[Cell, ...]
    adjacencies: tuple[FacetAdjacency, ...]
    chamber_of_signs: dict[tuple[int, ...], int]  # cell sign vector -> chamber id

    def chamber(self, cid: int) -> Chamber:
        return self.chambers[cid]

    @cached_property
    def _out(self) -> dict[int, tuple[ChamberEdge, ...]]:
        out: dict[int, list[ChamberEdge]] = {}
        for e in self.edges:
            out.setdefault(e.src, []).append(e)
        return {cid: tuple(es) for cid, es in out.items()}

    def out_edges(self, cid: int) -> tuple[ChamberEdge, ...]:
        return self._out.get(cid, ())


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
    if len(cls.bricks) > guard_limit(BRICK_GUARD):
        raise GuardExceededError(f"{len(cls.bricks)} bricks exceeds the chamber guard")
    return _build_chamber_graph(cls)


@per_class
def _build_chamber_graph(cls: ModuleClass) -> ChamberGraph:
    catalog = cls.catalog
    bricks = cls.bricks
    hyperplanes = [Hyperplane.from_vector(cls.dim_of(b)) for b in bricks]
    cells = enumerate_cells(hyperplanes)
    adjacencies = cell_facet_neighbors(cells, hyperplanes)
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
    chamber_of: dict[tuple, int] = {}
    labels: list[frozenset[str]] = []
    for cid, cell_group in enumerate(ordered):
        found = {semistable_set(cls, c.sample).bricks for c in cell_group}
        if len(found) != 1:
            raise InternalConsistencyError(
                f"semistable label not constant on merged chamber {cid}"
            )
        labels.append(found.pop())
        for c in cell_group:
            chamber_of[c.signs] = cid

    # one pass over the wall facets: the bounding walls of the chambers on
    # both sides, with each chamber's sign of the wall's hyperplane, and one
    # edge from the negative side to the positive side
    bounding: list[dict[str, int]] = [{} for _ in ordered]
    edges: dict[tuple[int, int, str], ChamberEdge] = {}
    for adj in wall_facets:
        i = adj.hyperplane_index
        brick = bricks[i]
        ca, cb = chamber_of[adj.cell_a.signs], chamber_of[adj.cell_b.signs]
        if ca == cb:
            raise InternalConsistencyError(
                f"wall facet of {brick} inside a single chamber at {adj.facet_sample}"
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
                f"at facet sample {adj.facet_sample}"
            )
        witnesses = []
        target = ModuleSum([brick])
        for x in sorted(label_dst - label_src, key=catalog.position):
            pair = next(
                (p for p in cls.weakly_admissible_quotients(x, False) if p.quot == target),
                None,
            )
            if pair is None:
                raise InternalConsistencyError(
                    f"no weakly admissible epimorphism {x} ->> {brick} although "
                    f"{x} becomes semistable across D({brick})"
                )
            witnesses.append((x, pair.tag))
        edges[key] = ChamberEdge(src, dst, brick, adj.facet_sample, tuple(witnesses))

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
            label=SemistableSet(labels[cid]),
            sample=cell_group[0].sample,
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
    return ChamberGraph(
        cls=cls,
        chambers=chambers,
        edges=ordered_edges,
        source=source,
        sink=sink,
        walls=walls,
        cells=tuple(cells),
        adjacencies=tuple(adjacencies),
        chamber_of_signs=chamber_of,
    )


def locate_chamber(graph: ChamberGraph, theta) -> int:
    """Chamber containing an off-wall point, found by its sign vector."""
    cls = graph.cls
    point = integral(theta)
    values = [int_dot(cls.dim_of(b), point) for b in cls.bricks]
    if 0 in values:
        raise InternalConsistencyError(f"{theta} lies on a brick hyperplane")
    return graph.chamber_of_signs[tuple(1 if v > 0 else -1 for v in values)]
