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

from ghostpic.catalog import ModuleClass, ModuleSum
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


@dataclass(frozen=True)
class Wall:
    brick: str
    cone: Cone
    minimal: bool

    def hyperplane(self) -> Hyperplane:
        return Hyperplane.from_vector(self.cone.equalities[0])

    @cached_property
    def interior(self) -> Cone:
        return self.cone.interior()


def wall(cls: ModuleClass, m: str) -> Wall:
    """The wall of a class brick: theta(m)=0 with one weak inequality per
    isomorphism class of proper nonzero weakly admissible quotient.  Built
    once per class and brick."""
    built = cls._wall_table.get(m)
    if built is not None:
        return built
    if not cls.contains_indec(m):
        raise InternalConsistencyError(f"{m} is not a brick of the class")
    dim = cls.dim_of(m)
    quots = []
    seen = set()
    for p in cls.weakly_admissible_quotients(m):
        if p.quot in seen:
            continue
        seen.add(p.quot)
        quots.append(cls.dim_of(p.quot))
    # drop repeated inequality vectors; no semantic effect
    weak = tuple(dict.fromkeys(quots))
    built = Wall(m, Cone(len(dim), equalities=(dim,), weak=weak), minimal=not weak)
    cls._wall_table[m] = built
    return built


@dataclass(frozen=True)
class SemistableSet:
    """Indecomposable members of S(theta); direct sums are derivable."""

    bricks: frozenset[str]

    def __contains__(self, m: str) -> bool:
        return m in self.bricks

    def __le__(self, other: "SemistableSet") -> bool:
        return self.bricks <= other.bricks

    def sorted(self, cls: ModuleClass) -> list[str]:
        return sorted(self.bricks, key=cls.catalog.position)


def semistable_set(cls: ModuleClass, theta) -> SemistableSet:
    """S(theta): bricks M with theta(M) > 0 and theta(M') > 0 for every
    proper weakly admissible quotient M'.  theta may lie on walls."""
    point = integral(theta)  # a positive multiple: same signs, integer dots
    members = set()
    for m in cls.bricks:
        if int_dot(cls.dim_of(m), point) <= 0:
            continue
        if all(
            int_dot(cls.dim_of(p.quot), point) > 0
            for p in cls.weakly_admissible_quotients(m)
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

    @cached_property
    def _chamber_of_signs(self) -> dict[tuple[int, ...], int]:
        return {c.signs: ch.id for ch in self.chambers for c in ch.cells}


class _ChamberScaffold:
    """Shared construction for enumerate_chambers and chamber_graph."""

    def __init__(self, cls: ModuleClass):
        if len(cls.bricks) > guard_limit(BRICK_GUARD):
            raise GuardExceededError(f"{len(cls.bricks)} bricks exceeds the chamber guard")
        self.cls = cls
        self.bricks = list(cls.bricks)
        self.hyperplanes = [Hyperplane.from_vector(cls.dim_of(b)) for b in self.bricks]
        self.cells = enumerate_cells(self.hyperplanes)
        self.adjacencies = cell_facet_neighbors(self.cells, self.hyperplanes)
        self.walls = {b: wall(cls, b) for b in self.bricks}

        # merge cells across facets that are not contained in any wall
        parent = {c.signs: c.signs for c in self.cells}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        self.wall_facets: list[FacetAdjacency] = []
        for adj in self.adjacencies:
            brick = self.bricks[adj.hyperplane_index]
            if self.walls[brick].cone.contains(adj.facet_sample):
                self.wall_facets.append(adj)
            else:
                parent[find(adj.cell_a.signs)] = find(adj.cell_b.signs)

        groups: dict[tuple, list[Cell]] = {}
        for c in self.cells:
            groups.setdefault(find(c.signs), []).append(c)
        ordered = sorted(groups.values(), key=lambda cs: min(c.signs for c in cs))

        self.chambers: list[Chamber] = []
        self.cell_to_chamber: dict[tuple, int] = {}
        for cid, cell_group in enumerate(ordered):
            cell_group = sorted(cell_group, key=lambda c: c.signs)
            labels = {semistable_set(cls, c.sample).bricks for c in cell_group}
            if len(labels) != 1:
                raise InternalConsistencyError(
                    f"semistable label not constant on merged chamber {cid}"
                )
            for c in cell_group:
                self.cell_to_chamber[c.signs] = cid
            self.chambers.append(
                Chamber(
                    id=cid,
                    cells=tuple(cell_group),
                    label=SemistableSet(labels.pop()),
                    sample=cell_group[0].sample,
                    bounding_walls=(),
                )
            )

        # bounding walls: wall facets on the chamber's topological boundary,
        # with the chamber-side sign of the wall's hyperplane
        bounding: dict[int, dict[str, int]] = {c.id: {} for c in self.chambers}
        for adj in self.wall_facets:
            brick = self.bricks[adj.hyperplane_index]
            ca = self.cell_to_chamber[adj.cell_a.signs]
            cb = self.cell_to_chamber[adj.cell_b.signs]
            if ca == cb:
                continue
            bounding[ca][brick] = adj.cell_a.signs[adj.hyperplane_index]
            bounding[cb][brick] = adj.cell_b.signs[adj.hyperplane_index]
        self.chambers = [
            Chamber(
                c.id,
                c.cells,
                c.label,
                c.sample,
                tuple(
                    (self.walls[b], s)
                    for b, s in sorted(
                        bounding[c.id].items(), key=lambda kv: cls.catalog.position(kv[0])
                    )
                ),
            )
            for c in self.chambers
        ]

    def chamber_of_signs(self, signs) -> int:
        return self.cell_to_chamber[signs]


def enumerate_chambers(cls: ModuleClass) -> list[Chamber]:
    """Connected components of the complement of the union of walls."""
    return list(_ChamberScaffold(cls).chambers)


def chamber_graph(cls: ModuleClass) -> ChamberGraph:
    """Chambers plus one green-oriented edge per wall-interior adjacency.

    Every edge is checked against the wall-crossing theorem: the label grows
    strictly, the wall brick is among the new semistables, and each new
    semistable admits a weakly admissible epimorphism onto the wall brick.
    """
    scaffold = _ChamberScaffold(cls)
    cls_catalog = cls.catalog
    edges: dict[tuple[int, int, str], ChamberEdge] = {}
    for adj in scaffold.wall_facets:
        brick = scaffold.bricks[adj.hyperplane_index]
        side_a = adj.cell_a.signs[adj.hyperplane_index]
        neg_cell, pos_cell = (
            (adj.cell_b, adj.cell_a) if side_a == 1 else (adj.cell_a, adj.cell_b)
        )
        src = scaffold.chamber_of_signs(neg_cell.signs)
        dst = scaffold.chamber_of_signs(pos_cell.signs)
        if src == dst:
            raise InternalConsistencyError(
                f"wall facet of {brick} inside a single chamber at {adj.facet_sample}"
            )
        key = (src, dst, brick)
        if key in edges:
            continue
        label_src = scaffold.chambers[src].label
        label_dst = scaffold.chambers[dst].label
        if not (label_src.bricks < label_dst.bricks) or brick not in label_dst.bricks or brick in label_src.bricks:
            raise InternalConsistencyError(
                f"wall crossing of {brick} violates strict label growth "
                f"at facet sample {adj.facet_sample}"
            )
        witnesses = []
        target = ModuleSum([brick])
        for x in sorted(label_dst.bricks - label_src.bricks, key=cls_catalog.position):
            pair = next(
                (
                    p
                    for p in cls_catalog.pairs(x)
                    if p.quot == target and cls.in_filt(p.sub)
                ),
                None,
            )
            if pair is None:
                raise InternalConsistencyError(
                    f"no weakly admissible epimorphism {x} ->> {brick} although "
                    f"{x} becomes semistable across D({brick})"
                )
            witnesses.append((x, pair.tag))
        edges[key] = ChamberEdge(src, dst, brick, adj.facet_sample, tuple(witnesses))

    minus = tuple(-1 for _ in scaffold.bricks)
    plus = tuple(1 for _ in scaffold.bricks)
    source = scaffold.chamber_of_signs(minus)
    sink = scaffold.chamber_of_signs(plus)
    if scaffold.chambers[source].label.bricks:
        raise InternalConsistencyError("source chamber label is not empty")
    if scaffold.chambers[sink].label.bricks != frozenset(cls.bricks):
        raise InternalConsistencyError("sink chamber label is not the whole class")
    ordered_edges = tuple(
        sorted(
            edges.values(),
            key=lambda e: (e.src, cls_catalog.position(e.wall_brick), e.dst),
        )
    )
    return ChamberGraph(
        cls=cls,
        chambers=tuple(scaffold.chambers),
        edges=ordered_edges,
        source=source,
        sink=sink,
        walls=scaffold.walls,
        cells=tuple(scaffold.cells),
        adjacencies=tuple(scaffold.adjacencies),
    )


def locate_chamber(graph: ChamberGraph, theta) -> int:
    """Chamber containing an off-wall point, found by its sign vector."""
    cls = graph.cls
    point = integral(theta)
    values = [int_dot(cls.dim_of(b), point) for b in cls.bricks]
    if 0 in values:
        raise InternalConsistencyError(f"{theta} lies on a brick hyperplane")
    return graph._chamber_of_signs[tuple(1 if v > 0 else -1 for v in values)]
