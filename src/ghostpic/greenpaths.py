"""Linear green paths, crossing schedules, maximal green sequences and the
relative Harder-Narasimhan machinery.

A linear path gamma_t = h + t*k (k strictly positive) crosses the hyperplane
of an object X at t_X = -(h.dim X)/(k.dim X); since gamma is linear the
crossing time of a direct sum is the k-weighted average of its components'.
Relative stability of a brick compares its crossing time with those of its
weakly admissible quotients, and every such decision is cross-validated
against exact membership of the crossing point in the wall interior.

Crossings are computed one way only, from a crossing plan
(`stability.CrossingPlan`), which is also the scope of every genericity
question: `stability.crossing_plan` for the class bricks, `ghosts.ghost_plan`
for its bricks and every ghost.  Paths are decided in blocks
(`PathColumns`), each made for one plan, and a single path is a block of
one.  A crossing time is held in one form only, an integer key -time*L
that a block computes for every dim of its plan when it is made.  A block
keeps only the paths generic for its plan (distinct keys across rays), so
genericity is decided once, where the block is made, and `stable_columns`
decides stability on a generic block by the time criterion and
cross-checks it against the interior cone's rows, each dotted with the
block's h and k once per call, all in a few `map` passes per row and per
side.  No decision touches a dim tuple.  Every single-path entry
(`check_generic`, `is_relatively_stable`, `ghosts.ghost_stability`,
`crossing_schedule`, `linear_mgs`) makes its block of one through
`_generic_one`, which refuses a path the block drops and names its first
clash, so all of them refuse the same paths with the same message.  The
grid sweep of `find_linear_paths` reads a block of grid paths at a time.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from operator import and_, eq, floordiv, ge, gt, lt, mul, ne
from typing import NamedTuple

from ghostpic.catalog import ModuleClass, ModuleSum, per_class
from ghostpic.errors import (
    CatalogError,
    InternalConsistencyError,
    NonGenericPathError,
    check_guard,
)
from ghostpic.geometry import IntVec, _combination, integral
from ghostpic.stability import (
    ChamberGraph,
    Crossing,
    CrossingPlan,
    chamber_graph,
    count_mgs,
    crossing_plan,
)

MGS_GUARD = 10**6

# paths decided at a time: bounds the columns a block holds
BLOCK = 512


class LinearPath:
    """gamma_t = h + t*k with exact coordinates (int or Fraction; a float is
    rejected).  The path keeps only integers, (H*h, H*k) and their least
    common denominator H (`geometry.integral`), and builds h and k as
    Fractions when read.  Paths are equal when their h and k are."""

    __slots__ = ("_hi", "_ki", "_den")

    def __init__(self, h, k):
        n = len(h)
        if n != len(k):
            raise CatalogError("h and k must have equal length")
        for name, v in (("h", h), ("k", k)):
            for i, x in enumerate(v):
                if isinstance(x, float):
                    raise CatalogError(f"{name}[{i}] = {x!r} is a float; use int or Fraction")
        *hk, den = integral((*h, *k, 1))  # the trailing 1 comes back as H
        ki = tuple(hk[n:])
        if min(ki, default=1) <= 0:  # H > 0, so ki has the signs of k
            raise CatalogError("all coordinates of k must be strictly positive")
        self._hi: IntVec = tuple(hk[:n])
        self._ki: IntVec = ki
        self._den: int = den

    @property
    def h(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(x, self._den) for x in self._hi])

    @property
    def k(self) -> tuple[Fraction, ...]:
        return tuple([Fraction(x, self._den) for x in self._ki])

    def __eq__(self, other):  # (_hi, _ki, _den) is canonical
        return type(other) is LinearPath and (self._hi, self._ki, self._den) == (
            other._hi, other._ki, other._den
        )

    def __hash__(self):
        return hash((self._hi, self._ki, self._den))

    def __repr__(self):
        return f"LinearPath(h={self.h!r}, k={self.k!r})"


class Event(NamedTuple):
    t: Fraction
    kind: str  # "brick" or "ghost"
    label: str
    stable: bool
    concurrent: bool = False


# ---------------------------------------------------------------------------
# Blocks of paths in columns: the one crossing kernel.
# ---------------------------------------------------------------------------


class PathColumns(NamedTuple):
    """A block of linear paths generic for one crossing plan, as columns:
    h[j][p] and k[j][p] are the coordinate j of H*h and H*k of path p,
    integers with every k[j][p] > 0 (a path's common denominator H scales
    no verdict).  The crossing time of each plan dim d_i is keyed by one
    integer, keys[i][p] = hd * (scale[p] // kd) with hd = H*h.d_i,
    kd = H*k.d_i > 0 and scale[p] the lcm of the path's kd: the time
    -hd/kd is minus the key over the scale, so two dims share a key iff
    they cross together, and a higher key crosses earlier.  The keys are
    computed when the block is made, and the block keeps only the paths
    whose keys of one dim per ray are distinct: no two non-proportional
    dims cross together (proportional dims do on every path)."""

    plan: CrossingPlan
    h: list[list[int]]
    k: list[list[int]]
    keys: list[list[int]]
    scale: list[int]

    @property
    def size(self) -> int:
        return len(self.scale)

    @classmethod
    def of_columns(cls, plan: CrossingPlan, h: list[list[int]], k: list[list[int]]) -> PathColumns:
        """The block of the paths with columns h and k (as the block holds
        them) generic for the plan, in order; columns of another rank than
        the plan's are rejected."""
        keys, scale = _keyed(plan.dims, h, k)
        rays = set(plan.ray)
        distinct = map(len, map(set, zip(*[keys[i] for i in rays])))
        keep = list(map(len(rays).__eq__, distinct)) if rays else [True] * len(scale)
        kept = lambda cols: [list(itertools.compress(c, keep)) for c in cols]
        return cls(plan, kept(h), kept(k), kept(keys), list(itertools.compress(scale, keep)))

    @classmethod
    def of_rows(cls, plan: CrossingPlan, hs, ks) -> PathColumns:
        """`of_columns` on the paths (hs[p], ks[p]), integer vectors."""
        rank = len(plan.dims[0]) if plan.dims else 0
        cols = lambda rows: [list(c) for c in zip(*rows)] if rows else [[] for _ in range(rank)]
        return cls.of_columns(plan, cols(hs), cols(ks))

    @classmethod
    def of_paths(cls, plan: CrossingPlan, paths) -> PathColumns:
        return cls.of_rows(plan, [p._hi for p in paths], [p._ki for p in paths])

    def path(self, p: int) -> LinearPath:
        return LinearPath(tuple([c[p] for c in self.h]), tuple([c[p] for c in self.k]))


def _keyed(dims, h, k):
    """The keys of each dim on the paths of columns h and k, and the scale
    of each path, as `PathColumns` holds them."""
    size = len(k[0]) if k else 0
    if dims and len(h) != len(dims[0]):
        raise CatalogError(f"path of rank {len(h)} on a class of rank {len(dims[0])}")
    kd = [list(_combination(d, k, size)) for d in dims]
    scale = list(map(lcm, *kd)) if kd else [1] * size
    keys = [list(map(mul, _combination(d, h, size), map(floordiv, scale, c))) for d, c in zip(dims, kd)]
    return keys, scale


def stable_columns(block: PathColumns, crossings) -> list[tuple[list[bool], list[int]]]:
    """Stability of event objects of the block's plan along every path of
    the block: per crossing, in order, the time verdicts (every side crosses
    before the event, a higher key, or after it, a lower one, when ``late``;
    on a generic path only a side proportional to the event shares its key,
    and fails), and the paths whose crossing point L*H*h - key*H*k is in
    the interior cone or not against them.  Membership is read from the
    cone's own rows, not from the plan's dims: a row r holds at the point by
    the sign of L*(r.H*h) - key*(r.H*k), and each distinct row is dotted
    with the block's h and k once per call."""
    scale, keys, size = block.scale, block.keys, block.size
    dots = {}  # cone row -> the columns L*(r.H*h) and r.H*k

    def dotted(r):
        if r not in dots:
            dots[r] = list(map(mul, scale, _combination(r, block.h, size))), list(_combination(r, block.k, size))
        return dots[r]

    decided = []
    for crossing in crossings:
        key_e = keys[crossing.event]
        by_times = [True] * size
        for i, late, _ in crossing.sides:
            by_times = list(map(and_, by_times, map(lt if late else gt, keys[i], key_e)))
        cone = crossing.interior
        inside = [True] * size
        for rows, holds in ((cone.equalities, eq), (cone.weak, ge), (cone.strict, gt)):
            for lh, rk in map(dotted, rows):
                inside = list(map(and_, inside, map(holds, lh, map(mul, key_e, rk))))
        decided.append((by_times, list(itertools.compress(itertools.count(), map(ne, by_times, inside)))))
    return decided


def disagreement(crossing: Crossing, by_times: bool) -> InternalConsistencyError:
    """The error of a time verdict that interior membership contradicts."""
    return InternalConsistencyError(
        f"stability of {crossing.label}: time criterion ({by_times}) disagrees "
        f"with interior membership ({not by_times})"
    )


def stable_verdicts(block: PathColumns, crossings) -> list[list[bool]]:
    """The `stable_columns` verdicts of each crossing on the block, in
    order; a disagreement raises, for the first path that has one, at its
    first such crossing."""
    verdicts, bad = [], None
    for c, (by_times, disagree) in zip(crossings, stable_columns(block, crossings)):
        if disagree and (bad is None or disagree[0] < bad[0]):
            bad = disagree[0], c, by_times[disagree[0]]
        verdicts.append(by_times)
    if bad is not None:
        raise disagreement(bad[1], bad[2])
    return verdicts


def mgs_columns(block: PathColumns) -> list[tuple[str, ...]]:
    """The linear MGS of every path of a block: its relatively stable
    bricks (`stable_verdicts`) by falling time key, which no two bricks
    share on a path generic for the block's plan."""
    bricks, keys = list(block.plan.bricks.values()), block.keys
    verdicts = stable_verdicts(block, bricks)
    return [
        tuple(
            c.label
            for c in sorted(
                itertools.compress(bricks, [v[p] for v in verdicts]), key=lambda c: -keys[c.event][p]
            )
        )
        for p in range(block.size)
    ]


# ---------------------------------------------------------------------------
# Single paths: blocks of one.
# ---------------------------------------------------------------------------


def _generic_one(path: LinearPath, plan: CrossingPlan) -> PathColumns:
    """The block of one path, for a path generic for the plan: the one
    place a path is refused.  A path the block drops raises
    NonGenericPathError naming its first clash in plan order: the first dim
    whose key an earlier dim of another ray shares, with its time."""
    block = PathColumns.of_paths(plan, [path])
    if block.size:
        return block
    keys, (scale,) = _keyed(plan.dims, [[x] for x in path._hi], [[x] for x in path._ki])
    by_time: dict[int, int] = {}  # time key -> first index
    for i, (key,) in enumerate(keys):
        first = by_time.setdefault(key, i)
        if plan.ray[first] != plan.ray[i]:
            raise NonGenericPathError(plan.names[first], plan.names[i], Fraction(-key, scale))


def check_generic(path: LinearPath, plan: CrossingPlan) -> tuple[list[int], int]:
    """Reject paths that cross two non-proportional dims of the plan at the
    same time (`crossing_plan` for the class bricks and every weakly
    admissible quotient sum, `ghosts.ghost_plan` for these and every ghost).
    Returns the path's time keys, in plan order, and their scale."""
    block = _generic_one(path, plan)
    return [key for key, in block.keys], block.scale[0]


def is_relatively_stable(cls: ModuleClass, path: LinearPath, m: str) -> bool:
    """True iff t_m exceeds the crossing time of every proper weakly
    admissible quotient; cross-validated against wall-interior membership."""
    plan = crossing_plan(cls)
    crossing = plan.bricks.get(m)
    if crossing is None:
        raise CatalogError(f"{m} is not a brick of {cls!r}")
    ((stable,),) = stable_verdicts(_generic_one(path, plan), [crossing])
    return stable


def crossing_schedule(cls: ModuleClass, path: LinearPath, include_ghosts: bool = False) -> tuple[Event, ...]:
    """Time-sorted crossing events of all class bricks (and, optionally, the
    subobject and quotient ghosts) with their stability flags, read from one
    plan (the ghost plan holds every brick crossing too) in one pass.

    The plan's schedule rows are sorted by falling time key, a brick before
    the ghosts of its time.  On a path generic for the plan, ghosts cross
    together iff their dims share a ray, so the ghost plan groups and orders
    its `concurrent` ghosts once per class.  Extension ghosts are left out:
    they cross with their middle brick, which the schedule reports."""
    if include_ghosts:
        from ghostpic.ghosts import ghost_plan
    plan = ghost_plan(cls) if include_ghosts else crossing_plan(cls)
    block = _generic_one(path, plan)
    keys, (scale,) = block.keys, block.scale
    rows = sorted(plan.schedule, key=lambda row: (-keys[row[0].event][0], row[1] == "ghost"))
    verdicts = stable_verdicts(block, [c for c, _, _ in rows])
    return tuple(
        Event(Fraction(-keys[c.event][0], scale), kind, c.label, stable, concurrent)
        for (c, kind, concurrent), (stable,) in zip(rows, verdicts)
    )


def linear_mgs(cls: ModuleClass, path: LinearPath) -> list[str]:
    """The relatively stable bricks (each verdict cross-validated against
    interior membership) in crossing order: `mgs_columns` on a block of
    one."""
    return list(mgs_columns(_generic_one(path, crossing_plan(cls)))[0])


# ---------------------------------------------------------------------------
# Maximal green sequences via the chamber graph.
# ---------------------------------------------------------------------------


class Mgs(NamedTuple):
    walls: tuple[str, ...]
    chamber_ids: tuple[int, ...]


def enumerate_mgs(cls: ModuleClass, graph: ChamberGraph | None = None) -> list[Mgs]:
    """All source-to-sink paths of the chamber graph, as ordered wall-brick
    lists, in lexicographic order of the wall name sequences."""
    if graph is None:
        graph = chamber_graph(cls)
    total = count_mgs(graph)
    check_guard(total, "maximal green sequences", "MGS_GUARD", MGS_GUARD)
    out: list[Mgs] = []
    stack = [(graph.source, (), (graph.source,))]  # depth first, edges in order
    while stack:
        cid, walls, chain = stack.pop()
        if cid == graph.sink:
            out.append(Mgs(walls, chain))
            continue
        edges = sorted(graph.out_edges(cid), key=lambda e: (e.wall_brick, e.dst))
        stack.extend((e.dst, walls + (e.wall_brick,), chain + (e.dst,)) for e in reversed(edges))
    out.sort(key=lambda m: m.walls)
    return out


def resolve_mgs(graph: ChamberGraph, walls: list[str]) -> Mgs:
    """Reconstruct the chamber path of a wall-name sequence, validating that
    it is a source-to-sink path of the graph."""
    if len(set(walls)) != len(walls):
        raise CatalogError("maximal green sequences have pairwise distinct bricks")
    cid = graph.source
    chain = [cid]
    for w in walls:
        nxt = [e for e in graph.out_edges(cid) if e.wall_brick == w]
        if len(nxt) != 1:
            raise CatalogError(
                f"{walls} is not a maximal green sequence: no unique crossing of "
                f"D({w}) from chamber {cid}"
            )
        cid = nxt[0].dst
        chain.append(cid)
    if cid != graph.sink:
        raise CatalogError(f"{walls} does not reach the all-positive chamber")
    return Mgs(tuple(walls), tuple(chain))


# ---------------------------------------------------------------------------
# Relative Hom-orthogonality and maximality.
# ---------------------------------------------------------------------------


def weakly_admissible_morphism_witness(cls: ModuleClass, x: str, y: str):
    """An image witnessing a nonzero weakly admissible morphism x -> y, or
    None.  Such a morphism exists iff some weakly admissible quotient of x is
    isomorphic to a submodule of y whose cokernel lies in the class."""
    images = {p.quot for p in cls.weakly_admissible_quotients(x, False) if p.quot}
    for q in cls.catalog.pairs(y):
        if q.sub and q.sub in images and cls.in_add(q.quot):
            return q.sub
    return None


def check_relative_hom_orthogonality(cls: ModuleClass, seq: list[str]):
    """(ok, witness): ok iff no nonzero weakly admissible morphism points
    forward in the sequence; on failure witness is (j, k, image)."""
    for j in range(len(seq)):
        for k in range(j + 1, len(seq)):
            image = weakly_admissible_morphism_witness(cls, seq[j], seq[k])
            if image is not None:
                return False, (j, k, image)
    return True, None


def check_mgs_maximality(cls: ModuleClass, mgs: Mgs) -> bool:
    """True iff no class brick can be inserted anywhere in the sequence
    without breaking relative Hom-orthogonality."""
    seq = list(mgs.walls)
    missing = [b for b in cls.bricks if b not in mgs.walls]
    for x in missing:
        for slot in range(len(seq) + 1):
            candidate = seq[:slot] + [x] + seq[slot:]
            ok, _ = check_relative_hom_orthogonality(cls, candidate)
            if ok:
                return False
    return True


# ---------------------------------------------------------------------------
# Harder-Narasimhan stratification.
# ---------------------------------------------------------------------------


class HnFiltration(NamedTuple):
    layers: tuple[tuple[int, int], ...]  # (1-based position in the MGS, multiplicity)
    witnesses: tuple[tuple[str, int, str], ...]  # (component, layer, pair tag)


def hn_stratification(cls: ModuleClass, graph: ChamberGraph, mgs: Mgs, x: ModuleSum) -> HnFiltration:
    """HN filtration of x along an MGS, following the greedy recipe: strip
    the wall brick of the least chamber whose label contains the component,
    then recurse on the kernel."""
    if cls.flags.extension_closed is not True:
        raise CatalogError("HN stratification requires an extension-closed class")
    if not cls.in_add(x):
        raise CatalogError(f"{x} is not an object of the class")
    labels = [graph.chamber(cid).label for cid in mgs.chamber_ids]
    layer_mult: dict[int, int] = {}
    witnesses: list[tuple[str, int, str]] = []

    stack = list(reversed(x.ids))  # depth first: strip a component, then its kernel
    while stack:
        component = stack.pop()
        k = next(
            (i for i in range(len(labels)) if component in labels[i]),
            None,
        )
        if k is None or k == 0:
            raise InternalConsistencyError(
                f"{component} semistable in no chamber of the green sequence"
            )
        target = ModuleSum([mgs.walls[k - 1]])
        pair = next(
            (p for p in cls.weakly_admissible_quotients(component, False) if p.quot == target),
            None,
        )
        if pair is None:
            raise InternalConsistencyError(
                f"missing epimorphism {component} ->> {mgs.walls[k - 1]}"
            )
        layer_mult[k] = layer_mult.get(k, 0) + 1
        witnesses.append((component, k, pair.tag))
        stack.extend(reversed(pair.sub.ids))

    layers = tuple(sorted(layer_mult.items()))
    total = [0] * cls.catalog.quiver.n
    for i, mult in layers:
        d = cls.dim_of(mgs.walls[i - 1])
        total = [a + mult * b for a, b in zip(total, d)]
    if tuple(total) != cls.dim_of(x):
        raise InternalConsistencyError("HN layers do not add up to dim(x)")
    return HnFiltration(layers=layers, witnesses=tuple(witnesses))


@per_class
def filtration_exists(cls: ModuleClass, x: ModuleSum, terms: tuple[str, ...]) -> bool:
    """Exhaustive search for a filtration of x with i-th subquotient in
    add(terms[i]), independent of the HN recipe above; each (x, terms) is
    decided once per class."""
    if not x:
        return True
    if not terms:
        return False
    top = terms[-1]
    return any(
        all(i == top for i in quot.ids) and filtration_exists(cls, sub, terms[:-1])
        for sub, quot in cls.sum_subquotient_pairs(x)
    )


def check_hn_minimality(cls: ModuleClass, mgs: Mgs) -> bool:
    """True iff deleting any term destroys the stratification property; the
    deleted brick itself is the witness searched for."""
    if cls.flags.extension_closed is not True:
        raise CatalogError("HN minimality requires an extension-closed class")
    if len(set(mgs.walls)) != len(mgs.walls):
        raise CatalogError("maximal green sequences have pairwise distinct bricks")
    for i in range(len(mgs.walls)):
        rest = mgs.walls[:i] + mgs.walls[i + 1 :]
        if filtration_exists(cls, ModuleSum([mgs.walls[i]]), rest):
            return False
    return True


# ---------------------------------------------------------------------------
# Deterministic search for linear realizations.
# ---------------------------------------------------------------------------


def _search_grid(rank: int, radius: int):
    k = tuple([1] * rank)
    for h in itertools.product(range(-radius, radius + 1), repeat=rank):
        yield h, k


def find_linear_paths(
    cls: ModuleClass, targets, radius: int = 6
) -> dict[tuple[str, ...], LinearPath | None]:
    """One deterministic grid sweep for linear paths realizing each target
    MGS: the first grid path whose linear MGS is the target, or None when no
    grid path matches (not every MGS is linear).

    The grid is decided in order, a block of at most BLOCK paths at a time:
    the block keeps the generic paths, which read their MGS from
    `mgs_columns`.  The sweep stops after the block that holds the last
    target's path; an interior disagreement in a decided block raises for
    its first path in grid order.
    """
    found: dict[tuple[str, ...], LinearPath | None] = {tuple(t): None for t in targets}
    missing = len(found)
    plan = crossing_plan(cls)
    grid = _search_grid(cls.catalog.quiver.n, radius)
    while missing and (rows := list(itertools.islice(grid, BLOCK))):
        block = PathColumns.of_rows(plan, *zip(*rows))
        for p, walls in enumerate(mgs_columns(block)):
            if walls in found and found[walls] is None:
                found[walls] = block.path(p)
                missing -= 1
    return found


def find_linear_path(cls: ModuleClass, walls: tuple[str, ...], radius: int = 6) -> LinearPath | None:
    """The grid search of `find_linear_paths` for one MGS."""
    return find_linear_paths(cls, [walls], radius)[tuple(walls)]
