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
for its bricks and every ghost.  A path computes two index-aligned integer
lists per plan, hd[i] = H*h.d_i and kd[i] = H*k.d_i, in one pass; genericity
compares times by one integer key per dim (see `check_generic`), stability
by cross-multiplying entries of these lists, and neither touches a dim
tuple; the crossing point of dim i is the integer point
point_at(-hd[i], kd[i]).  A crossing schedule sorts the plan's schedule rows
by these keys.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from operator import mul
from typing import NamedTuple

from ghostpic.catalog import ModuleClass, ModuleSum, per_class
from ghostpic.errors import (
    CatalogError,
    InternalConsistencyError,
    NonGenericPathError,
    check_guard,
)
from ghostpic.geometry import IntVec, integral
from ghostpic.stability import (
    ChamberGraph,
    Crossing,
    CrossingPlan,
    chamber_graph,
    crossing_plan,
    wall,
)

MGS_GUARD = 10**6


class LinearPath:
    """gamma_t = h + t*k with exact coordinates (int or Fraction; a float is
    rejected).  The path keeps only integers, (H*h, H*k) and their least
    common denominator H, and builds h, k and at() as Fractions when read.
    Paths are equal when their h and k are.

    The route is chosen by input type: when every coordinate is exactly an
    int, h and k are kept as given with H = 1, with no float scan and no
    `integral` call; otherwise (a Fraction, a bool) the coordinates are
    checked for floats and made `integral` over their common denominator.
    Both routes give the same (H*h, H*k, H) for the same values.

    Genericity and stability read, for each crossing plan asked for, the two
    integer lists hd[i] = H*h.d_i and kd[i] = H*k.d_i over the plan's dims,
    computed once (`crossings`), and for a generic path the time keys of
    `check_generic`, kept by plan too; `point_at` gives integer points on the
    path, the crossing of dim i being point_at(-hd[i], kd[i])."""

    __slots__ = ("_hi", "_ki", "_den", "_lists", "_keys")

    def __init__(self, h, k):
        n = len(h)
        if n != len(k):
            raise CatalogError("h and k must have equal length")
        hk, den = (*h, *k), 1
        if set(map(type, hk)) != {int}:  # exact ints are kept as given
            for name, v in (("h", h), ("k", k)):
                for i, x in enumerate(v):
                    if isinstance(x, float):
                        raise CatalogError(f"{name}[{i}] = {x!r} is a float; use int or Fraction")
            *hk, den = integral((*hk, 1))  # the trailing 1 comes back as H
        ki = tuple(hk[n:])
        if min(ki, default=1) <= 0:  # H > 0, so ki has the signs of k
            raise CatalogError("all coordinates of k must be strictly positive")
        self._hi: IntVec = tuple(hk[:n])
        self._ki: IntVec = ki
        self._den: int = den
        self._lists: dict = {}
        self._keys: dict = {}

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

    def crossings(self, plan: CrossingPlan) -> tuple[list[int], list[int]]:
        """(hd, kd) = (H*h.d, H*k.d) over the dims d of a crossing plan,
        computed once per plan; a path whose rank is not the plan's is
        rejected."""
        lists = self._lists.get(plan)
        if lists is None:
            dims, hi, ki = plan.dims, self._hi, self._ki
            if dims and len(dims[0]) != len(hi):
                raise CatalogError(f"path of rank {len(hi)} on a class of rank {len(dims[0])}")
            lists = [sum(map(mul, hi, d)) for d in dims], [sum(map(mul, ki, d)) for d in dims]
            self._lists[plan] = lists
        return lists

    def at(self, t) -> tuple[Fraction, ...]:
        t = Fraction(t)
        return tuple(a + t * b for a, b in zip(self.h, self.k))

    def point_at(self, num: int, den: int) -> IntVec:
        """den*H*h + num*H*k: for den > 0 a positive integer multiple of
        at(num/den)."""
        return tuple([den * a + num * b for a, b in zip(self._hi, self._ki)])


class Event(NamedTuple):
    t: Fraction
    kind: str  # "brick" or "ghost"
    label: str
    stable: bool
    concurrent: bool = False


def check_generic(path: LinearPath, plan: CrossingPlan) -> tuple[list[int], int]:
    """Reject paths that cross two non-proportional dims of the plan at the
    same time (`crossing_plan` for the class bricks and every weakly
    admissible quotient sum, `ghosts.ghost_plan` for these and every ghost).

    Each dim's time is keyed by one integer, hd[i] * (L // kd[i]) with
    L = lcm(*kd) (every kd > 0): the time -hd[i]/kd[i] is minus the key over
    L, so two dims share a key iff they cross together, and a higher key
    crosses earlier.  Returns the keys, in plan order, and L; the path keeps
    them, so a second call on the same plan is a lookup.  The Fraction time
    is built only for the error."""
    found = path._keys.get(plan)
    if found is None:
        hd, kd = path.crossings(plan)
        ray = plan.ray
        scale = lcm(*kd)
        keys = [h * (scale // k) for h, k in zip(hd, kd)]
        by_time: dict[int, int] = {}  # time key -> first index
        for i, key in enumerate(keys):
            first = by_time.setdefault(key, i)
            if ray[first] != ray[i]:
                raise NonGenericPathError(plan.names[first], plan.names[i], Fraction(-hd[i], kd[i]))
        found = path._keys[plan] = keys, scale
    return found


def stable_along(path: LinearPath, plan: CrossingPlan, crossing: Crossing) -> bool:
    """Stability of an event object along a path: every side crosses before
    the event, or after it when ``late``.  A side crossing together with the
    event raises NonGenericPathError; the verdict is cross-validated against
    membership of the integer crossing point in the interior cone."""
    hd, kd = path.crossings(plan)
    e = crossing.event
    h_e, k_e = hd[e], kd[e]
    ray = plan.ray
    by_times = True
    for i, late, name in crossing.sides:
        # t_side - t_event = lag / (kd[i]*k_e), and kd[i]*k_e > 0
        lag = h_e * kd[i] - hd[i] * k_e
        if lag == 0 and ray[i] != ray[e]:
            raise NonGenericPathError(crossing.label, name, Fraction(-h_e, k_e))
        if (lag <= 0) if late else (lag >= 0):
            by_times = False
            break
    by_interior = crossing.interior.contains(path.point_at(-h_e, k_e))
    if by_times != by_interior:
        raise InternalConsistencyError(
            f"stability of {crossing.label}: time criterion ({by_times}) disagrees "
            f"with interior membership ({by_interior})"
        )
    return by_times


def is_relatively_stable(cls: ModuleClass, path: LinearPath, m: str) -> bool:
    """True iff t_m exceeds the crossing time of every proper weakly
    admissible quotient; cross-validated against wall-interior membership."""
    plan = crossing_plan(cls)
    crossing = plan.bricks.get(m)
    if crossing is None:
        wall(cls, m)  # raises: m is not a brick of the class
    return stable_along(path, plan, crossing)


def crossing_schedule(cls: ModuleClass, path: LinearPath, include_ghosts: bool = False) -> tuple[Event, ...]:
    """Time-sorted crossing events of all class bricks (and, optionally, the
    subobject and quotient ghosts) with their stability flags, read from one
    plan (the ghost plan holds every brick crossing too) in one pass.

    The plan's schedule rows are sorted by falling `check_generic` time key,
    a brick before the ghosts of its time.  On a path generic for the plan,
    ghosts cross together iff their dims share a ray, so the ghost plan
    groups and orders its `concurrent` ghosts once per class.  Extension
    ghosts are left out: they cross with their middle brick, which the
    schedule reports."""
    if include_ghosts:
        from ghostpic.ghosts import ghost_plan
    plan = ghost_plan(cls) if include_ghosts else crossing_plan(cls)
    keys, scale = check_generic(path, plan)
    rows = sorted(plan.schedule, key=lambda row: (-keys[row[0].event], row[1] == "ghost"))
    return tuple(
        Event(Fraction(-keys[c.event], scale), kind, c.label, stable_along(path, plan, c), concurrent)
        for c, kind, concurrent in rows
    )


def linear_mgs(cls: ModuleClass, path: LinearPath) -> list[str]:
    """The relatively stable bricks (each verdict cross-validated by
    `stable_along`) in crossing order: by falling `check_generic` time key,
    which no two bricks share on a generic path."""
    plan = crossing_plan(cls)
    keys, _ = check_generic(path, plan)
    stable = [c for c in plan.bricks.values() if stable_along(path, plan, c)]
    return [c.label for c in sorted(stable, key=lambda c: -keys[c.event])]


# ---------------------------------------------------------------------------
# Maximal green sequences via the chamber graph.
# ---------------------------------------------------------------------------


class Mgs(NamedTuple):
    walls: tuple[str, ...]
    chamber_ids: tuple[int, ...]


def count_mgs(graph: ChamberGraph) -> int:
    counts = {graph.sink: 1}
    order = sorted(
        graph.chambers, key=lambda c: len(c.label), reverse=True
    )  # labels grow along edges, so this is a reverse topological order
    for c in order:
        if c.id == graph.sink:
            continue
        counts[c.id] = sum(counts[e.dst] for e in graph.out_edges(c.id))
    return counts.get(graph.source, 0)


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

    The sweep stops once every target has a path, so it visits exactly the
    grid points that separate searches for each target would visit together.
    """
    found: dict[tuple[str, ...], LinearPath | None] = {tuple(t): None for t in targets}
    missing = len(found)
    if not missing:
        return found
    for h, k in _search_grid(cls.catalog.quiver.n, radius):
        path = LinearPath(h, k)
        try:
            walls = tuple(linear_mgs(cls, path))
        except NonGenericPathError:
            continue
        if walls in found and found[walls] is None:
            found[walls] = path
            missing -= 1
            if not missing:
                break
    return found


def find_linear_path(cls: ModuleClass, walls: tuple[str, ...], radius: int = 6) -> LinearPath | None:
    """The grid search of `find_linear_paths` for one MGS."""
    return find_linear_paths(cls, [walls], radius)[tuple(walls)]
