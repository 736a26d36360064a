"""Linear green paths, crossing schedules, maximal green sequences and the
relative Harder-Narasimhan machinery.

A linear path gamma_t = h + t*k (k strictly positive) crosses the hyperplane
of an object X at t_X = -(h.dim X)/(k.dim X); since gamma is linear the
crossing time of a direct sum is the k-weighted average of its components'.
Relative stability of a brick compares its crossing time with those of its
weakly admissible quotients, and every such decision is cross-validated
against exact membership of the crossing point in the wall interior.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from operator import mul

from ghostpic.catalog import ModuleClass, ModuleSum, per_class
from ghostpic.errors import (
    CatalogError,
    GuardExceededError,
    InternalConsistencyError,
    NonGenericPathError,
    guard_limit,
)
from ghostpic.geometry import Cone, IntVec, Vec, as_fracvec, integral, proportional
from ghostpic.stability import ChamberGraph, chamber_graph, wall

MGS_GUARD = 10**6


@dataclass(frozen=True)
class LinearPath:
    """gamma_t = h + t*k.  Besides the rational h and k the path keeps the
    integer pair (H*h, H*k) over their common denominator H, and a crossing
    table: the integer pair (H*h.dim, H*k.dim) of each dim asked for, computed
    once.  Crossing times compare by integer cross-multiplication; Fractions
    are built only for the time itself."""

    h: Vec
    k: Vec
    _hi: IntVec = field(init=False, repr=False, compare=False)
    _ki: IntVec = field(init=False, repr=False, compare=False)
    _dots: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h, k = as_fracvec(self.h), as_fracvec(self.k)
        if len(h) != len(k):
            raise CatalogError("h and k must have equal length")
        hk = integral(h + k)
        hi, ki = hk[: len(h)], hk[len(h) :]
        if any(x <= 0 for x in ki):  # H > 0, so ki has the signs of k
            raise CatalogError("all coordinates of k must be strictly positive")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "_hi", hi)
        object.__setattr__(self, "_ki", ki)
        object.__setattr__(self, "_dots", {})

    def _crossing(self, dim: tuple) -> tuple[int, int]:
        """(H*h.dim, H*k.dim), from the crossing table."""
        pair = self._dots.get(dim)
        if pair is None:
            pair = (sum(map(mul, self._hi, dim)), sum(map(mul, self._ki, dim)))
            self._dots[dim] = pair
        return pair

    def at(self, t) -> Vec:
        t = Fraction(t)
        return tuple(a + t * b for a, b in zip(self.h, self.k))

    def point_at(self, num: int, den: int) -> IntVec:
        """den*H*h + num*H*k: for den > 0 a positive integer multiple of
        at(num/den)."""
        return tuple(den * a + num * b for a, b in zip(self._hi, self._ki))

    def crossing_time(self, dim) -> Fraction:
        return Fraction(*self.time_key(dim))

    def time_key(self, dim) -> tuple[int, int]:
        """crossing_time(dim) as a reduced (num, den) pair with den > 0, for
        a dim with k.dim > 0 (every nonzero dimension vector)."""
        hd, kd = self._crossing(dim)
        if kd <= 0:
            raise ValueError(f"k.dim must be positive, got dim {dim}")
        g = gcd(hd, kd)
        return -hd // g, kd // g

    def crossing_point(self, dim) -> IntVec:
        """(k.dim)*h - (h.dim)*k over the integers: for k.dim > 0 a positive
        multiple of at(crossing_time(dim)), where the path meets the
        hyperplane of dim."""
        hd, kd = self._crossing(dim)
        return self.point_at(-hd, kd)


@dataclass(frozen=True)
class Event:
    t: Fraction
    kind: str  # "brick" or "ghost"
    label: str
    stable: bool
    concurrent: bool = False


@dataclass(frozen=True)
class CrossingSchedule:
    path: LinearPath
    events: tuple[Event, ...]


@per_class
def _class_dims(cls: ModuleClass, extra_dims: tuple = ()) -> tuple[tuple[tuple, str], ...]:
    """The sorted (dim, name) pairs of the class bricks, of the sides of
    their walls (every weakly admissible quotient sum) and of the extra pairs,
    first name per dim."""
    dims: dict[tuple, str] = {}
    for b in cls.bricks:
        dims.setdefault(cls.dim_of(b), b)
    for b in cls.bricks:
        for d, name, _ in wall(cls, b).sides:
            dims.setdefault(d, name)
    for d, name in extra_dims:
        dims.setdefault(d, name)
    return tuple(sorted(dims.items()))


def check_generic(path: LinearPath, cls: ModuleClass, extra_dims=()) -> None:
    """Reject paths that cross two non-proportional relevant hyperplanes at
    the same time.  Relevant objects are the class bricks, every weakly
    admissible quotient sum, and any extra (dim, name) pairs the caller
    supplies; pass the same tuple of them each time to reuse its table."""
    if type(extra_dims) is not tuple:
        extra_dims = tuple((tuple(d), name) for d, name in extra_dims)
    by_time: dict[tuple[int, int], tuple[tuple, str]] = {}
    for d, name in _class_dims(cls, extra_dims):
        t = path.time_key(d)
        if t in by_time:
            other_d, other_name = by_time[t]
            if not proportional(d, other_d):
                raise NonGenericPathError(other_name, name, Fraction(*t))
        else:
            by_time[t] = (d, name)


def stable_along(path: LinearPath, event: str, event_dim, sides, interior: Cone) -> bool:
    """Stability of an event object (a brick, or a ghost's crossing object)
    along a path: every side crosses before the event, or after it when
    ``late``.  A side crossing together with the event raises
    NonGenericPathError; the verdict is cross-validated against membership
    of the crossing point in the interior of the wall or ghost domain."""
    num_e, den_e = path.time_key(event_dim)
    by_times = True
    for dim, name, late in sides:
        num_s, den_s = path.time_key(dim)
        t_side, t_event = num_s * den_e, num_e * den_s  # scaled by den_s*den_e > 0
        if t_side == t_event and not proportional(dim, event_dim):
            raise NonGenericPathError(event, name, path.crossing_time(event_dim))
        if (t_side <= t_event) if late else (t_side >= t_event):
            by_times = False
            break
    by_interior = interior.contains(path.crossing_point(event_dim))
    if by_times != by_interior:
        raise InternalConsistencyError(
            f"stability of {event}: time criterion ({by_times}) disagrees "
            f"with interior membership ({by_interior})"
        )
    return by_times


def is_relatively_stable(cls: ModuleClass, path: LinearPath, m: str) -> bool:
    """True iff t_m exceeds the crossing time of every proper weakly
    admissible quotient; cross-validated against wall-interior membership."""
    w = wall(cls, m)
    return stable_along(path, m, cls.dim_of(m), w.sides, w.interior)


def crossing_schedule(
    cls: ModuleClass,
    path: LinearPath,
    include_ghosts: bool = False,
    ghost_kinds: tuple[str, ...] | None = None,
) -> CrossingSchedule:
    """Time-sorted crossing events of all class bricks (and, optionally,
    ghosts) with their stability flags.  By default ghost events cover
    subobject and quotient ghosts; pass ghost_kinds to change that."""
    if include_ghosts:
        from ghostpic.ghosts import ghost_events

        kwargs = {} if ghost_kinds is None else {"kinds": ghost_kinds}
        ghost_evts = ghost_events(cls, path, **kwargs)  # validates genericity itself
    else:
        check_generic(path, cls)
        ghost_evts = []
    events = [
        Event(
            t=path.crossing_time(cls.dim_of(b)),
            kind="brick",
            label=b,
            stable=is_relatively_stable(cls, path, b),
        )
        for b in cls.bricks
    ]
    events.extend(ghost_evts)
    events.sort(key=lambda e: (e.t, 0 if e.kind == "brick" else 1))
    return CrossingSchedule(path, tuple(events))


def linear_mgs(cls: ModuleClass, path: LinearPath) -> list[str]:
    """The relatively stable bricks in crossing order."""
    schedule = crossing_schedule(cls, path)
    out = [e.label for e in schedule.events if e.stable]
    for m in out:
        if not wall(cls, m).interior.contains(path.crossing_point(cls.dim_of(m))):
            raise InternalConsistencyError(f"stable brick {m} missed int D({m})")
    return out


# ---------------------------------------------------------------------------
# Maximal green sequences via the chamber graph.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mgs:
    walls: tuple[str, ...]
    chamber_ids: tuple[int, ...]


def count_mgs(graph: ChamberGraph) -> int:
    counts = {graph.sink: 1}
    order = sorted(
        graph.chambers, key=lambda c: len(c.label.bricks), reverse=True
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
    if total > guard_limit(MGS_GUARD):
        raise GuardExceededError(
            f"{total} maximal green sequences exceed the enumeration guard", count=total
        )
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


@dataclass(frozen=True)
class HnFiltration:
    mgs: Mgs
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
    return HnFiltration(mgs=mgs, layers=layers, witnesses=tuple(witnesses))


def filtration_exists(cls: ModuleClass, x: ModuleSum, terms: tuple[str, ...], _memo=None) -> bool:
    """Exhaustive search for a filtration of x with i-th subquotient in
    add(terms[i]), independent of the HN recipe above."""
    if _memo is None:
        _memo = {}
    key = (x, terms)
    if key in _memo:
        return _memo[key]
    if not x:
        _memo[key] = True
        return True
    if not terms:
        _memo[key] = False
        return False
    top = terms[-1]
    result = False
    seen = set()
    for sub, quot in cls.sum_subquotient_pairs(x):
        if (sub, quot) in seen:
            continue
        seen.add((sub, quot))
        if all(i == top for i in quot.ids):
            if filtration_exists(cls, sub, terms[:-1], _memo):
                result = True
                break
    _memo[key] = result
    return result


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
    ks = [tuple([1] * rank)]
    for h in itertools.product(range(-radius, radius + 1), repeat=rank):
        for k in ks:
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
        path = LinearPath(as_fracvec(h), as_fracvec(k))
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
