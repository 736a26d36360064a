"""Finite combinatorial presentations of module categories over path algebras.

A :class:`BrickCatalog` stores the indecomposables that matter (with their
dimension vectors), the full subquotient lattice of each indecomposable, a
Hom-dimension table and the list of short exact sequences of bricks.  Type-A
catalogs are generated from scratch, reading Hom and the P/I names off the
Euler form; the Kronecker fragment used throughout the examples is built in;
anything else is loaded from a JSON document.  Every catalog reads its
opposite catalog (vector-space duality) from itself.

A :class:`ModuleClass` is a chosen subset of bricks closed under direct sums
(the class itself is the additive closure) together with computed closure
flags.  It answers the module-theoretic queries the stability and ghost
engines need: Filt-membership, weak admissibility, admissible quotients and
subobjects of direct sums.
"""

from __future__ import annotations

import json
from functools import wraps
from itertools import product
from operator import add, mul
from typing import NamedTuple

from ghostpic.errors import CatalogError
from ghostpic.geometry import primitive

Dim = tuple[int, ...]


class Quiver(NamedTuple):
    n: int
    arrows: tuple[tuple[int, int], ...]


class Indec(NamedTuple):
    id: str
    name: str
    dim: Dim


class ModuleSum:
    """A finite direct sum of catalog indecomposables, as a sorted multiset
    of ids.  The empty multiset is the zero module."""

    __slots__ = ("ids",)

    def __init__(self, ids=()):
        self.ids: tuple[str, ...] = tuple(sorted(ids))

    def __eq__(self, other):
        return isinstance(other, ModuleSum) and self.ids == other.ids

    def __hash__(self):
        return hash(self.ids)

    def __repr__(self):
        return "0" if not self.ids else "+".join(self.ids)

    def __bool__(self):
        return bool(self.ids)

    def __iter__(self):
        return iter(self.ids)

    def __add__(self, other: "ModuleSum") -> "ModuleSum":
        return ModuleSum(self.ids + other.ids)

    def is_indec(self) -> bool:
        return len(self.ids) == 1


ZERO_SUM = ModuleSum()


class SubquotientPair(NamedTuple):
    """One submodule of a catalog indecomposable, with its quotient.

    ``tag`` distinguishes distinct embeddings with isomorphic terms.  When the
    submodule is spanned by a subset of a distinguished basis (always true
    for generated type-A catalogs, where the basis is the set of supported
    vertices), ``basis`` holds that subset and exact intersection/sum queries
    between submodules of the same parent become available.
    """

    parent: str
    sub: ModuleSum
    quot: ModuleSum
    tag: str
    basis: frozenset | None = None


class Ses(NamedTuple):
    """A short exact sequence a >-> b ->> c of catalog bricks."""

    a: str
    b: str
    c: str


def euler_form(quiver: Quiver, x: Dim, y: Dim) -> int:
    """The Euler form <x,y> = sum x_i y_i - sum over arrows s->t of x_s y_t,
    which is dim Hom(X,Y) - dim Ext^1(X,Y) for modules of dims x and y
    (Ringel 1984)."""
    return sum(map(mul, x, y)) - sum([x[s - 1] * y[t - 1] for s, t in quiver.arrows])


class BrickCatalog:
    def __init__(self, quiver, indecs, subquotients, hom, ses_list, complete):
        self.quiver: Quiver = quiver
        self.indecs: tuple[Indec, ...] = tuple(indecs)
        self.by_id: dict[str, Indec] = {m.id: m for m in self.indecs}
        self.subquotients: dict[str, tuple[SubquotientPair, ...]] = {
            k: tuple(v) for k, v in subquotients.items()
        }
        self.hom: dict[tuple[str, str], int] = dict(hom)
        self.ses_list: tuple[Ses, ...] = tuple(ses_list)
        self.complete: bool = complete
        self._position = {m.id: i for i, m in enumerate(self.indecs)}
        self._dual: BrickCatalog | None = None
        self._validate()

    # -- basic queries ------------------------------------------------------

    def indec(self, key: str) -> Indec:
        if key in self.by_id:
            return self.by_id[key]
        raise CatalogError(f"unknown indecomposable {key!r}")

    def dim_of(self, x) -> Dim:
        if isinstance(x, str):
            return self.by_id[x].dim
        total = [0] * self.quiver.n
        for i in x.ids:
            for v, d in enumerate(self.by_id[i].dim):
                total[v] += d
        return tuple(total)

    def pairs(self, m: str) -> tuple[SubquotientPair, ...]:
        return self.subquotients[m]

    def hom_dim(self, x: str, y: str) -> int:
        self.indec(x), self.indec(y)
        return self.hom.get((x, y), 0)

    def position(self, m: str) -> int:
        return self._position[m]

    # -- validation ---------------------------------------------------------

    def _validate(self):
        """Refuse a catalog that breaks a rule of the schema, each refusal
        one CatalogError line starting with `catalog schema violation: `."""
        bad = "catalog schema violation: "
        n = self.quiver.n
        if not isinstance(n, int) or n <= 0:
            raise CatalogError(f"{bad}vertex count must be a positive integer, got {n!r}")
        for s, t in self.quiver.arrows:
            if not (1 <= s <= n and 1 <= t <= n):
                raise CatalogError(f"{bad}arrow ({s},{t}) outside vertex range 1..{n}")
            if s == t:
                raise CatalogError(f"{bad}loops are not allowed")
        for m in self.indecs:
            if all(d == 0 for d in m.dim) or any(d < 0 for d in m.dim):
                raise CatalogError(f"{bad}dimension vector of {m.id} must be nonzero and nonnegative")
        if len(self.by_id) != len(self.indecs):
            raise CatalogError(f"{bad}duplicate indec ids")
        for m in self.indecs:  # --class splits at ',' and --module at '+', and strips each name
            if not m.id or m.id != m.id.strip() or "," in m.id or "+" in m.id:
                raise CatalogError(
                    f"{bad}indec id {m.id!r} must be nonempty, unpadded and free of ',' and '+'"
                )
        pairs = [p for ps in self.subquotients.values() for p in ps]
        for table, ids in (
            ("hom", [i for row in self.hom for i in row]),
            ("subquotients", [*self.subquotients, *(i for p in pairs for i in p.sub.ids + p.quot.ids)]),
            ("ses", [i for s in self.ses_list for i in (s.a, s.b, s.c)]),
        ):
            for i in ids:
                if i not in self.by_id:
                    raise CatalogError(f"{bad}{table} names {i!r}, which is not in indecs")
        masks = {}  # for _componentwise
        for m in self.indecs:
            if len(m.dim) != n:
                raise CatalogError(f"{bad}{m.id}: dimension vector has wrong length")
            if self.hom.get((m.id, m.id), 0) != 1:
                raise CatalogError(f"{bad}{m.id} is not a brick: hom({m.id},{m.id}) != 1")
            support = near = sum(1 << v for v, d in enumerate(m.dim, 1) if d)
            for s, t in self.quiver.arrows:
                if (support >> s | support >> t) & 1:
                    near |= 1 << s | 1 << t
            masks[m.id] = support, near
        q = self.quiver
        if self.complete:  # exactly the positive roots, once each: they hold the simples and
            # are closed under the simple reflections s_i(d) = d - (<d,e_i> + <e_i,d>) e_i for
            # d != e_i, which no finite list is unless the quiver is Dynkin (BGP 1973)
            dims = {m.dim for m in self.indecs}
            simples = sum(sum(d) == 1 for d in dims)
            if simples < n:  # refused before any n-by-n work
                raise CatalogError(f"{bad}a complete catalog must list all {n} simples, but lists {simples}")
            if len(dims) != len(self.indecs):
                raise CatalogError(f"{bad}a complete catalog repeats a dimension vector")
            units = [tuple(int(v == i) for v in range(n)) for i in range(n)]
            for m in self.indecs:
                if euler_form(q, m.dim, m.dim) != 1:
                    raise CatalogError(f"{bad}dim {m.id} = {list(m.dim)} is not a positive root")
                for i, e in enumerate(units):
                    d = list(m.dim)
                    d[i] -= euler_form(q, m.dim, e) + euler_form(q, e, m.dim)
                    if m.dim != e and tuple(d) not in dims:
                        raise CatalogError(f"{bad}a complete catalog lacks the positive root {d}")
        listed_pairs = {}
        for m in self.indecs:
            if m.id not in self.subquotients:
                raise CatalogError(f"{bad}missing subquotient data for {m.id}")
            pair_keys = listed_pairs[m.id] = set()
            support = _support(self, m.id)
            for p in self.subquotients[m.id]:
                if (p.sub, p.quot) in pair_keys:
                    raise CatalogError(
                        f"{bad}subquotients of {m.id} list the pair ({p.sub}, {p.quot}) twice"
                    )
                sub_dim = self.dim_of(p.sub)
                if tuple(a + b for a, b in zip(sub_dim, self.dim_of(p.quot))) != m.dim:
                    raise CatalogError(
                        f"{bad}subquotient of {m.id}: dim(sub)+dim(quot) != dim(parent)"
                    )
                for x in (p.sub, p.quot):
                    if not _componentwise(self, x, masks):
                        raise CatalogError(
                            f"{bad}subquotient {p.tag} of {m.id}: the summands of {x} are neither "
                            "copies of one simple nor on disjoint supports that no arrow joins"
                        )
                basis = p.basis
                if basis is not None and max(m.dim) > 1:  # vertices name no subspace
                    raise CatalogError(
                        f"{bad}subquotient {p.tag} of {m.id} has a vertex basis, but "
                        f"dim {m.id} = {list(m.dim)} is not thin"
                    )
                if basis is not None and not (basis <= support and len(basis) == sum(sub_dim)):
                    raise CatalogError(
                        f"{bad}subquotient {p.tag} of {m.id}: basis {sorted(basis)} is not dim(sub) = "
                        f"{sum(sub_dim)} vertices of the support {sorted(support)}"
                    )
                pair_keys.add((p.sub, p.quot))
            if (ZERO_SUM, ModuleSum([m.id])) not in pair_keys:
                raise CatalogError(f"{bad}{m.id}: missing trivial pair (0, parent)")
            if (ModuleSum([m.id]), ZERO_SUM) not in pair_keys:
                raise CatalogError(f"{bad}{m.id}: missing trivial pair (parent, 0)")

        implied = []  # (A, C) with Ext^1(C,A) != 0 and hom(A,C) = 0 in a complete catalog
        for x, y in product(self.indecs, repeat=2):
            h, e = self.hom.get((x.id, y.id), 0), euler_form(q, x.dim, y.dim)
            if h < e:
                raise CatalogError(
                    f"{bad}hom({x.id},{y.id}) = {h} is below the Euler form <dim {x.id}, dim {y.id}> = {e}"
                )
            if h < 0:
                raise CatalogError(
                    f"{bad}hom({x.id},{y.id}) = {h} is negative, with <dim {x.id}, dim {y.id}> = {e}"
                )
            if self.complete and h > max(e, 0):  # Dynkin: Hom and Ext^1 are never both nonzero
                raise CatalogError(
                    f"{bad}hom({x.id},{y.id}) = {h}, but a complete catalog has "
                    f"hom = max(<dim {x.id}, dim {y.id}>, 0) = {max(e, 0)}"
                )
            if self.complete and h > e and not self.hom.get((y.id, x.id)):
                implied.append((y, x))
        listed = set()
        for s in self.ses_list:
            if s in listed:
                raise CatalogError(f"{bad}ses lists ({s.a},{s.b},{s.c}) twice")
            listed.add(s)
            da, db, dc = self.dim_of(s.a), self.dim_of(s.b), self.dim_of(s.c)
            if tuple(x + y for x, y in zip(da, dc)) != db:
                raise CatalogError(
                    f"{bad}ses-dimension-mismatch: dim({s.a})+dim({s.c}) != dim({s.b})"
                )
            if (ModuleSum([s.a]), ModuleSum([s.c])) not in listed_pairs[s.b]:
                raise CatalogError(
                    f"{bad}ses ({s.a},{s.b},{s.c}) has no matching subquotient pair"
                )
            if self.hom.get((s.c, s.a), 0) == euler_form(q, dc, da):  # never below, by the check above
                raise CatalogError(
                    f"{bad}ses ({s.a},{s.b},{s.c}) does not split, but hom({s.c},{s.a}) - "
                    f"<dim {s.c}, dim {s.a}> = 0 says Ext^1({s.c},{s.a}) = 0"
                )
        by_dim = {m.dim: m.id for m in self.indecs}
        for a, c in implied:  # (C, A) is then an exceptional pair, and the middle term of its
            # nonsplit extension is the indecomposable of dim A + dim C, a positive root
            s = Ses(a.id, by_dim[tuple(map(add, a.dim, c.dim))], c.id)
            if s not in listed:
                raise CatalogError(
                    f"{bad}Ext^1({c.id},{a.id}) != 0 and hom({a.id},{c.id}) = 0, so a complete catalog "
                    f"lists their nonsplit extension {s.b} and the ses ({s.a},{s.b},{s.c})"
                )

    def ses_pair(self, s: Ses) -> SubquotientPair:
        wanted = (ModuleSum([s.a]), ModuleSum([s.c]))
        for p in self.subquotients[s.b]:
            if (p.sub, p.quot) == wanted:
                return p
        raise CatalogError(f"no subquotient pair realizes {s}")

    def opposite(self) -> BrickCatalog:
        """The catalog of the opposite quiver under vector-space duality D,
        built once and validated like any catalog.  It keeps the ids, names,
        dims and order of the indecomposables (its P2 stands for D(P2)),
        reads every pair through `_opposite`, transposes `hom`
        (Hom(DY,DX) = Hom(X,Y)) and reads a >-> b ->> c as
        Dc >-> Db ->> Da.  It holds no link back to this catalog."""
        if self._dual is None:
            self._dual = BrickCatalog(
                Quiver(self.quiver.n, tuple((t, s) for s, t in self.quiver.arrows)),
                self.indecs,
                {m.id: [_opposite(self, p) for p in self.subquotients[m.id]] for m in self.indecs},
                {(y, x): d for (x, y), d in self.hom.items()},
                [Ses(s.c, s.b, s.a) for s in self.ses_list],
                self.complete,
            )
        return self._dual


def _support(catalog: BrickCatalog, m: str) -> frozenset:
    return frozenset(v for v, d in enumerate(catalog.dim_of(m), 1) if d)


def _componentwise(catalog: BrickCatalog, x: ModuleSum, masks) -> bool:
    """True when each submodule of the direct sum x is, up to isomorphism, a
    sum of submodules of its summands, as `in_filt` reads it: the summands
    are copies of one simple (each submodule of S^m is some S^k), or their
    supports are disjoint and no arrow joins two of them (each submodule
    splits by support).  `masks` holds each indecomposable's support, and
    that support grown by the vertices one arrow away, as bits."""
    ids, seen = x.ids, 0
    for i in ids:
        support, near = masks[i]
        if near & seen:
            return ids[0] == ids[-1] and sum(catalog.by_id[i].dim) == 1
        seen |= support
    return True


def _opposite(catalog: BrickCatalog, p: SubquotientPair) -> SubquotientPair:
    """The pair read in the dual module: the vector-space dual of
    X >-> M ->> M/X is D(M/X) >-> DM ->> DX, spanned by the complement of
    X's basis in M's support."""
    basis = None if p.basis is None else _support(catalog, p.parent) - p.basis
    return p._replace(sub=p.quot, quot=p.sub, basis=basis)


# ---------------------------------------------------------------------------
# Type-A generation.
# ---------------------------------------------------------------------------


def _arrow_list(n: int, orientation: str) -> tuple[tuple[int, int], ...]:
    arrows = []
    for i, letter in enumerate(orientation, start=1):
        if letter == "L":
            arrows.append((i + 1, i))
        elif letter == "R":
            arrows.append((i, i + 1))
        else:
            raise CatalogError(f"orientation letter must be L or R, got {letter!r}")
    return tuple(arrows)


def _closed_subsets(a: int, b: int, orientation: str) -> list[frozenset]:
    """Subsets of the interval [a,b] closed under the arrow action, grown one
    vertex v at a time, as only the arrow between v-1 and v constrains v."""
    subsets = [frozenset(), frozenset([a])]
    for v in range(a + 1, b + 1):
        towards_v = orientation[v - 2] == "R"  # v-1 -> v, else v -> v-1
        grown = []
        for s in subsets:
            if not (towards_v and v - 1 in s):  # v left out
                grown.append(s)
            if towards_v or v - 1 in s:  # v taken in
                grown.append(s | {v})
        subsets = grown
    return subsets


def _runs(s) -> list[tuple[int, int]]:
    out = []
    for v in sorted(s):
        if out and out[-1][1] == v - 1:
            out[-1] = (out[-1][0], v)
        else:
            out.append((v, v))
    return out


def generate_type_a(n: int, orientation: str) -> BrickCatalog:
    """Complete catalog of a type-A path algebra.

    ``orientation`` is a word over {L, R} of length n-1; letter i describes
    the arrow between vertices i and i+1, with L meaning i+1 -> i (so "LL"
    is the quiver 1 <- 2 <- 3).  Indecomposables are the interval modules;
    names follow the usual S/P/I convention of AR-quiver pictures.  Hom and
    the P/I names are read off the Euler form.
    """
    if not (1 <= n <= 12):
        raise CatalogError("type-A generation supports 1 <= n <= 12")
    if len(orientation) != n - 1:
        raise CatalogError("orientation word must have length n-1")
    quiver = Quiver(n, _arrow_list(n, orientation))
    units = [tuple(int(v == i) for v in range(1, n + 1)) for i in range(1, n + 1)]

    intervals = {
        (a, b): tuple(1 if a <= v <= b else 0 for v in range(1, n + 1))
        for a in range(1, n + 1)
        for b in range(a, n + 1)
    }
    rows = {dim: tuple(euler_form(quiver, dim, e) for e in units) for dim in intervals.values()}

    def name_of(a: int, b: int, dim: Dim) -> str:
        # P_i is the X with <dim X, e_j> = [i = j] for every j, I_i the X with
        # <e_j, dim X> = [i = j]: Hom(P_i,-) and Hom(-,I_i) read vertex i, Ext^1 is 0
        if a == b:
            return f"S{a}"
        if rows[dim] in units:
            return f"P{units.index(rows[dim]) + 1}"
        column = tuple(euler_form(quiver, e, dim) for e in units)
        if column in units:
            return f"I{units.index(column) + 1}"
        return f"M{a}.{b}"

    interval_name = {iv: name_of(*iv, dim) for iv, dim in intervals.items()}
    indecs = [Indec(interval_name[iv], interval_name[iv], dim) for iv, dim in intervals.items()]
    indecs.sort(key=lambda m: (sum(m.dim), m.dim))

    def sum_of(runs) -> ModuleSum:
        return ModuleSum(interval_name[r] for r in runs)

    subquotients: dict[str, list[SubquotientPair]] = {}
    for a, b in intervals:
        nm = interval_name[(a, b)]
        plist = []
        for s in _closed_subsets(a, b, orientation):
            plist.append(
                SubquotientPair(
                    parent=nm,
                    sub=sum_of(_runs(s)),
                    quot=sum_of(_runs(set(range(a, b + 1)) - s)),
                    tag="sub{" + ",".join(str(v) for v in sorted(s)) + "}",
                    basis=s,
                )
            )
        plist.sort(key=lambda p: (len(p.basis), sorted(p.basis)))
        subquotients[nm] = plist

    # Dims of indecomposables over a Dynkin quiver are the positive roots, and
    # Hom and Ext^1 between two of them are never both nonzero (Gabriel 1972),
    # so hom is max(<x,y>, 0), with <x,y> = sum_j <x,e_j> y_j by linearity
    hom = {}
    for x, y in product(indecs, repeat=2):
        d = sum(map(mul, rows[x.dim], y.dim))
        if d > 0:
            hom[(x.id, y.id)] = d

    ses = set()
    for m in indecs:
        for p in subquotients[m.id]:
            if p.sub.is_indec() and p.quot.is_indec():
                ses.add(Ses(p.sub.ids[0], m.id, p.quot.ids[0]))
    ses_list = sorted(ses, key=lambda s: (s.b, s.a, s.c))

    return BrickCatalog(quiver, indecs, subquotients, hom, ses_list, complete=True)


def builtin_kronecker() -> BrickCatalog:
    """The finite Kronecker fragment: P1, P2, one regular brick M of
    dimension vector (1,1), and the simple S2 at the source vertex.

    Only the subquotient facts that involve these four modules are stored
    and the catalog is marked incomplete: closure flags of classes over it
    are reported as unknown.
    """
    quiver = Quiver(2, ((2, 1), (2, 1)))
    indecs = (
        Indec("P1", "P1", (1, 0)),
        Indec("S2", "S2", (0, 1)),
        Indec("M", "M", (1, 1)),
        Indec("P2", "P2", (2, 1)),
    )

    def trivials(m: str):
        return [
            SubquotientPair(m, ZERO_SUM, ModuleSum([m]), "sub{}"),
            SubquotientPair(m, ModuleSum([m]), ZERO_SUM, "sub{all}"),
        ]

    subquotients = {
        "P1": trivials("P1"),
        "S2": trivials("S2"),
        "M": trivials("M")
        + [SubquotientPair("M", ModuleSum(["P1"]), ModuleSum(["S2"]), "socle")],
        "P2": trivials("P2")
        + [
            SubquotientPair("P2", ModuleSum(["P1"]), ModuleSum(["M"]), "line"),
            SubquotientPair("P2", ModuleSum(["P1", "P1"]), ModuleSum(["S2"]), "radical"),
        ],
    }
    hom = {
        ("P1", "P1"): 1,
        ("S2", "S2"): 1,
        ("M", "M"): 1,
        ("P2", "P2"): 1,
        ("P1", "P2"): 2,
        ("P1", "M"): 1,
        ("P2", "M"): 1,
        ("P2", "S2"): 1,
        ("M", "S2"): 1,
    }
    ses_list = (Ses("P1", "P2", "M"), Ses("P1", "M", "S2"))
    return BrickCatalog(quiver, indecs, subquotients, hom, ses_list, complete=False)


BUILTINS = {"kronecker": builtin_kronecker}


# ---------------------------------------------------------------------------
# JSON serialization.
# ---------------------------------------------------------------------------


def dump_catalog(catalog: BrickCatalog) -> str:
    """UTF-8 JSON document for the catalog, byte-stable across runs."""
    doc = {
        "quiver": {"n": catalog.quiver.n, "arrows": [list(a) for a in catalog.quiver.arrows]},
        "indecs": sorted(
            ({"id": m.id, "name": m.name, "dim": list(m.dim)} for m in catalog.indecs),
            key=lambda d: d["id"],
        ),
        "subquotients": {
            m.id: sorted(
                (
                    {
                        "sub": list(p.sub.ids),
                        "quot": list(p.quot.ids),
                        **({"basis": sorted(p.basis)} if p.basis is not None else {}),
                        "tag": p.tag,
                    }
                    for p in catalog.subquotients[m.id]
                ),
                key=lambda d: (d["sub"], d["quot"], d["tag"]),
            )
            for m in sorted(catalog.indecs, key=lambda m: m.id)
        },
        "hom": sorted([x, y, d] for (x, y), d in catalog.hom.items() if d),
        "ses": sorted([s.a, s.b, s.c] for s in catalog.ses_list),
        "complete": catalog.complete,
    }
    return json.dumps(doc, indent=1, sort_keys=True)


def _exactly(kind: type):
    """A parser that passes a JSON value of exactly this type through and
    raises on any other (so a JSON true is not an int)."""

    def parse(value):
        if type(value) is not kind:
            raise TypeError(f"{value!r} is not a {kind.__name__}")
        return value

    return parse


_str, _int, _bool = _exactly(str), _exactly(int), _exactly(bool)


def _pairs(value) -> dict[str, list[SubquotientPair]]:
    return {
        mid: [
            SubquotientPair(
                parent=mid,
                sub=ModuleSum(map(_str, p["sub"])),
                quot=ModuleSum(map(_str, p["quot"])),
                tag=_str(p.get("tag", f"pair{i}")),
                basis=frozenset(map(_int, p["basis"])) if "basis" in p else None,
            )
            for i, p in enumerate(plist)
        ]
        for mid, plist in value.items()
    }


def _hom(rows) -> dict[tuple[str, str], int]:
    """The hom table of a document's rows; a pair listed twice is refused,
    whatever its dims, so no row silently wins."""
    hom: dict[tuple[str, str], int] = {}
    for x, y, d in rows:
        pair = _str(x), _str(y)
        if pair in hom:
            raise CatalogError(f"catalog schema violation: hom lists the pair ({x},{y}) twice")
        hom[pair] = _int(d)
    return hom


# The fields of a catalog document in BrickCatalog's argument order, each with
# its expected shape and a parser that raises on any other shape.
_FIELDS = (
    ("quiver", '{"n": int, "arrows": [[int, int], ...]}',
     lambda q: Quiver(_int(q["n"]), tuple((_int(s), _int(t)) for s, t in q["arrows"]))),
    ("indecs", '[{"id": str, "name": str, "dim": [int, ...]}, ...]',
     lambda ds: [Indec(_str(d["id"]), _str(d.get("name", d["id"])), tuple(map(_int, d["dim"]))) for d in ds]),
    ("subquotients", '{id: [{"sub": [id, ...], "quot": [id, ...], "basis": [int, ...], "tag": str}, ...]}', _pairs),
    ("hom", "[[id, id, int], ...]", _hom),
    ("ses", "[[id, id, id], ...]", lambda rows: [Ses(*map(_str, r)) for r in rows]),
    ("complete", "true or false", _bool),
)


def load_catalog(document: str) -> BrickCatalog:
    """Parse and validate a catalog document (see dump_catalog for the schema).

    Raises CatalogError on schema violations (naming the field and the shape
    it must have), dimension-vector inconsistency in a subquotient pair, or a
    ses entry violating dimension additivity.
    """
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise CatalogError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CatalogError("catalog schema violation: the document must be a JSON object")
    fields = []
    for key, shape, parse in _FIELDS:
        if key not in doc:
            raise CatalogError(f"catalog schema violation: missing field {key!r}: {shape}")
        try:
            fields.append(parse(doc[key]))
        except (AttributeError, KeyError, TypeError, ValueError):
            raise CatalogError(f"catalog schema violation: {key!r} must be {shape}") from None
    return BrickCatalog(*fields)


# ---------------------------------------------------------------------------
# Module classes.
# ---------------------------------------------------------------------------


_MISSING = object()


def per_class(f):
    """Memoize ``f(cls, *args)`` in the class's one table, keyed by f and its
    positional arguments, which every caller passes in full.  A class is
    immutable, so each per-class fact (Filt membership, quotients, walls, the
    chamber graph, the ghost census, the brick and ghost crossing plans) is
    computed once."""

    @wraps(f)
    def memo(cls, *args):
        table = cls._table
        value = table.get((f, args), _MISSING)
        if value is _MISSING:
            value = table[f, args] = f(cls, *args)
        return value

    return memo


class ClassFlags(NamedTuple):
    quotient_closed: bool | None
    sub_closed: bool | None
    extension_closed: bool | None
    is_torsion: bool | None
    is_torsion_free: bool | None


UNKNOWN_FLAGS = ClassFlags(None, None, None, None, None)


class ModuleClass:
    """A finite brick set together with its additive closure semantics."""

    def __init__(self, catalog: BrickCatalog, bricks):
        self.catalog = catalog
        resolved = tuple(catalog.indec(b).id for b in bricks)
        if len(set(resolved)) != len(resolved):
            raise CatalogError("duplicate bricks in class")
        self.bricks: tuple[str, ...] = tuple(
            sorted(resolved, key=catalog.position)
        )
        self._brick_set = frozenset(self.bricks)
        self._check_independence()
        self._table: dict = {}  # every per-class fact, filled by per_class
        self.flags: ClassFlags = classify_class(self)

    def _check_independence(self):
        """Refuse two bricks on one line through the origin, naming the first
        line in brick order that holds two: dims are nonzero and nonnegative,
        so two are proportional iff their primitive vectors are equal."""
        lines: dict = {}
        for b in self.bricks:
            lines.setdefault(primitive(self.catalog.dim_of(b)), []).append(b)
        for first, second, *_ in (bs for bs in lines.values() if len(bs) > 1):
            raise CatalogError(f"dimension vectors of {first} and {second} are linearly dependent")

    def __repr__(self):
        return f"ModuleClass({','.join(self.bricks)})"

    # -- membership ---------------------------------------------------------

    def contains_indec(self, m: str) -> bool:
        return m in self._brick_set

    def in_add(self, x: ModuleSum) -> bool:
        return all(i in self._brick_set for i in x.ids)

    @per_class
    def in_filt(self, x: ModuleSum) -> bool:
        """True iff x has a filtration with subquotients in the class.

        Submodules of direct sums are enumerated componentwise, so each
        filtration step peels one class brick off a single component (this
        terminates: the total dimension drops each step).  That is exact for
        a listed pair, whose summands every catalog must keep apart (see
        `_componentwise`); a sum built during the search, such as P3 + S2
        over A3-LL, is read componentwise all the same (README "Limit").
        """
        if not x:
            return True
        ids = list(x.ids)
        for i, comp in enumerate(ids):
            rest = ids[:i] + ids[i + 1 :]
            for p in self.catalog.pairs(comp):
                if p.sub.is_indec() and p.sub.ids[0] in self._brick_set:
                    if self.in_filt(ModuleSum(rest) + p.quot):
                        return True
        return False

    # -- quotients and subobjects of indecomposables -------------------------

    @per_class
    def weakly_admissible_quotients(self, m: str, proper: bool):
        """Pairs of m whose quotient is in the class by a kernel in Filt of
        the class, as a tuple; with ``proper`` only nonzero quotients by
        nonzero kernels are kept."""
        return tuple(
            p
            for p in self.catalog.pairs(m)
            if not (proper and (not p.sub or not p.quot))
            and self.in_add(p.quot)
            and self.in_filt(p.sub)
        )

    def admissible_quotients(self, m: str):
        """Pairs of m with nonzero submodule and quotient, both in the class:
        the admissible quotients, and equally the admissible subobjects."""
        return [
            p
            for p in self.catalog.pairs(m)
            if p.sub and p.quot and self.in_add(p.quot) and self.in_add(p.sub)
        ]

    def is_minimal_brick(self, m: str) -> bool:
        return not self.weakly_admissible_quotients(m, True)

    # -- direct sums ---------------------------------------------------------

    def sum_subquotient_pairs(self, x: ModuleSum):
        """All (sub, quot) pairs of a direct sum, as componentwise products
        (the reading of `in_filt`, with the same limit)."""
        per_component = [self.catalog.pairs(c) for c in x.ids]
        for choice in product(*per_component):
            sub = ModuleSum([i for p in choice for i in p.sub.ids])
            quot = ModuleSum([i for p in choice for i in p.quot.ids])
            yield sub, quot

    def dim_of(self, x) -> Dim:
        return self.catalog.dim_of(x)


def classify_class(cls: ModuleClass) -> ClassFlags:
    """Closure flags of the additive closure of the brick set.

    Requires a complete catalog: extension closure is decided by scanning
    every indecomposable outside the class for a submodule/quotient pair
    inside it.  Incomplete catalogs get unknown flags.
    """
    catalog = cls.catalog
    if not catalog.complete:
        return UNKNOWN_FLAGS
    quotient_closed = all(
        cls.in_add(p.quot) for b in cls.bricks for p in catalog.pairs(b)
    )
    sub_closed = all(cls.in_add(p.sub) for b in cls.bricks for p in catalog.pairs(b))
    extension_closed = not any(
        cls.admissible_quotients(m.id) for m in catalog.indecs if not cls.contains_indec(m.id)
    )
    return ClassFlags(
        quotient_closed=quotient_closed,
        sub_closed=sub_closed,
        extension_closed=extension_closed,
        is_torsion=quotient_closed and extension_closed,
        is_torsion_free=sub_closed and extension_closed,
    )
