"""Finite combinatorial presentations of module categories over path algebras.

A :class:`BrickCatalog` stores the indecomposables that matter (with their
dimension vectors), the full subquotient lattice of each indecomposable, a
Hom-dimension table and the list of short exact sequences of bricks.  Type-A
catalogs are generated from scratch; the Kronecker fragment used throughout
the examples is built in; anything else is loaded from a JSON document.

A :class:`ModuleClass` is a chosen subset of bricks closed under direct sums
(the class itself is the additive closure) together with computed closure
flags.  It answers the module-theoretic queries the stability and ghost
engines need: Filt-membership, weak admissibility, admissible quotients and
subobjects of direct sums.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import wraps
from itertools import product

from ghostpic.errors import CatalogError
from ghostpic.geometry import proportional

Dim = tuple[int, ...]


@dataclass(frozen=True)
class Quiver:
    n: int
    arrows: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n <= 0:
            raise CatalogError(f"vertex count must be a positive integer, got {self.n!r}")
        for s, t in self.arrows:
            if not (1 <= s <= self.n and 1 <= t <= self.n):
                raise CatalogError(f"arrow ({s},{t}) outside vertex range 1..{self.n}")
            if s == t:
                raise CatalogError("loops are not allowed")


@dataclass(frozen=True)
class Indec:
    id: str
    name: str
    dim: Dim

    def __post_init__(self):
        if all(d == 0 for d in self.dim) or any(d < 0 for d in self.dim):
            raise CatalogError(f"dimension vector of {self.id} must be nonzero and nonnegative")


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


@dataclass(frozen=True)
class SubquotientPair:
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
    sub_proper: bool
    tag: str
    basis: frozenset | None = None


@dataclass(frozen=True)
class Ses:
    """A short exact sequence a >-> b ->> c of catalog bricks."""

    a: str
    b: str
    c: str


class BrickCatalog:
    def __init__(self, quiver, indecs, subquotients, hom, ses_list, complete):
        self.quiver: Quiver = quiver
        self.indecs: tuple[Indec, ...] = tuple(indecs)
        self.by_id: dict[str, Indec] = {m.id: m for m in self.indecs}
        if len(self.by_id) != len(self.indecs):
            raise CatalogError("duplicate indec ids")
        self.subquotients: dict[str, tuple[SubquotientPair, ...]] = {
            k: tuple(v) for k, v in subquotients.items()
        }
        self.hom: dict[tuple[str, str], int] = dict(hom)
        self.ses_list: tuple[Ses, ...] = tuple(ses_list)
        self.complete: bool = complete
        self._position = {m.id: i for i, m in enumerate(self.indecs)}
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
        n = self.quiver.n
        for m in self.indecs:
            if len(m.dim) != n:
                raise CatalogError(f"{m.id}: dimension vector has wrong length")
            if self.hom.get((m.id, m.id), 0) != 1:
                raise CatalogError(f"{m.id} is not a brick: hom({m.id},{m.id}) != 1")
        for m in self.indecs:
            if m.id not in self.subquotients:
                raise CatalogError(f"missing subquotient data for {m.id}")
            pair_keys = set()
            for p in self.subquotients[m.id]:
                for i in p.sub.ids + p.quot.ids:
                    if i not in self.by_id:
                        raise CatalogError(f"subquotient of {m.id} references unknown {i}")
                total = tuple(
                    a + b for a, b in zip(self.dim_of(p.sub), self.dim_of(p.quot))
                )
                if total != m.dim:
                    raise CatalogError(
                        f"subquotient of {m.id}: dim(sub)+dim(quot) != dim(parent)"
                    )
                if p.sub_proper != (p.sub.ids != (m.id,)):
                    raise CatalogError(f"{m.id}: sub_proper flag inconsistent")
                pair_keys.add((p.sub, p.quot))
            if (ZERO_SUM, ModuleSum([m.id])) not in pair_keys:
                raise CatalogError(f"{m.id}: missing trivial pair (0, parent)")
            if (ModuleSum([m.id]), ZERO_SUM) not in pair_keys:
                raise CatalogError(f"{m.id}: missing trivial pair (parent, 0)")
        for s in self.ses_list:
            for i in (s.a, s.b, s.c):
                self.indec(i)
            da, db, dc = self.dim_of(s.a), self.dim_of(s.b), self.dim_of(s.c)
            if tuple(x + y for x, y in zip(da, dc)) != db:
                raise CatalogError(
                    f"ses-dimension-mismatch: dim({s.a})+dim({s.c}) != dim({s.b})"
                )
            wanted = (ModuleSum([s.a]), ModuleSum([s.c]))
            if not any((p.sub, p.quot) == wanted for p in self.subquotients[s.b]):
                raise CatalogError(
                    f"ses ({s.a},{s.b},{s.c}) has no matching subquotient pair"
                )

    def ses_pair(self, s: Ses) -> SubquotientPair:
        wanted = (ModuleSum([s.a]), ModuleSum([s.c]))
        for p in self.subquotients[s.b]:
            if (p.sub, p.quot) == wanted:
                return p
        raise CatalogError(f"no subquotient pair realizes {s}")


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


def _closed_subsets(a: int, b: int, orientation: str):
    """Subsets of the interval [a,b] closed under the arrow action."""
    verts = list(range(a, b + 1))
    for mask in range(1 << len(verts)):
        s = {verts[i] for i in range(len(verts)) if mask >> i & 1}
        ok = True
        for i in range(a, b):
            letter = orientation[i - 1]
            if letter == "L" and i + 1 in s and i not in s:
                ok = False
                break
            if letter == "R" and i in s and i + 1 not in s:
                ok = False
                break
        if ok:
            yield frozenset(s)


def _runs(s) -> list[tuple[int, int]]:
    out = []
    for v in sorted(s):
        if out and out[-1][1] == v - 1:
            out[-1] = (out[-1][0], v)
        else:
            out.append((v, v))
    return out


def _reach(n: int, orientation: str, i: int, forward: bool) -> tuple[int, int]:
    # forward: vertices reachable from i (projective support);
    # backward: vertices that reach i (injective support).
    left = i
    while left > 1 and (orientation[left - 2] == ("L" if forward else "R")):
        left -= 1
    right = i
    while right < n and (orientation[right - 1] == ("R" if forward else "L")):
        right += 1
    return left, right


def generate_type_a(n: int, orientation: str) -> BrickCatalog:
    """Complete catalog of a type-A path algebra.

    ``orientation`` is a word over {L, R} of length n-1; letter i describes
    the arrow between vertices i and i+1, with L meaning i+1 -> i (so "LL"
    is the quiver 1 <- 2 <- 3).  Indecomposables are the interval modules;
    names follow the usual S/P/I convention of AR-quiver pictures.
    """
    if not (1 <= n <= 12):
        raise CatalogError("type-A generation supports 1 <= n <= 12")
    if len(orientation) != n - 1:
        raise CatalogError("orientation word must have length n-1")
    arrows = _arrow_list(n, orientation)
    quiver = Quiver(n, arrows)

    proj = {i: _reach(n, orientation, i, True) for i in range(1, n + 1)}
    inj = {i: _reach(n, orientation, i, False) for i in range(1, n + 1)}

    def name_of(a: int, b: int) -> str:
        if a == b:
            return f"S{a}"
        for i in range(1, n + 1):
            if proj[i] == (a, b):
                return f"P{i}"
        for i in range(1, n + 1):
            if inj[i] == (a, b):
                return f"I{i}"
        return f"M{a}.{b}"

    intervals = [(a, b) for a in range(1, n + 1) for b in range(a, n + 1)]
    interval_name = {iv: name_of(*iv) for iv in intervals}
    indecs = []
    for a, b in intervals:
        dim = tuple(1 if a <= v <= b else 0 for v in range(1, n + 1))
        nm = interval_name[(a, b)]
        indecs.append(Indec(nm, nm, dim))
    indecs.sort(key=lambda m: (sum(m.dim), m.dim))

    def sum_of(runs) -> ModuleSum:
        return ModuleSum(interval_name[r] for r in runs)

    subquotients: dict[str, list[SubquotientPair]] = {}
    sub_intervals: dict[str, set[tuple[int, int]]] = {}
    quot_intervals: dict[str, set[tuple[int, int]]] = {}
    for a, b in intervals:
        nm = interval_name[(a, b)]
        plist = []
        subs: set[tuple[int, int]] = set()
        quots: set[tuple[int, int]] = set()
        for s in _closed_subsets(a, b, orientation):
            sub_runs = _runs(s)
            quot_runs = _runs(set(range(a, b + 1)) - s)
            plist.append(
                SubquotientPair(
                    parent=nm,
                    sub=sum_of(sub_runs),
                    quot=sum_of(quot_runs),
                    sub_proper=s != frozenset(range(a, b + 1)),
                    tag="sub{" + ",".join(str(v) for v in sorted(s)) + "}",
                    basis=s,
                )
            )
            if len(sub_runs) == 1:
                subs.add(sub_runs[0])
            if len(quot_runs) == 1:
                quots.add(quot_runs[0])
        plist.sort(key=lambda p: (len(p.basis), sorted(p.basis)))
        subquotients[nm] = plist
        sub_intervals[nm] = subs
        quot_intervals[nm] = quots

    hom = {}
    for x in indecs:
        for y in indecs:
            d = 1 if quot_intervals[x.id] & sub_intervals[y.id] else 0
            if d:
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
            SubquotientPair(m, ZERO_SUM, ModuleSum([m]), True, "sub{}"),
            SubquotientPair(m, ModuleSum([m]), ZERO_SUM, False, "sub{all}"),
        ]

    subquotients = {
        "P1": trivials("P1"),
        "S2": trivials("S2"),
        "M": trivials("M")
        + [SubquotientPair("M", ModuleSum(["P1"]), ModuleSum(["S2"]), True, "socle")],
        "P2": trivials("P2")
        + [
            SubquotientPair("P2", ModuleSum(["P1"]), ModuleSum(["M"]), True, "line"),
            SubquotientPair(
                "P2", ModuleSum(["P1", "P1"]), ModuleSum(["S2"]), True, "radical"
            ),
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
                sub_proper=ModuleSum(p["sub"]) != ModuleSum([mid]),
                tag=_str(p.get("tag", f"pair{i}")),
                basis=frozenset(p["basis"]) if "basis" in p else None,
            )
            for i, p in enumerate(plist)
        ]
        for mid, plist in value.items()
    }


# The fields of a catalog document in BrickCatalog's argument order, each with
# its expected shape and a parser that raises on any other shape.
_FIELDS = (
    ("quiver", '{"n": int, "arrows": [[int, int], ...]}',
     lambda q: Quiver(q["n"], tuple(tuple(a) for a in q["arrows"]))),
    ("indecs", '[{"id": str, "name": str, "dim": [int, ...]}, ...]',
     lambda ds: [Indec(_str(d["id"]), _str(d.get("name", d["id"])), tuple(d["dim"])) for d in ds]),
    ("subquotients", '{id: [{"sub": [id, ...], "quot": [id, ...], "tag": str}, ...]}', _pairs),
    ("hom", "[[id, id, int], ...]", lambda rows: {(_str(x), _str(y)): _int(d) for x, y, d in rows}),
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


def per_class(f):
    """Memoize ``f(cls, *args)`` in the class's one table, keyed by f and its
    arguments with defaults filled in.  A class is immutable, so each
    per-class fact (Filt membership, quotients, walls, the chamber graph, the
    ghost census, genericity tables) is computed once."""
    code = f.__code__
    names = code.co_varnames[1 : code.co_argcount]
    defaults = dict(zip(reversed(names), reversed(f.__defaults__ or ())))

    @wraps(f)
    def memo(cls, *args, **kwargs):
        if kwargs or len(args) < len(names):
            given = {**defaults, **kwargs}
            args += tuple(given[n] for n in names[len(args) :])
        key = (f, args)
        table = cls._table
        if key in table:
            return table[key]
        value = table[key] = f(cls, *args)
        return value

    return memo


@dataclass(frozen=True)
class ClassFlags:
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
        dims = [self.catalog.dim_of(b) for b in self.bricks]
        for i in range(len(dims)):
            for j in range(i + 1, len(dims)):
                if proportional(dims[i], dims[j]):
                    raise CatalogError(
                        f"dimension vectors of {self.bricks[i]} and {self.bricks[j]} "
                        "are linearly dependent"
                    )

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
        terminates: the total dimension drops each step).
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

    def is_weakly_admissible_quotient(self, m: str, pair: SubquotientPair) -> bool:
        if pair.parent != m:
            raise CatalogError("pair does not belong to the given parent")
        return self.in_add(pair.quot) and self.in_filt(pair.sub)

    @per_class
    def weakly_admissible_quotients(self, m: str, proper: bool = True):
        """Pairs of m whose quotient is weakly admissible, as a tuple; with
        ``proper`` only nonzero quotients by nonzero kernels are kept."""
        return tuple(
            p
            for p in self.catalog.pairs(m)
            if not (proper and (not p.sub or not p.quot))
            and self.is_weakly_admissible_quotient(m, p)
        )

    def admissible_quotients(self, m: str, proper: bool = True):
        """Pairs of m whose submodule and quotient both lie in the class: the
        admissible quotients, and equally the admissible subobjects."""
        out = []
        for p in self.catalog.pairs(m):
            if proper and (not p.sub or not p.quot):
                continue
            if self.in_add(p.quot) and self.in_add(p.sub):
                out.append(p)
        return out

    def is_minimal_brick(self, m: str) -> bool:
        return not self.weakly_admissible_quotients(m)

    # -- direct sums ---------------------------------------------------------

    def sum_subquotient_pairs(self, x: ModuleSum):
        """All (sub, quot) pairs of a direct sum, as componentwise products."""
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
