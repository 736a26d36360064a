"""Ghosts of missing modules: enumeration, polyhedral domains, stability
along linear paths, bifurcation classification and duality.

A ghost is (the isomorphism class of) a short exact sequence of bricks
A >-> B ->> C.  With respect to a module class there are three kinds:

* subobject ghost  Gh(Z;B):   B, C in the class, Z = A missing;
* quotient ghost   Gh*(Z*;B): A, B in the class, Z* = C missing;
* extension ghost  Gh(A->B->C): all three in the class (the part of the
  hyperplane of B cut away from its wall by the quotient C).

Subobject and quotient ghosts additionally require Hom(A,C)=0; extension
ghosts do not (the Kronecker extension P1 -> P2 -> M has Hom(P1,M) != 0).

Every domain is stored as a closed cone inside the hyperplane of the ghost's
crossing object, with one inequality per side condition.  Each condition also
knows its crossing-time reading ("side object crosses before/after the
ghost"), and stability along a generic linear path is decided both ways and
cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from ghostpic.catalog import (
    BrickCatalog,
    ModuleClass,
    ModuleSum,
    Ses,
    SubquotientPair,
    generate_type_a,
    per_class,
)
from ghostpic.errors import CatalogError
from ghostpic.geometry import Cone
from ghostpic.greenpaths import (
    CrossingSchedule,
    Event,
    LinearPath,
    check_generic,
    crossing_schedule,
    stable_along,
)
from ghostpic.stability import Side, side_cone

SUBOBJECT = "subobject"
QUOTIENT = "quotient"
EXTENSION = "extension"

SUBOBJECT_SPLITTING = "subobject-splitting"
QUOTIENT_SPLITTING = "quotient-splitting"


@dataclass(frozen=True)
class GhostCondition:
    """One boundary condition of a ghost domain.

    ``late`` records the crossing-time reading: True means the side object
    must cross after the ghost (so theta(obj) < 0 on the domain interior),
    False means before (theta(obj) > 0).  Case 0 is the defining condition
    shared by all ghosts of the kind; cases 1-5 carry the parent-triple
    recipe used by bifurcation classification.
    """

    case: int
    obj: ModuleSum
    late: bool
    recipe: tuple[ModuleSum, ModuleSum, ModuleSum] | None = None


@dataclass(frozen=True)
class Ghost:
    kind: str
    a: str
    b: str
    c: str
    missing: str
    event_dim: tuple[int, ...]
    conditions: tuple[GhostCondition, ...]
    sides: tuple[Side, ...]  # (dim, name, late) of each condition, in order
    domain: Cone
    minimal: bool
    warnings: tuple[str, ...] = ()

    def key(self):
        return (self.kind, self.a, self.b, self.c)

    @cached_property
    def domain_interior(self) -> Cone:
        return self.domain.interior()

    def display(self) -> str:
        if self.kind == SUBOBJECT:
            return f"Gh({self.a};{self.b})"
        if self.kind == QUOTIENT:
            return f"Gh*({self.c};{self.b})"
        return f"Gh({self.a}->{self.b}->{self.c})"


@dataclass(frozen=True)
class Bifurcation:
    child: tuple
    parent: tuple
    case: int
    splitting_wall: str
    wall_kind: str


@dataclass(frozen=True)
class ExtensionLink:
    child: tuple
    parent: tuple
    splitting_wall: str


@dataclass(frozen=True)
class BifurcationReport:
    bifurcations: tuple[Bifurcation, ...]
    extension_links: tuple[ExtensionLink, ...]
    unclassified: tuple[tuple, ...]  # (child key, case, reason)
    pathological: tuple[tuple, ...]  # candidate sixth-pattern pairs


# ---------------------------------------------------------------------------
# Condition enumeration.
# ---------------------------------------------------------------------------


def _basis(pair: SubquotientPair, context: str) -> frozenset:
    if pair.basis is None:
        raise CatalogError(
            f"catalog lacks embedding data for {pair.parent} ({context}); "
            "ghost side conditions need basis-tagged subquotients"
        )
    return pair.basis


def _pair_with_basis(catalog: BrickCatalog, parent: str, basis: frozenset):
    for p in catalog.pairs(parent):
        if p.basis == basis:
            return p
    return None


def _subobject_conditions(cls: ModuleClass, ses: Ses) -> list[GhostCondition]:
    catalog = cls.catalog
    z, b, c = ses.a, ses.b, ses.c
    ses_pair = catalog.ses_pair(ses)
    conds: list[GhostCondition] = [GhostCondition(0, ModuleSum([b]), late=False)]

    # (1) common admissible quotients of B and C
    qb = {}
    for p in cls.admissible_quotients(b):
        qb.setdefault(p.quot, p)
    for q in cls.admissible_quotients(c):
        if q.quot in qb:
            conds.append(
                GhostCondition(
                    1, q.quot, late=False, recipe=(ModuleSum([z]), qb[q.quot].sub, q.sub)
                )
            )

    # (2) class submodules of B disjoint from Z
    for p in catalog.pairs(b):
        if not p.sub or not p.quot or not cls.in_add(p.sub):
            continue
        if _basis(p, "case 2") & _basis(ses_pair, "case 2"):
            continue
        cq = _pair_with_basis(catalog, c, _basis(p, "case 2"))
        recipe = (ModuleSum([z]), p.quot, cq.quot) if cq is not None else None
        conds.append(GhostCondition(2, p.sub, late=True, recipe=recipe))

    # (3) class subobjects of Z
    for p in catalog.pairs(z):
        if not p.sub or not cls.in_add(p.sub):
            continue
        bq = _pair_with_basis(catalog, b, _basis(p, "case 3"))
        recipe = (p.quot, bq.quot, ModuleSum([c])) if bq is not None else None
        conds.append(GhostCondition(3, p.sub, late=True, recipe=recipe))

    # (4) class subobjects X of C with B ->> C/X not admissible
    for q in catalog.pairs(c):
        if not q.sub or not q.quot or not cls.in_add(q.sub):
            continue
        kp = _pair_with_basis(
            catalog, b, _basis(ses_pair, "case 4") | _basis(q, "case 4")
        )
        if kp is None:
            continue
        admissible = cls.in_add(kp.sub) and cls.in_add(q.quot)
        if not admissible:
            conds.append(
                GhostCondition(4, q.sub, late=True, recipe=(kp.sub, ModuleSum([b]), q.quot))
            )

    # (5) epimorphisms B -> Y whose kernel maps onto C (Z + ker = B)
    b_support = frozenset().union(*(_basis(p, "case 5") for p in catalog.pairs(b)))
    for p in catalog.pairs(b):
        if not p.quot or not p.sub:
            continue
        if _basis(p, "case 5") | _basis(ses_pair, "case 5") != b_support:
            continue
        zp = _pair_with_basis(catalog, z, _basis(ses_pair, "case 5") & _basis(p, "case 5"))
        recipe = (zp.sub, p.sub, ModuleSum([c])) if zp is not None else None
        conds.append(GhostCondition(5, p.quot, late=False, recipe=recipe))
    return conds


def _quotient_conditions(cls: ModuleClass, ses: Ses) -> list[GhostCondition]:
    catalog = cls.catalog
    a, b, zstar = ses.a, ses.b, ses.c
    ses_pair = catalog.ses_pair(ses)
    conds: list[GhostCondition] = [GhostCondition(0, ModuleSum([b]), late=True)]

    # (1) common admissible subobjects of A and B
    sa = {}
    for p in cls.admissible_quotients(a, proper=False):
        if p.sub:
            sa.setdefault(p.sub, p)
    for q in cls.admissible_quotients(b, proper=False):
        if q.sub and q.sub in sa:
            conds.append(GhostCondition(1, q.sub, late=True))

    # (2) common class quotients of A and B
    ta = {p.quot for p in catalog.pairs(a) if p.quot and cls.in_add(p.quot)}
    for q in catalog.pairs(b):
        if q.quot and q.quot in ta and cls.in_add(q.quot):
            conds.append(GhostCondition(2, q.quot, late=False))

    # (3) class quotients of the missing module
    for p in catalog.pairs(zstar):
        if p.sub and p.quot and cls.in_add(p.quot):
            conds.append(GhostCondition(3, p.quot, late=False))

    # (4) class quotients of A with indecomposable kernel A' and B/A' missing
    for p in catalog.pairs(a):
        if not p.sub.is_indec() or not p.quot or not cls.in_add(p.quot):
            continue
        bp = _pair_with_basis(catalog, b, _basis(p, "case 4*"))
        if bp is None:
            continue
        if not cls.in_add(bp.quot):
            conds.append(GhostCondition(4, p.quot, late=False))

    # (5) admissible subobjects of B disjoint from A
    for p in cls.admissible_quotients(b):
        if _basis(p, "case 5*") & _basis(ses_pair, "case 5*"):
            continue
        conds.append(GhostCondition(5, p.sub, late=True))
    return conds


def _build_ghost(cls: ModuleClass, ses: Ses, kind: str) -> Ghost:
    warnings = []
    if kind == SUBOBJECT:
        if cls.flags.is_torsion is not True:
            warnings.append("class is not a known torsion class; domain computed anyway")
        conds = _subobject_conditions(cls, ses)
        missing = ses.a
        event_dim = cls.dim_of(ses.a)
        minimal = len(conds) == 1
    elif kind == QUOTIENT:
        if cls.flags.is_torsion_free is not True:
            warnings.append("class is not a known torsion-free class; domain computed anyway")
        conds = _quotient_conditions(cls, ses)
        missing = ses.c
        event_dim = cls.dim_of(ses.c)
        minimal = len(conds) == 1
    elif kind == EXTENSION:
        conds = [GhostCondition(0, ModuleSum([ses.c]), late=True)]
        missing = ses.b
        event_dim = cls.dim_of(ses.b)
        wa = {p.quot for p in cls.weakly_admissible_quotients(ses.b)}
        minimal = (
            cls.is_minimal_brick(ses.a)
            and cls.is_minimal_brick(ses.c)
            and wa == {ModuleSum([ses.c])}
        )
    else:
        raise CatalogError(f"unknown ghost kind {kind!r}")
    sides = tuple(Side(cls.dim_of(c.obj), repr(c.obj), c.late) for c in conds)
    return Ghost(
        kind=kind,
        a=ses.a,
        b=ses.b,
        c=ses.c,
        missing=missing,
        event_dim=tuple(event_dim),
        conditions=tuple(conds),
        sides=sides,
        domain=side_cone(event_dim, sides),
        minimal=minimal,
        warnings=tuple(warnings),
    )


@per_class
def enumerate_ghosts(cls: ModuleClass) -> tuple[Ghost, ...]:
    """Classify every catalog short exact sequence against the class (once per class).

    Sequences with two or more terms outside the class are dropped, as are
    subobject/quotient candidates with Hom(A,C) != 0.
    """
    catalog = cls.catalog
    out: list[Ghost] = []
    for ses in catalog.ses_list:
        in_a = cls.contains_indec(ses.a)
        in_b = cls.contains_indec(ses.b)
        in_c = cls.contains_indec(ses.c)
        if not in_b:
            continue
        if in_a and in_c:
            kind = EXTENSION
        elif in_c and not in_a:
            if catalog.hom_dim(ses.a, ses.c) != 0:
                continue
            kind = SUBOBJECT
        elif in_a and not in_c:
            if catalog.hom_dim(ses.a, ses.c) != 0:
                continue
            kind = QUOTIENT
        else:
            continue
        out.append(_build_ghost(cls, ses, kind))
    return tuple(out)


def subobject_ghost_domain(cls: ModuleClass, g: Ghost) -> Cone:
    if g.kind != SUBOBJECT:
        raise CatalogError(f"{g.display()} is not a subobject ghost")
    return g.domain


def quotient_ghost_domain(cls: ModuleClass, g: Ghost) -> Cone:
    if g.kind != QUOTIENT:
        raise CatalogError(f"{g.display()} is not a quotient ghost")
    return g.domain


def extension_ghost_domain(cls: ModuleClass, g: Ghost) -> Cone:
    if g.kind != EXTENSION:
        raise CatalogError(f"{g.display()} is not an extension ghost")
    if not any(
        p.quot == ModuleSum([g.c]) for p in cls.weakly_admissible_quotients(g.b)
    ):
        raise CatalogError(f"{g.c} is not a weakly admissible quotient of {g.b}")
    return g.domain


# ---------------------------------------------------------------------------
# Stability along linear paths.
# ---------------------------------------------------------------------------


def ghost_stability(cls: ModuleClass, path: LinearPath, g: Ghost) -> bool:
    """Crossing-time stability, cross-checked against exact membership of
    the crossing point in the domain interior; the two must agree."""
    return stable_along(path, g.display(), g.event_dim, g.sides, g.domain_interior)


def _order_concurrent(cls: ModuleClass, ghosts: list[Ghost]) -> list[Ghost]:
    # Order so no middle-term morphism points forward; the exact-sequence
    # relation between concurrent ghosts of one missing module makes this
    # order well defined in the examples, otherwise catalog order is kept.
    remaining = sorted(ghosts, key=lambda g: (cls.catalog.position(g.b), g.key()))
    ordered: list[Ghost] = []
    while remaining:
        pick = None
        for g in remaining:
            if all(h is g or cls.catalog.hom_dim(g.b, h.b) == 0 for h in remaining):
                pick = g
                break
        if pick is None:
            pick = remaining[0]
        remaining.remove(pick)
        ordered.append(pick)
    return ordered


def _ghost_table(cls: ModuleClass, kinds) -> tuple[tuple[Ghost, ...], tuple[tuple[tuple, str], ...]]:
    """The ghosts of the given kinds and the (dim, name) pairs their
    genericity depends on: each event dim, then the dims of their sides;
    built once per class and tuple of kinds."""
    return _kinds_table(cls, tuple(kinds))


@per_class
def _kinds_table(cls: ModuleClass, kinds: tuple):
    ghosts = tuple(g for g in enumerate_ghosts(cls) if g.kind in kinds)
    dims = [(g.event_dim, g.display()) for g in ghosts]
    dims += [(d, name) for g in ghosts for d, name, _ in g.sides]
    return ghosts, tuple(dims)


def ghost_events(
    cls: ModuleClass, path: LinearPath, kinds: tuple[str, ...] = (SUBOBJECT, QUOTIENT)
) -> list[Event]:
    """Ghost crossing events with stability flags.

    Extension ghosts are excluded by default: their events coincide with the
    hyperplane crossing of their middle brick, which the schedule already
    reports, and wall-crossing sequences track them separately.
    """
    ghosts, extra = _ghost_table(cls, kinds)
    check_generic(path, cls, extra_dims=extra)
    by_time: dict[tuple[int, int], list[Ghost]] = {}
    for g in ghosts:
        by_time.setdefault(path.time_key(g.event_dim), []).append(g)
    events: list[Event] = []
    for key, group in by_time.items():
        t = Fraction(*key)
        ordered = _order_concurrent(cls, group) if len(group) > 1 else group
        for g in ordered:
            events.append(
                Event(
                    t=t,
                    kind="ghost",
                    label=g.display(),
                    stable=ghost_stability(cls, path, g),
                    concurrent=len(group) > 1,
                )
            )
    return events


def mgs_with_ghosts(cls: ModuleClass, path: LinearPath) -> list[Event]:
    """Stable wall crossings, bricks and ghosts merged in time order."""
    schedule = crossing_schedule(cls, path, include_ghosts=True)
    return [e for e in schedule.events if e.stable]


def format_schedule(schedule: CrossingSchedule) -> list[str]:
    """Display tokens: every brick crossing (parenthesized when unstable),
    stable ghosts only."""
    tokens = []
    for e in schedule.events:
        if e.kind == "brick":
            tokens.append(e.label if e.stable else f"({e.label})")
        elif e.stable:
            tokens.append(e.label)
    return tokens


# ---------------------------------------------------------------------------
# Bifurcations.
# ---------------------------------------------------------------------------


def _subobject_bifurcations(ghosts: tuple[Ghost, ...]) -> tuple[list[Bifurcation], list[tuple]]:
    """Bifurcations and unclassified conditions of the non-minimal subobject
    ghosts, matched against the five parent-triple recipes."""
    keys = {g.key() for g in ghosts}
    bifurcations: list[Bifurcation] = []
    unclassified: list[tuple] = []
    for child in ghosts:
        if child.kind != SUBOBJECT or child.minimal:
            continue
        for cond in child.conditions:
            if cond.case == 0:
                continue
            wall_kind = (
                SUBOBJECT_SPLITTING if cond.case in (2, 3, 4) else QUOTIENT_SPLITTING
            )
            if not cond.obj.is_indec():
                unclassified.append((child.key(), cond.case, f"splitting object {cond.obj} decomposable"))
                continue
            if cond.recipe is None:
                unclassified.append((child.key(), cond.case, "no parent construction"))
                continue
            zp, bp, cp = cond.recipe
            if not (zp.is_indec() and bp.is_indec() and cp.is_indec()):
                unclassified.append(
                    (child.key(), cond.case, f"parent triple ({zp},{bp},{cp}) not indecomposable")
                )
                continue
            parent_key = (SUBOBJECT, zp.ids[0], bp.ids[0], cp.ids[0])
            if parent_key not in keys:
                unclassified.append((child.key(), cond.case, f"{parent_key} is not an enumerated ghost"))
                continue
            bifurcations.append(
                Bifurcation(
                    child=child.key(),
                    parent=parent_key,
                    case=cond.case,
                    splitting_wall=cond.obj.ids[0],
                    wall_kind=wall_kind,
                )
            )
    return bifurcations, unclassified


def classify_bifurcations(cls: ModuleClass, ghosts: tuple[Ghost, ...] | None = None) -> BifurcationReport:
    """Match every side condition of every non-minimal ghost against the
    case recipes.

    Subobject cases follow the five parent-triple constructions; quotient
    ghosts are classified through the duality transport, as the subobject
    ghosts of the dual class (torsion-free side); extension ghosts are
    linked by shared end terms.  Recipes that produce a decomposable term or
    a triple that is not an enumerated ghost are reported unclassified
    rather than silently dropped, and candidate
    occurrences of the unlisted pattern (an epimorphism from a child's C
    onto another ghost's middle term) are reported as pathological.
    """
    if ghosts is None:
        ghosts = enumerate_ghosts(cls)
    by_key = {g.key(): g for g in ghosts}
    bifurcations, unclassified = _subobject_bifurcations(ghosts)

    if any(g.kind == QUOTIENT and not g.minimal for g in ghosts):
        try:
            duality = dualize(cls)
        except CatalogError:
            duality = None
            for g in ghosts:
                if g.kind == QUOTIENT and not g.minimal:
                    unclassified.append(
                        (g.key(), 0, "quotient-side classification needs a dualizable catalog")
                    )
        if duality is not None:
            dual_bifurcations, _ = _subobject_bifurcations(
                enumerate_ghosts(duality.dual_class)
            )
            for bf in dual_bifurcations:
                child = _transport_key(bf.child, duality.from_dual)
                parent = _transport_key(bf.parent, duality.from_dual)
                if child in by_key and parent in by_key:
                    bifurcations.append(
                        Bifurcation(
                            child=child,
                            parent=parent,
                            case=bf.case,
                            splitting_wall=duality.from_dual[bf.splitting_wall],
                            wall_kind=bf.wall_kind,
                        )
                    )

    extension_links: list[ExtensionLink] = []
    ext = [g for g in ghosts if g.kind == EXTENSION]
    for child in ext:
        for parent in ext:
            if parent is child:
                continue
            if parent.b == child.c:
                extension_links.append(ExtensionLink(child.key(), parent.key(), child.a))
            if parent.b == child.a:
                extension_links.append(ExtensionLink(child.key(), parent.key(), child.c))

    pathological: list[tuple] = []
    subs = [g for g in ghosts if g.kind == SUBOBJECT]
    for child in subs:
        for other in subs:
            if other is child:
                continue
            target = ModuleSum([other.b])
            if any(
                p.quot == target and cls.in_add(p.sub)
                for p in cls.catalog.pairs(child.c)
                if p.sub
            ):
                pathological.append((child.key(), other.key()))

    bifurcations = sorted(set(bifurcations), key=lambda b: (b.child, b.case, b.parent))
    return BifurcationReport(
        bifurcations=tuple(bifurcations),
        extension_links=tuple(sorted(set(extension_links), key=lambda l: l.child)),
        unclassified=tuple(unclassified),
        pathological=tuple(sorted(set(pathological))),
    )


# ---------------------------------------------------------------------------
# Duality.
# ---------------------------------------------------------------------------


def _type_a_orientation(catalog: BrickCatalog) -> str:
    n = catalog.quiver.n
    letters = []
    arrows = set(catalog.quiver.arrows)
    if len(catalog.quiver.arrows) != n - 1:
        raise CatalogError("catalog is not a generated type-A catalog")
    for i in range(1, n):
        if (i + 1, i) in arrows:
            letters.append("L")
        elif (i, i + 1) in arrows:
            letters.append("R")
        else:
            raise CatalogError("catalog is not a generated type-A catalog")
    return "".join(letters)


def _transport_key(key: tuple, names: dict[str, str]) -> tuple:
    """A ghost key (kind, A, B, C) carried along the duality by ``names``:
    the sequence reverses and subobject and quotient ghosts trade kinds."""
    kind, a, b, c = key
    kind = {SUBOBJECT: QUOTIENT, QUOTIENT: SUBOBJECT}.get(kind, kind)
    return (kind, names[c], names[b], names[a])


@dataclass(frozen=True)
class Duality:
    """Transport along the vector-space duality to the opposite quiver.

    Dimension vectors are preserved, so modules correspond by dimension
    vector; stability vectors transport by negation (a green path reverses),
    and subobject ghosts (Z,B,C) become quotient ghosts (DC,DB,DZ).
    """

    cls: ModuleClass
    dual_class: ModuleClass
    to_dual: dict[str, str]
    from_dual: dict[str, str]

    def transport(self, m: str) -> str:
        return self.to_dual[m]

    def transport_key(self, key: tuple) -> tuple:
        return _transport_key(key, self.to_dual)

    def transport_path(self, path: LinearPath) -> LinearPath:
        return LinearPath(tuple(-x for x in path.h), path.k)

    def transport_domain(self, cone: Cone) -> Cone:
        return cone.negated()


def dualize(cls: ModuleClass) -> Duality:
    catalog = cls.catalog
    if not catalog.complete:
        raise CatalogError("duality needs a complete generated catalog")
    orientation = _type_a_orientation(catalog)
    flipped = "".join("R" if x == "L" else "L" for x in orientation)
    dual_catalog = generate_type_a(catalog.quiver.n, flipped)
    by_dim = {m.dim: m.id for m in dual_catalog.indecs}
    to_dual = {m.id: by_dim[m.dim] for m in catalog.indecs}
    from_dual = {v: k for k, v in to_dual.items()}
    dual_class = ModuleClass(dual_catalog, [to_dual[b] for b in cls.bricks])
    return Duality(cls=cls, dual_class=dual_class, to_dual=to_dual, from_dual=from_dual)
