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
Vector-space duality swaps the first two kinds, and one builder makes the
side conditions of both: a quotient ghost's are those of the subobject ghost
DZ* >-> DB ->> DA of the opposite modules, read in the catalog's own pairs.
`dualize` carries a class over any catalog to the same brick ids over the
catalog's opposite (`BrickCatalog.opposite`), where every ghost has its twin.

Every domain is stored as a closed cone inside the hyperplane of the ghost's
crossing object, with one inequality per side condition.  Each condition also
knows its crossing-time reading ("side object crosses before/after the
ghost"), and stability along a generic linear path is decided both ways and
cross-checked.  Both readings come from one ghost plan per class
(`ghost_plan`), a crossing plan over the class bricks and every ghost, made
by the builder of the brick plan (`stability.build_plan`).  The ghost plan
also orders, once per class, the subobject and quotient ghosts that cross
together (`order_concurrent`); a crossing schedule with ghosts reads its
bricks and these ghosts from that one plan.
"""

from __future__ import annotations

from typing import NamedTuple

from ghostpic.catalog import (
    ModuleClass,
    ModuleSum,
    Ses,
    SubquotientPair,
    _opposite,
    _support,
    per_class,
)
from ghostpic.errors import CatalogError
from ghostpic.geometry import Cone
from ghostpic.greenpaths import (
    Event,
    LinearPath,
    _generic_one,
    crossing_schedule,
    stable_verdicts,
)
from ghostpic.stability import CrossingPlan, Side, build_plan, side_cone

SUBOBJECT = "subobject"
QUOTIENT = "quotient"
EXTENSION = "extension"
ALL_KINDS = (SUBOBJECT, QUOTIENT, EXTENSION)

SUBOBJECT_SPLITTING = "subobject-splitting"
QUOTIENT_SPLITTING = "quotient-splitting"


class GhostCondition(NamedTuple):
    """One boundary condition of a ghost domain.

    ``late`` records the crossing-time reading: True means the side object
    must cross after the ghost (so theta(obj) < 0 on the domain interior),
    False means before (theta(obj) > 0).  Case 0 is the defining condition
    shared by all ghosts of the kind; cases 1-5 carry the parent-triple
    recipe used by bifurcation classification.  A quotient ghost's case and
    recipe are those of its subobject reading in the opposite modules, with
    ``late`` reversed.
    """

    case: int
    obj: ModuleSum
    late: bool
    recipe: tuple[ModuleSum, ModuleSum, ModuleSum] | None = None


class Ghost(NamedTuple):
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

    def display(self) -> str:
        if self.kind == SUBOBJECT:
            return f"Gh({self.a};{self.b})"
        if self.kind == QUOTIENT:
            return f"Gh*({self.c};{self.b})"
        return f"Gh({self.a}->{self.b}->{self.c})"


class Bifurcation(NamedTuple):
    child: tuple
    parent: tuple
    case: int
    splitting_wall: str
    wall_kind: str


class ExtensionLink(NamedTuple):
    child: tuple
    parent: tuple
    splitting_wall: str


class BifurcationReport(NamedTuple):
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


def _pair_with_basis(pairs, basis: frozenset):
    for p in pairs:
        if p.basis == basis:
            return p
    return None


def _conditions(cls: ModuleClass, ses: Ses, flip: bool) -> list[GhostCondition]:
    """The side conditions of the subobject ghost Gh(Z;B) of Z >-> B ->> C,
    or with ``flip`` of the quotient ghost Gh*(Z*;B) of A >-> B ->> Z*, read
    as the subobject ghost DZ* >-> DB ->> DA of the opposite module: every
    pair is read through `_opposite` and every crossing-time reading is
    reversed, so the two kinds are dual by construction.  A recipe names the
    parent triple (Z', B', C') in the reading of the child."""
    catalog = cls.catalog
    z, b, c = (ses.c, ses.b, ses.a) if flip else (ses.a, ses.b, ses.c)
    read = (lambda p: _opposite(catalog, p)) if flip else (lambda p: p)
    pairs = {m: tuple(map(read, catalog.pairs(m))) for m in (z, b, c)}
    own = read(catalog.ses_pair(ses))
    conds: list[GhostCondition] = [GhostCondition(0, ModuleSum([b]), late=flip)]

    def side(case, obj, late, recipe=None):
        conds.append(GhostCondition(case, obj, late != flip, recipe))

    # (1) common admissible quotients of B and C
    qb = {}
    for p in map(read, cls.admissible_quotients(b)):
        qb.setdefault(p.quot, p)
    for q in map(read, cls.admissible_quotients(c)):
        if q.quot in qb:
            side(1, q.quot, False, (ModuleSum([z]), qb[q.quot].sub, q.sub))

    # (2) class submodules of B disjoint from Z
    for p in pairs[b]:
        if not p.sub or not p.quot or not cls.in_add(p.sub):
            continue
        if _basis(p, "case 2") & _basis(own, "case 2"):
            continue
        cq = _pair_with_basis(pairs[c], p.basis)
        side(2, p.sub, True, (ModuleSum([z]), p.quot, cq.quot) if cq is not None else None)

    # (3) class subobjects of Z
    for p in pairs[z]:
        if not p.sub or not cls.in_add(p.sub):
            continue
        bq = _pair_with_basis(pairs[b], _basis(p, "case 3"))
        side(3, p.sub, True, (p.quot, bq.quot, ModuleSum([c])) if bq is not None else None)

    # (4) class subobjects X of C with B ->> C/X not admissible
    for q in pairs[c]:
        if not q.sub or not q.quot or not cls.in_add(q.sub):
            continue
        kp = _pair_with_basis(pairs[b], _basis(own, "case 4") | _basis(q, "case 4"))
        if kp is not None and not (cls.in_add(kp.sub) and cls.in_add(q.quot)):
            side(4, q.sub, True, (kp.sub, ModuleSum([b]), q.quot))

    # (5) epimorphisms onto class quotients B ->> Y whose kernel maps onto
    # C (Z + ker = B); the sequence's own pair (ker = Z) never does, and is
    # skipped before its basis is read, so a catalog without bases is asked
    # for one only when another candidate exists
    for p in pairs[b]:
        if not p.quot or not p.sub or not cls.in_add(p.quot) or p == own:
            continue
        if _basis(p, "case 5") | _basis(own, "case 5") != _support(catalog, b):
            continue
        zp = _pair_with_basis(pairs[z], own.basis & p.basis)
        side(5, p.quot, False, (zp.sub, p.sub, ModuleSum([c])) if zp is not None else None)
    return conds


def _build_ghost(cls: ModuleClass, ses: Ses, kind: str) -> Ghost:
    warnings = []
    if kind in (SUBOBJECT, QUOTIENT):
        flip = kind == QUOTIENT
        if (cls.flags.is_torsion_free if flip else cls.flags.is_torsion) is not True:
            closure = "torsion-free" if flip else "torsion"
            warnings.append(f"class is not a known {closure} class; domain computed anyway")
        conds = _conditions(cls, ses, flip)
        missing = ses.c if flip else ses.a
        minimal = len(conds) == 1
    else:  # EXTENSION
        conds = [GhostCondition(0, ModuleSum([ses.c]), late=True)]
        missing = ses.b
        wa = {p.quot for p in cls.weakly_admissible_quotients(ses.b, True)}
        minimal = (
            cls.is_minimal_brick(ses.a)
            and cls.is_minimal_brick(ses.c)
            and wa == {ModuleSum([ses.c])}
        )
    event_dim = cls.dim_of(missing)
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
        p.quot == ModuleSum([g.c]) for p in cls.weakly_admissible_quotients(g.b, True)
    ):
        raise CatalogError(f"{g.c} is not a weakly admissible quotient of {g.b}")
    return g.domain


# ---------------------------------------------------------------------------
# Stability along linear paths.
# ---------------------------------------------------------------------------


def ghost_stability(cls: ModuleClass, path: LinearPath, g: Ghost) -> bool:
    """Crossing-time stability (`stable_verdicts` on a block of one path),
    cross-checked against exact membership of the crossing point in the
    domain interior; the two must agree.  The ghost must be one of
    `enumerate_ghosts(cls)`: its crossing is read from the class's ghost
    plan, and a path not generic for that plan is refused."""
    plan = ghost_plan(cls)
    ghost, crossing = plan.ghosts.get(g.key(), (None, None))
    if ghost is not g and ghost != g:
        raise CatalogError(f"{g.display()} is not a ghost of {cls!r}")
    ((stable,),) = stable_verdicts(_generic_one(path, plan), [crossing])
    return stable


def order_concurrent(cls: ModuleClass, ghosts: list[Ghost]) -> list[Ghost]:
    """Ghosts that cross at one time, in schedule order: no middle-term
    morphism points forward.  The exact-sequence relation between concurrent
    ghosts of one missing module makes this order well defined in the
    examples, otherwise catalog order is kept."""
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


@per_class
def ghost_plan(cls: ModuleClass) -> CrossingPlan:
    """The one ghost plan of the class: its crossing plan extended by every
    ghost of every kind.  An extension ghost's event object and side object
    are class bricks, so it adds no dim and no name: genericity along the
    plan is that of the bricks and the subobject and quotient ghosts.

    On a path generic for the plan, two ghosts cross together iff their
    event dims share a ray, so the schedule rows of the subobject and
    quotient ghosts are appended once, grouped by ray, each group in
    `order_concurrent` order and `concurrent` when it has two or more."""
    plan = build_plan(cls, enumerate_ghosts(cls))
    by_ray: dict[int, list[Ghost]] = {}
    for g, c in plan.ghosts.values():
        if g.kind != EXTENSION:
            by_ray.setdefault(plan.ray[c.event], []).append(g)
    rows = tuple(
        (plan.ghosts[g.key()][1], "ghost", len(group) > 1)
        for group in by_ray.values()
        for g in order_concurrent(cls, group)
    )
    return plan._replace(schedule=plan.schedule + rows)


def ghost_events(cls: ModuleClass, path: LinearPath) -> list[Event]:
    """The subobject and quotient ghost events of the path's schedule with
    ghosts, in its order (extension ghosts cross with their middle brick and
    are left out)."""
    return [e for e in crossing_schedule(cls, path, include_ghosts=True) if e.kind == "ghost"]


def mgs_with_ghosts(cls: ModuleClass, path: LinearPath) -> list[Event]:
    """Stable wall crossings, bricks and ghosts merged in time order."""
    return [e for e in crossing_schedule(cls, path, include_ghosts=True) if e.stable]


def format_schedule(events: tuple[Event, ...]) -> list[str]:
    """Display tokens of a crossing schedule's events: every brick crossing
    (parenthesized when unstable), stable ghosts only."""
    tokens = []
    for e in events:
        if e.kind == "brick":
            tokens.append(e.label if e.stable else f"({e.label})")
        elif e.stable:
            tokens.append(e.label)
    return tokens


# ---------------------------------------------------------------------------
# Bifurcations.
# ---------------------------------------------------------------------------


def _recipe_bifurcations(ghosts: tuple[Ghost, ...]) -> tuple[list[Bifurcation], list[tuple]]:
    """Bifurcations and unclassified conditions of the non-minimal subobject
    and quotient ghosts, matched against the five parent-triple recipes.  A
    quotient ghost's recipe (Z', B', C') is read in the opposite module, so
    its parent is the quotient ghost of C' >-> B' ->> Z'."""
    keys = {g.key() for g in ghosts}
    bifurcations: list[Bifurcation] = []
    unclassified: list[tuple] = []
    for child in ghosts:
        if child.kind == EXTENSION or child.minimal:
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
            if child.kind == SUBOBJECT:
                parent_key = (SUBOBJECT, zp.ids[0], bp.ids[0], cp.ids[0])
            else:
                parent_key = (QUOTIENT, cp.ids[0], bp.ids[0], zp.ids[0])
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


def classify_bifurcations(cls: ModuleClass) -> BifurcationReport:
    """Match every side condition of every non-minimal ghost against the
    case recipes.

    Subobject and quotient ghosts follow the five parent-triple
    constructions (a quotient ghost's recipes are read in the opposite
    modules, like its side conditions); extension ghosts are linked by
    shared end terms.  Recipes that produce a decomposable term or a triple
    that is not an enumerated ghost are reported unclassified rather than
    silently dropped, and candidate occurrences of the unlisted pattern (an
    epimorphism from a child's C onto another ghost's middle term) are
    reported as pathological.
    """
    ghosts = enumerate_ghosts(cls)
    bifurcations, unclassified = _recipe_bifurcations(ghosts)

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
        extension_links=tuple(sorted(set(extension_links))),
        unclassified=tuple(unclassified),
        pathological=tuple(sorted(set(pathological))),
    )


def ghost_census_doc(cls: ModuleClass) -> dict:
    """The ghosts of the class with their domains, and the bifurcations,
    extension links, unclassified and pathological cases among them."""
    ghosts = enumerate_ghosts(cls)
    bif = classify_bifurcations(cls)
    return {
        "ghosts": [
            {
                "kind": g.kind,
                "sequence": [g.a, g.b, g.c],
                "missing": g.missing,
                "display": g.display(),
                "minimal": g.minimal,
                "domain": g.domain.doc(),
                "warnings": list(g.warnings),
            }
            for g in ghosts
        ],
        "bifurcations": [b._asdict() for b in bif.bifurcations],
        "extension_links": [link._asdict() for link in bif.extension_links],
        "unclassified": [
            {"child": list(c), "case": case, "reason": reason}
            for c, case, reason in bif.unclassified
        ],
        "pathological": [
            {"child": list(a), "other": list(b)} for a, b in bif.pathological
        ],
    }


# ---------------------------------------------------------------------------
# Duality.
# ---------------------------------------------------------------------------


class Duality(NamedTuple):
    """Transport along vector-space duality D to the opposite catalog.

    The dual class has the same brick ids over `BrickCatalog.opposite`,
    whose P2 stands for D(P2), so modules transport as themselves; stability
    vectors transport by negation (a green path reverses), and subobject
    ghosts (Z,B,C) become quotient ghosts (C,B,Z).
    """

    dual_class: ModuleClass

    def transport_key(self, key: tuple) -> tuple:
        """A ghost key (kind, A, B, C) carried to the dual class: the sequence
        reverses and subobject and quotient ghosts trade kinds."""
        kind, a, b, c = key
        return ({SUBOBJECT: QUOTIENT, QUOTIENT: SUBOBJECT}.get(kind, kind), c, b, a)

    def transport_path(self, path: LinearPath) -> LinearPath:
        return LinearPath(tuple(-x for x in path.h), path.k)

    def transport_domain(self, cone: Cone) -> Cone:
        return cone.negated()


def dualize(cls: ModuleClass) -> Duality:
    """The class's bricks over the opposite catalog, for any catalog, as the
    one field of a `Duality`: the opposite is built once per catalog object."""
    return Duality(ModuleClass(cls.catalog.opposite(), cls.bricks))
