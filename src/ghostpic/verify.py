"""Seeded property suite: the theorem-level checks behind `ghostpic verify`.

Every check is deterministic for a fixed seed.  Random stability vectors and
random linear paths are drawn with integer coordinates and rejected when
non-generic, so all comparisons stay exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cmp_to_key
from fractions import Fraction

from ghostpic.catalog import ModuleClass, ModuleSum, builtin_kronecker, generate_type_a
from ghostpic.errors import InternalConsistencyError, NonGenericPathError
from ghostpic.geometry import Cone, cone_contains_cone, dot, feasible_point, int_dot
from ghostpic.ghosts import (
    EXTENSION,
    QUOTIENT,
    SUBOBJECT,
    _ghost_table,
    classify_bifurcations,
    dualize,
    enumerate_ghosts,
    ghost_stability,
    mgs_with_ghosts,
)
from ghostpic.greenpaths import (
    LinearPath,
    check_generic,
    check_hn_minimality,
    check_mgs_maximality,
    check_relative_hom_orthogonality,
    enumerate_mgs,
    hn_stratification,
    is_relatively_stable,
    linear_mgs,
)
from ghostpic.stability import (
    ChamberGraph,
    chamber_graph,
    locate_chamber,
    semistable_set,
    wall,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        detail = f"  ({self.detail})" if self.detail else ""
        return f"[{status}] {self.name}{detail}"


def standard_fixtures() -> dict[str, ModuleClass]:
    cat_ll = generate_type_a(3, "LL")
    cat_lr = generate_type_a(3, "LR")
    cat_rl = generate_type_a(3, "RL")
    return {
        "a1": ModuleClass(generate_type_a(1, ""), ["S1"]),
        "torsion4": ModuleClass(cat_ll, ["S1", "P3", "I2", "S3"]),
        "minimal3": ModuleClass(cat_ll, ["P3", "I2", "S3"]),
        "case1": ModuleClass(cat_ll, ["P2", "I2", "P3", "S2", "S3"]),
        "case2": ModuleClass(cat_lr, ["S1", "P2", "S2", "I3", "I1"]),
        "case4": ModuleClass(cat_ll, ["S2", "I2", "P3", "S3"]),
        "case5": ModuleClass(cat_rl, ["S3", "I2", "P1", "S1"]),
        "mixed5": ModuleClass(cat_ll, ["S1", "P2", "I2", "P3", "S3"]),
        "full6": ModuleClass(cat_ll, [m.id for m in cat_ll.indecs]),
        "kronecker": ModuleClass(builtin_kronecker(), ["P1", "P2", "M"]),
    }


def _random_generic_paths(cls: ModuleClass, rng: random.Random, count: int, extra_dims=()):
    """Yield count generic paths with integer h and k drawn from rng.  The
    paths are drawn as they are consumed, so only the path in use keeps its
    crossing table; a consumer that draws nothing else from rng between
    paths sees the same draws as from a list."""
    n = cls.catalog.quiver.n
    made = 0
    while made < count:
        h = tuple(rng.randint(-9, 9) for _ in range(n))
        k = tuple(rng.randint(1, 9) for _ in range(n))
        path = LinearPath(h, k)
        try:
            check_generic(path, cls, extra_dims=extra_dims)
        except NonGenericPathError:
            continue
        made += 1
        yield path


def _by_time(a: tuple[int, int], b: tuple[int, int]) -> int:
    """Order two time_key pairs (den > 0) by the times they stand for."""
    return a[0] * b[1] - b[0] * a[1]


def _chamber_chain(graph: ChamberGraph, path: LinearPath) -> list[int]:
    """Chambers a generic path passes through, in order: located at a probe
    before the first brick crossing, between each two consecutive ones and
    after the last, each probe an integer point on the path's ray."""
    cls = graph.cls
    times = sorted(
        (path.time_key(cls.dim_of(b)) for b in cls.bricks), key=cmp_to_key(_by_time)
    )
    (first_num, first_den), (last_num, last_den) = times[0], times[-1]
    probes = [(first_num - first_den, first_den)]
    probes += [(a * d + c * b, 2 * b * d) for (a, b), (c, d) in zip(times, times[1:])]
    probes.append((last_num + last_den, last_den))
    chain: list[int] = []
    for num, den in probes:
        cid = locate_chamber(graph, path.point_at(num, den))
        if not chain or chain[-1] != cid:
            chain.append(cid)
    return chain


class Verifier:
    def __init__(self, paths_per_fixture: int = 1000, seed: int = 0):
        self.paths = paths_per_fixture
        self.seed = seed
        self.fixtures = standard_fixtures()
        self.results: list[CheckResult] = []

    def record(self, name, passed, detail=""):
        self.results.append(CheckResult(name, bool(passed), detail))

    # (a) every wall point of the arrangement is in some wall interior
    def check_union_of_interiors(self):
        failures = 0
        samples = 0
        for cls in self.fixtures.values():
            graph = chamber_graph(cls)
            for adj in graph.adjacencies:
                brick = cls.bricks[adj.hyperplane_index]
                if not graph.walls[brick].cone.contains(adj.facet_sample):
                    continue
                samples += 1
                if not any(
                    graph.walls[b].interior.contains(adj.facet_sample)
                    for b in cls.bricks
                ):
                    failures += 1
        self.record(
            "a:union-of-wall-interiors", failures == 0, f"{samples} facet samples"
        )

    # (b) semistable label locally constant: 25 interior points per chamber
    def check_locally_constant(self):
        rng = random.Random((self.seed, "locally-constant").__repr__())
        failures = 0
        for cls in self.fixtures.values():
            graph = chamber_graph(cls)
            mix_cells = cls.flags.extension_closed is True
            for ch in graph.chambers:
                points = []
                for _ in range(25):
                    if mix_cells:
                        basis = [c.sample for c in ch.cells]
                    else:
                        basis = [rng.choice(ch.cells).sample]
                    weights = [Fraction(rng.randint(1, 9)) for _ in basis]
                    extra = rng.choice(ch.cells).sample
                    basis = basis + [extra]
                    weights.append(Fraction(rng.randint(1, 9)))
                    total = sum(weights)
                    point = tuple(
                        sum(w * p[i] for w, p in zip(weights, basis)) / total
                        for i in range(cls.catalog.quiver.n)
                    )
                    points.append(point)
                for point in points:
                    if semistable_set(cls, point).bricks != ch.label.bricks:
                        failures += 1
        self.record("b:semistable-locally-constant", failures == 0)

    # (c) wall crossing: S(theta-) = S(theta0) strictly below S(theta+)
    def check_wall_crossing(self):
        failures = 0
        edges = 0
        for cls in self.fixtures.values():
            graph = chamber_graph(cls)
            eta = tuple(Fraction(1) for _ in range(cls.catalog.quiver.n))
            for e in graph.edges:
                edges += 1
                theta0 = e.facet_sample
                margins = []
                for b in cls.bricks:
                    d = cls.dim_of(b)
                    v = dot(d, theta0)
                    if v != 0:
                        margins.append(abs(v) / dot(d, eta))
                eps = min(margins) / 2 if margins else Fraction(1)
                minus = tuple(x - eps for x in theta0)
                plus = tuple(x + eps for x in theta0)
                s_minus = semistable_set(cls, minus).bricks
                s_zero = semistable_set(cls, theta0).bricks
                s_plus = semistable_set(cls, plus).bricks
                src = graph.chamber(e.src).label.bricks
                dst = graph.chamber(e.dst).label.bricks
                ok = (
                    s_minus == s_zero == src
                    and s_plus == dst
                    and s_zero < s_plus
                    and e.wall_brick in s_plus - s_zero
                )
                if not ok:
                    failures += 1
        self.record("c:wall-crossing-monotone", failures == 0, f"{edges} edges")

    # (d) quotient-time stability criterion == wall-interior membership
    def check_stability_equivalence(self):
        rng = random.Random((self.seed, "stability").__repr__())
        failures = 0
        for name, cls in self.fixtures.items():
            for path in _random_generic_paths(cls, rng, self.paths):
                for b in cls.bricks:
                    try:
                        is_relatively_stable(cls, path, b)
                    except InternalConsistencyError:
                        failures += 1
        self.record(
            "d:brick-stability-equivalence",
            failures == 0,
            f"{self.paths} paths x {len(self.fixtures)} fixtures",
        )

    # (e) ghost stability time criterion == exact domain membership
    def check_ghost_stability_equivalence(self):
        rng = random.Random((self.seed, "ghost-stability").__repr__())
        failures = 0
        for cls in self.fixtures.values():
            ghosts, extra = _ghost_table(cls, (SUBOBJECT, QUOTIENT, EXTENSION))
            if not ghosts:
                continue
            for path in _random_generic_paths(cls, rng, self.paths, extra_dims=extra):
                for g in ghosts:
                    try:
                        ghost_stability(cls, path, g)
                    except InternalConsistencyError:
                        failures += 1
        self.record("e:ghost-stability-equivalence", failures == 0)

    # (f) HN stratification exists for every class object over every MGS
    def check_hn_existence(self):
        rng = random.Random((self.seed, "hn").__repr__())
        failures = 0
        checked = 0
        for cls in self.fixtures.values():
            if cls.flags.extension_closed is not True:
                continue
            graph = chamber_graph(cls)
            sequences = enumerate_mgs(cls, graph)
            objects = [ModuleSum([b]) for b in cls.bricks]
            for _ in range(5):
                size = rng.randint(2, 3)
                objects.append(ModuleSum([rng.choice(cls.bricks) for _ in range(size)]))
            for mgs in sequences:
                for x in objects:
                    checked += 1
                    try:
                        hn_stratification(cls, graph, mgs, x)
                    except InternalConsistencyError:
                        failures += 1
        self.record("f:hn-existence", failures == 0, f"{checked} filtrations")

    # (g) chambers of extension-closed classes are the sign-vector regions of
    # their bounding walls, and labels are pairwise distinct
    def check_convexity_and_distinct_labels(self):
        failures = 0
        report_only = []
        for name, cls in self.fixtures.items():
            graph = chamber_graph(cls)
            asserted = cls.flags.extension_closed is True
            labels = [frozenset(c.label.bricks) for c in graph.chambers]
            distinct = len(set(labels)) == len(labels)
            convex = True
            index_of = {b: i for i, b in enumerate(cls.bricks)}
            for ch in graph.chambers:
                wanted = {
                    index_of[w.brick]: sign for (w, sign) in ch.bounding_walls
                }
                region_cells = {
                    c.signs
                    for c in graph.cells
                    if all(c.signs[i] == s for i, s in wanted.items())
                }
                have = {c.signs for c in ch.cells}
                if region_cells != have:
                    convex = False
            if asserted:
                if not (distinct and convex):
                    failures += 1
            else:
                report_only.append(f"{name}: convex={convex} distinct={distinct}")
        self.record(
            "g:chamber-convexity-and-distinct-labels",
            failures == 0,
            "; ".join(report_only) if report_only else "",
        )

    # (h) duality round trip on the four-brick torsion fixture
    def check_duality(self):
        cls = self.fixtures["torsion4"]
        ok = True
        detail = ""
        try:
            duality = dualize(cls)
            ghosts = [g for g in enumerate_ghosts(cls) if g.kind == SUBOBJECT]
            dual_ghosts = {g.key(): g for g in enumerate_ghosts(duality.dual_class)}
            expected = sorted(duality.transport_key(g.key()) for g in ghosts)
            got = sorted(k for k in dual_ghosts if k[0] == "quotient")
            if expected != got:
                ok = False
                detail = "quotient census mismatch"
            for g in ghosts:
                twin = dual_ghosts[duality.transport_key(g.key())]
                if not (
                    cone_contains_cone(twin.domain, duality.transport_domain(g.domain))
                    and cone_contains_cone(duality.transport_domain(g.domain), twin.domain)
                ):
                    ok = False
                    detail = f"domain transport mismatch for {g.display()}"
            if duality.dual_class.flags.is_torsion_free is not True:
                ok = False
                detail = "dual class is not torsion-free"
            path = LinearPath((Fraction(3), Fraction(0), Fraction(2)), (Fraction(1),) * 3)
            orig = [e.label for e in mgs_with_ghosts(cls, path)]
            dual = [
                e.label
                for e in mgs_with_ghosts(duality.dual_class, duality.transport_path(path))
            ]
            transported = []
            for label in reversed(orig):
                if label.startswith("Gh("):
                    z, b = label[3:-1].split(";")
                    transported.append(
                        f"Gh*({duality.transport(z)};{duality.transport(b)})"
                    )
                else:
                    transported.append(duality.transport(label))
            if dual != transported:
                ok = False
                detail = "green sequence did not reverse"
            double = dualize(duality.dual_class)
            if not all(
                double.to_dual[duality.to_dual[m.id]] == m.id
                for m in cls.catalog.indecs
            ):
                ok = False
                detail = "double dual is not the identity"
        except Exception as exc:  # a raise is a failure, not a crash
            ok = False
            detail = repr(exc)
        self.record("h:duality-round-trip", ok, detail)

    # every enumerated MGS is relatively Hom-orthogonal, maximal and minimal
    def check_mgs_properties(self):
        failures = 0
        total = 0
        for cls in self.fixtures.values():
            if cls.catalog.complete is False:
                continue
            graph = chamber_graph(cls)
            for mgs in enumerate_mgs(cls, graph):
                total += 1
                ok, _ = check_relative_hom_orthogonality(cls, list(mgs.walls))
                if not ok:
                    failures += 1
                if cls.flags.extension_closed is True:
                    if not check_mgs_maximality(cls, mgs):
                        failures += 1
                    if not check_hn_minimality(cls, mgs):
                        failures += 1
        self.record("mgs:orthogonal-maximal-minimal", failures == 0, f"{total} sequences")

    # random linear paths traverse the chamber graph and reproduce linear_mgs
    def check_linear_paths_vs_graph(self):
        rng = random.Random((self.seed, "paths-vs-graph").__repr__())
        failures = 0
        count = max(10, self.paths // 10)
        for cls in self.fixtures.values():
            graph = chamber_graph(cls)
            all_mgs = None
            try:
                all_mgs = {m.walls for m in enumerate_mgs(cls, graph)}
            except Exception:
                pass
            for path in _random_generic_paths(cls, rng, count):
                stable = tuple(linear_mgs(cls, path))
                chain = _chamber_chain(graph, path)
                if chain[0] != graph.source or chain[-1] != graph.sink:
                    failures += 1
                    continue
                walls_crossed = []
                good = True
                for a, b in zip(chain, chain[1:]):
                    edge = next(
                        (e for e in graph.out_edges(a) if e.dst == b), None
                    )
                    if edge is None:
                        good = False
                        break
                    walls_crossed.append(edge.wall_brick)
                if not good or tuple(walls_crossed) != stable:
                    failures += 1
                if all_mgs is not None and stable not in all_mgs:
                    failures += 1
        self.record("paths:linear-mgs-traverse-graph", failures == 0)

    # unstable objects above zero admit a semistable admissible subobject
    def check_admissible_subobject(self):
        rng = random.Random((self.seed, "adm-subobject").__repr__())
        failures = 0
        for name, cls in self.fixtures.items():
            if cls.flags.extension_closed is not True:
                continue
            n = cls.catalog.quiver.n
            for _ in range(max(10, self.paths)):
                theta = tuple(rng.randint(-9, 9) for _ in range(n))
                label = semistable_set(cls, theta)
                for m in cls.bricks:
                    if int_dot(cls.dim_of(m), theta) <= 0 or m in label:
                        continue
                    if not any(
                        all(i in label for i in p.sub.ids) for p in cls.admissible_quotients(m)
                    ):
                        failures += 1
        self.record("lemma:admissible-subobject-exists", failures == 0)

    # ghost domain geometry: shrinkage, monotone walls, bifurcation facets
    def check_ghost_geometry(self):
        failures = 0
        for cls in self.fixtures.values():
            ghosts = enumerate_ghosts(cls)
            for g in ghosts:
                if g.kind != SUBOBJECT or g.minimal:
                    continue
                half = Cone(
                    g.domain.dim,
                    equalities=g.domain.equalities,
                    weak=(tuple(cls.dim_of(ModuleSum([g.b]))),),
                )
                if not cone_contains_cone(half, g.domain):
                    failures += 1
            report = classify_bifurcations(cls, ghosts)
            by_key = {g.key(): g for g in ghosts}
            for b in report.bifurcations:
                child = by_key[b.child]
                parent = by_key[b.parent]
                wall_dim = cls.dim_of(b.splitting_wall)
                facet = child.domain.with_equality(wall_dim)
                if feasible_point(facet) is None:
                    failures += 1
                for sgn in (1, -1):
                    side = parent.domain.with_strict(tuple(sgn * x for x in wall_dim))
                    if feasible_point(side) is None:
                        failures += 1
                if b.case in (2, 3, 4) and b.wall_kind != "subobject-splitting":
                    failures += 1
                if b.case in (1, 5) and b.wall_kind != "quotient-splitting":
                    failures += 1
        # enlarging the class shrinks walls
        containments = [("minimal3", "torsion4"), ("minimal3", "full6"), ("torsion4", "full6"), ("mixed5", "full6")]
        for small_name, big_name in containments:
            small = self.fixtures[small_name]
            big = self.fixtures[big_name]
            if set(small.bricks) - set(big.bricks):
                failures += 1
                continue
            for b in small.bricks:
                if not cone_contains_cone(wall(small, b).cone, wall(big, b).cone):
                    failures += 1
        self.record("ghosts:domain-geometry", failures == 0)

    def run(self) -> list[CheckResult]:
        self.check_union_of_interiors()
        self.check_locally_constant()
        self.check_wall_crossing()
        self.check_stability_equivalence()
        self.check_ghost_stability_equivalence()
        self.check_hn_existence()
        self.check_convexity_and_distinct_labels()
        self.check_duality()
        self.check_mgs_properties()
        self.check_linear_paths_vs_graph()
        self.check_admissible_subobject()
        self.check_ghost_geometry()
        return self.results


def run_verify(paths_per_fixture: int = 1000, seed: int = 0) -> list[CheckResult]:
    return Verifier(paths_per_fixture=paths_per_fixture, seed=seed).run()
