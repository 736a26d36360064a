"""Seeded property suite: the theorem-level checks behind `ghostpic verify`.

Every check is deterministic for a fixed seed.  Random stability vectors and
random linear paths are drawn with integer coordinates and rejected when
non-generic, so all comparisons stay exact.
"""

from __future__ import annotations

import itertools
import random
from math import lcm
from operator import gt, itemgetter, mul, or_
from typing import NamedTuple

from ghostpic.catalog import ModuleClass, ModuleSum, builtin_kronecker, generate_type_a
from ghostpic.errors import GuardExceededError, InternalConsistencyError
from ghostpic.geometry import Cone, _combination, cone_contains_cone, cone_equal, feasible_point, int_dot, vec_str
from ghostpic.ghosts import (
    SUBOBJECT,
    Duality,
    classify_bifurcations,
    dualize,
    enumerate_ghosts,
    ghost_plan,
    mgs_with_ghosts,
)
from ghostpic.greenpaths import (
    BLOCK,
    LinearPath,
    PathColumns,
    check_hn_minimality,
    check_mgs_maximality,
    check_relative_hom_orthogonality,
    disagreement,
    enumerate_mgs,
    hn_stratification,
    mgs_columns,
    stable_columns,
)
from ghostpic.stability import (
    ChamberGraph,
    CrossingPlan,
    chamber_graph,
    crossing_plan,
    locate_columns,
    semistable_columns,
    semistable_sets,
    wall,
)


class Failures:
    """The failures of one check: how many, and the first counterexample
    (fixture, then h/k, theta or object), which a FAIL line names."""

    __slots__ = ("count", "first")

    def __init__(self):
        self.count = 0
        self.first = ""

    def add(self, counterexample: str, times: int = 1) -> None:
        """Count times failures, the first of them named by counterexample."""
        self.first = self.first if self.count else counterexample
        self.count += times


def _path_str(path: LinearPath) -> str:
    return f"h=({','.join(map(str, path.h))}) k=({','.join(map(str, path.k))})"


def _sample_str(num, den: int) -> str:
    """A sample point num/den in exact rationals, e.g. (-1/2,1)."""
    return f"({','.join(vec_str(num, den))})"


class CheckResult(NamedTuple):
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


def _randints(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """The values of count rng.randint(lo, hi) calls, by the same getrandbits
    calls: lo plus a k-bit draw below the width hi - lo + 1, redrawn past it."""
    width = hi - lo + 1
    k, bits, out = width.bit_length(), rng.getrandbits, []
    while len(out) < count:
        r = bits(k)
        if r < width:
            out.append(lo + r)
    return out


def _generic_blocks(cls: ModuleClass, rng: random.Random, count: int, plan: CrossingPlan):
    """Yield blocks (`PathColumns`) of count paths in all, with integer h
    and k drawn from rng and generic for the plan, in draw order.  Each
    candidate is h, then k, by the getrandbits calls of `_randints(rng, -9,
    9, n)` and `_randints(rng, 1, 9, n)`, drawn straight into columns, and
    the block made of a round's candidates keeps the generic ones.  A round
    draws as many candidates as are still wanted, at most BLOCK, and yields
    those kept, so no candidate is drawn past the count-th generic path:
    the paths and rng's final state are those of drawing and refusing path
    by path.  A consumer that draws nothing else from rng between blocks
    sees the same draws as from a list, and one that keeps no block holds
    one block at a time."""
    n, bits = cls.catalog.quiver.n, rng.getrandbits
    wanted = count
    while wanted > 0:
        h, k = [[] for _ in range(n)], [[] for _ in range(n)]
        for _ in range(min(BLOCK, wanted)):
            for cols, nbits, width, lo in ((h, 5, 19, -9), (k, 4, 9, 1)):  # `_randints(rng, lo, lo + width - 1, n)`
                for col in cols:
                    r = bits(nbits)
                    while r >= width:
                        r = bits(nbits)
                    col.append(lo + r)
        block = PathColumns.of_columns(plan, h, k)
        wanted -= block.size
        if block.size:
            yield block
        del block  # dropped before the next round is drawn


def _chamber_chains(graph: ChamberGraph, block: PathColumns) -> list[list[int]]:
    """Chambers each path of a generic block passes through, in order:
    located at a probe before the first brick crossing, between each two
    consecutive ones and after the last, each probe an integer point on the
    path's ray, all probes of the block located in one call.  Brick time t
    is -key/L over the block's keys of the bricks of its plan and their L."""
    keys = [block.keys[c.event] for c in block.plan.bricks.values()]
    probes = []  # (path, num, den): the point den*H*h + num*H*k
    for p, L in enumerate(block.scale):
        times = sorted(-key[p] for key in keys)
        probes.append((p, times[0] - L, L))
        probes += [(p, a + b, 2 * L) for a, b in zip(times, times[1:])]
        probes.append((p, times[-1] + L, L))
    points = [[den * h[p] + num * k[p] for p, num, den in probes] for h, k in zip(block.h, block.k)]
    chains: list[list[int]] = [[] for _ in block.scale]
    for (p, cid), _ in itertools.groupby(zip([p for p, _, _ in probes], locate_columns(graph, points))):
        chains[p].append(cid)  # one entry per run of probes in one chamber
    return chains


def _dual_labels(duality: Duality, ghosts, dual_ghosts: dict) -> dict[str, str]:
    """Each ghost's display label mapped to that of its twin in the dual class
    (`dual_ghosts`, keyed by ghost key); a brick label transports as itself."""
    return {g.display(): dual_ghosts[duality.transport_key(g.key())].display() for g in ghosts}


class Verifier:
    def __init__(self, paths_per_fixture: int = 1000, seed: int = 0):
        self.paths = paths_per_fixture
        self.seed = seed
        self.fixtures = standard_fixtures()
        self.results: list[CheckResult] = []

    def record(self, name: str, failures: Failures, detail: str = ""):
        if failures.count:
            counted = f"{failures.count} failures, first: {failures.first}"
            detail = f"{detail}; {counted}" if detail else counted
        self.results.append(CheckResult(name, not failures.count, detail))

    # (a) every wall point of the arrangement is in some wall interior
    def check_union_of_interiors(self):
        fails = Failures()
        samples = 0
        for name, cls in self.fixtures.items():
            graph = chamber_graph(cls)
            for adj in graph.adjacencies:
                brick = cls.bricks[adj.hyperplane_index]
                if not graph.walls[brick].cone.contains(adj.facet_sample):
                    continue
                samples += 1
                if not any(graph.walls[b].interior.contains(adj.facet_sample) for b in cls.bricks):
                    fails.add(f"{name}: theta={_sample_str(adj.facet_sample, 1)} on D({brick})")
        self.record("a:union-of-wall-interiors", fails, f"{samples} facet samples")

    # (b) semistable label locally constant: 25 interior points per chamber
    def check_locally_constant(self):
        rng = random.Random((self.seed, "locally-constant").__repr__())
        fails = Failures()
        for name, cls in self.fixtures.items():
            graph = chamber_graph(cls)
            mix_cells = cls.flags.extension_closed is True
            points, chambers = [], []
            for ch in graph.chambers:
                # cell samples over one common denominator: an integer positive
                # combination is a positive multiple of the normalized one
                scale = lcm(*(c.den for c in ch.cells))
                samples = [tuple(x * (scale // c.den) for x in c.sample) for c in ch.cells]
                for _ in range(25):
                    basis = samples if mix_cells else [rng.choice(samples)]
                    weights = _randints(rng, 1, 9, len(basis))
                    basis = basis + [rng.choice(samples)]
                    weights += _randints(rng, 1, 9, 1)
                    points.append(tuple(sum(map(mul, weights, col)) for col in zip(*basis)))
                    chambers.append(ch)
            for point, label, ch in zip(points, semistable_sets(cls, points), chambers):
                if label != ch.label:
                    fails.add(f"{name}: theta={point} in chamber {ch.id}")
        self.record("b:semistable-locally-constant", fails)

    # (c) wall crossing: S(theta-) = S(theta0) strictly below S(theta+)
    def check_wall_crossing(self):
        fails = Failures()
        edges = 0
        for name, cls in self.fixtures.items():
            graph = chamber_graph(cls)
            dims = [cls.dim_of(b) for b in cls.bricks]
            points = []  # theta-, theta0 and theta+ of every edge, in one block
            for e in graph.edges:
                theta0 = e.facet_sample  # den times the rational sample
                # eps = p/q is half the least margin |d.theta0| / d.eta over the
                # bricks off the wall, else den (1 on the rational sample's
                # scale); the points theta0 -+ eps*eta are scaled by q
                halves = [(abs(v), 2 * sum(d)) for d in dims if (v := int_dot(d, theta0))]
                scale = lcm(*(q for _, q in halves))  # each p/q as p * (scale // q) / scale
                p, q = min(halves, key=lambda h: h[0] * (scale // h[1])) if halves else (e.den, 1)
                points += [tuple(q * x - p for x in theta0), theta0, tuple(q * x + p for x in theta0)]
            labels = semistable_sets(cls, points)
            for i, e in enumerate(graph.edges):
                edges += 1
                s_minus, s_zero, s_plus = labels[3 * i : 3 * i + 3]
                src = graph.chamber(e.src).label
                dst = graph.chamber(e.dst).label
                ok = (
                    s_minus == s_zero == src
                    and s_plus == dst
                    and s_zero < s_plus
                    and e.wall_brick in s_plus - s_zero
                )
                if not ok:
                    fails.add(f"{name}: theta0={_sample_str(e.facet_sample, e.den)} on D({e.wall_brick})")
        self.record("c:wall-crossing-monotone", fails, f"{edges} edges")

    def _decide_paths(self, name: str, cls: ModuleClass, rng, plan: CrossingPlan, crossings, fails):
        """Decide every (path, crossing) of the fixture's random paths with
        `stable_columns`, a block at a time: each disagreement of the time
        criterion with interior membership is a failure, and the first is
        named as a path-major loop meets it (path, then crossing)."""

        def decide(block) -> None:
            found = []  # (path, crossing, time verdict), crossing by crossing
            for crossing, (by_times, disagree) in zip(crossings, stable_columns(block, crossings)):
                found += [(p, crossing, by_times[p]) for p in disagree]
            if found:
                p, crossing, by_times = min(found, key=itemgetter(0))
                path = _path_str(block.path(p))
                fails.add(f"{name}: {path}: {disagreement(crossing, by_times)}", len(found))

        # map keeps no decided block, so one block is held while the next is drawn
        for _ in map(decide, _generic_blocks(cls, rng, self.paths, plan)):
            pass

    # (d) quotient-time stability criterion == wall-interior membership; the
    # plan and the brick crossings are resolved once per fixture
    def check_stability_equivalence(self):
        rng = random.Random((self.seed, "stability").__repr__())
        fails = Failures()
        for name, cls in self.fixtures.items():
            plan = crossing_plan(cls)
            self._decide_paths(name, cls, rng, plan, [plan.bricks[b] for b in cls.bricks], fails)
        detail = f"{self.paths} paths x {len(self.fixtures)} fixtures"
        self.record("d:brick-stability-equivalence", fails, detail)

    # (e) ghost stability time criterion == exact domain membership, with the
    # ghost crossings resolved once per fixture as in (d)
    def check_ghost_stability_equivalence(self):
        rng = random.Random((self.seed, "ghost-stability").__repr__())
        fails = Failures()
        for name, cls in self.fixtures.items():
            ghosts = enumerate_ghosts(cls)
            if not ghosts:
                continue
            plan = ghost_plan(cls)
            self._decide_paths(name, cls, rng, plan, [plan.ghosts[g.key()][1] for g in ghosts], fails)
        self.record("e:ghost-stability-equivalence", fails)

    # (f) HN stratification exists for every class object over every MGS
    def check_hn_existence(self):
        rng = random.Random((self.seed, "hn").__repr__())
        fails = Failures()
        checked = 0
        for name, cls in self.fixtures.items():
            if cls.flags.extension_closed is not True:
                continue
            graph = chamber_graph(cls)
            sequences = enumerate_mgs(cls, graph)
            objects = [ModuleSum([b]) for b in cls.bricks]
            for _ in range(5):
                (size,) = _randints(rng, 2, 3, 1)
                objects.append(ModuleSum([rng.choice(cls.bricks) for _ in range(size)]))
            for mgs in sequences:
                for x in objects:
                    checked += 1
                    try:
                        hn_stratification(cls, graph, mgs, x)
                    except InternalConsistencyError as exc:
                        fails.add(f"{name}: {x} along {','.join(mgs.walls)}: {exc}")
        self.record("f:hn-existence", fails, f"{checked} filtrations")

    # (g) chambers of extension-closed classes are the sign-vector regions of
    # their bounding walls, and labels are pairwise distinct
    def check_convexity_and_distinct_labels(self):
        fails = Failures()
        report_only = []
        for name, cls in self.fixtures.items():
            graph = chamber_graph(cls)
            labels = [c.label for c in graph.chambers]
            distinct = len(set(labels)) == len(labels)
            convex = True
            index_of = {b: i for i, b in enumerate(cls.bricks)}
            for ch in graph.chambers:
                wanted = {index_of[w.brick]: sign for (w, sign) in ch.bounding_walls}
                region_cells = {
                    c.signs
                    for c in graph.cells
                    if all(c.signs[i] == s for i, s in wanted.items())
                }
                have = {c.signs for c in ch.cells}
                if region_cells != have:
                    convex = False
            verdict = f"{name}: convex={convex} distinct={distinct}"
            if cls.flags.extension_closed is not True:
                report_only.append(verdict)
            elif not (distinct and convex):
                fails.add(verdict)
        self.record("g:chamber-convexity-and-distinct-labels", fails, "; ".join(report_only))

    # (h) duality round trip: the ghost census and every ghost domain of each
    # fixture transport to its dual class over the opposite catalog, whose
    # opposite has the catalog's content; on the four-brick torsion fixture
    # the dual is torsion-free and a green sequence reverses
    def check_duality(self):
        fails = Failures()
        for name, cls in self.fixtures.items():
            try:
                duality = dualize(cls)
                ghosts = enumerate_ghosts(cls)
                dual_ghosts = {g.key(): g for g in enumerate_ghosts(duality.dual_class)}
                if sorted(duality.transport_key(g.key()) for g in ghosts) != sorted(dual_ghosts):
                    fails.add(f"{name}: ghost census mismatch")
                    continue
                for g in ghosts:
                    twin = dual_ghosts[duality.transport_key(g.key())]
                    if not cone_equal(twin.domain, duality.transport_domain(g.domain)):
                        fails.add(f"{name}: domain transport mismatch for {g.display()}")
                double = cls.catalog.opposite().opposite()
                fields = ("quiver", "indecs", "subquotients", "hom", "ses_list", "complete")
                if any(getattr(double, f) != getattr(cls.catalog, f) for f in fields):
                    fails.add(f"{name}: the opposite of the opposite catalog is not the catalog")
                if name != "torsion4":
                    continue
                if duality.dual_class.flags.is_torsion_free is not True:
                    fails.add("torsion4: dual class is not torsion-free")
                path = LinearPath((3, 0, 2), (1, 1, 1))
                orig = [e.label for e in mgs_with_ghosts(cls, path)]
                dual = [
                    e.label
                    for e in mgs_with_ghosts(duality.dual_class, duality.transport_path(path))
                ]
                labels = _dual_labels(duality, ghosts, dual_ghosts)
                transported = [labels.get(label, label) for label in reversed(orig)]
                if dual != transported:
                    fails.add(f"torsion4: {_path_str(path)}: green sequence did not reverse")
            except Exception as exc:  # a raise is a failure, not a crash
                fails.add(f"{name}: {exc!r}")
        self.record("h:duality-round-trip", fails)

    # every enumerated MGS is relatively Hom-orthogonal, maximal and minimal
    def check_mgs_properties(self):
        fails = Failures()
        total = 0
        for name, cls in self.fixtures.items():
            if cls.catalog.complete is False:
                continue
            graph = chamber_graph(cls)
            for mgs in enumerate_mgs(cls, graph):
                total += 1
                ok, _ = check_relative_hom_orthogonality(cls, list(mgs.walls))
                if not ok:
                    fails.add(f"{name}: {mgs.walls} is not relatively Hom-orthogonal")
                if cls.flags.extension_closed is True:
                    if not check_mgs_maximality(cls, mgs):
                        fails.add(f"{name}: {mgs.walls} is not maximal")
                    if not check_hn_minimality(cls, mgs):
                        fails.add(f"{name}: {mgs.walls} is not HN-minimal")
        self.record("mgs:orthogonal-maximal-minimal", fails, f"{total} sequences")

    # random linear paths traverse the chamber graph and reproduce linear_mgs
    def check_linear_paths_vs_graph(self):
        rng = random.Random((self.seed, "paths-vs-graph").__repr__())
        fails = Failures()
        count = max(10, self.paths // 10)
        for name, cls in self.fixtures.items():
            graph = chamber_graph(cls)
            try:
                all_mgs = {m.walls for m in enumerate_mgs(cls, graph)}
            except GuardExceededError:
                all_mgs = None
            plan = crossing_plan(cls)
            for block in _generic_blocks(cls, rng, count, plan):
                chains = _chamber_chains(graph, block)
                for p, (stable, chain) in enumerate(zip(mgs_columns(block), chains)):
                    where = lambda: f"{name}: {_path_str(block.path(p))}"  # read on a failure only
                    if chain[0] != graph.source or chain[-1] != graph.sink:
                        fails.add(f"{where()}: chamber chain {chain} misses an end")
                        continue
                    walls_crossed = []
                    for a, b in zip(chain, chain[1:]):
                        edge = next((e for e in graph.out_edges(a) if e.dst == b), None)
                        if edge is None:
                            fails.add(f"{where()}: no edge from chamber {a} to {b}")
                            break
                        walls_crossed.append(edge.wall_brick)
                    else:
                        if tuple(walls_crossed) != stable:
                            fails.add(f"{where()}: walls {walls_crossed}, MGS {stable}")
                    if all_mgs is not None and stable not in all_mgs:
                        fails.add(f"{where()}: linear MGS {stable} is not enumerated")
        self.record("paths:linear-mgs-traverse-graph", fails)

    # unstable objects above zero admit a semistable admissible subobject
    def check_admissible_subobject(self):
        rng = random.Random((self.seed, "adm-subobject").__repr__())
        fails = Failures()
        for name, cls in self.fixtures.items():
            if cls.flags.extension_closed is not True:
                continue
            n, count = cls.catalog.quiver.n, max(10, self.paths)
            values = _randints(rng, -9, 9, n * count)  # count theta, one after another
            theta = [values[j::n] for j in range(n)]
            members = dict(zip(cls.bricks, semistable_columns(cls, theta)))
            bad = []
            for m in cls.bricks:
                admitted = [False] * count  # some admissible subobject lies in S(theta)
                for q in cls.admissible_quotients(m):  # q.sub is a sum of class bricks
                    admitted = list(map(or_, admitted, map(all, zip(*[members[x] for x in q.sub.ids]))))
                # theta(m) > 0 while m is not semistable and admits none: the
                # bools above > (member or admitted)
                above = map(gt, _combination(cls.dim_of(m), theta, count), itertools.repeat(0))
                bad.append(list(map(gt, above, map(or_, members[m], admitted))))
            for p, row in enumerate(zip(*bad)):  # point-major, as the draws
                for m in itertools.compress(cls.bricks, row):
                    fails.add(f"{name}: {m} at theta={tuple(values[n * p : n * p + n])}")
        self.record("lemma:admissible-subobject-exists", fails)

    # ghost domain geometry: shrinkage, monotone walls, bifurcation facets
    def check_ghost_geometry(self):
        fails = Failures()
        for name, cls in self.fixtures.items():
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
                    fails.add(f"{name}: the domain of {g.display()} leaves theta({g.b}) >= 0")
            report = classify_bifurcations(cls)
            by_key = {g.key(): g for g in ghosts}
            for b in report.bifurcations:
                child = by_key[b.child]
                parent = by_key[b.parent]
                where = f"{name}: {child.display()} from {parent.display()}"
                wall_dim = cls.dim_of(b.splitting_wall)
                # the facet is a closed cone, so it has a point: it must be nonzero
                if not any(feasible_point(child.domain.with_equality(wall_dim)) or ()):
                    fails.add(f"{where}: no facet on D({b.splitting_wall})")
                for sgn in (1, -1):
                    side = parent.domain.with_strict(tuple(sgn * x for x in wall_dim))
                    if feasible_point(side) is None:
                        fails.add(f"{where}: D({b.splitting_wall}) does not split the parent")
                if b.case in (2, 3, 4) and b.wall_kind != "subobject-splitting":
                    fails.add(f"{where}: case {b.case} is {b.wall_kind}")
                if b.case in (1, 5) and b.wall_kind != "quotient-splitting":
                    fails.add(f"{where}: case {b.case} is {b.wall_kind}")
        # enlarging the class shrinks walls
        containments = [("minimal3", "torsion4"), ("minimal3", "full6"), ("torsion4", "full6"), ("mixed5", "full6")]
        for small_name, big_name in containments:
            small = self.fixtures[small_name]
            big = self.fixtures[big_name]
            if set(small.bricks) - set(big.bricks):
                fails.add(f"{small_name} is not contained in {big_name}")
                continue
            for b in small.bricks:
                if not cone_contains_cone(wall(small, b).cone, wall(big, b).cone):
                    fails.add(f"{small_name} in {big_name}: D({b}) does not shrink")
        self.record("ghosts:domain-geometry", fails)

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
