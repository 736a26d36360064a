"""The sampled checks of `ghostpic verify` as they read one point at a time,
kept as the oracle of their column form: check (b), check (c), the
admissible-subobject lemma and the paths-vs-graph check, each drawing as
the checks draw and deciding point by point with a given S(theta)
(`label_of(cls, theta)`) or chamber locator (`locate(graph, theta)`).
Each returns (failure count, first counterexample) in the order of the
point-major loop."""

import random
from math import lcm
from operator import mul

from ghostpic.errors import GuardExceededError
from ghostpic.greenpaths import enumerate_mgs
from ghostpic.stability import chamber_graph, crossing_plan
from ghostpic.verify import _path_str, _randints, _sample_str
from reference_paths import drawn_paths, point_at, reference_check_generic, reference_linear_mgs


class Found:
    def __init__(self):
        self.count, self.first = 0, ""

    def add(self, counterexample):
        self.first = self.first or counterexample
        self.count += 1


def reference_locally_constant(checker, label_of):
    rng = random.Random((checker.seed, "locally-constant").__repr__())
    found = Found()
    for name, cls in checker.fixtures.items():
        graph = chamber_graph(cls)
        mix_cells = cls.flags.extension_closed is True
        for ch in graph.chambers:
            scale = lcm(*(c.den for c in ch.cells))
            samples = [tuple(x * (scale // c.den) for x in c.sample) for c in ch.cells]
            for _ in range(25):
                basis = samples if mix_cells else [rng.choice(samples)]
                weights = _randints(rng, 1, 9, len(basis))
                basis = basis + [rng.choice(samples)]
                weights += _randints(rng, 1, 9, 1)
                point = tuple(sum(map(mul, weights, col)) for col in zip(*basis))
                if label_of(cls, point) != ch.label:
                    found.add(f"{name}: theta={point} in chamber {ch.id}")
    return found.count, found.first


def reference_wall_crossing(checker, label_of):
    found = Found()
    for name, cls in checker.fixtures.items():
        graph = chamber_graph(cls)
        dims = [cls.dim_of(b) for b in cls.bricks]
        for e in graph.edges:
            theta0 = e.facet_sample
            halves = [(abs(v), 2 * sum(d)) for d in dims if (v := sum(map(mul, d, theta0)))]
            scale = lcm(*(q for _, q in halves))
            p, q = min(halves, key=lambda h: h[0] * (scale // h[1])) if halves else (e.den, 1)
            s_minus = label_of(cls, tuple(q * x - p for x in theta0))
            s_zero = label_of(cls, theta0)
            s_plus = label_of(cls, tuple(q * x + p for x in theta0))
            src, dst = graph.chamber(e.src).label, graph.chamber(e.dst).label
            ok = s_minus == s_zero == src and s_plus == dst and s_zero < s_plus and e.wall_brick in s_plus - s_zero
            if not ok:
                found.add(f"{name}: theta0={_sample_str(theta0, e.den)} on D({e.wall_brick})")
    return found.count, found.first


def reference_admissible_subobject(checker, label_of):
    rng = random.Random((checker.seed, "adm-subobject").__repr__())
    found = Found()
    for name, cls in checker.fixtures.items():
        if cls.flags.extension_closed is not True:
            continue
        n = cls.catalog.quiver.n
        subs = [
            (m, cls.dim_of(m), [frozenset(p.sub.ids) for p in cls.admissible_quotients(m)])
            for m in cls.bricks
        ]
        for _ in range(max(10, checker.paths)):
            theta = tuple(_randints(rng, -9, 9, n))
            label = label_of(cls, theta)
            for m, d, admissible in subs:
                if m in label or sum(map(mul, d, theta)) <= 0:
                    continue
                if not any(sub <= label for sub in admissible):
                    found.add(f"{name}: {m} at theta={theta}")
    return found.count, found.first


def reference_paths_vs_graph(checker, locate):
    rng = random.Random((checker.seed, "paths-vs-graph").__repr__())
    found = Found()
    for name, cls in checker.fixtures.items():
        graph = chamber_graph(cls)
        try:
            all_mgs = {m.walls for m in enumerate_mgs(cls, graph)}
        except GuardExceededError:
            all_mgs = None
        plan = crossing_plan(cls)
        for path in drawn_paths(cls, rng, max(10, checker.paths // 10), plan):
            keys, scale = reference_check_generic(path, plan)
            times = sorted(-keys[c.event] for c in plan.bricks.values())
            probes = [(times[0] - scale, scale)]
            probes += [(a + b, 2 * scale) for a, b in zip(times, times[1:])]
            probes.append((times[-1] + scale, scale))
            chain = []
            for num, den in probes:
                cid = locate(graph, point_at(path, num, den))
                if not chain or chain[-1] != cid:
                    chain.append(cid)
            stable = tuple(reference_linear_mgs(cls, path))
            if chain[0] != graph.source or chain[-1] != graph.sink:
                found.add(f"{name}: {_path_str(path)}: chamber chain {chain} misses an end")
                continue
            walls_crossed = []
            for a, b in zip(chain, chain[1:]):
                edge = next((e for e in graph.out_edges(a) if e.dst == b), None)
                if edge is None:
                    found.add(f"{name}: {_path_str(path)}: no edge from chamber {a} to {b}")
                    break
                walls_crossed.append(edge.wall_brick)
            else:
                if tuple(walls_crossed) != stable:
                    found.add(f"{name}: {_path_str(path)}: walls {walls_crossed}, MGS {stable}")
            if all_mgs is not None and stable not in all_mgs:
                found.add(f"{name}: {_path_str(path)}: linear MGS {stable} is not enumerated")
    return found.count, found.first
