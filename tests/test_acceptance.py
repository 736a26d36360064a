"""Acceptance gate: one test per release criterion, exact expectations.

Everything here is combinatorial or exact rational, so the tolerances are
zero; each criterion also carries a wall-clock budget.  Each test prints one
pass/fail line (run with -s to see them all).
"""

import itertools
import json
import re
import time
from fractions import Fraction

import pytest

from ghostpic.catalog import ModuleClass, ModuleSum
from ghostpic.errors import NonGenericPathError
from ghostpic.ghosts import (
    EXTENSION,
    QUOTIENT,
    SUBOBJECT,
    classify_bifurcations,
    enumerate_ghosts,
    format_schedule,
)
from ghostpic.greenpaths import (
    LinearPath,
    check_hn_minimality,
    check_mgs_maximality,
    check_relative_hom_orthogonality,
    crossing_schedule,
    enumerate_mgs,
)
from ghostpic.render import render_picture
from ghostpic.stability import chamber_graph, enumerate_chambers
from ghostpic.verify import run_verify

ONES = (Fraction(1),) * 3


def report(name, elapsed, budget):
    status = "PASS" if elapsed < budget else "SLOW"
    print(f"[{status}] {name}: {elapsed:.2f}s (budget {budget:.0f}s)")
    assert elapsed < budget, f"{name} exceeded its {budget}s budget"


def search_paths_matching(cls, targets, radius=6):
    """Deterministic grid search for linear paths whose token strings match
    each target; returns target -> path."""
    remaining = {tuple(t) for t in targets}
    found = {}
    for h in itertools.product(range(-radius, radius), repeat=3):
        if not remaining:
            break
        path = LinearPath(tuple(Fraction(x) for x in h), ONES)
        try:
            schedule = crossing_schedule(cls, path, include_ghosts=True)
        except NonGenericPathError:
            continue
        tokens = tuple(format_schedule(schedule))
        if tokens in remaining:
            remaining.discard(tokens)
            found[tokens] = path
    return found, remaining


class TestCriterion1Chambers:
    def test_torsion4_chamber_labels(self, torsion4):
        start = time.perf_counter()
        chambers = enumerate_chambers(torsion4)
        labels = sorted(sorted(c.label) for c in chambers)
        expected = sorted(
            sorted(s)
            for s in [
                set(),
                {"S1"},
                {"S1", "I2", "P3"},
                {"I2", "P3"},
                {"I2"},
                {"S1", "S3"},
                {"S1", "P3", "I2", "S3"},
                {"S3", "I2", "P3"},
                {"S3", "I2"},
                {"S3"},
            ]
        )
        assert len(chambers) == 10
        assert labels == expected
        report("criterion-1 ten-chamber torsion fixture", time.perf_counter() - start, 1.0)


class TestCriterion2Mgs:
    def test_mgs_enumeration_and_theorems(self, torsion4):
        start = time.perf_counter()
        graph = chamber_graph(torsion4)
        sequences = enumerate_mgs(torsion4, graph)
        walls = {m.walls for m in sequences}
        assert ("S1", "S3", "I2") in walls
        assert ("I2", "S3", "P3", "S1") in walls
        assert torsion4.flags.extension_closed is True
        for mgs in sequences:
            ok, witness = check_relative_hom_orthogonality(torsion4, list(mgs.walls))
            assert ok, witness
            assert check_mgs_maximality(torsion4, mgs)
            assert check_hn_minimality(torsion4, mgs)
        report("criterion-2 MGS fixtures", time.perf_counter() - start, 5.0)


class TestCriterion3KroneckerGhosts:
    def test_census_and_domains(self, kronecker_class):
        start = time.perf_counter()
        ghosts = enumerate_ghosts(kronecker_class)
        by_kind = {}
        for g in ghosts:
            by_kind.setdefault(g.kind, []).append(g)
        assert sorted(by_kind) == [EXTENSION, QUOTIENT]
        assert SUBOBJECT not in by_kind
        (quot,) = by_kind[QUOTIENT]
        assert (quot.a, quot.b, quot.c) == ("P1", "M", "S2")
        assert quot.domain.equalities == ((0, 1),)  # theta(S2) = 0
        assert quot.domain.weak == ((-1, -1),)  # theta(M) <= 0
        (ext,) = by_kind[EXTENSION]
        assert (ext.a, ext.b, ext.c) == ("P1", "P2", "M")
        assert ext.domain.equalities == ((2, 1),)  # theta(P2) = 0
        assert ext.domain.weak == ((-1, -1),)  # theta(M) <= 0
        report("criterion-3 Kronecker ghost census", time.perf_counter() - start, 1.0)


class TestCriterion4Bifurcations:
    def test_all_five_cases(self, case1, case2, torsion4, case4, case5):
        start = time.perf_counter()
        expected = {
            "case1": (case1, ("S1", "P3"), ("S1", "P2"), 1, "S3"),
            "case2": (case2, ("S3", "P2"), ("S3", "I3"), 2, "S1"),
            "case3": (torsion4, ("P2", "P3"), ("S2", "I2"), 3, "S1"),
            "case4": (case4, ("S1", "P3"), ("P2", "P3"), 4, "S2"),
            "case5": (case5, ("P3", "I2"), ("S2", "P1"), 5, "S3"),
        }
        for name, (cls, child, parent, case, wall) in expected.items():
            rep = classify_bifurcations(cls)
            got = [
                (
                    (b.child[1], b.child[2]),
                    (b.parent[1], b.parent[2]),
                    b.case,
                    b.splitting_wall,
                )
                for b in rep.bifurcations
            ]
            assert got == [(child, parent, case, wall)], (name, got)
        report("criterion-4 bifurcation cases", time.perf_counter() - start, 5.0)


class TestCriterion5MgsWithGhosts:
    def test_case1_strings(self, case1):
        start = time.perf_counter()
        targets = [
            ("S2", "(I2)", "P2", "(P3)", "S3", "Gh(S1;P3)", "Gh(S1;P2)"),
            ("S3", "I2", "P3", "Gh(S1;P3)", "P2", "S2"),
        ]
        found, remaining = search_paths_matching(case1, targets)
        assert not remaining, remaining
        self.elapsed_case1 = time.perf_counter() - start

    def test_case2_strings(self, case2):
        targets = [
            ("S2", "I3", "I1", "P2", "Gh(S3;I3)", "Gh(S3;P2)", "S1"),
            ("S2", "I1", "I3", "P2", "S1", "Gh(S3;I3)"),
            ("S2", "I3", "Gh(S3;I3)", "P2", "I1", "S1"),
        ]
        found, remaining = search_paths_matching(case2, targets)
        assert not remaining, remaining

    def test_case4_unique_string(self, case4):
        target = ("S3", "I2", "P3", "Gh(S1;P3)", "Gh(P2;P3)", "S2")
        found, remaining = search_paths_matching(case4, [target])
        assert not remaining
        # uniqueness: on every generic grid path where Gh(S1;P3) is stable,
        # the stable crossing sequence is exactly the quoted one
        for h in itertools.product(range(-4, 5), repeat=3):
            path = LinearPath(tuple(Fraction(x) for x in h), ONES)
            try:
                schedule = crossing_schedule(case4, path, include_ghosts=True)
            except NonGenericPathError:
                continue
            stable = tuple(e.label for e in schedule if e.stable)
            if "Gh(S1;P3)" in stable:
                assert stable == target

    def test_case5_string(self, case5):
        targets = [("S3", "S1", "I2", "Gh(P3;I2)", "P1", "Gh(S2;P1)")]
        found, remaining = search_paths_matching(case5, targets)
        assert not remaining

    def test_total_budget(self, case1, case2, case4, case5):
        start = time.perf_counter()
        search_paths_matching(
            case1, [("S2", "(I2)", "P2", "(P3)", "S3", "Gh(S1;P3)", "Gh(S1;P2)")]
        )
        search_paths_matching(
            case2, [("S2", "I3", "I1", "P2", "Gh(S3;I3)", "Gh(S3;P2)", "S1")]
        )
        search_paths_matching(case4, [("S3", "I2", "P3", "Gh(S1;P3)", "Gh(P2;P3)", "S2")])
        search_paths_matching(case5, [("S3", "S1", "I2", "Gh(P3;I2)", "P1", "Gh(S2;P1)")])
        report("criterion-5 green sequences with ghosts", time.perf_counter() - start, 30.0)


class TestCriterion6ExtensionCensus:
    def test_full6_census(self, full6):
        start = time.perf_counter()
        ghosts = enumerate_ghosts(full6)
        assert all(g.kind == EXTENSION for g in ghosts)
        assert sorted((g.a, g.b, g.c) for g in ghosts) == [
            ("P2", "P3", "S3"),
            ("S1", "P2", "S2"),
            ("S1", "P3", "I2"),
            ("S2", "I2", "S3"),
        ]
        rep = classify_bifurcations(full6)
        links = sorted(
            (l.child[1:], l.parent[1:], l.splitting_wall) for l in rep.extension_links
        )
        assert links == [
            (("P2", "P3", "S3"), ("S1", "P2", "S2"), "S3"),
            (("S1", "P3", "I2"), ("S2", "I2", "S3"), "S1"),
        ]
        report("criterion-6 full-class extension census", time.perf_counter() - start, 1.0)


class TestCriterion7PropertySuites:
    def test_full_verify(self):
        start = time.perf_counter()
        results = run_verify(paths_per_fixture=1000, seed=0)
        for r in results:
            print(r.line())
        failed = [r.name for r in results if not r.passed]
        assert failed == [], failed
        letters = {r.name.split(":")[0] for r in results}
        assert {"a", "b", "c", "d", "e", "f", "g", "h"} <= letters
        report("criterion-7 property suites", time.perf_counter() - start, 120.0)


class TestCriterion8Rendering:
    def test_determinism_and_curve_counts(self, torsion4, minimal3):
        start = time.perf_counter()
        svg_t4_a = render_picture(torsion4)
        svg_t4_b = render_picture(torsion4)
        assert svg_t4_a.encode() == svg_t4_b.encode()
        svg_m3_a = render_picture(minimal3)
        svg_m3_b = render_picture(minimal3)
        assert svg_m3_a.encode() == svg_m3_b.encode()

        def counts(svg):
            walls = len(set(re.findall(r'class="wall" data-name="([^"]+)"', svg)))
            ghosts = len(
                set(
                    re.findall(
                        r'class="(?:subobject|quotient|extension)" data-name="([^"]+)"',
                        svg,
                    )
                )
            )
            return walls, ghosts

        assert counts(svg_t4_a) == (4, 2)
        assert counts(svg_m3_a) == (3, 3)
        report("criterion-8 rendering determinism", time.perf_counter() - start, 2.0)
