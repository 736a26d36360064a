import itertools
import random
from fractions import Fraction

import pytest

from ghostpic import geometry
from ghostpic.catalog import ModuleClass, generate_type_a
from ghostpic.errors import GhostpicError, GuardExceededError, InternalConsistencyError
from ghostpic.geometry import (
    Cell,
    Cone,
    cell_facet_neighbors,
    cone_contains_cone,
    enumerate_cells,
    feasible_point,
    primitive,
    relative_interior_point,
)
from ghostpic.render import export_report
from ghostpic.stability import chamber_graph
from ghostpic.verify import standard_fixtures
from reference_cells import reference_enumerate_cells
from reference_vectors import dot

A3_DIMS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)]


def sign_vector(dims, point):
    out = []
    for d in dims:
        v = sum(a * b for a, b in zip(d, point))
        out.append(1 if v > 0 else -1 if v < 0 else 0)
    return tuple(out)


class TestFeasiblePoint:
    def test_open_octant(self):
        cone = Cone(3, strict=((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        p = feasible_point(cone)
        assert p is not None
        assert min(p) > 0

    def test_contradictory_is_empty(self):
        cone = Cone(2, equalities=((1, 1),), strict=((1, 1),))
        assert feasible_point(cone) is None

    def test_kronecker_wall_interior(self):
        # solve 2x+y=0, x+y>0 by hand: direction (-1,2) works, so nonempty
        cone = Cone(2, equalities=((2, 1),), strict=((1, 1),))
        p = feasible_point(cone)
        assert p is not None
        assert dot((2, 1), p) == 0 and dot((1, 1), p) > 0

    def test_exact_recheck_and_homogeneity(self):
        cone = Cone(
            3,
            equalities=((1, 1, 1),),
            weak=((1, 0, 0),),
            strict=((0, 1, -1),),
        )
        p = feasible_point(cone)
        assert cone.contains(p)
        assert cone.contains(tuple(2 * x for x in p))

    def test_relative_interior_of_forced_face(self):
        # theta1 >= 0 and -theta1 >= 0 force theta1 = 0; theta2 stays free
        cone = Cone(2, weak=((1, 0), (-1, 0), (0, 1)))
        p = relative_interior_point(cone)
        assert p[0] == 0 and p[1] > 0


class TestCells:
    def test_single_hyperplane_in_plane(self):
        cells = enumerate_cells([(1, 0)])
        assert len(cells) == 2
        assert sorted(c.signs for c in cells) == [(-1,), (1,)]

    def test_samples_strictly_match_signs(self):
        hs = A3_DIMS
        for cell in enumerate_cells(hs):
            assert sign_vector(A3_DIMS, cell.sample) == cell.signs

    def test_a3_count_matches_sampling_oracle(self):
        hs = A3_DIMS
        cells = enumerate_cells(hs)
        rng = random.Random(20240)
        seen = set()
        for _ in range(10**5):
            point = tuple(rng.randint(-50, 50) for _ in range(3))
            sv = sign_vector(A3_DIMS, point)
            if 0 not in sv:
                seen.add(sv)
        assert seen == {c.signs for c in cells}

    def test_proportional_normals_rejected(self):
        with pytest.raises(GhostpicError):
            enumerate_cells([(1, 1, 0), (2, 2, 0)])

    def test_opposite_normals_rejected_and_signs_kept(self):
        with pytest.raises(GhostpicError, match=r"non-proportional: \(1, 1, 0\)"):
            enumerate_cells([(-1, -1, 0), (0, 0, 1), (2, 2, 0)])
        flipped = [tuple(-x for x in d) if i == 1 else d for i, d in enumerate(A3_DIMS)]
        for cell in enumerate_cells(flipped):
            assert sign_vector(flipped, cell.sample) == cell.signs

    def test_guard(self):
        hs = [tuple(1 if j <= i else 0 for j in range(21)) for i in range(21)]
        with pytest.raises(GuardExceededError):
            enumerate_cells(hs)

    def test_guard_detail_names_the_guard_and_its_limit(self, monkeypatch):
        # chamber_graph's BRICK_GUARD fires first on as many hyperplanes, so
        # CELL_GUARD's text is read here, where the CLI would print it
        monkeypatch.setenv("GHOSTPIC_GUARD", "2")
        with pytest.raises(GuardExceededError) as caught:
            enumerate_cells([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert str(caught.value) == "3 hyperplanes exceed CELL_GUARD = 2 (GHOSTPIC_GUARD)"
        assert caught.value.count == 3

    def test_random_point_lands_in_some_closed_cell(self):
        hs = A3_DIMS
        cells = enumerate_cells(hs)
        rng = random.Random(7)
        for _ in range(200):
            point = tuple(Fraction(rng.randint(-9, 9)) for _ in range(3))
            covered = any(
                all(
                    s * dot(d, point) >= 0
                    for s, d in zip(cell.signs, A3_DIMS)
                )
                for cell in cells
            )
            assert covered


class TestFacets:
    def test_two_halves_of_one_hyperplane(self):
        hs = [(1, 0)]
        cells = enumerate_cells(hs)
        adj = cell_facet_neighbors(cells, hs)
        assert len(adj) == 1
        assert dot((1, 0), adj[0].facet_sample) == 0

    def test_facet_sample_strict_on_other_hyperplanes(self):
        hs = A3_DIMS
        cells = enumerate_cells(hs)
        for adj in cell_facet_neighbors(cells, hs):
            for i, d in enumerate(A3_DIMS):
                v = dot(d, adj.facet_sample)
                if i == adj.hyperplane_index:
                    assert v == 0
                else:
                    assert v != 0

    def test_adjacency_graph_connected(self):
        hs = A3_DIMS
        cells = enumerate_cells(hs)
        parent = {c.signs: c.signs for c in cells}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for adj in cell_facet_neighbors(cells, hs):
            parent[find(adj.cell_a.signs)] = find(adj.cell_b.signs)
        assert len({find(c.signs) for c in cells}) == 1

    def test_double_sign_flips_never_adjacent(self):
        hs = A3_DIMS
        cells = enumerate_cells(hs)
        for adj in cell_facet_neighbors(cells, hs):
            flips = sum(
                1 for a, b in zip(adj.cell_a.signs, adj.cell_b.signs) if a != b
            )
            assert flips == 1

    def test_facet_points_solve_no_lp(self, monkeypatch):
        cells = enumerate_cells(A3_DIMS)
        monkeypatch.setattr(geometry, "_simplex_max", lambda *args: pytest.fail("a facet solved an LP"))
        assert len(cell_facet_neighbors(cells, A3_DIMS)) == 36

    def test_a_facet_without_a_sample_raises(self, monkeypatch):
        """Two cells that differ in one sign always share a facet, so a facet
        LP that finds no point is a fault, named by both cells' signs, not
        an edge sample dropped without a word.  The one facet LP is the
        report's, on the first edge's facet; the build solves none."""
        catalog = generate_type_a(3, "LL")
        ids = [m.id for m in catalog.indecs]
        first = chamber_graph(ModuleClass(catalog, ids)).edges[0].facet
        sample = geometry._sample
        monkeypatch.setattr(geometry, "_sample", lambda cone: None if cone.equalities else sample(cone))
        with pytest.raises(InternalConsistencyError) as caught:
            export_report(ModuleClass(catalog, ids))
        assert str(caught.value) == (
            f"cells {first.cell_a.signs} and {first.cell_b.signs} "
            f"share no facet on hyperplane {first.hyperplane_index}"
        )


class TestConeAlgebra:
    def test_primitive(self):
        assert primitive((2, 4, -6)) == (1, 2, -3)
        assert primitive((Fraction(1, 2), Fraction(1, 3))) == (3, 2)

    def test_zero_vector_has_no_primitive_form(self):
        with pytest.raises(GhostpicError, match="zero vector has no primitive form"):
            primitive((0, 0, 0))

    def test_cone_containment(self):
        octant = Cone(2, weak=((1, 0), (0, 1)))
        half = Cone(2, weak=((1, 0),))
        assert cone_contains_cone(half, octant)
        assert not cone_contains_cone(octant, half)

    def test_negated(self):
        cone = Cone(2, equalities=((1, -1),), weak=((1, 0),))
        p = feasible_point(cone.negated().interior())
        assert p is not None
        assert cone.contains(tuple(-x for x in p))


class TestCellsKeepTheReferenceEnumeration:
    """A child cell on its parent's side of the new hyperplane keeps its
    parent's sample below the last level, and `_cone_lp` builds its box rows
    and objective once per rank: the cells, samples and denominators are
    those of the enumeration that solved every child's LP in full
    (`reference_cells`)."""

    @staticmethod
    def classes():
        for n in range(1, 5):
            for orient in map("".join, itertools.product("LR", repeat=n - 1)):
                catalog = generate_type_a(n, orient)
                yield ModuleClass(catalog, [m.id for m in catalog.indecs])
        yield from standard_fixtures().values()

    def test_every_full_class_up_to_a4_and_every_fixture(self):
        checked = 0
        for cls in self.classes():
            dims = [cls.dim_of(b) for b in cls.bricks]
            assert enumerate_cells(dims) == reference_enumerate_cells(dims), cls.bricks
            checked += 1
        assert checked == 1 + 2 + 4 + 8 + 10


def test_vec_str_prints_what_fraction_prints():
    """`vec_str` reduces each num/den by `gcd`: the text of
    `str(Fraction(x, den))`, on random ints small and large."""
    rng = random.Random(40)
    for bits in (4, 12, 70):
        for _ in range(300):
            den = rng.randrange(1, 2**bits)
            num = [rng.randrange(-(2**bits), 2**bits) for _ in range(rng.randrange(0, 5))]
            num += [0, den, -den, 2 * den, den - 1]  # zero, whole numbers and one below
            assert geometry.vec_str(num, den) == [str(Fraction(x, den)) for x in num]
    assert geometry.vec_str((3, -4)) == ["3", "-4"]
