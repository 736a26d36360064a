"""Cell, facet and edge samples over random brick sets.

Hypothesis draws up to six bricks of a type-A catalog (the four A3
orientations and A4 with orientation LLL), so the arrangements go beyond
the ten standard fixtures.  Every cell sample, and every sample a
chamber-graph edge prints, must be the point the rational simplex finds for
the same cone, as integer numerators over their least common denominator.
A facet point is solved by no LP, so it is checked by its definition: a
primitive integer point on its hyperplane, strictly on the two cells' common
side of every other hyperplane.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from ghostpic.catalog import ModuleClass, generate_type_a
from ghostpic.geometry import Cone, cell_facet_neighbors, enumerate_cells, primitive
from ghostpic.stability import chamber_graph
from reference_simplex import fraction_feasible_point
from reference_vectors import dot

CATALOGS = [generate_type_a(3, o) for o in ("LL", "LR", "RL", "RR")] + [generate_type_a(4, "LLL")]


@st.composite
def brick_classes(draw):
    catalog = draw(st.sampled_from(CATALOGS))
    ids = [m.id for m in catalog.indecs]
    return ModuleClass(catalog, draw(st.lists(st.sampled_from(ids), min_size=1, max_size=6, unique=True)))


def assert_exact_sample(cone, num, den):
    assert [Fraction(x, den) for x in num] == list(fraction_feasible_point(cone))
    assert gcd(*num, den) == 1


def facet_cone(normals, signs, i):
    """The open facet of hyperplane i of the cell with these signs, or None
    for a lone hyperplane (the facet is the whole hyperplane)."""
    strict = tuple(tuple(s * x for x in v) for j, (s, v) in enumerate(zip(signs, normals)) if j != i)
    return Cone(len(normals[i]), (normals[i],), strict=strict) if strict else None


@settings(max_examples=20, deadline=None)
@given(brick_classes())
def test_samples_are_the_rational_points_over_their_least_denominator(cls):
    dims = [cls.dim_of(b) for b in cls.bricks]
    normals = [primitive(d) for d in dims]
    n = len(normals[0])
    cells = enumerate_cells(dims)
    for cell in cells:
        strict = tuple(tuple(s * x for x in v) for s, v in zip(cell.signs, normals))
        assert_exact_sample(Cone(n, strict=strict), cell.sample, cell.den)
    # an edge's sample is solved on the first facet that joins its chambers
    # across its wall's hyperplane
    graph = chamber_graph(cls)
    for e in graph.edges:
        i = cls.bricks.index(e.wall_brick)
        first = next(
            a
            for a in graph.adjacencies
            if a.hyperplane_index == i
            and {graph.chamber_of_signs[a.cell_a.signs], graph.chamber_of_signs[a.cell_b.signs]} == {e.src, e.dst}
        )
        cone = facet_cone(normals, first.cell_a.signs, i)
        if cone is not None:
            assert_exact_sample(cone, e.facet_sample, e.den)


@settings(max_examples=20, deadline=None)
@given(brick_classes())
def test_facet_points_lie_in_their_facets(cls):
    dims = [cls.dim_of(b) for b in cls.bricks]
    for adj in cell_facet_neighbors(enumerate_cells(dims), dims):
        point, i = adj.facet_sample, adj.hyperplane_index
        assert gcd(*point) == 1 or not any(point)
        assert (adj.cell_a.signs[i], adj.cell_b.signs[i]) == (1, -1)
        for j, (s, d) in enumerate(zip(adj.cell_a.signs, dims)):
            if j == i:
                assert dot(d, point) == 0
            else:
                assert s * dot(d, point) > 0 and adj.cell_b.signs[j] == s
