"""Cell and facet samples over random brick sets, against the rational simplex.

Hypothesis draws up to six bricks of a type-A catalog (the four A3
orientations and A4 with orientation LLL), so the arrangements go beyond
the ten standard fixtures.  Every cell sample and every facet sample of a
cone with strict rows must be the point the rational simplex finds for the
same cone, as integer numerators over their least common denominator.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from ghostpic.catalog import generate_type_a
from ghostpic.geometry import Cone, cell_facet_neighbors, enumerate_cells, primitive
from reference_simplex import fraction_feasible_point

CATALOGS = [generate_type_a(3, o) for o in ("LL", "LR", "RL", "RR")] + [generate_type_a(4, "LLL")]


@st.composite
def brick_dims(draw):
    catalog = draw(st.sampled_from(CATALOGS))
    ids = [m.id for m in catalog.indecs]
    bricks = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=6, unique=True))
    return [catalog.dim_of(b) for b in bricks]


def assert_exact_sample(cone, num, den):
    assert [Fraction(x, den) for x in num] == list(fraction_feasible_point(cone))
    assert gcd(*num, den) == 1


@settings(max_examples=20, deadline=None)
@given(brick_dims())
def test_samples_are_the_rational_points_over_their_least_denominator(dims):
    normals = [primitive(d) for d in dims]
    n = len(normals[0])
    cells = enumerate_cells(dims)
    for cell in cells:
        strict = tuple(tuple(s * x for x in v) for s, v in zip(cell.signs, normals))
        assert_exact_sample(Cone(n, strict=strict), cell.sample, cell.den)
    for adj in cell_facet_neighbors(cells, dims):
        i = adj.hyperplane_index
        strict = tuple(
            tuple(s * x for x in v)
            for j, (s, v) in enumerate(zip(adj.cell_a.signs, normals))
            if j != i
        )
        if strict:
            assert_exact_sample(Cone(n, (normals[i],), strict=strict), adj.facet_sample, adj.den)
