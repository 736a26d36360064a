"""Property tests of the integer fixed-point renderer against the `Fraction`
one it replaced (`reference_render.py`): projection onto the 2^-48 grid,
the viewport map, Liang-Barsky clipping, polyline joins and the
three-decimal printing must agree exactly, ties included."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ghostpic.errors import GhostpicError
from ghostpic.geometry import primitive
from ghostpic.render import (
    PlanePoint,
    _clip_segment,
    _polyline_paths,
    _project_int,
    _px,
    _round_half_even,
    _to_viewport,
    stereographic,
)
from reference_render import (
    fraction_clip_segment,
    fraction_polyline_paths,
    fraction_px,
    fraction_stereographic,
    fraction_to_viewport,
)

GRID = 1 << 48
EDGE = 8 << 48  # the window edge, |x| = 8, on the grid

entries = st.integers(-50, 50)
rays = st.tuples(entries, entries, entries).filter(any)
# grid numerators: inside, outside, on and just beside the window edges
coords = st.one_of(
    st.integers(-12 * GRID, 12 * GRID),
    st.sampled_from([-EDGE, EDGE, 0, EDGE + 1, -EDGE - 1, EDGE - 1, 1 - EDGE]),
)
# the ghost offset 2*WINDOW*offset*shift moves whole curves off the grid
offsets = st.one_of(
    st.just(Fraction(0)),
    st.builds(lambda n, d: Fraction(16 * n, d), st.integers(-3, 3), st.integers(1, 200)),
)


def at_pole(ray) -> bool:
    try:
        fraction_stereographic(ray)
    except GhostpicError:
        return True
    return False


@st.composite
def segments(draw):
    x0, y0, x1, y1 = (draw(coords) for _ in range(4))
    kind = draw(st.sampled_from(["free", "vertical", "horizontal", "point"]))
    if kind in ("vertical", "point"):
        x1 = x0
    if kind in ("horizontal", "point"):
        y1 = y0
    off = draw(offsets)
    return [
        PlanePoint(Fraction(x0, GRID) + off, Fraction(y0, GRID) + off),
        PlanePoint(Fraction(x1, GRID) + off, Fraction(y1, GRID) + off),
    ]


@st.composite
def polylines(draw):
    off = draw(offsets)
    pts = draw(st.lists(st.tuples(coords, coords), min_size=2, max_size=7))
    return [PlanePoint(Fraction(x, GRID) + off, Fraction(y, GRID) + off) for x, y in pts]


class TestProjection:
    @settings(max_examples=400, deadline=None)
    @given(rays)
    def test_project_int_matches_fraction_projection(self, ray):
        assume(not at_pole(ray))
        ref = fraction_stereographic(ray)
        x, y = _project_int(primitive(ray))
        assert (Fraction(x, GRID), Fraction(y, GRID)) == (ref.x, ref.y)

    @settings(max_examples=200, deadline=None)
    @given(rays, st.integers(1, 7))
    def test_stereographic_matches_on_scaled_rays(self, ray, scale):
        assume(not at_pole(ray))
        theta = tuple(Fraction(scale * x, 3) for x in ray)
        assert stereographic(theta) == fraction_stereographic(theta)

    @pytest.mark.parametrize("ray", [(-1, -1, -1), (-4, -4, -4)])
    def test_pole_raises_like_the_reference(self, ray):
        with pytest.raises(GhostpicError, match="at-pole"):
            fraction_stereographic(ray)
        with pytest.raises(GhostpicError, match="at-pole"):
            stereographic(ray)
        with pytest.raises(GhostpicError, match="at-pole"):
            _project_int(primitive(ray))


class TestViewportAndClipping:
    @settings(max_examples=300, deadline=None)
    @given(segments())
    def test_viewport_is_exact(self, seg):
        view, den = _to_viewport(seg)
        for (x, y), p in zip(view, seg):
            assert (Fraction(x, den), Fraction(y, den)) == fraction_to_viewport(p)

    @settings(max_examples=500, deadline=None)
    @given(segments())
    def test_clip_matches_fraction_clip(self, seg):
        (p, q), den = _to_viewport(seg)
        got = _clip_segment(p, q, den)
        ref = fraction_clip_segment(*(fraction_to_viewport(pt) for pt in seg))
        if ref is None:
            assert got is None
            return
        assert got is not None
        assert [(Fraction(x, d), Fraction(y, d)) for x, y, d in got] == list(ref)
        assert all(d > 0 for _, _, d in got)

    @settings(max_examples=300, deadline=None)
    @given(polylines())
    def test_polyline_paths_match(self, points):
        assert _polyline_paths(points) == fraction_polyline_paths(points)

    def test_segment_along_an_edge_and_outside(self):
        on_edge = [PlanePoint(Fraction(-8), Fraction(-9)), PlanePoint(Fraction(-8), Fraction(9))]
        outside = [PlanePoint(Fraction(9), Fraction(-1)), PlanePoint(Fraction(9), Fraction(1))]
        for seg in (on_edge, outside):
            assert _polyline_paths(seg) == fraction_polyline_paths(seg)
        assert _polyline_paths(on_edge) == ["M 0.000 1000.000 L 0.000 0.000"]
        assert _polyline_paths(outside) == []


class TestPrinting:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(-(10**9), 10**9), st.integers(1, 10**6))
    def test_px_matches(self, num, den):
        assert _px(num, den) == fraction_px(Fraction(num, den))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-(10**6), 10**6), st.integers(1, 10**4))
    def test_px_on_exact_ties(self, k, scale):
        # (2k+1)/2000 is exactly halfway between two printed values
        num, den = (2 * k + 1) * scale, 2000 * scale
        assert _px(num, den) == fraction_px(Fraction(num, den))

    def test_ties_round_to_even(self):
        assert [_px(n, 2000) for n in (1, 3, -1, -3, 2001)] == [
            "0.000", "0.002", "0.000", "-0.002", "1.000",
        ]

    @given(st.integers(-(10**30), 10**30), st.integers(1, 10**20))
    def test_round_half_even_is_fraction_round(self, num, den):
        assert _round_half_even(num, den) == round(Fraction(num, den))
