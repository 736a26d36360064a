"""Property tests of the integer fixed-point renderer against the `Fraction`
one it replaced (`reference_render.py`): projection onto the 2^-48 grid,
the viewport map, Liang-Barsky clipping, polyline joins and the
three-decimal printing must agree exactly, ties included.  Plane points are
drawn as the renderer keeps them in a scene: grid numerators shifted by a
ghost offset p/q, all over the one denominator 2^48 * q."""

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
# the ghost shift p/q moves whole curves off the grid
offsets = st.one_of(st.just((0, 1)), st.tuples(st.integers(-48, 48), st.integers(1, 200)))


def at_pole(ray) -> bool:
    try:
        fraction_stereographic(ray)
    except GhostpicError:
        return True
    return False


def shifted(pts, offset):
    """Grid points (x, y) shifted by offset = (p, q), as numerators over
    den = 2^48 * q, with den."""
    p, q = offset
    return [PlanePoint(x * q + p * GRID, y * q + p * GRID) for x, y in pts], GRID * q


def as_fractions(point, den):
    return (Fraction(point.x, den), Fraction(point.y, den))


@st.composite
def segments(draw):
    x0, y0, x1, y1 = (draw(coords) for _ in range(4))
    kind = draw(st.sampled_from(["free", "vertical", "horizontal", "point"]))
    if kind in ("vertical", "point"):
        x1 = x0
    if kind in ("horizontal", "point"):
        y1 = y0
    return shifted([(x0, y0), (x1, y1)], draw(offsets))


@st.composite
def polylines(draw):
    pts = draw(st.lists(st.tuples(coords, coords), min_size=2, max_size=7))
    return shifted(pts, draw(offsets))


class TestProjection:
    @settings(max_examples=400, deadline=None)
    @given(rays)
    def test_project_int_matches_fraction_projection(self, ray):
        assume(not at_pole(ray))
        x, y = _project_int(primitive(ray))
        assert (Fraction(x, GRID), Fraction(y, GRID)) == fraction_stereographic(ray)

    @settings(max_examples=200, deadline=None)
    @given(rays, st.integers(1, 7))
    def test_stereographic_matches_on_scaled_rays(self, ray, scale):
        assume(not at_pole(ray))
        theta = tuple(Fraction(scale * x, 3) for x in ray)
        assert as_fractions(stereographic(theta), GRID) == fraction_stereographic(theta)

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
        points, den = seg
        view, vden = _to_viewport(points, den)
        for (x, y), p in zip(view, points):
            assert (Fraction(x, vden), Fraction(y, vden)) == fraction_to_viewport(as_fractions(p, den))

    @settings(max_examples=500, deadline=None)
    @given(segments())
    def test_clip_matches_fraction_clip(self, seg):
        points, den = seg
        (p, q), vden = _to_viewport(points, den)
        got = _clip_segment(p, q, vden)
        ref = fraction_clip_segment(*(fraction_to_viewport(as_fractions(pt, den)) for pt in points))
        if ref is None:
            assert got is None
            return
        assert got is not None
        assert [(Fraction(x, d), Fraction(y, d)) for x, y, d in got] == list(ref)
        assert all(d > 0 for _, _, d in got)

    @settings(max_examples=300, deadline=None)
    @given(polylines())
    def test_polyline_paths_match(self, line):
        points, den = line
        ref = fraction_polyline_paths([as_fractions(p, den) for p in points])
        assert _polyline_paths(points, den) == ref

    def test_segment_along_an_edge_and_outside(self):
        on_edge = [PlanePoint(-EDGE, -9 * GRID), PlanePoint(-EDGE, 9 * GRID)]
        outside = [PlanePoint(9 * GRID, -GRID), PlanePoint(9 * GRID, GRID)]
        for seg in (on_edge, outside):
            ref = fraction_polyline_paths([as_fractions(p, GRID) for p in seg])
            assert _polyline_paths(seg, GRID) == ref
        assert _polyline_paths(on_edge, GRID) == ["M 0.000 1000.000 L 0.000 0.000"]
        assert _polyline_paths(outside, GRID) == []


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
