"""Rank-3 pictures as SVG, plus machine-readable reports for any rank.

Walls, ghost domains and chamber labels are traced on the unit sphere and
drawn through the stereographic projection with pole at -eta/sqrt(3) and
image plane tangent at eta/sqrt(3), so the all-positive chamber appears at
the center.  Each curve's sector is read off its exact boundary rays, so
rendering solves no LP.  The drawing runs on integers from the ray to the
printed digits: square roots are floor roots at 2^-80, every projected
coordinate is an integer numerator over 2^48 (rounded half-even), a scene
keeps its points as numerators over the one denominator SCENE_DEN, and the
viewport map, Liang-Barsky clipping and the three-decimal printing work on
those numerators, so the output is exact and identical across runs.
"""

from __future__ import annotations

import json
from math import isqrt
from typing import NamedTuple

from ghostpic.catalog import ModuleClass
from ghostpic.errors import GhostpicError, RankError
from ghostpic.geometry import Cone, facet_lp_sample, int_dot, primitive, vec_str
from ghostpic.ghosts import EXTENSION, QUOTIENT, SUBOBJECT, enumerate_ghosts, ghost_census_doc
from ghostpic.stability import chamber_docs, chamber_graph, count_mgs, edge_docs

SQRT_BITS = 80
VIEWPORT = 1000
WINDOW = 8  # plane coordinates [-WINDOW, WINDOW] map onto the viewport
SAMPLES = 48  # trace density: a curve starts from at least this many chords

REPORT_SCHEMA = "ghostpic-report/1"

PALETTE = {
    "wall": "#000000",
    "subobject": ("#c1272d", "#1f4fd8"),
    "quotient": ("#8a1fd8", "#d81f8a"),
    "extension": ("#1a7f3c", "#d87f1f", "#1f8ad8", "#7f1a3c"),
    "label": "#000000",
}


_GRID_BITS = 48  # projected coordinates snap to this fixed grid
_GRID = 1 << _GRID_BITS
# a ghost curve stacked on an earlier one with the same domain is shifted by
# 1/100 of the viewport in x and y: 2 * WINDOW / 100 = 4/25 in the plane
_SHIFT_NUM, _SHIFT_DEN = 4, 25
SCENE_DEN = _GRID * _SHIFT_DEN  # every point of a scene is a numerator over it
_ROOT_SHIFT = 2 * SQRT_BITS
# floor square roots of 2, 3 and 6 at 2^-SQRT_BITS, as integer numerators
_S2, _S3, _S6 = (isqrt(k << _ROOT_SHIFT) for k in (2, 3, 6))
# a chord is short enough when |chord| <= 0.5% of the viewport, that is
# |chord|^2 * _CHORD_DEN <= _CHORD_NUM with the chord in grid units
_CHORD_DEN = VIEWPORT * VIEWPORT
_CHORD_NUM = (2 * WINDOW * 5) ** 2 << (2 * _GRID_BITS)
_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;"})  # the escapes of SVG element text
_ATTR = str.maketrans({"&": "&amp;", "<": "&lt;", '"': "&quot;"})  # and of attribute values


def _round_half_even(num: int, den: int) -> int:
    """round(num / den) for den > 0, ties to even (as `Fraction.__round__`)."""
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    return q


class PlanePoint(NamedTuple):
    """Integer numerators of a plane point: over 2^48 as projected, over
    SCENE_DEN in a scene."""

    x: int
    y: int


def _project_int(t) -> PlanePoint:
    """Grid numerators (X, Y) of the projection of a primitive integer ray t;
    the plane point is (X, Y) / 2^48.

    With a = t0+t1+t2 and r the floor root of |t|^2 at 2^-80, the projection
    is sqrt(6)(t0-t1) / (a + sqrt(3) r) and likewise with sqrt(2)(t0+t1-2t2);
    the denominator is D / 2^160 with D = a*2^160 + S3*r, so every step is an
    integer one and the grid rounding is exact.
    """
    a = t[0] + t[1] + t[2]
    r = isqrt((t[0] * t[0] + t[1] * t[1] + t[2] * t[2]) << _ROOT_SHIFT)
    d = (a << _ROOT_SHIFT) + _S3 * r
    if d <= 0:
        raise GhostpicError("at-pole: ray is antipodal to eta")
    shift = SQRT_BITS + _GRID_BITS
    return PlanePoint(
        _round_half_even((_S6 * (t[0] - t[1])) << shift, d),
        _round_half_even((_S2 * (t[0] + t[1] - 2 * t[2])) << shift, d),
    )


def stereographic(theta) -> PlanePoint:
    """Project the ray through theta; scale invariant, pole at -eta/sqrt(3).

    The ray is reduced to primitive integer form first, so proportional
    inputs map to identical points despite the fixed-precision square root.
    """
    if len(theta) != 3:
        raise RankError("stereographic projection is rank-3 only")
    if not any(theta):
        raise GhostpicError("cannot project the zero vector")
    return _project_int(primitive(theta))


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _cross2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _plane_basis(e):
    axes = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    b1 = next(v for v in (_cross(e, ax) for ax in axes) if any(v))
    b1 = primitive(b1)
    b2 = primitive(_cross(e, b1))
    return b1, b2


def _sector_anchors(normals: list[tuple]) -> list[tuple]:
    """Anchor rays of the sector {x : n.x >= 0 for every n} of distinct
    primitive 2D normals, read off its boundary rays; [] if it has no interior.

    The whole plane is a closed loop through the axes, and a half-plane runs
    through its normal.  Otherwise the boundary rays are the perpendiculars
    of the normals that satisfy every inequality; the sector has an interior
    iff they are two rays that are not opposite, returned clockwise-most
    first (r1 x r2 > 0).  Else its closure is the origin, a ray or a line.
    """
    if not normals:
        return [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 0)]
    if len(normals) == 1:
        (n,) = normals
        return [(-n[1], n[0]), n, (n[1], -n[0])]
    perps = [p for n in normals for p in ((-n[1], n[0]), (n[1], -n[0]))]
    rays = {p for p in perps if all(int_dot(m, p) >= 0 for m in normals)}
    if len(rays) != 2:  # the origin or a ray
        return []
    r1, r2 = rays
    turn = _cross2(r1, r2)
    return [r1, r2] if turn > 0 else [r2, r1] if turn < 0 else []


def trace_wall_curve(cone: Cone) -> list[PlanePoint]:
    """Projected trace of a rank-3 cone with exactly one equality.

    The cone's intersection with its hyperplane is a 2D sector (possibly the
    whole plane), read off its boundary rays (`_sector_anchors`): they are
    exact cross products, so arc endpoints land exactly on wall-intersection
    vertices, and no LP is solved.  Between anchors the curve is sampled
    adaptively until adjacent chords are below 0.5% of the viewport.
    """
    if cone.dim != 3:
        raise RankError("wall tracing is rank-3 only")
    if len(cone.equalities) != 1:
        raise GhostpicError("trace expects a cone with exactly one equality")
    e = cone.equalities[0]
    b1, b2 = _plane_basis(e)
    ineqs: list[tuple] = []
    for a in cone.weak + cone.strict:
        n2 = (int_dot(a, b1), int_dot(a, b2))
        if any(n2) and (n2 := primitive(n2)) not in ineqs:
            ineqs.append(n2)
    anchors2d = _sector_anchors(ineqs)
    if not anchors2d:
        return []

    def midpoint_ray(ra, rb):
        # angular bisection up to integer rounding; the rounded ray is kept
        # only if it still satisfies the sector inequalities exactly
        na = isqrt((ra[0] * ra[0] + ra[1] * ra[1]) << 32)
        nb = isqrt((rb[0] * rb[0] + rb[1] * rb[1]) << 32)
        m = primitive((nb * ra[0] + na * rb[0], nb * ra[1] + na * rb[1]))
        mx = max(abs(m[0]), abs(m[1]))
        if mx > 1 << 26:
            scaled = (m[0] * (1 << 26)) // mx, (m[1] * (1 << 26)) // mx
            if any(scaled) and all(
                n[0] * scaled[0] + n[1] * scaled[1] >= 0 for n in ineqs
            ):
                m = scaled
        return m

    def project(r2):
        u, v = r2
        return _project_int(primitive(tuple(u * x + v * y for x, y in zip(b1, b2))))

    points = [project(r) for r in anchors2d]
    out: list[PlanePoint] = [points[0]]

    def refine(ra, rb, pa, pb, depth):
        if depth <= 0:
            dx, dy = pa[0] - pb[0], pa[1] - pb[1]
            if _CHORD_DEN * (dx * dx + dy * dy) <= _CHORD_NUM or depth <= -16:
                out.append(pb)
                return
        rm = midpoint_ray(ra, rb)
        pm = project(rm)
        refine(ra, rm, pa, pm, depth - 1)
        refine(rm, rb, pm, pb, depth - 1)

    init_depth = (SAMPLES // (len(anchors2d) - 1)).bit_length()
    for i in range(len(anchors2d) - 1):
        refine(anchors2d[i], anchors2d[i + 1], points[i], points[i + 1], init_depth)
    return out


# ---------------------------------------------------------------------------
# Scene assembly.
# ---------------------------------------------------------------------------


class RenderOptions(NamedTuple):
    include_extension_ghosts: bool = False


class SceneCurve(NamedTuple):
    name: str
    kind: str  # wall | subobject | quotient | extension
    points: tuple[PlanePoint, ...]
    style: dict


class PictureScene(NamedTuple):
    """Every point of the scene is a numerator over SCENE_DEN."""

    wall_curves: tuple[SceneCurve, ...]
    ghost_curves: tuple[SceneCurve, ...]
    labels: tuple[tuple[str, PlanePoint], ...]


def _canonical_cone(cone: Cone):
    return (tuple(sorted(cone.equalities)), tuple(sorted(cone.weak)))


def build_scene(cls: ModuleClass, options: RenderOptions, graph=None) -> PictureScene:
    if cls.catalog.quiver.n != 3:
        raise RankError("rank-3-only: the SVG picture needs exactly three simples; "
                        "run with --report for the JSON report instead")
    if graph is None:
        graph = chamber_graph(cls)

    def scaled(p: PlanePoint, eps: int = 0) -> PlanePoint:
        return PlanePoint(p.x * _SHIFT_DEN + eps, p.y * _SHIFT_DEN + eps)

    wall_curves = []
    for b in cls.bricks:
        pts = trace_wall_curve(graph.walls[b].cone)
        if pts:
            wall_curves.append(
                SceneCurve(
                    name=b,
                    kind="wall",
                    points=tuple(scaled(p) for p in pts),
                    style={"stroke": PALETTE["wall"], "fill": "none", "stroke-width": "2"},
                )
            )

    ghosts = enumerate_ghosts(cls)
    if not options.include_extension_ghosts:
        ghosts = [g for g in ghosts if g.kind != EXTENSION]
    counters = {SUBOBJECT: 0, QUOTIENT: 0, EXTENSION: 0}
    domain_groups: dict[tuple, int] = {}
    ghost_curves = []
    for g in ghosts:
        pts = trace_wall_curve(g.domain)
        if not pts:
            continue
        idx = counters[g.kind]
        counters[g.kind] += 1
        colors = PALETTE[g.kind]
        style = {
            "stroke": colors[idx % len(colors)],
            "fill": "none",
            "stroke-width": "2",
        }
        if g.kind == QUOTIENT:
            style["stroke-dasharray"] = "8 5"
        canon = _canonical_cone(g.domain)
        shift = domain_groups.get(canon, 0)
        domain_groups[canon] = shift + 1
        pts = tuple(scaled(p, _SHIFT_NUM * shift * _GRID) for p in pts)
        ghost_curves.append(SceneCurve(g.display(), g.kind, pts, style))

    edge = WINDOW * SCENE_DEN
    labels = []
    for ch in graph.chambers:
        if ch.id == graph.source:
            continue  # the outer all-negative chamber is left unlabeled
        anchor = scaled(stereographic(ch.cells[0].sample))
        anchor = PlanePoint(max(-edge, min(edge, anchor.x)), max(-edge, min(edge, anchor.y)))
        labels.append(("".join(sorted(ch.label, key=cls.catalog.position)), anchor))
    return PictureScene(tuple(wall_curves), tuple(ghost_curves), tuple(labels))


# ---------------------------------------------------------------------------
# SVG serialization.
# ---------------------------------------------------------------------------


def _px(num: int, den: int) -> str:
    """num / den (den > 0) as three decimals, rounded half-even in integers."""
    scaled = _round_half_even(1000 * num, den)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    return f"{sign}{scaled // 1000}.{scaled % 1000:03d}"


def _to_viewport(points, den: int) -> tuple[list[tuple[int, int]], int]:
    """Viewport coordinates of plane points, numerators over den > 0, as
    integer pairs over the one denominator 2*WINDOW*den.

    x maps to VIEWPORT/2 * (1 + x/WINDOW) and y to VIEWPORT/2 * (1 - y/WINDOW).
    """
    center = WINDOW * den
    view = [(VIEWPORT * (center + p.x), VIEWPORT * (center - p.y)) for p in points]
    return view, 2 * center


def _clip_segment(p, q, den: int):
    """Liang-Barsky clipping of the segment p-q to the viewport, exact.

    p and q are integer pairs over the common denominator den > 0.  The clip
    parameters t0 <= t1 stay (num, den) pairs with a positive denominator and
    are compared by cross-multiplying.  The clipped endpoints come back as
    (x, y, d), the point (x/d, y/d); None when nothing is left.
    """
    x0, y0 = p
    x1, y1 = q
    size = VIEWPORT * den
    n0, d0, n1, d1 = 0, 1, 1, 1
    dx, dy = x1 - x0, y1 - y0
    for coeff, offset in ((-dx, x0), (dx, size - x0), (-dy, y0), (dy, size - y0)):
        if coeff == 0:
            if offset < 0:
                return None
            continue
        if coeff < 0:  # t = offset/coeff bounds t from below
            tn, td = -offset, -coeff
            if tn * d1 > n1 * td:
                return None
            if tn * d0 > n0 * td:
                n0, d0 = tn, td
        else:  # and from above
            tn, td = offset, coeff
            if tn * d0 < n0 * td:
                return None
            if tn * d1 < n1 * td:
                n1, d1 = tn, td
    return (
        (x0 * d0 + n0 * dx, y0 * d0 + n0 * dy, d0 * den),
        (x0 * d1 + n1 * dx, y0 * d1 + n1 * dy, d1 * den),
    )


def _same_point(a, b) -> bool:
    return a[0] * b[2] == b[0] * a[2] and a[1] * b[2] == b[1] * a[2]


def _polyline_paths(points, den: int) -> list[str]:
    """SVG path data of a polyline clipped to the viewport, one path per run
    of segments that join end to start."""
    view, view_den = _to_viewport(points, den)
    paths: list[list[tuple]] = []
    run: list[tuple] = []
    for i in range(len(view) - 1):
        seg = _clip_segment(view[i], view[i + 1], view_den)
        if seg is None:
            run = []
            continue
        a, b = seg
        if run and _same_point(run[-1], a):
            run.append(b)
        else:
            run = [a, b]
            paths.append(run)
    return ["M " + " L ".join(f"{_px(x, w)} {_px(y, w)}" for x, y, w in path) for path in paths]


def render_picture(cls: ModuleClass, options: RenderOptions | None = None, graph=None) -> str:
    """Deterministic SVG document of the rank-3 picture, in ASCII: ids are
    escaped, a non-ASCII character written as a character reference."""
    options = options or RenderOptions()
    scene = build_scene(cls, options, graph=graph)
    meta = {
        "schema": "ghostpic-svg/1",
        "class": list(cls.bricks),
        "quiver": {"n": cls.catalog.quiver.n, "arrows": [list(a) for a in cls.catalog.quiver.arrows]},
        "options": {
            "include_extension_ghosts": options.include_extension_ghosts,
            "ghost_offset": "1/100",  # of the viewport, as _SHIFT_NUM / _SHIFT_DEN
            "samples": SAMPLES,
        },
        "palette": {k: v for k, v in PALETTE.items() if k != "label"},
        "window": str(WINDOW),
    }
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEWPORT}" height="{VIEWPORT}" '
        f'viewBox="0 0 {VIEWPORT} {VIEWPORT}">',
        "<metadata>" + json.dumps(meta, sort_keys=True).translate(_TEXT) + "</metadata>",
        f'<rect width="{VIEWPORT}" height="{VIEWPORT}" fill="#ffffff"/>',
    ]
    for curve in scene.wall_curves + scene.ghost_curves:
        head = f'<path class="{curve.kind}" data-name="{curve.name.translate(_ATTR)}"'
        style = ";".join(f"{k}:{v}" for k, v in sorted(curve.style.items()))
        for d in _polyline_paths(curve.points, SCENE_DEN):
            lines.append(f'{head} d="{d}" style="{style}"/>')
    for text, anchor in scene.labels:
        ((x, y),), den = _to_viewport((anchor,), SCENE_DEN)
        lines.append(
            f'<text class="chamber-label" x="{_px(x, den)}" y="{_px(y, den)}" '
            f'font-size="18" text-anchor="middle">{text.translate(_TEXT)}</text>'
        )
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("ascii", "xmlcharrefreplace").decode()


# ---------------------------------------------------------------------------
# JSON report (any rank), from the document builders of each layer.
# ---------------------------------------------------------------------------


def export_report(cls: ModuleClass, graph=None) -> str:
    """Machine-readable dump of walls, chambers, graph edges, ghost census
    and bifurcations, with stable key order for diffing.  Each edge prints
    the simplex's point of its first wall facet (`facet_lp_sample`)."""
    if graph is None:
        graph = chamber_graph(cls)
    census = ghost_census_doc(cls)
    chambers = chamber_docs(cls, graph)
    for doc in chambers:
        doc["is_source"] = doc["id"] == graph.source
        doc["is_sink"] = doc["id"] == graph.sink
    edges = edge_docs(graph)
    normals = [primitive(cls.dim_of(b)) for b in cls.bricks]
    for doc, e in zip(edges, graph.edges):
        doc["facet_sample"] = vec_str(*facet_lp_sample(normals, e.facet))
    doc = {
        "schema": REPORT_SCHEMA,
        "class": {"bricks": list(cls.bricks), "flags": cls.flags._asdict()},
        "walls": [
            {
                "brick": b,
                "minimal": graph.walls[b].minimal,
                "cone": graph.walls[b].cone.doc(),
            }
            for b in cls.bricks
        ],
        "chambers": chambers,
        "edges": edges,
        "mgs_count": count_mgs(graph),
        **census,
    }
    return json.dumps(doc, indent=1, sort_keys=True)
