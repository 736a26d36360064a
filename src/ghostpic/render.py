"""Rank-3 pictures as SVG, plus machine-readable reports for any rank.

Walls, ghost domains and chamber labels are traced on the unit sphere and
drawn through the stereographic projection with pole at -eta/sqrt(3) and
image plane tangent at eta/sqrt(3), so the all-positive chamber appears at
the center.  All curve clipping decisions are exact (rays and cone
membership).  The drawing runs on a fixed-point integer grid from the ray to
the printed digits: square roots are floor roots at 2^-80, every projected
coordinate is an integer numerator over 2^-48 (rounded half-even), the
viewport map, Liang-Barsky clipping and the three-decimal printing work on
integers over one common denominator per curve, so the output is exact and
its bytes are identical across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm

from ghostpic.catalog import ModuleClass
from ghostpic.errors import GhostpicError, InternalConsistencyError, RankError
from ghostpic.geometry import Cone, as_fracvec, dot, feasible_point, primitive
from ghostpic.ghosts import (
    EXTENSION,
    QUOTIENT,
    SUBOBJECT,
    classify_bifurcations,
    enumerate_ghosts,
)
from ghostpic.greenpaths import count_mgs
from ghostpic.stability import chamber_graph

SQRT_BITS = 80
VIEWPORT = 1000
WINDOW = Fraction(8)  # plane coordinates [-WINDOW, WINDOW] map onto the viewport

REPORT_SCHEMA = "ghostpic-report/1"

PALETTE = {
    "wall": "#000000",
    "subobject": ("#c1272d", "#1f4fd8"),
    "quotient": ("#8a1fd8", "#d81f8a"),
    "extension": ("#1a7f3c", "#d87f1f", "#1f8ad8", "#7f1a3c"),
    "label": "#000000",
}


def rational_sqrt(x, bits: int = SQRT_BITS) -> Fraction:
    """Floor square root of a nonnegative rational at 2^-bits precision."""
    x = Fraction(x)
    if x < 0:
        raise GhostpicError("square root of a negative rational")
    n, d = x.numerator, x.denominator
    return Fraction(isqrt((n * d) << (2 * bits)), d << bits)


_GRID_BITS = 48  # projected coordinates snap to this fixed grid
_GRID = 1 << _GRID_BITS
_ROOT_SHIFT = 2 * SQRT_BITS
# floor square roots of 2, 3 and 6 at 2^-SQRT_BITS, as integer numerators
_S2, _S3, _S6 = (isqrt(k << _ROOT_SHIFT) for k in (2, 3, 6))


def _round_half_even(num: int, den: int) -> int:
    """round(num / den) for den > 0, ties to even (as `Fraction.__round__`)."""
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    return q


@dataclass(frozen=True)
class PlanePoint:
    x: Fraction
    y: Fraction


def _project_int(t) -> tuple[int, int]:
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
    return (
        _round_half_even((_S6 * (t[0] - t[1])) << shift, d),
        _round_half_even((_S2 * (t[0] + t[1] - 2 * t[2])) << shift, d),
    )


def _grid_point(xy: tuple[int, int]) -> PlanePoint:
    return PlanePoint(Fraction(xy[0], _GRID), Fraction(xy[1], _GRID))


def stereographic(theta) -> PlanePoint:
    """Project the ray through theta; scale invariant, pole at -eta/sqrt(3).

    The ray is reduced to primitive integer form first, so proportional
    inputs map to identical points despite the fixed-precision square root.
    """
    theta = as_fracvec(theta)
    if len(theta) != 3:
        raise RankError("stereographic projection is rank-3 only")
    if all(x == 0 for x in theta):
        raise GhostpicError("cannot project the zero vector")
    return _grid_point(_project_int(primitive(theta)))


def _int_primitive(v) -> tuple[int, ...]:
    """`primitive` for an integer vector: divide by the gcd."""
    g = gcd(*v)
    if g == 0:
        raise GhostpicError("zero vector has no primitive form")
    return tuple(x // g for x in v)


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


def trace_wall_curve(cone: Cone, samples: int = 48) -> list[PlanePoint]:
    """Projected trace of a rank-3 cone with exactly one equality.

    The cone's intersection with its hyperplane is a 2D sector (possibly the
    whole plane); its boundary rays are exact cross products, so arc
    endpoints land exactly on wall-intersection vertices.  Between anchors
    the curve is sampled adaptively until adjacent chords are below 0.5% of
    the viewport.
    """
    if cone.dim != 3:
        raise RankError("wall tracing is rank-3 only")
    if len(cone.equalities) != 1:
        raise GhostpicError("trace expects a cone with exactly one equality")
    if samples <= 0:
        raise GhostpicError("samples must be positive")
    e = cone.equalities[0]
    b1, b2 = _plane_basis(e)
    ineqs: list[tuple] = []
    for a in cone.weak + cone.strict:
        n2 = (dot(a, b1), dot(a, b2))
        if n2 == (0, 0):
            continue
        n2 = primitive(n2)
        if n2 not in ineqs:
            ineqs.append(n2)

    if ineqs:
        if feasible_point(Cone(2, strict=tuple(ineqs))) is None:
            return []
        candidates = []
        for n in ineqs:
            for p in ((-n[1], n[0]), (n[1], -n[0])):
                if all(dot(m, p) >= 0 for m in ineqs):
                    p = primitive(p)
                    if p not in candidates:
                        candidates.append(p)
        if len(candidates) < 2:
            raise InternalConsistencyError("sector with interior lacks boundary rays")
        r1 = next(r for r in candidates if all(_cross2(r, t) >= 0 for t in candidates))
        r2 = next(
            r
            for r in candidates
            if r != r1 and all(_cross2(t, r) >= 0 for t in candidates)
        )
        if _cross2(r1, r2) == 0:  # half-plane: route the arc through the normal
            mid = next(n for n in ineqs if dot(n, r1) == 0)
            anchors2d = [r1, mid, r2]
        else:
            anchors2d = [r1, r2]
        closed = False
    else:
        anchors2d = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 0)]
        closed = True

    tol2 = (2 * WINDOW * Fraction(5, VIEWPORT)) ** 2  # 0.5% of the viewport
    # chord^2 <= tol2 on the grid, whose unit is 2^-48
    tol_den, tol_num = tol2.denominator, tol2.numerator << (2 * _GRID_BITS)

    def midpoint_ray(ra, rb):
        # angular bisection up to integer rounding; the rounded ray is kept
        # only if it still satisfies the sector inequalities exactly
        na = isqrt((ra[0] * ra[0] + ra[1] * ra[1]) << 32)
        nb = isqrt((rb[0] * rb[0] + rb[1] * rb[1]) << 32)
        m = _int_primitive((nb * ra[0] + na * rb[0], nb * ra[1] + na * rb[1]))
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
        return _project_int(_int_primitive(tuple(u * x + v * y for x, y in zip(b1, b2))))

    out: list[tuple[int, int]] = [project(anchors2d[0])]

    def refine(ra, rb, pa, pb, depth):
        if depth <= 0:
            dx, dy = pa[0] - pb[0], pa[1] - pb[1]
            if tol_den * (dx * dx + dy * dy) <= tol_num:
                out.append(pb)
                return
        if depth <= -16:
            out.append(pb)
            return
        rm = midpoint_ray(ra, rb)
        pm = project(rm)
        refine(ra, rm, pa, pm, depth - 1)
        refine(rm, rb, pm, pb, depth - 1)

    init_depth = max(1, (samples // max(1, len(anchors2d) - 1)).bit_length())
    for i in range(len(anchors2d) - 1):
        refine(
            anchors2d[i],
            anchors2d[i + 1],
            project(anchors2d[i]),
            project(anchors2d[i + 1]),
            init_depth,
        )
    if closed:
        out[-1] = out[0]
    return [_grid_point(xy) for xy in out]


# ---------------------------------------------------------------------------
# Scene assembly.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RenderOptions:
    include_extension_ghosts: bool = False
    ghost_offset: Fraction = Fraction(1, 100)  # of the viewport, cosmetic
    samples: int = 48
    show_vertices: bool = False


@dataclass(frozen=True)
class SceneCurve:
    name: str
    kind: str  # wall | subobject | quotient | extension
    points: tuple[PlanePoint, ...]
    style: dict


@dataclass(frozen=True)
class PictureScene:
    wall_curves: tuple[SceneCurve, ...]
    ghost_curves: tuple[SceneCurve, ...]
    labels: tuple[tuple[str, PlanePoint], ...]
    vertices: tuple[tuple[PlanePoint, tuple[str, ...]], ...]


def _canonical_cone(cone: Cone):
    return (tuple(sorted(cone.equalities)), tuple(sorted(cone.weak)))


def build_scene(cls: ModuleClass, options: RenderOptions, graph=None) -> PictureScene:
    if cls.catalog.quiver.n != 3:
        raise RankError("rank-3-only: pictures need exactly three simples; "
                        "use the JSON report for other ranks")
    if graph is None:
        graph = chamber_graph(cls)
    wall_curves = []
    for b in cls.bricks:
        pts = trace_wall_curve(graph.walls[b].cone, options.samples)
        if pts:
            wall_curves.append(
                SceneCurve(
                    name=b,
                    kind="wall",
                    points=tuple(pts),
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
        pts = trace_wall_curve(g.domain, options.samples)
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
        if shift:
            eps = 2 * WINDOW * options.ghost_offset * shift
            pts = [PlanePoint(p.x + eps, p.y + eps) for p in pts]
        ghost_curves.append(SceneCurve(g.display(), g.kind, tuple(pts), style))

    labels = []
    for ch in graph.chambers:
        if ch.id == graph.source:
            continue  # the outer all-negative chamber is left unlabeled
        anchor = stereographic(ch.sample)
        anchor = PlanePoint(
            max(-WINDOW, min(WINDOW, anchor.x)), max(-WINDOW, min(WINDOW, anchor.y))
        )
        labels.append(("".join(ch.label.sorted(cls)), anchor))

    vertices = []
    if options.show_vertices:
        bricks = list(cls.bricks)
        for i in range(len(bricks)):
            for j in range(i + 1, len(bricks)):
                ray = _cross(cls.dim_of(bricks[i]), cls.dim_of(bricks[j]))
                if not any(ray):
                    continue
                for sgn in (1, -1):
                    v = tuple(sgn * x for x in ray)
                    incident = tuple(
                        b for b in bricks if graph.walls[b].cone.contains(v)
                    )
                    if len(incident) >= 2:
                        vertices.append((stereographic(v), incident))
    return PictureScene(
        wall_curves=tuple(wall_curves),
        ghost_curves=tuple(ghost_curves),
        labels=tuple(labels),
        vertices=tuple(vertices),
    )


# ---------------------------------------------------------------------------
# SVG serialization.
# ---------------------------------------------------------------------------


def _px(num: int, den: int) -> str:
    """num / den (den > 0) as three decimals, rounded half-even in integers."""
    scaled = _round_half_even(1000 * num, den)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    return f"{sign}{scaled // 1000}.{scaled % 1000:03d}"


def _to_viewport(points) -> tuple[list[tuple[int, int]], int]:
    """Viewport coordinates of plane points as integer pairs over one common
    denominator: 2*WINDOW times the lcm of the points' denominators.

    x maps to VIEWPORT/2 * (1 + x/WINDOW) and y to VIEWPORT/2 * (1 - y/WINDOW).
    """
    common = 1
    for p in points:
        common = lcm(common, p.x.denominator, p.y.denominator)
    wn, wd = WINDOW.numerator, WINDOW.denominator
    center = wn * common
    view = [
        (
            VIEWPORT * (center + wd * p.x.numerator * (common // p.x.denominator)),
            VIEWPORT * (center - wd * p.y.numerator * (common // p.y.denominator)),
        )
        for p in points
    ]
    return view, 2 * wn * common


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


def _polyline_paths(points) -> list[str]:
    view, den = _to_viewport(points)
    paths = []
    run: list[tuple] = []
    for i in range(len(view) - 1):
        seg = _clip_segment(view[i], view[i + 1], den)
        if seg is None:
            if len(run) >= 2:
                paths.append(run)
            run = []
            continue
        a, b = seg
        if not run:
            run = [a, b]
        elif _same_point(run[-1], a):
            run.append(b)
        else:
            if len(run) >= 2:
                paths.append(run)
            run = [a, b]
    if len(run) >= 2:
        paths.append(run)
    return ["M " + " L ".join(f"{_px(x, w)} {_px(y, w)}" for x, y, w in path) for path in paths]


def render_picture(cls: ModuleClass, options: RenderOptions | None = None, graph=None) -> str:
    """Deterministic SVG document of the rank-3 picture."""
    options = options or RenderOptions()
    scene = build_scene(cls, options, graph=graph)
    meta = {
        "schema": "ghostpic-svg/1",
        "class": list(cls.bricks),
        "quiver": {"n": cls.catalog.quiver.n, "arrows": [list(a) for a in cls.catalog.quiver.arrows]},
        "options": {
            "include_extension_ghosts": options.include_extension_ghosts,
            "ghost_offset": str(options.ghost_offset),
            "samples": options.samples,
        },
        "palette": {k: v for k, v in PALETTE.items() if k != "label"},
        "window": str(WINDOW),
    }
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEWPORT}" height="{VIEWPORT}" '
        f'viewBox="0 0 {VIEWPORT} {VIEWPORT}">',
        "<metadata>" + json.dumps(meta, sort_keys=True) + "</metadata>",
        f'<rect width="{VIEWPORT}" height="{VIEWPORT}" fill="#ffffff"/>',
    ]
    for curve in scene.wall_curves + scene.ghost_curves:
        style = ";".join(f"{k}:{v}" for k, v in sorted(curve.style.items()))
        for d in _polyline_paths(curve.points):
            lines.append(f'<path class="{curve.kind}" data-name="{curve.name}" d="{d}" style="{style}"/>')
    for text, anchor in scene.labels:
        ((x, y),), den = _to_viewport((anchor,))
        lines.append(
            f'<text class="chamber-label" x="{_px(x, den)}" y="{_px(y, den)}" '
            f'font-size="18" text-anchor="middle">{text}</text>'
        )
    for point, incident in scene.vertices:
        ((x, y),), den = _to_viewport((point,))
        lines.append(
            f'<circle class="vertex" cx="{_px(x, den)}" cy="{_px(y, den)}" r="3" '
            f'data-walls="{",".join(incident)}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON report (any rank), and the fragments it shares with the CLI documents.
# ---------------------------------------------------------------------------


def vec_str(v) -> list[str]:
    """Exact rationals as JSON strings, e.g. ["1/2", "-3", "0"]."""
    return [str(Fraction(x)) for x in v]


def _cone_doc(cone: Cone) -> dict:
    return {
        "equalities": [list(e) for e in cone.equalities],
        "weak": [list(w) for w in cone.weak],
    }


def chamber_docs(graph) -> list[dict]:
    return [
        {"id": c.id, "label": c.label.sorted(graph.cls), "sample": vec_str(c.sample)}
        for c in graph.chambers
    ]


def edge_docs(graph) -> list[dict]:
    return [{"from": e.src, "to": e.dst, "wall": e.wall_brick} for e in graph.edges]


def ghost_census_doc(cls: ModuleClass) -> dict:
    """The ghosts of the class with their domains, and the bifurcations,
    extension links, unclassified and pathological cases among them."""
    ghosts = enumerate_ghosts(cls)
    bif = classify_bifurcations(cls, ghosts)
    return {
        "ghosts": [
            {
                "kind": g.kind,
                "sequence": [g.a, g.b, g.c],
                "missing": g.missing,
                "display": g.display(),
                "minimal": g.minimal,
                "domain": _cone_doc(g.domain),
                "warnings": list(g.warnings),
            }
            for g in ghosts
        ],
        "bifurcations": [
            {
                "child": list(b.child),
                "parent": list(b.parent),
                "case": b.case,
                "splitting_wall": b.splitting_wall,
                "wall_kind": b.wall_kind,
            }
            for b in bif.bifurcations
        ],
        "extension_links": [
            {
                "child": list(l.child),
                "parent": list(l.parent),
                "splitting_wall": l.splitting_wall,
            }
            for l in bif.extension_links
        ],
        "unclassified": [
            {"child": list(c), "case": case, "reason": reason}
            for c, case, reason in bif.unclassified
        ],
        "pathological": [
            {"child": list(a), "other": list(b)} for a, b in bif.pathological
        ],
    }


def export_report(cls: ModuleClass, graph=None) -> str:
    """Machine-readable dump of walls, chambers, graph edges, ghost census
    and bifurcations, with stable key order for diffing."""
    if graph is None:
        graph = chamber_graph(cls)
    census = ghost_census_doc(cls)
    chambers = chamber_docs(graph)
    for doc in chambers:
        doc["is_source"] = doc["id"] == graph.source
        doc["is_sink"] = doc["id"] == graph.sink
    edges = edge_docs(graph)
    for doc, e in zip(edges, graph.edges):
        doc["facet_sample"] = vec_str(e.facet_sample)
    flags = cls.flags
    doc = {
        "schema": REPORT_SCHEMA,
        "class": {
            "bricks": list(cls.bricks),
            "flags": {
                "quotient_closed": flags.quotient_closed,
                "sub_closed": flags.sub_closed,
                "extension_closed": flags.extension_closed,
                "is_torsion": flags.is_torsion,
                "is_torsion_free": flags.is_torsion_free,
            },
        },
        "walls": [
            {
                "brick": b,
                "minimal": graph.walls[b].minimal,
                "cone": _cone_doc(graph.walls[b].cone),
            }
            for b in cls.bricks
        ],
        "chambers": chambers,
        "edges": edges,
        "mgs_count": count_mgs(graph),
        **census,
    }
    return json.dumps(doc, indent=1, sort_keys=True)
