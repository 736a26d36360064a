import ast
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghostpic.catalog import ModuleClass
from ghostpic.errors import GhostpicError, RankError
from ghostpic.geometry import Cone, feasible_point, int_dot, primitive
from ghostpic.ghosts import SUBOBJECT, enumerate_ghosts
from ghostpic.render import (
    SCENE_DEN,
    RenderOptions,
    _canonical_cone,
    _cross2,
    _sector_anchors,
    build_scene,
    export_report,
    render_picture,
    stereographic,
    trace_wall_curve,
)
from ghostpic.stability import wall
from reference_render import rational_sqrt
from reference_vectors import dot

GRID = 1 << 48  # projected points are numerators over 2^48


def wall_paths(svg):
    return re.findall(r'class="wall" data-name="([^"]+)"', svg)


def ghost_paths(svg):
    return re.findall(r'class="(?:subobject|quotient|extension)" data-name="([^"]+)"', svg)


def labels(svg):
    return re.findall(r'class="chamber-label"[^>]*>([^<]*)<', svg)


class TestStereographic:
    def test_eta_maps_to_origin(self):
        p = stereographic((1, 1, 1))
        assert p.x == 0 and p.y == 0
        q = stereographic((5, 5, 5))
        assert q.x == 0 and q.y == 0

    def test_pole_rejected(self):
        with pytest.raises(GhostpicError, match="at-pole"):
            stereographic((-1, -1, -1))
        with pytest.raises(GhostpicError):
            stereographic((0, 0, 0))

    def test_rank_guard(self):
        with pytest.raises(RankError):
            stereographic((1, 0))

    def test_equator_maps_to_radius_two_circle(self):
        # closed form: a ray orthogonal to eta projects onto the circle of
        # radius 2 around the origin
        tol = Fraction(GRID**2, 10**12)
        for ray in [(1, -1, 0), (0, 1, -1), (1, 0, -1), (2, -1, -1), (-3, 1, 2)]:
            assert dot(ray, (1, 1, 1)) == 0
            p = stereographic(ray)
            assert abs(p.x**2 + p.y**2 - 4 * GRID**2) < tol

    def test_scale_invariance(self):
        a = stereographic((3, 1, 2))
        b = stereographic((6, 2, 4))
        assert a == b

    def test_injectivity_spot_check(self):
        rng = random.Random(31)
        points = {}
        for _ in range(1000):
            ray = tuple(rng.randint(-9, 9) for _ in range(3))
            if not any(ray) or (ray[0] == ray[1] == ray[2] and ray[0] < 0):
                continue
            key = primitive(ray)
            p = stereographic(ray)
            if key in points:
                assert points[key] == p
            else:
                for other_key, q in points.items():
                    if q == p:
                        assert other_key == key
                points[key] = p

    def test_rational_sqrt(self):
        v = rational_sqrt(2)
        assert abs(v * v - 2) < Fraction(1, 2**78)


class TestTrace:
    def test_full_hyperplane_is_closed_circle(self, torsion4):
        pts = trace_wall_curve(wall(torsion4, "S1").cone)
        assert pts[0] == pts[-1]
        assert len(pts) > 16

    def test_minimal_ghost_is_arc_with_vertex_endpoints(self, torsion4):
        g = next(
            g for g in enumerate_ghosts(torsion4) if g.kind == SUBOBJECT and g.a == "S2"
        )
        arc = trace_wall_curve(g.domain)
        # endpoints are the intersections of the walls of B and C
        vertex = primitive(
            (
                torsion4.dim_of("S2")[1] * torsion4.dim_of("I2")[2]
                - torsion4.dim_of("S2")[2] * torsion4.dim_of("I2")[1],
                torsion4.dim_of("S2")[2] * torsion4.dim_of("I2")[0]
                - torsion4.dim_of("S2")[0] * torsion4.dim_of("I2")[2],
                torsion4.dim_of("S2")[0] * torsion4.dim_of("I2")[1]
                - torsion4.dim_of("S2")[1] * torsion4.dim_of("I2")[0],
            )
        )
        ends = {stereographic(vertex), stereographic(tuple(-x for x in vertex))}
        assert {arc[0], arc[-1]} == ends

    def test_empty_cone_gives_empty_polyline(self):
        cone = Cone(
            3,
            equalities=((1, 0, 0),),
            weak=((0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)),
        )
        assert trace_wall_curve(cone) == []

    def test_chord_tolerance(self, torsion4):
        pts = trace_wall_curve(wall(torsion4, "S1").cone)
        tol2 = (2 * Fraction(8) * Fraction(5, 1000) * GRID) ** 2
        for a, b in zip(pts, pts[1:]):
            assert (a.x - b.x) ** 2 + (a.y - b.y) ** 2 <= tol2

    def test_rank_guard(self):
        with pytest.raises(RankError):
            trace_wall_curve(Cone(2, equalities=((1, 0),)))

    @pytest.mark.parametrize(
        "weak",
        [
            ((1, 0, 0), (0, 1, 0), (-1, -1, 0)),  # the origin
            ((1, 0, 0), (-1, 0, 0), (0, 1, 0)),  # one ray
            ((1, 2, 0), (-1, -2, 0)),  # a line: n and -n
        ],
        ids=["origin", "ray", "line"],
    )
    def test_a_sector_without_interior_gives_empty_polyline(self, weak):
        assert trace_wall_curve(Cone(3, equalities=((0, 0, 1),), weak=weak)) == []


normals2d = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(any).map(primitive)


class TestSectorAnchors:
    """A curve's sector is read off its boundary rays; the LP that decided it
    before stays here as the oracle."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.lists(normals2d, max_size=5, unique=True))
    def test_empty_exactly_when_the_lp_finds_no_interior_point(self, normals):
        anchors = _sector_anchors(normals)
        inside = feasible_point(Cone(2, strict=tuple(normals)))
        assert (anchors == []) == (inside is None)
        assert all(int_dot(n, r) >= 0 for n in normals for r in anchors)
        if len(normals) >= 2 and anchors:  # a pointed sector, inside between its rays
            r1, r2 = anchors
            assert _cross2(r1, inside) > 0 and _cross2(inside, r2) > 0

    @pytest.mark.parametrize(
        "normals",
        [[(1, 0), (0, 1), (-1, -1)], [(1, 0), (-1, 0), (0, 1)], [(1, 2), (-1, -2)]],
        ids=["origin", "ray", "line"],
    )
    def test_closures_without_interior(self, normals):
        assert feasible_point(Cone(2, strict=tuple(normals))) is None
        assert _sector_anchors(normals) == []

    def test_plane_and_half_plane(self):
        assert _sector_anchors([]) == [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 0)]
        assert _sector_anchors([(2, 3)]) == [(-3, 2), (2, 3), (3, -2)]

    def test_render_solves_no_lp(self):
        """The render module imports no LP entry of `geometry` and raises no
        consistency error of its own."""
        source = Path(__file__).resolve().parent.parent / "src" / "ghostpic" / "render.py"
        tree = ast.parse(source.read_text(encoding="utf-8"))
        imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not imported & {"feasible_point", "relative_interior_point", "_sample", "_cone_lp"}
        assert "InternalConsistencyError" not in imported | names


class TestRenderPicture:
    def test_torsion4_counts(self, torsion4):
        svg = render_picture(torsion4)
        assert len(set(wall_paths(svg))) == 4
        assert len(set(ghost_paths(svg))) == 2
        assert len(labels(svg)) == 9

    def test_minimal3_counts(self, minimal3):
        svg = render_picture(minimal3)
        assert len(set(wall_paths(svg))) == 3
        assert len(set(ghost_paths(svg))) == 3

    def test_byte_determinism(self, torsion4, minimal3):
        for cls in (torsion4, minimal3):
            assert render_picture(cls) == render_picture(cls)

    def test_rank_two_rejected(self, kronecker_class):
        with pytest.raises(RankError, match="rank-3"):
            render_picture(kronecker_class)

    def test_extension_ghosts_opt_in(self, full6):
        default = render_picture(full6)
        assert ghost_paths(default) == []
        with_ext = render_picture(full6, RenderOptions(include_extension_ghosts=True))
        assert len(set(ghost_paths(with_ext))) == 4

    def test_scene_curves_match_census(self, torsion4, minimal3, mixed5):
        for cls in (torsion4, minimal3, mixed5):
            scene = build_scene(cls, RenderOptions(include_extension_ghosts=True))
            ghosts = enumerate_ghosts(cls)
            traced = {
                g.display() for g in ghosts if trace_wall_curve(g.domain)
            }
            assert {c.name for c in scene.ghost_curves} == traced
            assert len(scene.wall_curves) == len(
                [b for b in cls.bricks if trace_wall_curve(wall(cls, b).cone)]
            )

    def test_ghosts_on_one_hyperplane_are_not_stacked(self, case2):
        # case2's Gh(S3;I3) and Gh(S3;P2) share the hyperplane theta(S3) = 0,
        # but their weak rows differ, so their domains are different pieces
        # of it: neither curve is shifted, each is its own domain's trace
        ghosts = {g.display(): g for g in enumerate_ghosts(case2)}
        pair = [ghosts["Gh(S3;I3)"], ghosts["Gh(S3;P2)"]]
        assert pair[0].domain.equalities == pair[1].domain.equalities == ((0, 0, 1),)
        assert _canonical_cone(pair[0].domain) != _canonical_cone(pair[1].domain)
        scene = build_scene(case2, RenderOptions())
        assert [c.name for c in scene.ghost_curves] == ["Gh(S3;I3)", "Gh(S3;P2)"]
        for curve, g in zip(scene.ghost_curves, pair):
            trace = [(Fraction(p.x, GRID), Fraction(p.y, GRID)) for p in trace_wall_curve(g.domain)]
            assert [(Fraction(p.x, SCENE_DEN), Fraction(p.y, SCENE_DEN)) for p in curve.points] == trace
        svg = render_picture(case2)
        meta = json.loads(re.search(r"<metadata>(.*)</metadata>", svg).group(1))
        assert meta["options"]["ghost_offset"] == "1/100"

    def test_stacked_ghost_is_shifted_by_the_offset(self, torsion4, monkeypatch):
        # no fixture stacks two ghost domains, so draw one ghost twice: the
        # copy is the curve moved by 2 * WINDOW * 1/100 = 4/25 in x and y
        ghost = next(g for g in enumerate_ghosts(torsion4) if trace_wall_curve(g.domain))
        monkeypatch.setattr("ghostpic.render.enumerate_ghosts", lambda cls: [ghost, ghost])
        scene = build_scene(torsion4, RenderOptions())
        first, second = (c.points for c in scene.ghost_curves)
        eps = 2 * 8 * Fraction(1, 100)
        grid = [(Fraction(p.x, GRID), Fraction(p.y, GRID)) for p in trace_wall_curve(ghost.domain)]
        assert [(Fraction(p.x, SCENE_DEN), Fraction(p.y, SCENE_DEN)) for p in first] == grid
        assert [(Fraction(p.x, SCENE_DEN), Fraction(p.y, SCENE_DEN)) for p in second] == [
            (x + eps, y + eps) for x, y in grid
        ]

    def test_metadata_block(self, torsion4):
        svg = render_picture(torsion4)
        meta = json.loads(re.search(r"<metadata>(.*)</metadata>", svg).group(1))
        assert meta["schema"] == "ghostpic-svg/1"
        assert meta["class"] == list(torsion4.bricks)
        assert "palette" in meta


class TestReport:
    def test_torsion4_report(self, torsion4):
        doc = json.loads(export_report(torsion4))
        assert doc["schema"] == "ghostpic-report/1"
        assert len(doc["chambers"]) == 10
        assert doc["mgs_count"] == 7
        assert len(doc["walls"]) == 4

    def test_a1_report(self, a1):
        doc = json.loads(export_report(a1))
        assert len(doc["walls"]) == 1
        assert len(doc["chambers"]) == 2
        assert doc["ghosts"] == []

    def test_full6_report_extension_census(self, full6):
        doc = json.loads(export_report(full6))
        assert sum(1 for g in doc["ghosts"] if g["kind"] == "extension") == 4
        assert len(doc["extension_links"]) == 2

    def test_samples_are_exact_rationals(self, torsion4):
        doc = json.loads(export_report(torsion4))
        for ch in doc["chambers"]:
            for coord in ch["sample"]:
                Fraction(coord)  # parses exactly

    def test_report_determinism(self, torsion4):
        assert export_report(torsion4) == export_report(torsion4)

    def test_kronecker_report_works_in_rank_two(self, kronecker_class):
        doc = json.loads(export_report(kronecker_class))
        assert len(doc["chambers"]) == 5
        kinds = sorted(g["kind"] for g in doc["ghosts"])
        assert kinds == ["extension", "quotient"]
