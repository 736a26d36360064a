"""Outside-in tracing of the ghostpic layers.

The tracer wraps public functions and methods of the package from outside:
every `ghostpic.*` module namespace that holds a traced function gets the
wrapper in its place, and the traced methods are replaced on their classes.
Nothing under `src/` is edited, and `uninstall` puts every original back.

Each wrapped call is a span with a name, a layer, start and end times and
the span that caused it.  Self time of a layer is the duration of its spans
minus the part covered by child spans.  Spans are kept in memory (up to
`SPAN_CAP` records; aggregates stay exact beyond it) and written out by the
caller at the end of the run.

Very hot helpers (`geometry.dot`, `primitive`, `as_fracvec`, the private
simplex) are not wrapped; their time counts toward the layer that calls them.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("catalog", "geometry", "stability", "greenpaths", "ghosts", "render", "verify", "cli")

VERIFY_CHECKS = (
    "union_of_interiors",
    "locally_constant",
    "wall_crossing",
    "stability_equivalence",
    "ghost_stability_equivalence",
    "hn_existence",
    "convexity_and_distinct_labels",
    "duality",
    "mgs_properties",
    "linear_paths_vs_graph",
    "admissible_subobject",
    "ghost_geometry",
)

SPAN_CAP = 200_000

# "module.attribute" of each traced function; the module is its layer.
# A dotted attribute names a method on a class.
TARGETS = (
    "catalog.generate_type_a",
    "catalog.builtin_kronecker",
    "catalog.load_catalog",
    "catalog.dump_catalog",
    "catalog.classify_class",
    "catalog.ModuleClass.__init__",
    "catalog.ModuleClass.weakly_admissible_quotients",
    "catalog.ModuleClass.in_filt",
    "geometry.Cone.contains",
    "geometry.feasible_point",
    "geometry.relative_interior_point",
    "geometry.cone_is_empty",
    "geometry.cone_contains_cone",
    "geometry.cone_equal",
    "geometry.enumerate_cells",
    "geometry.cell_facet_neighbors",
    "stability.wall",
    "stability.semistable_set",
    "stability.enumerate_chambers",
    "stability.chamber_graph",
    "stability.locate_chamber",
    "greenpaths.check_generic",
    "greenpaths.is_relatively_stable",
    "greenpaths.crossing_schedule",
    "greenpaths.linear_mgs",
    "greenpaths.count_mgs",
    "greenpaths.enumerate_mgs",
    "greenpaths.resolve_mgs",
    "greenpaths.weakly_admissible_morphism_witness",
    "greenpaths.check_relative_hom_orthogonality",
    "greenpaths.check_mgs_maximality",
    "greenpaths.hn_stratification",
    "greenpaths.filtration_exists",
    "greenpaths.check_hn_minimality",
    "greenpaths.find_linear_path",
    "ghosts.enumerate_ghosts",
    "ghosts.subobject_ghost_domain",
    "ghosts.quotient_ghost_domain",
    "ghosts.extension_ghost_domain",
    "ghosts.ghost_stability",
    "ghosts.ghost_events",
    "ghosts.mgs_with_ghosts",
    "ghosts.format_schedule",
    "ghosts.classify_bifurcations",
    "ghosts.dualize",
    "render.stereographic",
    "render.trace_wall_curve",
    "render.build_scene",
    "render.render_picture",
    "render.export_report",
    "verify.standard_fixtures",
    "verify.run_verify",
    "verify.Verifier.run",
    "cli.dispatch",
    *(f"verify.Verifier.check_{c}" for c in VERIFY_CHECKS),
    *(f"cli.cmd_{c}" for c in ("catalog", "chambers", "mgs", "ghosts", "hn", "path", "picture", "verify")),
)

# Spans whose outermost occurrences are summed into a named time.
GROUPS = {
    "geometry.feasible_point": "lp",
    "geometry.relative_interior_point": "lp",
    "render.trace_wall_curve": "trace",
    **{f"verify.Verifier.check_{c}": f"check.{c}" for c in VERIFY_CHECKS},
}


def _count_result(counts: Counter, name: str, result) -> None:
    """Work counters read off a call's result."""
    if name == "geometry.feasible_point" and result is None:
        counts["geometry.empty"] += 1
    elif name == "geometry.enumerate_cells":
        counts["geometry.cells"] += len(result)
    elif name == "geometry.cell_facet_neighbors":
        counts["geometry.facets"] += len(result)
    elif name == "stability.chamber_graph":
        counts["stability.chambers"] += len(result.chambers)
        counts["stability.edges"] += len(result.edges)
    elif name == "greenpaths.enumerate_mgs":
        counts["greenpaths.mgs"] += len(result)
    elif name == "greenpaths.count_mgs":
        counts["greenpaths.mgs"] += result
    elif name in ("render.render_picture", "render.export_report"):
        counts["render.bytes"] += len(result.encode("utf-8"))


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start, end)
        self.dropped = 0
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()  # name.ExceptionType -> calls that raised
        self.self_s: dict[str, float] = defaultdict(float)
        self.group_s: dict[str, float] = defaultdict(float)
        self._group_depth: Counter = Counter()
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0
        self._patched: list[tuple] = []  # (holder, attribute, original)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        stack, spans, calls, self_s = self._stack, self.spans, self.calls, self.self_s
        group = GROUPS.get(name)
        depth = self._group_depth

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            if group:
                depth[group] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.errors[f"{name}.{type(exc).__name__}"] += 1
                raise
            else:
                _count_result(self.counts, name, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                self_s[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if group:
                    depth[group] -= 1
                    if not depth[group]:
                        self.group_s[group] += dur
                calls[name] += 1
                if len(spans) < SPAN_CAP:
                    spans.append((sid, parent, name, start, end))
                else:
                    self.dropped += 1

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Wrap every target in every loaded `ghostpic.*` namespace."""
        namespaces = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "ghostpic" or key.startswith("ghostpic."))
        ]
        for name in TARGETS:
            layer, attr = name.split(".", 1)
            module = sys.modules.get(f"ghostpic.{layer}")
            if module is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                holder = getattr(module, cls_name)
                original = holder.__dict__[meth]
                self._patched.append((holder, meth, original))
                setattr(holder, meth, self._wrap(original, name, layer))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, layer)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patched.append((ns, key, original))
                        setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def aggregates(self) -> dict:
        return {
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "errors": dict(self.errors),
            "self_s": dict(self.self_s),
            "group_s": dict(self.group_s),
            "spans": len(self.spans) + self.dropped,
            "dropped": self.dropped,
        }


def merge(into: dict, agg: dict) -> None:
    """Add one aggregate (as returned by `Tracer.aggregates`) into another."""
    for key in ("calls", "counts", "errors", "self_s", "group_s"):
        bucket = into.setdefault(key, {})
        for k, v in agg.get(key, {}).items():
            bucket[k] = bucket.get(k, 0) + v
    for key in ("spans", "dropped"):
        into[key] = into.get(key, 0) + agg.get(key, 0)


def layer_metrics(agg: dict, import_s: float = 0.0) -> dict[str, float]:
    """The per-layer metric values named in BENCHMARK.json from an aggregate.

    `import_s` is the `ghostpic.cli` import time the cli child driver measured.
    """
    calls = agg.get("calls", {})
    counts = agg.get("counts", {})
    errors = agg.get("errors", {})
    self_s = agg.get("self_s", {})
    group_s = agg.get("group_s", {})
    feasible = calls.get("geometry.feasible_point", 0)
    generic = calls.get("greenpaths.check_generic", 0)
    nongeneric = errors.get("greenpaths.check_generic.NonGenericPathError", 0)
    out = {
        "catalog.classes": calls.get("catalog.ModuleClass.__init__", 0),
        "catalog.waq_calls": calls.get("catalog.ModuleClass.weakly_admissible_quotients", 0),
        "catalog.filt_calls": calls.get("catalog.ModuleClass.in_filt", 0),
        "geometry.feasible_calls": feasible,
        "geometry.empty_frac": counts.get("geometry.empty", 0) / feasible if feasible else 0.0,
        "geometry.lp_s": group_s.get("lp", 0.0),
        "geometry.cells": counts.get("geometry.cells", 0),
        "geometry.facets": counts.get("geometry.facets", 0),
        "geometry.contains_calls": calls.get("geometry.Cone.contains", 0),
        "stability.graph_builds": calls.get("stability.chamber_graph", 0),
        "stability.chambers": counts.get("stability.chambers", 0),
        "stability.edges": counts.get("stability.edges", 0),
        "stability.wall_calls": calls.get("stability.wall", 0),
        "stability.semistable_calls": calls.get("stability.semistable_set", 0),
        "greenpaths.generic_checks": generic,
        "greenpaths.nongeneric_frac": nongeneric / generic if generic else 0.0,
        "greenpaths.stability_calls": calls.get("greenpaths.is_relatively_stable", 0),
        "greenpaths.linear_mgs_calls": calls.get("greenpaths.linear_mgs", 0),
        "greenpaths.mgs": counts.get("greenpaths.mgs", 0),
        "ghosts.census_calls": calls.get("ghosts.enumerate_ghosts", 0),
        "ghosts.stability_calls": calls.get("ghosts.ghost_stability", 0),
        "render.curves": calls.get("render.trace_wall_curve", 0),
        "render.trace_s": group_s.get("trace", 0.0),
        "render.bytes": counts.get("render.bytes", 0),
    }
    for layer in LAYERS[:-1]:
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    for c in VERIFY_CHECKS:
        out[f"verify.check.{c}_s"] = group_s.get(f"check.{c}", 0.0)
    out["cli.import_s"] = import_s
    out["cli.dispatch_s"] = self_s.get("cli", 0.0)
    return out
