"""Seeded inputs, timed operations and output checks of the four workloads.

Inputs are plain JSON-able specs drawn from a seed; the package sees only the
classes and argument vectors built from them.  Every operation builds its own
catalog and `ModuleClass` (outside the timed region), so no per-object cache
carries over from one operation to the next.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction
from time import perf_counter

from tracing import VERIFY_CHECKS

WORKLOADS = ("verify", "scale", "picture", "cli")

VERIFY_PATHS = 1000
A4_FULL_CHAMBERS = 42  # Catalan(5), Ingalls-Thomas
A4_FULL_EDGES = 84
SCALE_SUBSET_SIZES = (6, 6, 7)
PICTURE_RANDOM_SIZES = (3, 4, 5, 6)
REPORT_KEYS = {
    "schema", "class", "walls", "chambers", "edges", "mgs_count", "ghosts",
    "bifurcations", "extension_links", "unclassified", "pathological",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CheckFailed(Exception):
    """An output did not match what the workload expects."""


def expect(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Class specs: {"source": ["type-a", n, orient] | ["builtin", name], "bricks": [...]}
# ---------------------------------------------------------------------------


def build_class(spec):
    from ghostpic.catalog import BUILTINS, ModuleClass, generate_type_a

    kind, *args = spec["source"]
    catalog = generate_type_a(args[0], args[1]) if kind == "type-a" else BUILTINS[args[0]]()
    return ModuleClass(catalog, spec["bricks"])


def source_of(catalog) -> list:
    """The catalog source (`type-a` n orient, or a builtin name) that rebuilds it."""
    from ghostpic.catalog import BUILTINS, dump_catalog, generate_type_a

    doc = dump_catalog(catalog)
    n, arrows = catalog.quiver.n, set(catalog.quiver.arrows)
    orient = "".join("L" if (i + 1, i) in arrows else "R" for i in range(1, n))
    if len(arrows) == n - 1 and dump_catalog(generate_type_a(n, orient)) == doc:
        return ["type-a", n, orient]
    for name, make in sorted(BUILTINS.items()):
        if dump_catalog(make()) == doc:
            return ["builtin", name]
    raise ValueError("fixture catalog has no command-line source")


def fixture_specs() -> dict:
    from ghostpic.verify import standard_fixtures

    return {
        name: {"name": name, "source": source_of(cls.catalog), "bricks": list(cls.bricks)}
        for name, cls in standard_fixtures().items()
    }


def recursion_defect(cls) -> bool:
    """True when `classify_bifurcations` recurses without end on this class.

    It classifies non-minimal quotient ghosts through the dual class and the
    dual does the same back, so a class whose dual also has a non-minimal
    quotient ghost never returns (RecursionError).  Such classes are skipped
    by the generators and counted in the run's `inputs` record.
    """
    from ghostpic.ghosts import QUOTIENT, dualize, enumerate_ghosts

    def has_nonminimal_quotient(c):
        return any(g.kind == QUOTIENT and not g.minimal for g in enumerate_ghosts(c))

    return has_nonminimal_quotient(cls) and has_nonminimal_quotient(dualize(cls).dual_class)


def draw_classes(rng, n: int, sizes, taken: set, info: dict) -> list:
    """Seeded type-A classes of the given sizes on seeded orientations."""
    from ghostpic.catalog import generate_type_a

    orients = ["".join(w) for w in itertools.product("LR", repeat=n - 1)]
    out = []
    for size in sizes:
        while True:
            orient = rng.choice(orients)
            ids = [m.id for m in generate_type_a(n, orient).indecs]
            spec = {"source": ["type-a", n, orient], "bricks": sorted(rng.sample(ids, size))}
            key = (orient, tuple(spec["bricks"]))
            if key in taken:
                continue
            taken.add(key)
            if recursion_defect(build_class(spec)):
                info["skipped_recursion_defect"] += 1
                continue
            spec["name"] = f"A{n}-{orient}-{'.'.join(spec['bricks'])}"
            out.append(spec)
            break
    return out


# ---------------------------------------------------------------------------
# Input generation (untimed set-up; may call the package to keep valid inputs)
# ---------------------------------------------------------------------------


def generate(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    info = {"skipped_recursion_defect": 0}
    if workload == "verify":
        return {"paths": VERIFY_PATHS, "seed": seed, "info": info}
    if workload == "scale":
        full = {"name": "A4-LLL-full", "source": ["type-a", 4, "LLL"], "full": True}
        from ghostpic.catalog import generate_type_a

        full["bricks"] = [m.id for m in generate_type_a(4, "LLL").indecs]
        taken = {("LLL", tuple(sorted(full["bricks"])))}
        classes = [full] + draw_classes(rng, 4, SCALE_SUBSET_SIZES, taken, info)
        return {"classes": classes, "info": info}
    fixtures = fixture_specs()
    if workload == "picture":
        rank3 = [s for s in fixtures.values() if s["source"][:2] == ["type-a", 3]]
        taken = {(s["source"][2], tuple(sorted(s["bricks"]))) for s in rank3}
        return {"classes": rank3 + draw_classes(rng, 3, PICTURE_RANDOM_SIZES, taken, info), "info": info}
    if workload == "cli":
        return {"commands": cli_commands(rng, fixtures), "info": info}
    raise ValueError(workload)


def _draw_path(rng, cls):
    from ghostpic.errors import NonGenericPathError
    from ghostpic.greenpaths import LinearPath, crossing_schedule

    n = cls.catalog.quiver.n
    while True:
        h = tuple(Fraction(rng.randint(-9, 9)) for _ in range(n))
        k = tuple(Fraction(rng.randint(1, 9)) for _ in range(n))
        path = LinearPath(h, k)
        try:
            crossing_schedule(cls, path, include_ghosts=True)
            crossing_schedule(cls, path, include_ghosts=False)
        except NonGenericPathError:
            continue
        return h, k


def _draw_hn(rng, cls):
    from ghostpic.catalog import ModuleSum
    from ghostpic.greenpaths import enumerate_mgs, hn_stratification
    from ghostpic.stability import chamber_graph

    graph = chamber_graph(cls)
    mgs = rng.choice(enumerate_mgs(cls, graph))
    module = sorted(rng.sample(cls.bricks, rng.randint(1, min(2, len(cls.bricks)))))
    hn_stratification(cls, graph, mgs, ModuleSum(module))
    return list(mgs.walls), module


def cli_commands(rng, fixtures: dict) -> list:
    """Every subcommand on every standard fixture, with seeded arguments.

    Vectors are passed as `--h=...`: argparse reads a separate `-3,1,2` as an
    option and exits 2.
    """
    commands = []
    for name, spec in fixtures.items():
        cls = build_class(spec)
        kind, *args = spec["source"]
        src = ["--type-a", str(args[0]), f"--orient={args[1]}"] if kind == "type-a" else ["--builtin", args[0]]
        base = src + ["--class", ",".join(spec["bricks"])]
        h, k = _draw_path(rng, cls)
        vec = [f"--h={','.join(map(str, h))}", f"--k={','.join(map(str, k))}"]

        def add(sub, argv):
            commands.append({"name": f"{name}:{sub}", "fixture": name, "sub": sub, "argv": argv})

        add("catalog", ["catalog"] + src)
        add("chambers", ["chambers"] + base)
        add("mgs", ["mgs"] + base)
        add("mgs-all", ["mgs"] + base + ["--all"])
        add("ghosts", ["ghosts"] + base)
        add("path", ["path"] + base + vec)
        add("path-no-ghosts", ["path"] + base + vec + ["--no-ghosts"])
        if cls.flags.extension_closed:
            walls, module = _draw_hn(rng, cls)
            add("hn", ["hn"] + base + ["--mgs", ",".join(walls), "--module", "+".join(module)])
        add("report", ["picture"] + base + ["--report"])
        if cls.catalog.quiver.n == 3:
            add("svg", ["picture"] + base)
            add("svg-ext", ["picture"] + base + ["--ext-ghosts"])
    return commands


# ---------------------------------------------------------------------------
# Set-up as a user pays it (what the set-up child constructs)
# ---------------------------------------------------------------------------


def setup_objects(workload: str, inputs: dict):
    if workload == "cli":
        import ghostpic.cli  # noqa: F401

        return None
    if workload == "verify":
        from ghostpic.verify import Verifier

        return Verifier(paths_per_fixture=inputs["paths"], seed=inputs["seed"])
    import ghostpic.render  # noqa: F401

    return [build_class(spec) for spec in inputs["classes"]]


# ---------------------------------------------------------------------------
# One pass: a list of operation records
# ---------------------------------------------------------------------------


def _record(name, seconds, error=None, digests=None):
    return {"name": name, "s": seconds, "ok": error is None, "error": error, "digests": digests or {}}


def _check_report(text: str, graph, mgs_count=None):
    doc = json.loads(text)
    expect(isinstance(doc, dict) and doc.get("schema") == "ghostpic-report/1", "report schema")
    expect(set(doc) == REPORT_KEYS, f"report keys {sorted(doc)}")
    expect(len(doc["chambers"]) == len(graph.chambers), "report chambers != graph chambers")
    expect(len(doc["edges"]) == len(graph.edges), "report edges != graph edges")
    if mgs_count is not None:
        expect(doc["mgs_count"] == mgs_count, "report mgs_count != count_mgs")


def _check_svg(text: str):
    root = ET.fromstring(text)
    expect(root.tag.rsplit("}", 1)[-1] == "svg", f"SVG root is {root.tag}")


def _guarded(name, fn):
    """Run fn() -> (seconds, digests); any exception or failed check is a failure."""
    try:
        seconds, digests = fn()
    except Exception as exc:  # the operation's failure is the measurement
        return _record(name, 0.0, f"{type(exc).__name__}: {exc}"[:300])
    return _record(name, seconds, None, digests)


def verify_pass(inputs: dict) -> list:
    from ghostpic.verify import Verifier

    verifier = Verifier(paths_per_fixture=inputs["paths"], seed=inputs["seed"])
    out = []
    for check in VERIFY_CHECKS:
        def op(check=check):
            before = len(verifier.results)
            t0 = perf_counter()
            getattr(verifier, f"check_{check}")()
            seconds = perf_counter() - t0
            new = verifier.results[before:]
            expect(new, "check recorded no result")
            for r in new:
                expect(r.passed, f"FAIL {r.line()}")
            return seconds, {}
        out.append(_guarded(check, op))
    return out


def scale_pass(inputs: dict) -> list:
    from ghostpic.greenpaths import count_mgs
    from ghostpic.render import export_report
    from ghostpic.stability import chamber_graph

    out = []
    for spec in inputs["classes"]:
        def op(spec=spec):
            cls = build_class(spec)
            t0 = perf_counter()
            graph = chamber_graph(cls)
            mgs = count_mgs(graph)
            report = export_report(cls, graph=graph)
            seconds = perf_counter() - t0
            _check_report(report, graph, mgs)
            if spec.get("full"):
                expect(len(graph.chambers) == A4_FULL_CHAMBERS, f"{len(graph.chambers)} chambers, not 42")
                expect(len(graph.edges) == A4_FULL_EDGES, f"{len(graph.edges)} edges, not 84")
            return seconds, {"report": sha256(report)}
        out.append(_guarded(spec["name"], op))
    return out


def picture_pass(inputs: dict) -> list:
    from ghostpic.render import RenderOptions, export_report, render_picture
    from ghostpic.stability import chamber_graph

    out = []
    for spec in inputs["classes"]:
        def op(spec=spec):
            cls = build_class(spec)
            t0 = perf_counter()
            graph = chamber_graph(cls)
            plain = render_picture(cls, RenderOptions(include_extension_ghosts=False), graph=graph)
            ext = render_picture(cls, RenderOptions(include_extension_ghosts=True), graph=graph)
            report = export_report(cls, graph=graph)
            seconds = perf_counter() - t0
            _check_svg(plain)
            _check_svg(ext)
            _check_report(report, graph)
            return seconds, {"svg": sha256(plain), "svg-ext": sha256(ext), "report": sha256(report)}
        out.append(_guarded(spec["name"], op))
    return out


CLI_SCHEMAS = {
    "chambers": "ghostpic-chambers/1",
    "mgs": "ghostpic-mgs/1",
    "mgs-all": "ghostpic-mgs/1",
    "ghosts": "ghostpic-ghosts/1",
    "path": "ghostpic-path/1",
    "path-no-ghosts": "ghostpic-path/1",
    "hn": "ghostpic-hn/1",
    "report": "ghostpic-report/1",
}


def check_cli_output(cmd: dict, stdout: str, seen: dict) -> None:
    """Schema of one command's stdout, cross-checked with earlier commands on
    the same fixture (`seen` maps (fixture, key) to values)."""
    sub, fx = cmd["sub"], cmd["fixture"]
    if sub in ("svg", "svg-ext"):
        _check_svg(stdout)
        return
    doc = json.loads(stdout)
    expect(isinstance(doc, dict), "stdout is not a JSON object")
    if sub == "catalog":
        expect({"quiver", "indecs", "subquotients", "hom", "ses", "complete"} <= set(doc), "catalog keys")
        return
    expect(doc.get("schema") == CLI_SCHEMAS[sub], f"schema {doc.get('schema')!r}")
    if sub == "chambers":
        expect(len(doc["chambers"]) >= 2 and doc["source"] != doc["sink"], "chambers")
        seen[fx, "chambers"] = len(doc["chambers"])
    elif sub == "mgs":
        expect(isinstance(doc["mgs_count"], int) and doc["mgs_count"] >= 1, "mgs_count")
        seen[fx, "mgs"] = doc["mgs_count"]
    elif sub == "mgs-all":
        expect(len(doc["sequences"]) == seen.get((fx, "mgs"), len(doc["sequences"])), "mgs --all count")
    elif sub.startswith("path"):
        expect(isinstance(doc["tokens"], list) and isinstance(doc["events"], list), "path events")
    elif sub == "hn":
        expect(isinstance(doc["layers"], list) and doc["layers"], "hn layers")
    elif sub == "report":
        expect(set(doc) == REPORT_KEYS, "report keys")
        expect(len(doc["chambers"]) == seen.get((fx, "chambers"), len(doc["chambers"])), "report chambers")
        expect(doc["mgs_count"] == seen.get((fx, "mgs"), doc["mgs_count"]), "report mgs_count")


def cli_pass(commands: list, root, env, child_argv=None) -> list:
    """One process per command.  `child_argv` replaces `-m ghostpic.cli` with
    the benchmark's tracing driver; its last stderr line is its trace."""
    out = []
    seen: dict = {}
    for cmd in commands:
        prefix = child_argv or ["-m", "ghostpic.cli"]
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, *prefix, *cmd["argv"]],
            cwd=root, env=env, capture_output=True, text=True, timeout=170,
        )
        seconds = perf_counter() - t0
        error = None
        try:
            expect(proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
            check_cli_output(cmd, proc.stdout, seen)
        except (CheckFailed, ValueError, KeyError, TypeError, ET.ParseError) as exc:
            error = f"{type(exc).__name__}: {exc}"[:300]
        rec = _record(cmd["name"], seconds, error, {"stdout": sha256(proc.stdout)})
        if child_argv and error is None:
            rec["trace"] = json.loads(proc.stderr.strip().splitlines()[-1])
        out.append(rec)
    return out
