"""Start-up pays only for what a subcommand runs.

No module of the package generates code at import (no `dataclasses`), and
each `ghostpic` subcommand imports only the layers it runs: `import
ghostpic.cli` loads the catalog layer alone, and the chamber, ghost, render
and verify layers load when a command needs them.  The ghost and render
layers sit below the path layer `greenpaths`, so `ghosts`, both SVG
pictures, `picture --report` and plain `mgs` load none of it, `fractions`
and `decimal`.  Each command runs in a fresh interpreter, which
reports the `ghostpic` modules and the rational modules it has loaded.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

CLI_IMPORTS = {"ghostpic", "ghostpic.catalog", "ghostpic.errors", "ghostpic.geometry", "ghostpic.cli"}

LL = ("--type-a", "3", "--orient", "LL")
COMMANDS = {
    "catalog": ("catalog", *LL),
    "chambers": ("chambers", *LL),
    "mgs": ("mgs", "--all", *LL),
    "mgs-count": ("mgs", *LL),
    "ghosts": ("ghosts", *LL),
    "hn": ("hn", *LL, "--class", "S1,P3,I2,S3", "--mgs", "S1,S3,I2", "--module", "P3"),
    "path": ("path", *LL, "--h", "-3,1,2", "--k", "1,1,1"),
    "path-no-ghosts": ("path", *LL, "--h", "-3,1,2", "--k", "1,1,1", "--no-ghosts"),
    "picture": ("picture", *LL),
    "picture-ext": ("picture", *LL, "--ext-ghosts"),
    "report": ("picture", *LL, "--report"),
    "verify": ("verify", "--paths", "2"),
}

PROBE = """
import contextlib, io, json, sys
import ghostpic.cli
loaded = lambda: sorted(m for m in sys.modules if m == "ghostpic" or m.startswith("ghostpic."))
after_import = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = ghostpic.cli.dispatch(sys.argv[1:])
rationals = sorted(m for m in ("fractions", "decimal") if m in sys.modules)
print(json.dumps({"code": code, "import": after_import, "run": loaded(), "rationals": rationals}))
"""


def test_no_module_imports_dataclasses():
    for path in sorted((SRC / "ghostpic").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in names, f"{path.name}:{node.lineno} imports dataclasses"


def imports_of(module):
    """(module, name) of every import in a package module, those inside
    functions included; `import m` gives (m, None)."""
    tree = ast.parse((SRC / "ghostpic" / f"{module}.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((a.name, None) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "ghostpic":
            yield from ((f"ghostpic.{a.name}", None) for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.module, a.name) for a in node.names)


def test_the_chamber_layer_imports_no_path_or_ghost_layer():
    """The crossing plan lives with the walls, below the layers that read it."""
    assert not {m for m, _ in imports_of("stability")} & {"ghostpic.greenpaths", "ghostpic.ghosts"}


def test_the_path_layer_takes_only_the_ghost_plan_from_the_ghost_layer():
    assert {name for m, name in imports_of("greenpaths") if m == "ghostpic.ghosts"} == {"ghost_plan"}


def path_layer_importers(module):
    """The top-level functions of a package module whose bodies import
    `ghostpic.greenpaths`, with None for such an import anywhere else (which
    runs when the module loads, or may)."""
    tree = ast.parse((SRC / "ghostpic" / f"{module}.py").read_text(encoding="utf-8"))
    out = set()
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Import):
                names = {a.name for a in node.names}
            elif isinstance(node, ast.ImportFrom):
                names = {node.module, *(f"{node.module}.{a.name}" for a in node.names)}
            else:
                continue
            if "ghostpic.greenpaths" in names:
                out.add(top.name if isinstance(top, ast.FunctionDef) else None)
    return out


def test_the_ghost_and_picture_layers_import_the_path_layer_only_to_read_paths():
    """A ghost's census and domains, and the picture, are read off the class
    and its walls, so neither `ghosts` nor `render` imports `greenpaths` when
    it loads; the three ghost functions that read a path import it when
    called."""
    assert path_layer_importers("render") == set()
    assert path_layer_importers("ghosts") == {"ghost_stability", "ghost_events", "mgs_with_ghosts"}


def test_the_path_layer_reexports_the_graph_count():
    """`count_mgs` reads only the chamber graph and lives in `stability`;
    `greenpaths` holds the same function, so an import of it from there
    (and a wrapper that replaces it by identity in every namespace) still
    reaches every caller."""
    from ghostpic import greenpaths, stability

    assert greenpaths.count_mgs is stability.count_mgs


def per_class_functions():
    """(module, FunctionDef) of every function the package memoizes with
    `catalog.per_class`."""
    for path in sorted((SRC / "ghostpic").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and any(
                isinstance(d, ast.Name) and d.id == "per_class" for d in node.decorator_list
            ):
                yield path.stem, node


def test_per_class_facts_take_positional_arguments_only():
    """`per_class` keys a fact by its positional arguments alone, so a
    memoized function declares no default, `*args`, `**kwargs` or
    keyword-only parameter, and no call in the package passes one a keyword:
    one fact, one key."""
    names = set()
    for module, f in per_class_functions():
        a = f.args
        assert not (a.defaults or a.vararg or a.kwarg or a.kwonlyargs), f"{module}.{f.name}"
        names.add(f.name)
    assert {"in_filt", "weakly_admissible_quotients", "wall", "crossing_plan", "ghost_plan"} <= names
    for path in sorted((SRC / "ghostpic").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if called in names:
                    assert not node.keywords, f"{path.name}:{node.lineno} passes {called} a keyword"


@pytest.fixture(scope="module")
def loaded_modules():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = {}
    for name, argv in COMMANDS.items():
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, *argv], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        out[name] = json.loads(proc.stdout)
        assert out[name]["code"] == 0, (name, proc.stderr)
    return out


def test_importing_the_cli_loads_the_catalog_layer_only(loaded_modules):
    for name, seen in loaded_modules.items():
        assert set(seen["import"]) == CLI_IMPORTS, name


def test_catalog_loads_no_chamber_layer(loaded_modules):
    assert set(loaded_modules["catalog"]["run"]) == CLI_IMPORTS


def test_chambers_loads_no_path_ghost_render_or_verify_layer(loaded_modules):
    run = set(loaded_modules["chambers"]["run"])
    assert "ghostpic.stability" in run
    assert not run & {"ghostpic.greenpaths", "ghostpic.ghosts", "ghostpic.render", "ghostpic.verify"}


def test_printing_points_loads_no_fractions(loaded_modules):
    """`geometry.vec_str` prints a rational point in lowest terms by `gcd`,
    so `catalog` and `chambers`, which print points and parse no rational,
    load neither `fractions` nor `decimal` (nor do the commands that load no
    path layer, below); `path` reads its times as Fractions and loads them."""
    assert loaded_modules["catalog"]["rationals"] == loaded_modules["chambers"]["rationals"] == []
    assert "fractions" in loaded_modules["path"]["rationals"]


@pytest.mark.parametrize("name", ["ghosts", "picture", "picture-ext", "report", "mgs-count"])
def test_commands_that_read_no_path_load_no_path_layer_or_rationals(loaded_modules, name):
    """The ghost census, both SVG pictures, the report and the MGS count read
    the class, its walls and its chamber graph only."""
    seen = loaded_modules[name]
    assert "ghostpic.greenpaths" not in seen["run"]
    assert seen["rationals"] == []


@pytest.mark.parametrize("name", ["mgs", "path", "path-no-ghosts", "hn"])
def test_commands_that_read_paths_load_the_path_layer(loaded_modules, name):
    assert "ghostpic.greenpaths" in loaded_modules[name]["run"]


@pytest.mark.parametrize(
    "layer,users", [("render", {"picture", "picture-ext", "report"}), ("verify", {"verify"})]
)
def test_a_layer_loads_only_for_its_commands(loaded_modules, layer, users):
    loads = {name for name, seen in loaded_modules.items() if f"ghostpic.{layer}" in seen["run"]}
    assert loads == users


VERIFY_IMPORTS = {
    "ghostpic",
    "ghostpic.catalog",
    "ghostpic.errors",
    "ghostpic.geometry",
    "ghostpic.stability",
    "ghostpic.greenpaths",
    "ghostpic.ghosts",
    "ghostpic.verify",
}

VERIFY_SET_UP = """
import json, sys
from ghostpic.verify import Verifier
loaded = sorted(m for m in sys.modules if m == "ghostpic" or m.startswith("ghostpic."))
verifier = Verifier(1000, 3)
print(json.dumps({"import": loaded, "tables": {n: len(c._table) for n, c in verifier.fixtures.items()}}))
"""


def test_verify_set_up_builds_no_per_class_fact():
    """Setting up `verify` (the import and `Verifier(...)`, which the
    benchmark times as its set-up) loads the layers the checks run and
    builds the fixtures, and nothing more: every per-class table is filled
    lazily, inside the checks."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", VERIFY_SET_UP], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert set(seen["import"]) == VERIFY_IMPORTS
    assert len(seen["tables"]) == 10 and not any(seen["tables"].values())
