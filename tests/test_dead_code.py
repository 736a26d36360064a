"""Every function of the package is called by the package, or listed here.

An AST scan of `src/ghostpic` finds each module function and method whose
name no code of the package references, by name or by attribute (dunder
methods are called by Python, not by name; an import is no reference).
The set must be exactly the one pinned below.  A new function that nothing
calls is deleted, or listed with its reason.
"""

import ast
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TARGETS = runpy.run_path(str(ROOT / "bench" / "tracing.py"))["TARGETS"]

# argparse calls it on a usage error
EXEMPT = {"cli._Parser.error"}

# called only by the benchmark tracer, which names them in `TARGETS`, and by
# the tests; deleting or moving one waits for a benchmark change that trims
# `TARGETS`
TRACED_ONLY = {
    "geometry.cone_is_empty",
    "stability.enumerate_chambers",
    "stability.semistable_set",
    "stability.locate_chamber",
    "greenpaths.check_generic",
    "greenpaths.is_relatively_stable",
    "greenpaths.linear_mgs",
    "greenpaths.find_linear_path",
    "ghosts.subobject_ghost_domain",
    "ghosts.quotient_ghost_domain",
    "ghosts.extension_ghost_domain",
    "ghosts.ghost_stability",
    "ghosts.ghost_events",
}


def uncalled() -> set[str]:
    """The qualified names ("module.function", "module.Class.method") of the
    functions whose name no code of the package references."""
    defs, refs = {}, set()
    for path in sorted((ROOT / "src" / "ghostpic").glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        for node in module.body:
            methods = [(f"{node.name}.", m) for m in node.body] if isinstance(node, ast.ClassDef) else []
            for prefix, item in [("", node), *methods]:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    defs[f"{path.stem}.{prefix}{item.name}"] = item.name
        for node in ast.walk(module):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
    return {qual for qual, name in defs.items() if name not in refs}


def test_every_uncalled_function_is_listed():
    assert uncalled() - EXEMPT == TRACED_ONLY


def test_the_listed_functions_are_traced():
    assert TRACED_ONLY <= set(TARGETS)
