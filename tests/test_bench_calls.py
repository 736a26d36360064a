"""Every package name the benchmark uses must exist, and every call it makes
must fit its callee.

The benchmark's input generation and set-up call the package directly
(`crossing_schedule(..., include_ghosts=...)`, `enumerate_mgs(cls, graph)`,
`dump_catalog`, `BUILTINS`, ...); a refactor that renames one of these, or one
of their parameters, would only show when a benchmark run fails.  The files
under `bench/` are read as source text, so nothing is written there.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def resolve(dotted: str):
    """The module, or the attribute of a module, that a dotted name names."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            holder = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for part in parts[cut:]:
            holder = getattr(holder, part)
        return holder
    raise ModuleNotFoundError(dotted)


def dotted_name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def package_uses():
    """(file, the dotted package names it imports, its calls of package
    callables); a call is (line, dotted callee, positional count, keywords)
    and is kept when its arguments are all spelled out."""
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, names = set(), {}  # names: local name -> dotted name
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ghostpic":
                for a in node.names:
                    imported.add(f"{node.module}.{a.name}")
                    names[a.asname or a.name] = f"{node.module}.{a.name}"
            elif isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.split(".")[0] == "ghostpic":
                        imported.add(a.name)
                        names[a.asname or "ghostpic"] = a.name if a.asname else "ghostpic"
        calls = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or (callee := dotted_name(node.func)) is None:
                continue
            head, _, rest = callee.partition(".")
            if head not in names or any(isinstance(a, ast.Starred) for a in node.args):
                continue
            if any(k.arg is None for k in node.keywords):
                continue
            target = f"{names[head]}.{rest}" if rest else names[head]
            calls.append((node.lineno, target, len(node.args), [k.arg for k in node.keywords]))
        yield path.name, imported, calls


USES = list(package_uses())


@pytest.mark.parametrize("name", sorted(set().union(*(imported for _, imported, _ in USES))))
def test_imported_name_resolves(name):
    resolve(name)


def test_every_call_fits_its_callee():
    keywords = set()
    for file, _, calls in USES:
        for line, target, positional, kws in calls:
            callee = resolve(target)
            if not (getattr(callee, "__module__", None) or "").startswith("ghostpic"):
                continue  # a method of a plain value, such as BUILTINS.items
            try:
                inspect.signature(callee).bind(*[None] * positional, **dict.fromkeys(kws))
            except TypeError as exc:
                pytest.fail(f"bench/{file}:{line}: {target}: {exc}")
            keywords.update(kws)
    assert {"include_ghosts", "graph", "include_extension_ghosts"} <= keywords
