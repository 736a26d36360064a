"""The no-float contract of the package docstring, checked on the source.

Every module of `src/ghostpic` is parsed, and its syntax tree may hold no
float or complex literal, no call of `float`, `round` or `complex`, no name
of `math` but `gcd`, `lcm` and `isqrt`, and no true division (`/`, `/=`):
integers divide with `//` or `divmod`, and rationals are compared by
cross-multiplying.  A `Fraction` is constructed only in the functions of
`FRACTION_SITES`, where a value is parsed or printed (or handed to a caller
as a rational).
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "ghostpic").glob("*.py"))
MATH_NAMES = {"gcd", "lcm", "isqrt"}

# module -> the functions (or class bodies) that may call `Fraction`
FRACTION_SITES = {
    "cli.py": {"_parse_vec"},  # --h and --k
    "greenpaths.py": {
        "LinearPath.h",  # h and k are read as rationals
        "LinearPath.k",
        "_generic_one",  # the crossing time a NonGenericPathError prints
        "crossing_schedule",  # Event.t
    },
}


def violations(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append(f"{where}: literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("float", "round", "complex"):
                found.append(f"{where}: call of {node.func.id}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{where}: true division")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"{where}: math.{a.name}" for a in node.names if a.name not in MATH_NAMES]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "math" and node.attr not in MATH_NAMES:
                found.append(f"{where}: math.{node.attr}")
    return found


def fraction_sites(tree: ast.AST) -> set[str]:
    """Qualified names of the functions and classes whose own bodies call
    `Fraction`, `fractions.Fraction` or a `Fraction` classmethod; "<module>"
    for a call at module level."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                if (
                    (isinstance(f, ast.Name) and f.id == "Fraction")
                    or (isinstance(f, ast.Attribute) and f.attr == "Fraction")
                    or (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                        and f.value.id == "Fraction")
                ):
                    found.add(scope or "<module>")
            visit(child, scope)

    visit(tree, "")
    return found


def test_the_package_has_sources():
    assert {p.name for p in SOURCES} >= {"geometry.py", "render.py", "verify.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_float_arithmetic(path):
    assert violations(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_fraction_only_at_the_allowed_sites(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert fraction_sites(tree) == FRACTION_SITES.get(path.name, set())


def test_every_fraction_site_is_seen():
    source = (
        "import fractions\n"
        "from fractions import Fraction\n"
        "HALF = Fraction(1, 2)\n"
        "def parse(x):\n"
        "    return fractions.Fraction(x)\n"
        "class Path:\n"
        "    def at(self, t):\n"
        "        def inner():\n"
        "            return Fraction.from_decimal(t)\n"
        "        return inner()\n"
        "def check(x) -> Fraction:\n"
        "    return isinstance(x, Fraction)\n"
    )
    assert fraction_sites(ast.parse(source)) == {"<module>", "parse", "Path.at.inner"}


def test_every_kind_of_violation_is_seen():
    source = (
        "from math import floor, gcd\n"
        "import math\n"
        "a = 0.5 + 1j\n"
        "b = float(a) + round(a) + complex(a)\n"
        "c = math.sqrt(2) + math.isqrt(4) / 2\n"
        "c /= 2\n"
    )
    assert len(violations(ast.parse(source))) == 9
