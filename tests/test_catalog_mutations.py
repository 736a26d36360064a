"""A mutated catalog document is refused in one line, or loads as written.

Start from the dump of every type-A orientation with n <= 4 and of the
Kronecker fragment, and apply one mutation from a fixed list: drop a row,
duplicate a row, change a hom dim by +-1, swap the ends of a short exact
sequence, rename an id to another one in use, empty a basis.  The `catalog`
command on the result either exits 2 with exactly one `error: catalog schema
violation:` line, or prints the canonical form of the mutated document, so
an accepted document always round-trips.  The mutations are drawn with a
fixed seed, a few of each kind per document.
"""

import copy
import itertools
import json
import random

import pytest

from ghostpic.catalog import builtin_kronecker, dump_catalog, generate_type_a
from ghostpic.cli import dispatch

DRAWS = 3  # mutations of each kind per document
REFUSED = "error: catalog schema violation: "

DUMPS = {"kronecker": dump_catalog(builtin_kronecker())}
for n in range(1, 5):
    for w in map("".join, itertools.product("LR", repeat=n - 1)):
        DUMPS[f"A{n}{w}"] = dump_catalog(generate_type_a(n, w))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _set(doc, path, value):
    """A copy of the document with the entry at `path`, a tuple of keys,
    set to value."""
    doc = copy.deepcopy(doc)
    _at(doc, path[:-1])[path[-1]] = value
    return doc


def mutations(doc):
    """(kind, path, value) of every single mutation of the list: the
    mutated document is the document with its entry at path set to value."""
    ids = [m["id"] for m in doc["indecs"]]
    tables = [("quiver", "arrows"), ("indecs",), *(("subquotients", m) for m in doc["subquotients"])]
    tables += [("hom",), ("ses",)]
    for path in tables:
        rows = _at(doc, path)
        for i in range(len(rows)):
            yield "drop", path, rows[:i] + rows[i + 1 :]
            yield "duplicate", path, rows[: i + 1] + rows[i:]
    for i, (x, y, h) in enumerate(doc["hom"]):
        yield from (("hom", ("hom", i, 2), h + step) for step in (-1, 1))
    for i, (a, b, c) in enumerate(doc["ses"]):
        yield "swap", ("ses", i), [c, b, a]
    names = [("indecs", i, "id") for i in range(len(ids))]
    names += [(key, i, j) for key in ("hom", "ses") for i, row in enumerate(doc[key]) for j in range(len(row))]
    names += [
        ("subquotients", m, i, end, j)
        for m, pairs in doc["subquotients"].items()
        for i, p in enumerate(pairs)
        for end in ("sub", "quot")
        for j in range(len(p[end]))
    ]
    for path, new in itertools.product(names, ids):
        if _at(doc, path) in ids and _at(doc, path) != new:
            yield "rename", path, new
    for m, pairs in doc["subquotients"].items():
        for i, p in enumerate(pairs):
            if p.get("basis"):
                yield "basis", ("subquotients", m, i, "basis"), []


def canonical(doc) -> str:
    """The document as `dump_catalog` writes a catalog: rows sorted, the
    ids of each sum and each basis sorted, and hom rows of dim 0 left out."""

    def pairs(ps):
        rows = [{**p, "sub": sorted(p["sub"]), "quot": sorted(p["quot"])} for p in ps]
        rows = [{**p, "basis": sorted(p["basis"])} if "basis" in p else p for p in rows]
        return sorted(rows, key=lambda p: (p["sub"], p["quot"], p["tag"]))

    return json.dumps(
        {
            **doc,
            "indecs": sorted(doc["indecs"], key=lambda m: m["id"]),
            "subquotients": {m: pairs(ps) for m, ps in doc["subquotients"].items()},
            "hom": sorted(row for row in doc["hom"] if row[2]),
            "ses": sorted(doc["ses"]),
        },
        indent=1,
        sort_keys=True,
    )


@pytest.mark.parametrize("name", list(DUMPS))
def test_a_mutated_catalog_is_refused_in_one_line_or_loads_as_written(name, tmp_path, capsys):
    doc = json.loads(DUMPS[name])
    by_kind = {}
    for kind, path, value in mutations(doc):
        by_kind.setdefault(kind, []).append((path, value))
    rng = random.Random(0)
    file = tmp_path / "mutated.json"
    wrong = []
    for kind, candidates in by_kind.items():
        for path, value in rng.sample(candidates, min(DRAWS, len(candidates))):
            mutated = _set(doc, path, value)
            file.write_text(json.dumps(mutated))
            code = dispatch(["catalog", "--catalog", str(file)])
            out, err = capsys.readouterr()
            if code == 2 and out == "" and err.count("\n") == 1 and err.startswith(REFUSED):
                continue
            if code == 0 and err == "" and out == canonical(mutated) + "\n":
                continue
            wrong.append(f"{kind} {path} = {value}: exit {code}, stderr {err!r}")
    assert not wrong
