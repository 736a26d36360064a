"""Command-line entry point.

Subcommands: catalog | chambers | mgs | ghosts | hn | path | picture | verify.
Catalog sources are --type-a N --orient WORD, --builtin NAME, or --catalog
FILE; classes are comma-separated brick names.  All randomness is seeded, so
identical invocations produce byte-identical outputs.  Exit codes: 0 success,
1 invariant violation, failed verification or stdout closed early (quietly),
2 usage error.  Each subcommand returns its document (a dict, encoded as
JSON, or text) and `dispatch` writes it, to stdout or to the `--out` file,
the same bytes either way.  Each subcommand imports only the layers it runs,
so a command pays at start-up for no layer it does not use.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ghostpic.catalog import (
    BUILTINS,
    BrickCatalog,
    ModuleClass,
    ModuleSum,
    dump_catalog,
    generate_type_a,
    load_catalog,
)
from ghostpic.errors import (
    CatalogError,
    GhostpicError,
    GuardExceededError,
    NonGenericPathError,
    RankError,
    UsageError,
    guard_limit,
)


def _catalog_from_args(args) -> BrickCatalog:
    chosen = [x for x in (args.type_a, args.builtin, args.catalog) if x is not None]
    if len(chosen) != 1:
        raise CatalogError(
            "choose exactly one catalog source: --type-a N --orient WORD, "
            "--builtin NAME, or --catalog FILE"
        )
    if args.orient is not None and args.type_a is None:
        raise UsageError("--orient is read only with --type-a N")
    if args.type_a is not None:
        if args.orient is None and args.type_a == 1:
            args.orient = ""
        if args.orient is None:
            raise CatalogError("--type-a needs --orient WORD (letters L/R)")
        return generate_type_a(args.type_a, args.orient)
    if args.builtin is not None:
        if args.builtin not in BUILTINS:
            raise CatalogError(f"unknown builtin {args.builtin!r}; have: {sorted(BUILTINS)}")
        return BUILTINS[args.builtin]()
    try:
        with open(args.catalog, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CatalogError(f"cannot read catalog {args.catalog!r}: {exc}") from None
    return load_catalog(text)


def _class_from_args(args) -> ModuleClass:
    catalog = _catalog_from_args(args)
    if args.cls is not None:
        names = [x.strip() for x in args.cls.split(",") if x.strip()]
        if not names:
            raise CatalogError(f"--class needs at least one brick name, got {args.cls!r}")
    else:
        names = [m.id for m in catalog.indecs]
    return ModuleClass(catalog, names)


def _parse_vec(text: str, n: int, flag: str):
    from fractions import Fraction

    parts = [x.strip() for x in text.split(",")]
    if len(parts) != n:
        raise CatalogError(f"{flag} needs {n} comma-separated rationals")
    try:
        return tuple(Fraction(x) for x in parts)
    except (ValueError, ZeroDivisionError):
        raise CatalogError(f"{flag} needs {n} comma-separated rationals, got {text!r}") from None


def _write(out: str | None, text: str):
    """Write a document and its final newline to the file `out`, or to stdout
    as bytes until all are taken (a raw unbuffered stdout may take a part, and
    a reader that leaves early must see exit 1), or as text to an io.StringIO."""
    text += "" if text.endswith("\n") else "\n"
    if out is not None:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --out {out!r}: {exc}") from None
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()
        data = memoryview(text.encode(sys.stdout.encoding))
        while data:
            data = data[sys.stdout.buffer.write(data) :]
    else:
        sys.stdout.write(text)


def cmd_catalog(args) -> str:
    return dump_catalog(_catalog_from_args(args))


def cmd_chambers(args) -> dict:
    from ghostpic.stability import chamber_docs, chamber_graph, edge_docs

    cls = _class_from_args(args)
    graph = chamber_graph(cls)
    return {
        "schema": "ghostpic-chambers/1",
        "class": list(cls.bricks),
        "chambers": chamber_docs(cls, graph),
        "edges": edge_docs(graph),
        "source": graph.source,
        "sink": graph.sink,
    }


def cmd_mgs(args) -> dict:
    from ghostpic.greenpaths import count_mgs, enumerate_mgs, find_linear_paths
    from ghostpic.stability import chamber_graph

    cls = _class_from_args(args)
    graph = chamber_graph(cls)
    if not args.all:
        return {"schema": "ghostpic-mgs/1", "mgs_count": count_mgs(graph)}
    all_mgs = enumerate_mgs(cls, graph)
    paths = find_linear_paths(cls, [mgs.walls for mgs in all_mgs], radius=4)
    sequences = []
    for mgs in all_mgs:
        path = paths[mgs.walls]
        sequences.append(
            {
                "mgs": list(mgs.walls),
                "linear_realization": (
                    None
                    if path is None
                    else {"h": list(map(str, path.h)), "k": list(map(str, path.k))}
                ),
                "chamber_path": list(mgs.chamber_ids),
            }
        )
    return {"schema": "ghostpic-mgs/1", "sequences": sequences}


def cmd_ghosts(args) -> dict:
    from ghostpic.ghosts import ghost_census_doc

    cls = _class_from_args(args)
    return {"schema": "ghostpic-ghosts/1", "class": list(cls.bricks), **ghost_census_doc(cls)}


def cmd_hn(args) -> dict:
    from ghostpic.greenpaths import hn_stratification, resolve_mgs
    from ghostpic.stability import chamber_graph

    cls = _class_from_args(args)
    if not args.mgs or not args.module:
        raise CatalogError("hn needs --mgs CSV and --module NAME")
    graph = chamber_graph(cls)
    walls = [x.strip() for x in args.mgs.split(",") if x.strip()]
    mgs = resolve_mgs(graph, [cls.catalog.indec(w).id for w in walls])
    target = ModuleSum([cls.catalog.indec(x.strip()).id for x in args.module.split("+")])
    hn = hn_stratification(cls, graph, mgs, target)
    return {
        "schema": "ghostpic-hn/1",
        "mgs": list(mgs.walls),
        "module": list(target.ids),
        "layers": [
            {"index": i, "brick": mgs.walls[i - 1], "multiplicity": mult}
            for i, mult in hn.layers
        ],
        "witnesses": [
            {"component": comp, "layer": layer, "pair": tag}
            for comp, layer, tag in hn.witnesses
        ],
    }


def cmd_path(args) -> dict:
    from ghostpic.ghosts import format_schedule
    from ghostpic.greenpaths import LinearPath, crossing_schedule

    cls = _class_from_args(args)
    n = cls.catalog.quiver.n
    if not args.h or not args.k:
        raise CatalogError("path needs --h CSV and --k CSV")
    path = LinearPath(_parse_vec(args.h, n, "--h"), _parse_vec(args.k, n, "--k"))
    events = crossing_schedule(cls, path, include_ghosts=not args.no_ghosts)
    return {
        "schema": "ghostpic-path/1",
        "h": list(map(str, path.h)),
        "k": list(map(str, path.k)),
        "events": [{**e._asdict(), "t": str(e.t)} for e in events],
        "tokens": format_schedule(events),
    }


def cmd_picture(args) -> str:
    from ghostpic.render import RenderOptions, export_report, render_picture

    if args.report and args.ext_ghosts:
        raise UsageError("--ext-ghosts is read only by the SVG picture, not with --report")
    cls = _class_from_args(args)
    if args.report:
        return export_report(cls)
    return render_picture(cls, RenderOptions(include_extension_ghosts=args.ext_ghosts))


def cmd_verify(args) -> tuple[str, int]:
    from ghostpic.verify import run_verify

    if args.paths < 1:
        raise UsageError(f"--paths must be a positive integer, got {args.paths}")
    results = run_verify(paths_per_fixture=args.paths, seed=args.seed)
    passed = sum(r.passed for r in results)
    lines = [*(r.line() for r in results), f"{passed}/{len(results)} checks passed"]
    return "\n".join(lines) + "\n", 0 if passed == len(results) else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one line on stderr (exit 2);
    ``--help`` still prints the full usage.  The vector values of ``--h`` and
    ``--k`` may start with '-': `--h -3,1,2` is read as `--h=-3,1,2`, since
    argparse takes a separate value that starts with '-' and is not a plain
    number for an option."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        argv: list[str] = []
        for arg in sys.argv[1:] if args is None else args:
            if argv and argv[-1] in ("--h", "--k") and arg.startswith("-") and not arg.startswith("--"):
                argv[-1] = f"{argv[-1]}={arg}"
            else:
                argv.append(arg)
        return super().parse_known_args(argv, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ghostpic",
        description="Exact wall-and-chamber diagrams, green sequences and ghosts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_class=True):
        p.add_argument("--type-a", type=int, metavar="N", dest="type_a")
        p.add_argument("--orient", type=str, default=None)
        p.add_argument("--builtin", type=str, default=None)
        p.add_argument("--catalog", type=str, default=None, metavar="FILE")
        if with_class:
            p.add_argument("--class", dest="cls", type=str, default=None, metavar="CSV")
        p.add_argument("--out", type=str, default=None, metavar="PATH")

    p = sub.add_parser("catalog", help="generate, validate or dump a catalog")
    common(p, with_class=False)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("chambers", help="chambers, labels and the green graph")
    common(p)
    p.set_defaults(func=cmd_chambers)

    p = sub.add_parser("mgs", help="maximal green sequences")
    common(p)
    p.add_argument("--all", action="store_true")
    p.set_defaults(func=cmd_mgs)

    p = sub.add_parser("ghosts", help="ghost census with domains and bifurcations")
    common(p)
    p.set_defaults(func=cmd_ghosts)

    p = sub.add_parser("hn", help="Harder-Narasimhan layers along an MGS")
    common(p)
    p.add_argument("--mgs", type=str, default=None, metavar="CSV")
    p.add_argument("--module", type=str, default=None, metavar="NAME")
    p.set_defaults(func=cmd_hn)

    p = sub.add_parser("path", help="crossing schedule of a linear path")
    common(p)
    p.add_argument("--h", type=str, default=None, metavar="CSV")
    p.add_argument("--k", type=str, default=None, metavar="CSV")
    p.add_argument("--no-ghosts", action="store_true")
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("picture", help="rank-3 SVG picture or JSON report")
    common(p)
    p.add_argument("--report", action="store_true")
    p.add_argument("--ext-ghosts", action="store_true")
    p.set_defaults(func=cmd_picture)

    p = sub.add_parser("verify", help="run the full property suite")
    p.add_argument("--paths", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None, metavar="PATH")
    p.set_defaults(func=cmd_verify)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        guard_limit(1)  # every subcommand refuses a malformed GHOSTPIC_GUARD
        doc, status = args.func(args), 0
        if isinstance(doc, tuple):
            doc, status = doc
        _write(args.out, doc if isinstance(doc, str) else json.dumps(doc, indent=1, sort_keys=True))
        return status
    except (CatalogError, RankError, NonGenericPathError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardExceededError as exc:
        summary = {"error": "guard-exceeded", "detail": str(exc)}
        if exc.count is not None:
            summary["count"] = exc.count
        print(json.dumps(summary, sort_keys=True), file=sys.stderr)
        return 1
    except GhostpicError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        status = dispatch(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout was closed early (e.g. piped into head): exit quietly, with
        # stdout on devnull so the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(status)


if __name__ == "__main__":
    main()
