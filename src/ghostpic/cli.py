"""Command-line entry point.

Subcommands: catalog | chambers | mgs | ghosts | hn | path | picture | verify.
Catalog sources are --type-a N --orient WORD, --builtin NAME, or --catalog
FILE; classes are comma-separated brick names.  All randomness is seeded, so
identical invocations produce byte-identical outputs.  Exit codes: 0 success,
1 invariant violation, failed verification or stdout closed early (quietly),
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

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
    InternalConsistencyError,
    NonGenericPathError,
    RankError,
    UsageError,
)
from ghostpic.ghosts import format_schedule
from ghostpic.greenpaths import (
    LinearPath,
    count_mgs,
    crossing_schedule,
    enumerate_mgs,
    find_linear_paths,
    hn_stratification,
    resolve_mgs,
)
from ghostpic.render import (
    RenderOptions,
    chamber_docs,
    edge_docs,
    export_report,
    ghost_census_doc,
    render_picture,
    vec_str,
)
from ghostpic.stability import chamber_graph
from ghostpic.verify import run_verify


def _add_source_args(parser: argparse.ArgumentParser):
    parser.add_argument("--type-a", type=int, metavar="N", dest="type_a")
    parser.add_argument("--orient", type=str, default=None)
    parser.add_argument("--builtin", type=str, default=None)
    parser.add_argument("--catalog", type=str, default=None, metavar="FILE")


def _catalog_from_args(args) -> BrickCatalog:
    chosen = [x for x in (args.type_a, args.builtin, args.catalog) if x is not None]
    if len(chosen) != 1:
        raise CatalogError(
            "choose exactly one catalog source: --type-a N --orient WORD, "
            "--builtin NAME, or --catalog FILE"
        )
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


def _class_from_args(args, catalog: BrickCatalog) -> ModuleClass:
    if args.cls:
        names = [x.strip() for x in args.cls.split(",") if x.strip()]
        if not names:
            raise CatalogError(f"--class needs at least one brick name, got {args.cls!r}")
    else:
        names = [m.id for m in catalog.indecs]
    return ModuleClass(catalog, names)


def _parse_vec(text: str, n: int, flag: str):
    parts = [x.strip() for x in text.split(",")]
    if len(parts) != n:
        raise CatalogError(f"{flag} needs {n} comma-separated rationals")
    try:
        return tuple(Fraction(x) for x in parts)
    except (ValueError, ZeroDivisionError):
        raise CatalogError(f"{flag} needs {n} comma-separated rationals, got {text!r}") from None


def _emit(args, payload: str):
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise UsageError(f"cannot write --out {args.out!r}: {exc}") from None
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


def cmd_catalog(args) -> int:
    catalog = _catalog_from_args(args)
    _emit(args, dump_catalog(catalog))
    return 0


def cmd_chambers(args) -> int:
    cls = _class_from_args(args, _catalog_from_args(args))
    graph = chamber_graph(cls)
    doc = {
        "schema": "ghostpic-chambers/1",
        "class": list(cls.bricks),
        "chambers": chamber_docs(graph),
        "edges": edge_docs(graph),
        "source": graph.source,
        "sink": graph.sink,
    }
    _emit(args, json.dumps(doc, indent=1, sort_keys=True))
    return 0


def cmd_mgs(args) -> int:
    cls = _class_from_args(args, _catalog_from_args(args))
    graph = chamber_graph(cls)
    if not args.all:
        doc = {"schema": "ghostpic-mgs/1", "mgs_count": count_mgs(graph)}
        _emit(args, json.dumps(doc, indent=1, sort_keys=True))
        return 0
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
                    else {"h": vec_str(path.h), "k": vec_str(path.k)}
                ),
                "chamber_path": list(mgs.chamber_ids),
            }
        )
    doc = {"schema": "ghostpic-mgs/1", "sequences": sequences}
    _emit(args, json.dumps(doc, indent=1, sort_keys=True))
    return 0


def cmd_ghosts(args) -> int:
    cls = _class_from_args(args, _catalog_from_args(args))
    doc = {
        "schema": "ghostpic-ghosts/1",
        "class": list(cls.bricks),
        **ghost_census_doc(cls),
    }
    _emit(args, json.dumps(doc, indent=1, sort_keys=True))
    return 0


def cmd_hn(args) -> int:
    cls = _class_from_args(args, _catalog_from_args(args))
    if not args.mgs or not args.module:
        raise CatalogError("hn needs --mgs CSV and --module NAME")
    graph = chamber_graph(cls)
    walls = [x.strip() for x in args.mgs.split(",") if x.strip()]
    mgs = resolve_mgs(graph, [cls.catalog.indec(w).id for w in walls])
    target = ModuleSum([cls.catalog.indec(x.strip()).id for x in args.module.split("+")])
    hn = hn_stratification(cls, graph, mgs, target)
    doc = {
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
    _emit(args, json.dumps(doc, indent=1, sort_keys=True))
    return 0


def cmd_path(args) -> int:
    cls = _class_from_args(args, _catalog_from_args(args))
    n = cls.catalog.quiver.n
    if not args.h or not args.k:
        raise CatalogError("path needs --h CSV and --k CSV")
    path = LinearPath(_parse_vec(args.h, n, "--h"), _parse_vec(args.k, n, "--k"))
    schedule = crossing_schedule(cls, path, include_ghosts=not args.no_ghosts)
    doc = {
        "schema": "ghostpic-path/1",
        "h": vec_str(path.h),
        "k": vec_str(path.k),
        "events": [
            {
                "t": str(e.t),
                "kind": e.kind,
                "label": e.label,
                "stable": e.stable,
                "concurrent": e.concurrent,
            }
            for e in schedule.events
        ],
        "tokens": format_schedule(schedule),
    }
    _emit(args, json.dumps(doc, indent=1, sort_keys=True))
    return 0


def cmd_picture(args) -> int:
    cls = _class_from_args(args, _catalog_from_args(args))
    if args.report:
        _emit(args, export_report(cls))
        return 0
    if cls.catalog.quiver.n != 3:
        raise RankError(
            "rank-3-only: the SVG picture needs exactly three simples; "
            "run with --report for the JSON report instead"
        )
    options = RenderOptions(include_extension_ghosts=args.ext_ghosts)
    _emit(args, render_picture(cls, options))
    return 0


def cmd_verify(args) -> int:
    if args.paths < 1:
        raise UsageError(f"--paths must be a positive integer, got {args.paths}")
    results = run_verify(paths_per_fixture=args.paths, seed=args.seed)
    lines = [r.line() for r in results]
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    _emit(args, "\n".join(lines) + "\n")
    return 0 if passed == len(results) else 1


_VECTOR_FLAGS = ("--h", "--k")


def _attach_vector_values(argv) -> list[str]:
    """Write `--h -3,1,2` as `--h=-3,1,2`: argparse takes a separate value
    that starts with '-' and is not a plain number for an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _VECTOR_FLAGS and arg.startswith("-") and not arg.startswith("--"):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one line on stderr (exit 2);
    ``--help`` still prints the full usage.  The vector values of ``--h`` and
    ``--k`` may start with '-'."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        if args is None:
            args = sys.argv[1:]
        return super().parse_known_args(_attach_vector_values(args), namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ghostpic",
        description="Exact wall-and-chamber diagrams, green sequences and ghosts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_class=True):
        _add_source_args(p)
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
        return args.func(args)
    except (CatalogError, RankError, NonGenericPathError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardExceededError as exc:
        summary = {"error": "guard-exceeded", "detail": str(exc)}
        if exc.count is not None:
            summary["count"] = exc.count
        print(json.dumps(summary, sort_keys=True), file=sys.stderr)
        return 1
    except (InternalConsistencyError, GhostpicError) as exc:
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
