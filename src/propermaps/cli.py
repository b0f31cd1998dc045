"""Command-line front end.

Subcommands wrap the library pipelines with file-based inputs and JSON
reports.  Exit codes: 0 success, 2 verification failure, 3 bound exhausted,
4 parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path as FsPath
from typing import Callable

from . import end_space as es
from . import graph_model as gm
from . import mapclass as mc
from . import nielsen as nz
from . import stallings as st

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFICATION = 2
EXIT_BOUND = 3
EXIT_PARSE = 4


def _emit(report: dict, out_dir: str | None, name: str) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, default=str)
    if out_dir:
        FsPath(out_dir).mkdir(parents=True, exist_ok=True)
        (FsPath(out_dir) / f"{name}.json").write_text(text + "\n")
    print(text)


def _write_dot(out_dir: str | None, name: str, dot: Callable[[], str]) -> None:
    """``name``.dot with the text ``dot()``, built only when there is somewhere to write it."""
    if out_dir:
        FsPath(out_dir).mkdir(parents=True, exist_ok=True)
        (FsPath(out_dir) / f"{name}.dot").write_text(dot())


def _write_truncation(out_dir: str | None, a: gm.UnfoldingAutomaton, depth: int) -> None:
    """truncation.dot, the depth-``depth`` truncation."""
    _write_dot(out_dir, "truncation", lambda: gm.truncation_to_dot(gm.unfold(a, depth)))


def _base_report(command: str) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        # constants kept for schema 1: nothing is random or parallel
        "seed": 0,
        "threads": 1,
        "threads_cap": 1,
    }


def cmd_classify(args) -> int:
    try:
        x = gm.parse_automaton(FsPath(args.x).read_text())
        y = gm.parse_automaton(FsPath(args.y).read_text())
    except (OSError, ValueError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    verdict = gm.classify_equivalent(x, y)
    cx, cy = gm.characteristic_pair(x), gm.characteristic_pair(y)
    report = _base_report("classify")
    report.update(
        {
            "verdict": verdict,
            "x": {
                "kind": cx.kind,
                "genus": str(cx.genus),
                "end_family": str(cx.end_family()),
                "genus_end_family": str(cx.genus_end_family()),
            },
            "y": {
                "kind": cy.kind,
                "genus": str(cy.genus),
                "end_family": str(cy.end_family()),
                "genus_end_family": str(cy.genus_end_family()),
            },
        }
    )
    _emit(report, args.out, "classify")
    return EXIT_OK


def cmd_intersect(args) -> int:
    try:
        f1 = st.parse_ffs_file(FsPath(args.f1).read_text())
        f2 = st.parse_ffs_file(FsPath(args.f2).read_text())
    except (OSError, ValueError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    inter = st.intersect_ffs(f1, f2)
    report = _base_report("intersect")
    report.update(
        {
            "component_count": len(inter.components),
            "ranks": list(inter.ranks()),
            "ffs": st.format_ffs(inter),
        }
    )
    if args.out:
        FsPath(args.out).mkdir(parents=True, exist_ok=True)
        (FsPath(args.out) / "intersection.ffs").write_text(st.format_ffs(inter))
    _emit(report, args.out, "intersect")
    return EXIT_OK


def cmd_check_id(args) -> int:
    try:
        a = gm.parse_automaton(FsPath(args.graph).read_text())
        f = mc.parse_map_file(a, FsPath(args.map).read_text())
    except (OSError, ValueError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    verdict = mc.is_properly_homotopic_to_identity(f)
    _write_truncation(args.out, a, f.depth)
    report = _base_report("check-id")
    report.update(
        {
            "verdict": verdict.kind,
            "depth": verdict.depth,
            "witness": repr(verdict.witness) if verdict.witness else None,
        }
    )
    _emit(report, args.out, "check_id")
    return EXIT_VERIFICATION if verdict.kind == "no" else EXIT_OK


def _rational(text: str | None) -> Fraction | None:
    """An optional rational option value; a zero denominator is a bad literal like any other."""
    try:
        return Fraction(text) if text else None
    except ZeroDivisionError as exc:
        raise ValueError(f"{text!r} has a zero denominator") from exc


def cmd_realize(args) -> int:
    report = _base_report(f"realize-{args.kind}")
    if args.eps_base is not None and args.kind != "tree":
        report.update({"stage": "input", "error": f"--eps-base applies to realize tree only, not {args.kind}"})
        _emit(report, args.out, "realize")
        return EXIT_PARSE
    try:
        a = gm.parse_automaton(FsPath(args.graph).read_text())
        base = FsPath(args.action).parent

        def read_map(rel: str) -> str:
            return (base / rel).read_text()

        action = nz.parse_action_file(a, FsPath(args.action).read_text(), read_map)
    except (OSError, ValueError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    _write_truncation(args.out, a, action.depth)
    levels = {} if args.depth is None else {"levels": args.depth}  # absent: the pipeline's default
    try:
        if args.kind == "tree":
            tr = nz.realize_tree_case(a, action.end_group(), **levels, eps_base=_rational(args.eps_base))
            report.update({"stage": "done", **tr.report})
            _write_dot(args.out, "telescope", lambda: es.telescope_to_dot(tr.telescope))
        elif args.kind == "core":
            real = nz.realize_core_case(action, e_max=args.max_edges, rank_bound=args.rank_bound)
            report.update({"stage": "done", **real.report})
            _write_dot(args.out, "realized", lambda: _symgraph_dot(real.graph))
        else:
            out = nz.realize_general_case(action, **levels, e_max=args.max_edges, rank_bound=args.rank_bound)
            if isinstance(out, nz.TreeRealization):
                report.update({"stage": "tree-case", **out.report})
                _write_dot(args.out, "telescope", lambda: es.telescope_to_dot(out.telescope))
            elif isinstance(out, nz.CoreRealization):
                report.update({"stage": "core-case", **out.report})
                _write_dot(args.out, "realized", lambda: _symgraph_dot(out.graph))
            else:
                report.update({"stage": "general", **out.report})
                _write_dot(args.out, "realized", lambda: _symgraph_dot(out.graph))
    except nz.NotFoundWithinBoundError as exc:
        report.update({"stage": "search", "error": str(exc)})
        _emit(report, args.out, "realize")
        return EXIT_BOUND
    except (nz.FinalCheckFailedError, nz.StructureViolationError, nz.InvarianceFailedError, nz.NoScriptFoundError, nz.NoGoodLevelError) as exc:
        report.update({"stage": "verification", "error": str(exc)})
        _emit(report, args.out, "realize")
        return EXIT_VERIFICATION
    except (ValueError, nz.NotCoreGraphError) as exc:
        report.update({"stage": "input", "error": str(exc)})
        _emit(report, args.out, "realize")
        return EXIT_PARSE
    _emit(report, args.out, "realize")
    return EXIT_OK


def _symgraph_dot(g: nz.SymGraph) -> str:
    lines = ["graph realized {"]
    for v in range(g.n_vertices):
        lines.append(f'  "v{v}";')
    for e, (u, v) in enumerate(g.edges):
        lines.append(f'  "v{u}" -- "v{v}" [label="e{e}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="propermaps", description="Proper homotopy mapping classes of locally finite graphs")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--out", default=None, help="output directory for reports and DOT files")

    sp = sub.add_parser("classify", help="compare characteristic pairs of two automata")
    sp.add_argument("x")
    sp.add_argument("y")
    common(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("intersect", help="intersect two free factor systems")
    sp.add_argument("f1")
    sp.add_argument("f2")
    common(sp)
    sp.set_defaults(func=cmd_intersect)

    sp = sub.add_parser("check-id", help="identity criterion for a proper map representative")
    sp.add_argument("graph")
    sp.add_argument("map")
    common(sp)
    sp.set_defaults(func=cmd_check_id)

    sp = sub.add_parser("realize", help="run a Nielsen realization pipeline")
    sp.add_argument("kind", choices=["tree", "core", "general"])
    sp.add_argument("graph")
    sp.add_argument("action")
    sp.add_argument("--depth", type=int, default=None, help="telescope levels")
    sp.add_argument("--eps-base", default=None, help="base of the epsilon schedule (rational; tree only)")
    sp.add_argument("--max-edges", type=int, default=6, help="edge bound for realization searches")
    sp.add_argument("--rank-bound", type=int, default=3, help="rank bound for exhaustive searches")
    common(sp)
    sp.set_defaults(func=cmd_realize)
    return p


PARSER = build_parser()  # built once; parse_args keeps no state between calls


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
