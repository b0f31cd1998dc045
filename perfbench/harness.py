"""Running one operation against the program and checking its output.

The program is imported from ``src/`` of the checkout that holds this
directory; nothing else of the repository is used.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().parent / "expected.json"


def import_program():
    """Import ``propermaps`` afresh from the checkout's ``src/``; returns the package."""
    src = ROOT / "src"
    if not (src / "propermaps" / "__init__.py").is_file():
        raise SystemExit(f"program sources not found under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "propermaps" or m.startswith("propermaps.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("propermaps")
    importlib.import_module("propermaps.cli")
    return package


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())


def digest(code: int, text: str) -> str:
    return hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()[:20]


def execute(package, op):
    """Run ``op`` with the working directory holding its files.

    Returns (exit code, output): the CLI's stdout, or the core pipeline's
    report.  An exception escaping the program propagates to the caller.
    """
    if op.kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = package.cli.main(list(op.args))
        return code, out.getvalue() or err.getvalue()
    nz, gm = package.nielsen, package.graph_model
    graph, action = op.args
    automaton = gm.parse_automaton(Path(graph).read_text())
    base = Path(action).parent
    act = nz.parse_action_file(automaton, Path(action).read_text(), lambda rel: (base / rel).read_text())
    r_max, intervals, min_overlap = op.cover
    cover = nz.IntervalCover.make(range(r_max + 1), [tuple(iv) for iv in intervals], min_overlap=min_overlap)
    return 0, nz.realize_core_case(act, cover).report


def canonical(output):
    """(canonical text, report dict or None) of an op's output.

    JSON reports are re-serialized with sorted keys, which keeps list order:
    ranks, component order and every other field must stay byte-identical.
    """
    if isinstance(output, dict):
        text = json.dumps(output, sort_keys=True, default=str)
        return text, json.loads(text)
    try:
        report = json.loads(output)
    except ValueError:
        return output, None
    return json.dumps(report, sort_keys=True), report


def check(op, code, output, expected) -> str | None:
    """Why the output is wrong, or None when it is right.

    Construction-fixed answers are checked first; every op must then match
    the exit code and output hash pinned for its key.
    """
    text, report = canonical(output)
    if op.exit_code is not None and code != op.exit_code:
        return f"exit code {code}, construction says {op.exit_code}"
    for name, value in op.fields.items():
        got = None if report is None else report.get(name)
        if name == "verdicts":
            if not got or any(v != value for v in got.values()):
                return f"verdicts {got}, construction says all {value}"
        elif got != value:
            return f"{name} {got!r}, construction says {value!r}"
    pinned = expected.get(op.key)
    if pinned is None:
        return "no pinned output for this input"
    if [code, digest(code, text)] != pinned:
        return f"output differs from the pinned one (exit {code})"
    return None
