"""Ops leave no reference cycle that holds program data.

A cycle (a recursive closure, a class made inside a function) keeps what it
references alive until a cyclic collection, so per-op automata, truncations
and analyses would outlive their op.  With the collector disabled and
``DEBUG_SAVEALL`` set, a collection after the ops saves everything that only
cycles kept alive in ``gc.garbage``; none of it may be an object, class or
function defined in ``propermaps``.  The standard library's own cycles (the
closures of the ``json`` encoder) are not the program's and do not count.
"""

import gc
import types

from propermaps import cli
from tests.test_cli import LOOP_RAY, _write_flip_action, _write_mixed_action, _write_tree_action

BRANCHES = "root r\nstate r loops=1 children=a,a,b\nstate a loops=0 children=a\nstate b loops=1 children=\n"


def _defined_in_propermaps(obj) -> bool:
    if isinstance(obj, (type, types.FunctionType)):
        module = obj.__module__
    else:
        module = type(obj).__module__
    return (module or "").split(".")[0] == "propermaps"


def _cyclic_garbage(ops) -> tuple[list[int], list]:
    """The ops' exit codes, and what only cycles kept alive after them."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        codes = [cli.main(argv) for argv in ops]
        gc.collect()
        return codes, list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def test_ops_leave_no_cyclic_garbage(tmp_path):
    (tmp_path / "id").mkdir()
    (tmp_path / "id" / "g.aut").write_text(LOOP_RAY)
    (tmp_path / "id" / "id.map").write_text("support 6\noutside identity\n")
    (tmp_path / "id" / "x.aut").write_text(BRANCHES)
    runs = {"tree": _write_tree_action, "core": lambda p: _write_flip_action(p, 14), "general": _write_mixed_action}
    files = {}
    for name, write in runs.items():
        (tmp_path / name).mkdir()
        files[name] = [str(p) for p in write(tmp_path / name)]
    ops = [
        ["classify", str(tmp_path / "id" / "x.aut"), str(tmp_path / "id" / "g.aut")],
        ["check-id", str(tmp_path / "id" / "g.aut"), str(tmp_path / "id" / "id.map")],
        ["realize", "tree", *files["tree"]],
        ["realize", "core", *files["core"]],
        ["realize", "general", *files["general"]],
    ]
    codes, garbage = _cyclic_garbage(ops)
    assert codes == [0] * len(ops)
    ours = {repr(o) if isinstance(o, (type, types.FunctionType)) else repr(type(o)) for o in garbage if _defined_in_propermaps(o)}
    assert not sorted(ours)
