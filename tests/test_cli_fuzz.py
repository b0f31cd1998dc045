"""Seeded mutations of the CLI input files: every run ends in an exit code.

Each input is a fixture of one of the four file kinds (.aut, .ffs, .map,
.act) with one mutation applied: a line dropped, duplicated or swapped with
another, a token replaced, or the text truncated.  Realize runs also vary
``--eps-base``.  Whatever the damage, ``cli.main`` must return one of the
contract's exit codes (0 success, 2 verification, 3 bound, 4 input) and
must not raise.
"""

import random

import pytest

from propermaps import cli
from propermaps import graph_model as gm
from propermaps import mapclass as mc
from propermaps import words as W
from tests.test_cli import CANTOR, FFS_A_CBC, FFS_AB, LOOP_RAY, RAY, TWO_LOOP_RAY

TOKENS = ["0", "1", "2", "-1", "x", "s", "b", "e", "=", ":", "/", ".", "", "loops=1", "children=", "children=b", "mapfile=e.map", "order", "mult"]
EPS_BASES = [None, "2", "3", "3/2", "1", "1/2", "0", "-2", "x", "1/0"]
INPUTS = 300


def _mutate(rng, text):
    lines = text.splitlines()
    kind = rng.choice(["drop", "duplicate", "swap", "token", "truncate"])
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(j, lines[i])
    elif kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "token":
        tokens = lines[i].split(" ")
        tokens[rng.randrange(len(tokens))] = rng.choice(TOKENS)
        lines[i] = " ".join(tokens)
    else:
        return text[: rng.randrange(len(text))]
    return "\n".join(lines) + "\n"


def _fixtures():
    """File name -> text: automata, free factor systems, maps, actions."""
    files = {"cantor.aut": CANTOR, "ray.aut": RAY, "loop.aut": LOOP_RAY, "two.aut": TWO_LOOP_RAY}
    files.update({"ab.ffs": FFS_AB, "acbc.ffs": FFS_A_CBC})
    cantor, loop = gm.parse_automaton(CANTOR), gm.parse_automaton(LOOP_RAY)
    t = gm.unfold(cantor, 3)
    swap = mc.ProperMapRep.make(cantor, 3, vmap={v: ((1 - v[0],) + v[1:] if v else ()) for v in t.vertices})
    files["tree/e.map"] = mc.format_map_file(mc.ProperMapRep.identity(cantor, 3))
    files["tree/s.map"] = mc.format_map_file(swap)
    t = gm.unfold(loop, 8)  # the least support whose default interval cover realizes
    flip = mc.ProperMapRep.make(loop, 8, loop_images={mc.loop_id(v, k): W.gen(mc.loop_id(v, k), -1) for v, k in t.loop_edges})
    files["core/e.map"] = mc.format_map_file(mc.ProperMapRep.identity(loop, 8))
    files["core/f.map"] = mc.format_map_file(flip)
    files["banded.map"] = "support 3\noutside banded 1\n"
    for kind, g in (("tree", "s"), ("core", "f")):
        files[f"{kind}/z2.act"] = (
            f"group z2 order 2\nelem e: mapfile=e.map\nelem {g}: mapfile={g}.map\n"
            f"mult e e = e\nmult e {g} = {g}\nmult {g} e = {g}\nmult {g} {g} = e\n"
        )
    return files


# (command line, the one file of it that gets mutated); file names in braces
COMMANDS = [
    (["classify", "{cantor.aut}", "{two.aut}"], "cantor.aut"),
    (["classify", "{two.aut}", "{ray.aut}"], "two.aut"),
    (["intersect", "{ab.ffs}", "{acbc.ffs}"], "ab.ffs"),
    (["intersect", "{acbc.ffs}", "{ab.ffs}"], "acbc.ffs"),
    (["check-id", "{loop.aut}", "{core/f.map}"], "core/f.map"),
    (["check-id", "{loop.aut}", "{banded.map}"], "banded.map"),
    (["check-id", "{loop.aut}", "{core/f.map}"], "loop.aut"),
    (["realize", "tree", "{cantor.aut}", "{tree/z2.act}"], "tree/z2.act"),
    (["realize", "tree", "{cantor.aut}", "{tree/z2.act}"], "tree/s.map"),
    (["realize", "tree", "{cantor.aut}", "{tree/z2.act}"], "cantor.aut"),
    (["realize", "general", "{cantor.aut}", "{tree/z2.act}"], "tree/z2.act"),
    (["realize", "core", "{loop.aut}", "{core/z2.act}"], "core/z2.act"),
    (["realize", "core", "{loop.aut}", "{core/z2.act}"], "core/f.map"),
]


def test_mutated_inputs_end_in_an_exit_code(tmp_path, capsys):
    rng = random.Random(6)
    files = _fixtures()
    codes = []
    for n in range(INPUTS):
        argv, target = COMMANDS[n % len(COMMANDS)]
        root = tmp_path / str(n)
        for name, text in files.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(_mutate(rng, text) if name == target else text)
        args = [str(root / a[1:-1]) if a.startswith("{") else a for a in argv]
        eps = rng.choice(EPS_BASES)
        if argv[0] == "realize" and argv[1] == "tree" and eps is not None:
            args += ["--eps-base", eps]
        try:
            code = cli.main(args)
        except Exception as exc:  # noqa: BLE001 - the report names the input
            pytest.fail(f"input {n} ({' '.join(argv[:2])}, {target} mutated): {type(exc).__name__}: {exc}")
        capsys.readouterr()
        assert code in (0, 2, 3, 4), (n, args, code)
        codes.append(code)
    assert {0, 2, 4} <= set(codes)
