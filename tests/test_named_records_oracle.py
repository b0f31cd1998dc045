"""Oracle for check-id without the truncation: map files read by walking the names they use.

``mapclass.parse_map_file`` checks each record by walking the automaton from the
root (``graph_model.NameIndex``, or one ``loop_basis`` walk when a file names at
least half of the truncation's loops), ``ProperMapRep.make`` reads states, loop
counts and liveness off the walked vertices, and the identity criterion walks the
frontier in path order only into the subtrees below a moved vertex or a wrapped
edge.  ``ref_parse_map_file`` and ``ref_make`` below are the parser and ``make``
from before, which looked every name up in ``unfold(a, D)``, kept verbatim but for
reading each vertex's name off ``path_str`` (``ref_paths``: the truncation kept no
names of its own).  Checked:

- the name index and the loop-id check against the truncation's own names, on
  valid ids and on spellings that only look like them;
- ``loop_basis`` against ``unfold``'s loop ids, whole and cut off at a cap;
- check-id at supports too deep for any truncation (the loop tree at 40, the
  loop ray at 100000), with ``unfold`` made to fail, and at supports 2-12 against
  the outputs of the CLI before the change;
- every ``check-id`` op of ``maps`` seeds 1 and 5 against its pinned output,
  with ``unfold`` made to fail.

``tests/test_mapclass.py::test_map_paths_read_through_vertex_names_as_parse_path_reads_them``
compares ``parse_map_file`` with ``ref_parse_map_file`` on the workload's maps.
"""

import contextlib
import io
import json
from typing import Iterable, Mapping

import pytest

import propermaps.cli  # noqa: F401  (harness.execute calls propermaps.cli.main)
import propermaps
from perfbench import harness, workloads
from propermaps import graph_model as gm
from propermaps import mapclass as mc
from propermaps import stallings as st
from propermaps import words as W
from propermaps.graph_model import (
    Path,
    UnfoldingAutomaton,
    bisimulation_classes,
    cylinders,
    live_states,
    loop_reaching_states,
    parse_path,
    path_str,
    unfold,
)
from propermaps.mapclass import IDENTITY_OUTSIDE, InconsistentFrontierError, banded
from propermaps.words import Word


def ref_paths(t: gm.GraphTruncation) -> dict[str, Path]:
    """Each vertex of the truncation by its ``path_str`` name: the names ``unfold`` used to keep."""
    return {path_str(v): v for v in t.vertices}


def ref_make(
    automaton: UnfoldingAutomaton,
    depth: int,
    vmap: Mapping[Path, Path] | None = None,
    loop_images: Mapping[str, Iterable[tuple[str, int]]] | None = None,
    edge_wraps: Mapping[Path, Iterable[tuple[str, int]]] | None = None,
    end_action: Mapping[Path, Path] | None = None,
    outside: object = IDENTITY_OUTSIDE,
) -> mc.ProperMapRep:
    """Check the given entries and keep only what moves; an absent vertex, loop or
    edge is fixed (unwrapped).  Every unmoved entry passes every check."""
    t = unfold(automaton, depth)
    verts = t.state
    moves = {}
    for v, w in (vmap or {}).items():
        if v not in verts or w not in verts:
            raise ValueError("vmap must map truncation vertices to truncation vertices")
        if v != w:
            moves[v] = w
    if () in moves:
        raise ValueError("representatives fix the root")
    frontier = t.frontier
    moved_front = sorted(v for v in moves if v in frontier)
    if moved_front:
        bis = bisimulation_classes(automaton)
        for v in moved_front:  # in path order, as the frontier lists them
            w = moves[v]
            if w not in frontier or bis[frontier[w]] != bis[frontier[v]]:
                raise ValueError(f"frontier vertex {path_str(v)} must map to an equivalent frontier vertex")
    lids = t.loop_at
    li = {}  # only moved loops: loop_word reads the rest as their generators
    for lid, word in (loop_images or {}).items():
        if lid not in lids:
            raise ValueError(f"unknown loop {lid}")
        word = W.reduce_word(word)
        if word != W.gen(lid):
            li[lid] = word
    ew = {}
    for child, word in (edge_wraps or {}).items():
        if child not in verts or not child:
            raise ValueError(f"unknown edge target {path_str(child)}")
        word = W.reduce_word(word)
        if word:
            ew[child] = word
    for word in list(li.values()) + list(ew.values()):
        for g, _ in word:
            if g not in lids:
                raise ValueError(f"word uses unknown loop generator {g}")
    live = live_states(automaton)
    # the subtree below a live frontier vertex is carried onto the subtree below its image
    em = {c: moves[c] for c in moved_front if frontier[c] in live}
    if outside == IDENTITY_OUTSIDE:
        if end_action is not None:
            ea = {c: em.get(c, c) for c in cylinders(automaton, depth)}
            if dict(end_action) != ea:
                bad = min(c for c in ea.keys() | end_action.keys() if ea.get(c) != end_action.get(c))
                raise InconsistentFrontierError(f"end action disagrees with vmap at {path_str(bad)}")
    elif not (isinstance(outside, tuple) and outside[0] == "banded"):
        raise ValueError(f"bad outside flag {outside!r}")
    elif end_action is not None:
        cyls = frozenset(cylinders(automaton, depth))
        if end_action.keys() != cyls or set(end_action.values()) != cyls:
            raise ValueError("end action must be a bijection of the live frontier cylinders")
        em = {c: d for c, d in end_action.items() if c != d}
    if set(em.values()) != set(em):  # with the unmoved cylinders fixed, a bijection permutes the moved ones
        raise ValueError("end action must be a bijection of the live frontier cylinders")
    if outside != IDENTITY_OUTSIDE:
        reach = loop_reaching_states(automaton)
        if any((frontier[c] in reach) != (frontier[d] in reach) for c, d in em.items()):
            raise ValueError("end action must preserve the genus end set")
    return mc.ProperMapRep(automaton, depth, moves, li, ew, em, outside)


def ref_add_path_records(records: dict[str, dict], lines: Iterable[tuple[int, str, str, str]], paths: Mapping[str, Path]):
    """Add (lineno, kind, source, target) vmap, wrap and endmap records to ``records[kind]`` as
    source -> (lineno, target), in line order.  A path is looked up in ``paths`` (vertex names);
    other spellings, and the root (a falsy path), go through ``parse_path``."""
    for lineno, kind, src, dst in lines:
        key = paths.get(src.strip()) or ref_path_on_line(lineno, src)
        if key in records[kind]:
            raise ValueError(f"line {lineno}: repeated {kind} source {src.strip()}")
        records[kind][key] = (lineno, st._word_on_line(lineno, dst) if kind == "wrap" else paths.get(dst.strip()) or ref_path_on_line(lineno, dst))


def ref_path_on_line(lineno: int, text: str) -> Path:
    try:
        return parse_path(text)
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None


def ref_known_letters(lineno: int, word: Word, lids: Mapping[str, object]) -> Word:
    """The word of the record on ``lineno``, refused if a letter is not a loop in ``lids``."""
    for g, _ in word:
        if g not in lids:
            raise ValueError(f"line {lineno}: word uses unknown loop generator {g}")
    return word


def ref_parse_map_file(a: UnfoldingAutomaton, text: str) -> mc.ProperMapRep:
    """`support <D>` then vmap/loop/wrap/endmap/outside records: one support line,
    at most one outside line, and each record source once, as ``source -> target``.

    A vmap source and target lie in the truncation, an endmap source is a live
    frontier cylinder, and loop and wrap records name its loops and edges; ``make``
    refuses endmap records that disagree with an IDENTITY_OUTSIDE vmap.  Loop records
    are read as they come, and one whose target is its own generator (``loop X -> [X]``)
    is only checked, not kept; path records once the whole file is checked, through the
    truncation's vertex names, and other spellings (``01``, `` 0/ 1``) through ``parse_path``.
    The outside line is ``outside identity`` or ``outside banded <n>``, with nothing after it.
    """
    depth = None
    records: dict[str, dict] = {"vmap": {}, "loop": {}, "wrap": {}, "endmap": {}}  # source -> (lineno, target)
    pending: list[tuple[int, str, str, str]] = []  # (lineno, kind, source, target) of each path record
    outside: object = IDENTITY_OUTSIDE
    seen: set[str] = set()
    try:
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            kind = line.split(None, 1)[0]
            if kind in records:
                src, arrow, dst = line[len(kind) :].partition("->")
                if not arrow:
                    raise ValueError(f"line {lineno}: {kind} record needs ->")
                if kind != "loop":
                    pending.append((lineno, kind, src, dst))
                    continue
                src, dst = src.strip(), dst.strip()
                if src in records[kind]:
                    raise ValueError(f"line {lineno}: repeated {kind} source {src}")
                fixed = src and "]" not in src and dst == f"[{src}]"
                records[kind][src] = (lineno, None if fixed else st._word_on_line(lineno, dst))
            elif kind in ("support", "outside"):
                if kind in seen:
                    raise ValueError(f"line {lineno}: repeated {kind}")
                seen.add(kind)
                parts = line.split()
                if kind == "support":
                    if len(parts) != 2 or not parts[1].isdecimal():
                        raise ValueError(f"line {lineno}: support needs one depth")
                    depth = int(parts[1])
                elif parts[1:] == ["identity"]:
                    outside = IDENTITY_OUTSIDE
                elif parts[1:2] == ["banded"] and len(parts) == 3 and parts[2].isdecimal():
                    outside = banded(int(parts[2]))
                else:
                    raise ValueError(f"line {lineno}: bad outside flag")
            else:
                raise ValueError(f"line {lineno}: unknown record {kind!r}")
        if depth is None:
            raise ValueError("missing support line")
    except Exception:
        ref_add_path_records(records, pending, {})  # a path record's own error on an earlier line comes first
        raise
    t = unfold(a, depth)
    ref_add_path_records(records, pending, ref_paths(t))
    vmap = {v: w for v, (_, w) in records["vmap"].items()}
    endmap = {c: d for c, (_, d) in records["endmap"].items()}
    stray = min(set(vmap).difference(t.state), default=None)
    if stray is not None:
        raise ValueError(f"vmap source {path_str(stray)} lies outside the support-{depth} truncation")
    for lineno, w in records["vmap"].values():
        if w not in t.state:
            raise ValueError(f"line {lineno}: vmap target {path_str(w)} lies outside the support-{depth} truncation")
    ea = None
    if endmap:
        live = cylinders(a, depth)
        stray = min(set(endmap).difference(live), default=None)
        if stray is not None:
            raise ValueError(f"endmap source {path_str(stray)} is not a live frontier cylinder")
        ea = {c: endmap.get(c, vmap.get(c, c)) for c in live}
    lids = t.loop_at
    loops = {}
    for lid, (lineno, word) in records["loop"].items():
        if lid not in lids:
            raise ValueError(f"line {lineno}: unknown loop {lid!r}")
        if word is not None:
            loops[lid] = ref_known_letters(lineno, word, lids)
    wraps = {}
    for child, (lineno, word) in records["wrap"].items():
        if not child or child not in t.state:
            raise ValueError(f"line {lineno}: unknown edge target {path_str(child)}")
        wraps[child] = ref_known_letters(lineno, word, lids)
    return ref_make(a, depth, vmap, loops, wraps, ea, outside)


# -- the name index and the loop-id check ---------------------------------------------------------

GRAPHS = {
    "loop_tree": ("root b\nstate b loops=1 children=b,b\n", 3),
    "rays": ("root s\nstate s loops=1 children=s,d\nstate d loops=0 children=d\n", 4),
    "ray3": ("root s\nstate s loops=3 children=s\n", 4),
    "wide": ("root r\nstate r loops=2 children=a,a,a,a,a,a,a,a,a,a,a,a\nstate a loops=1 children=\n", 1),
    "blobs": ("root r\nstate r loops=0 children=g,g,d\nstate g loops=0 children=k\n"
              "state k loops=1 children=\nstate d loops=0 children=d\n", 3),
}


def _look_alikes(lid: str) -> list[str]:
    """Spellings near a loop id: leading zeros, signs, spaces, empty or extra parts, other k."""
    name, _, k = lid.rpartition(":")
    parts = [] if name == "." else name.split("/")
    out = [f"{name}:0{k}", f"{name}:+{k}", f"{name}: {k}", f"{name}:{int(k) + 9}", f"{name}:-1", name, f"{name}:", "./" + lid]
    if parts:
        out += ["/".join(parts[:-1] + ["0" + parts[-1]]) + ":" + k, "/" + lid, name + "/:" + k, f"{name}/9:{k}", f"{name}/0/0/0/0:{k}"]
    else:
        out += [f"0:{k}", f"9:{k}", f":{k}"]
    return out


@pytest.mark.parametrize("graph", GRAPHS)
def test_names_match_the_truncation(graph):
    """A vertex is found by exactly its ``path_str`` name and a loop by exactly its id, up to the
    depth asked; every look-alike is refused, one id at a time and in bulk."""
    text, depth = GRAPHS[graph]
    a = gm.parse_automaton(text)
    t = unfold(a, depth)
    ix = gm.names(a)
    for v, s in t.state.items():
        for d in range(depth + 1):
            assert ix.vertex(path_str(v), d) == ((v, s) if len(v) <= d else None)
            assert ix.state(v, d) == (s if len(v) <= d else None)
    assert ix.vertex("0/00", depth) is None and ix.vertex("./0", depth) is None and ix.vertex("", depth) is None
    candidates = [x for lid in t.loop_ids for x in [lid, *_look_alikes(lid)]]
    for d in range(depth + 1):
        known = set(unfold(a, d).loop_ids)
        for lid in candidates:
            assert (gm.unknown_loop(a, [lid], d) is None) == (lid in known), (lid, d)
            assert (ix.loop(lid, d) is not None) == (lid in known), (lid, d)
        bad = [lid for lid in candidates if lid not in known]
        assert gm.unknown_loop(a, list(known) + bad[:1], d) == (bad[0] if bad else None)  # the bulk check
        assert gm.unknown_loop(a, sorted(known), d) is None


@pytest.mark.parametrize("graph", GRAPHS)
def test_loop_basis_is_the_truncation_order(graph):
    text, depth = GRAPHS[graph]
    """The walk names the loops in (vertex, k) order, as the truncation lists them, gives up past
    its cap, and once it has the whole basis returns it whatever the cap."""
    for d in range(depth + 3):
        a = gm.parse_automaton(text)
        want = unfold(a, d).loop_ids
        if want:
            assert gm.loop_basis(a, d, len(want) - 1) is None
            assert gm.loop_basis(a, d, len(want) // 2) is None
        assert gm.loop_basis(a, d, len(want)) == want == gm.loop_basis(a, d) == gm.loop_basis(a, d, 0)


# -- supports too deep for a truncation -------------------------------------------------------------

TREE = "root b\nstate b loops=1 children=b,b\n"
RAY = "root s\nstate s loops=1 children=s\n"
# The CLI's (exit code, verdict, witness) at supports 2-12 before this change, recorded on the
# loop tree and on the loop ray: the empty map, the root loop inverted and the first edge wrapped.
RECORDED = {
    "": lambda d: (0, "certified_yes", None),
    "loop .:0 -> [.:0]^-1\n": lambda d: (2, "no", "('loop', '.:0')"),
    "wrap 0 -> [.:0]\n": lambda d: (2, "no", repr(("curve", (0,) * d))),
}


def _forbid_unfold(monkeypatch):
    def unfold_called(*args):
        pytest.fail("a truncation was built")

    monkeypatch.setattr(gm, "unfold", unfold_called)
    monkeypatch.setattr(mc, "unfold", unfold_called)


def _check_id(tmp_path, graph, text):
    (tmp_path / "g.aut").write_text(graph)
    (tmp_path / "f.map").write_text(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = propermaps.cli.main(["check-id", str(tmp_path / "g.aut"), str(tmp_path / "f.map")])
    report = json.loads(out.getvalue())
    return code, report["verdict"], report["depth"], report["witness"]


@pytest.mark.parametrize("body", RECORDED, ids=["empty", "root-loop-inverted", "first-edge-wrapped"])
def test_check_id_on_the_loop_tree_at_support_40(body, monkeypatch, tmp_path):
    _forbid_unfold(monkeypatch)
    code, verdict, witness = RECORDED[body](40)
    assert _check_id(tmp_path, TREE, f"support 40\n{body}") == (code, verdict, 40, witness)


def test_check_id_on_the_loop_ray_at_support_100000(monkeypatch, tmp_path):
    _forbid_unfold(monkeypatch)
    assert _check_id(tmp_path, RAY, "support 100000\n") == (0, "certified_yes", 100000, None)


@pytest.mark.parametrize("depth", range(2, 13))
def test_check_id_at_small_supports_matches_the_recorded_outputs(depth, monkeypatch, tmp_path):
    _forbid_unfold(monkeypatch)
    for graph in (TREE, RAY):
        for body, recorded in RECORDED.items():
            code, verdict, witness = recorded(depth)
            assert _check_id(tmp_path, graph, f"support {depth}\n{body}") == (code, verdict, depth, witness)


# -- the benchmark's check-id ops -------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 5])
def test_workload_check_id_ops_match_their_pins_without_a_truncation(seed, monkeypatch, tmp_path):
    inputs = workloads.make_inputs("maps", seed)
    for rel, text in inputs.files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text)
    monkeypatch.chdir(tmp_path)
    expected = harness.load_expected()
    ops = [op for op in inputs.ops if op.args[0] == "check-id"]
    assert len(ops) > 60
    _forbid_unfold(monkeypatch)
    for op in ops:
        code, output = harness.execute(propermaps, op)
        assert harness.check(op, code, output, expected) is None, op.key
