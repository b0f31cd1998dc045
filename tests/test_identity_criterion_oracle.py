"""Oracle for the identity criterion on representatives that keep only moved loops.

``ProperMapRep.make`` keeps in ``loop_images`` only the loops whose reduced
image is not their generator; ``parse_map_file`` checks a ``loop X -> [X]``
record without reading its word; ``is_properly_homotopic_to_identity`` and
``_moved_class_witness`` look only at moved loops and at curves through one.
The references below are the criterion, the witness scan and the reading of
loop records from before, kept verbatim.  Checked, for verdict, depth and
witness alike:

- every ``check-id`` map of all six variants of the ``maps`` workload;
- every representative of every ``realize`` variant;
- random flips, permutations and drags on loop rays, a loop tree and graphs
  of genus 1 and 2 with free rays, with their fixed loops spelled out and
  left out.

On the same maps ``loop_word`` must agree with the old reader for every
loop id, and ``make`` given every generator image explicitly must build the
representative it builds without them.
"""

import random

import pytest

from perfbench import workloads
from propermaps import graph_model as gm
from propermaps import mapclass as mc
from propermaps import nielsen as nz
from propermaps import stallings as st
from propermaps import words as W
from propermaps.end_space import is_ancestor
from propermaps.graph_model import genus
from propermaps.mapclass import IdentityVerdict, LineRep
from tests.conftest import full_end_action, full_vmap


def ref_moved_class_witness(f):
    """``_moved_class_witness`` before it skipped fixed loops, verbatim."""
    lids = f.loop_ids()
    images = f.substitution().images
    for lid in lids:
        if not W.is_conjugate(images[lid], W.gen(lid)):
            return ("loop", lid)
    inverses = {x: W.inv(images[x]) for x in lids}
    for x in lids:
        for y in lids:
            if x >= y:
                continue
            for sx in (1, -1):
                wd = ((x, sx), (y, 1))
                if not W.is_conjugate(W.mul(images[x] if sx > 0 else inverses[x], images[y]), wd):
                    return ("curve", wd)
    return None


def ref_is_properly_homotopic_to_identity(f):
    """``is_properly_homotopic_to_identity`` before it read only moved loops, verbatim but for
    reading the full vertex map and end action through ``full_vmap`` and ``full_end_action``."""
    end_action, vmap = full_end_action(f), full_vmap(f)
    for c in sorted(end_action):
        if end_action[c] != c:
            return IdentityVerdict("no", f.depth, ("end", c))

    rank = genus(f.automaton)
    lids = f.loop_ids()
    genus_front = f.genus_frontier()
    dx_front = f.dx_frontier()

    w = W.EMPTY
    if rank != 0:
        if rank == 1:
            for lid in lids:
                if f.loop_word(lid) != W.gen(lid):
                    return IdentityVerdict("no", f.depth, ("loop", lid))
            values = [f.accumulated_wrap(c) for c in dx_front]
            for c, val in zip(dx_front, values):
                if val != values[0]:
                    return IdentityVerdict("no", f.depth, ("line", LineRep(dx_front[0], W.EMPTY, c)))
        else:
            if lids:
                w = st.is_inner(f.substitution())
                if w is None:
                    witness = ref_moved_class_witness(f)
                    return IdentityVerdict("no", f.depth, witness or ("curve", None))
            for c in genus_front:  # a moved piece of genus beyond c moves its curves too
                if vmap[c] != c or f.accumulated_wrap(c) != w:
                    return IdentityVerdict("no", f.depth, ("curve", c))
            for c in dx_front:
                if f.accumulated_wrap(c) != w:
                    anchor = dx_front[0]
                    return IdentityVerdict("no", f.depth, ("line", LineRep(anchor, W.EMPTY, c)))

    if f.is_identity_outside():
        return IdentityVerdict("certified_yes", f.depth)
    return IdentityVerdict("unknown", f.depth)


def ref_loop_records(text):
    """The loop records of a map file as the reader took them before, verbatim: every target
    through ``_word_on_line``."""
    records = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "loop":
            src, _, dst = line[len(kind) :].partition("->")
            if src.strip() in records:
                raise ValueError(f"line {lineno}: repeated {kind} source {src.strip()}")
            records[src.strip()] = st._word_on_line(lineno, dst)
    return records


# -- the benchmark's maps and actions ------------------------------------------------------------


def _maps_workload_files():
    """(key, automaton, map file text) of every check-id op of every variant."""
    graphs, out = {}, []
    for v in range(workloads.VARIANTS):
        inputs = workloads.WORKLOADS["maps"](lambda slot: v)
        for op in inputs.ops:
            if op.command == "check-id":
                graph, map_file = op.args[1:]
                a = graphs.setdefault(graph, gm.parse_automaton(inputs.files[graph]))
                out.append((op.key, a, inputs.files[map_file]))
    return out


def _realize_cases():
    """(key, automaton, map file texts, action) of every variant of every realize slot, each
    distinct case of a slot once."""
    seen = {}
    for slot, _, build, _ in workloads.REALIZE_SLOTS:
        for v in range(workloads.VARIANTS):
            graph, maps, act_text = build(random.Random(f"realize/{slot}/{v}"))
            key = (slot, graph, tuple(sorted(maps.items())), act_text)
            if key not in seen:
                a = gm.parse_automaton(graph)
                action = nz.parse_action_file(a, act_text, lambda rel: maps[rel.removesuffix(".map")])
                seen[key] = (f"{slot}/v{v}", a, list(maps.values()), action)
    return list(seen.values())


MAP_FILES = _maps_workload_files()
REALIZE = _realize_cases()
WORKLOAD_FILES = [(a, text) for _, a, text in MAP_FILES] + [(a, text) for _, a, texts, _ in REALIZE for text in texts]
WORKLOAD_REPS = [mc.parse_map_file(a, text) for _, a, text in MAP_FILES] + [
    f for *_, action in REALIZE for f in action.reps.values()
]


def _assert_same_verdict(f):
    got = mc.is_properly_homotopic_to_identity(f)
    want = ref_is_properly_homotopic_to_identity(f)
    assert (got.kind, got.depth, got.witness) == (want.kind, want.depth, want.witness)
    return want


def _assert_loops_read_as_before(a, text):
    f = mc.parse_map_file(a, text)
    records = ref_loop_records(text)
    for lid in f.loop_ids():
        assert f.loop_word(lid) == W.reduce_word(records.get(lid, W.gen(lid)))
    assert all(word != W.gen(lid) for lid, word in f.loop_images.items())
    return f, records


def _assert_make_ignores_generator_images(f):
    spelled = {lid: f.loop_word(lid) for lid in f.loop_ids()}
    for images in (spelled, f.loop_images):
        g = mc.ProperMapRep.make(f.automaton, f.depth, full_vmap(f), images, f.edge_wraps, full_end_action(f), f.outside)
        assert g.loop_images == f.loop_images
        assert (g.moves, g.edge_wraps, g.end_moves, g.outside) == (f.moves, f.edge_wraps, f.end_moves, f.outside)


def test_workloads_cover_every_variant():
    assert len({key.rsplit("/v", 1)[0] for key, *_ in MAP_FILES}) * workloads.VARIANTS == len(MAP_FILES)
    assert {key.rsplit("/v", 1)[0] for key, *_ in REALIZE} == {slot for slot, *_ in workloads.REALIZE_SLOTS}


def test_verdicts_match_reference_on_every_workload_map():
    kinds, witnesses = set(), set()
    for f in WORKLOAD_REPS:
        want = _assert_same_verdict(f)
        kinds.add(want.kind)
        witnesses.add(want.witness[0] if want.witness else None)
    assert kinds == {"certified_yes", "no", "unknown"}
    assert {"loop", "curve"} <= witnesses


def test_loop_words_match_the_old_reader_on_every_workload_file():
    fixed = 0
    for a, text in WORKLOAD_FILES:
        _, records = _assert_loops_read_as_before(a, text)
        fixed += sum(word == W.gen(lid) for lid, word in records.items())
    assert fixed  # the workload spells fixed loops out


def test_make_ignores_explicit_generator_images_on_every_workload_rep():
    for f in WORKLOAD_REPS:
        _assert_make_ignores_generator_images(f)


# -- random maps ---------------------------------------------------------------------------------

GRAPHS = {
    "ray1": "root s\nstate s loops=1 children=s\n",
    "ray2": "root s\nstate s loops=2 children=s\n",
    "ray3": "root s\nstate s loops=3 children=s\n",
    "tree": "root b\nstate b loops=1 children=b,b\n",
    "genus1": "root r\nstate r loops=1 children=d,d\nstate d loops=0 children=d\n",  # rank 1, two DX ends
    "genus2": "root r\nstate r loops=0 children=r2,d\nstate r2 loops=2 children=d\nstate d loops=0 children=d\n",  # rank 2
}
WITNESSES = {"genus1": {"loop", "line"}, "genus2": {"loop", "line"}}  # the kinds each graph must show


def _random_map_text(rng, a, depth):
    """A map file of flips, permutations, twists, drags and inner automorphisms on ``a``'s
    support-``depth`` truncation, with each fixed loop spelled out (as ``[X]`` or unreduced)
    or left out at random; returns (that text, the text with every fixed loop left out)."""
    t = gm.unfold(a, depth)
    lids = list(t.loop_ids)
    images = {x: W.gen(x) for x in lids}
    wraps = {}
    for _ in range(rng.randint(0, 3)):
        move = rng.choice(("flip", "permute", "twist", "drag", "drag", "inner"))
        if move == "flip" and lids:
            for x in rng.sample(lids, rng.randint(1, len(lids))):
                images[x] = W.inv(images[x])
        elif move == "permute" and len(lids) > 1:
            xs = rng.sample(lids, rng.randint(2, min(4, len(lids))))
            ys = xs[1:] + xs[:1]
            images.update({x: images[y] for x, y in zip(xs, ys)})
        elif move == "twist" and len(lids) > 1:  # one loop conjugated by another: every loop's class stays
            x, y = rng.sample(lids, 2)
            images[y] = W.conjugate(images[y], W.gen(x, rng.choice((1, -1))))
        elif move == "drag" and len(t.vertices) > 1:
            child = rng.choice(t.vertices[1:])
            behind = [x for x in lids if not is_ancestor(child, t.loop_at[x][0])]
            w = W.reduce_word([(rng.choice(behind), rng.choice((1, -1))) for _ in range(rng.randint(1, 3))]) if behind else W.EMPTY
            for x in lids:
                if is_ancestor(child, t.loop_at[x][0]):
                    images[x] = W.conjugate(images[x], w)
            if rng.random() < 0.6:
                wraps[child] = W.mul(wraps.get(child, W.EMPTY), w)
        elif move == "inner" and lids:
            w = W.reduce_word([(rng.choice(lids), rng.choice((1, -1))) for _ in range(rng.randint(1, 2))])
            images = {x: W.conjugate(img, w) for x, img in images.items()}
            if rng.random() < 0.5 and len(t.vertices) > 1:
                wraps[t.vertices[1]] = W.mul(w, wraps.get(t.vertices[1], W.EMPTY))
    head = [f"support {depth}"]
    tail = [f"wrap {gm.path_str(c)} -> {W.word_to_str(w)}" for c, w in wraps.items() if w]
    if rng.random() < 0.2:
        tail.append(f"outside banded {rng.randint(1, 2)}")
    moved = [f"loop {x} -> {W.word_to_str(images[x])}" for x in lids if images[x] != W.gen(x)]
    spelled = []
    for x in lids:
        if images[x] != W.gen(x):
            spelled.append(f"loop {x} -> {W.word_to_str(images[x])}")
        elif rng.random() < 0.5:
            spelled.append(rng.choice((f"loop {x} -> [{x}]", f"loop  {x}->[{x}]  ", f"loop {x} -> [{x}][{x}]^-1[{x}]")))
    rng.shuffle(spelled)
    return "\n".join(head + spelled + tail) + "\n", "\n".join(head + moved + tail) + "\n"


@pytest.mark.parametrize("name", list(GRAPHS))
def test_random_maps_match_reference(name):
    a = gm.parse_automaton(GRAPHS[name])
    rng = random.Random(f"identity-criterion/{name}")
    kinds, witnesses, fixed = set(), set(), 0
    for _ in range(40):
        spelled, sparse = _random_map_text(rng, a, rng.randint(0, 6 if name != "tree" else 3))
        f, records = _assert_loops_read_as_before(a, spelled)
        g, _ = _assert_loops_read_as_before(a, sparse)
        assert f.loop_images == g.loop_images and f.edge_wraps == g.edge_wraps
        fixed += sum(word == W.gen(lid) for lid, word in records.items())
        want = _assert_same_verdict(f)
        assert _assert_same_verdict(g) == want
        _assert_make_ignores_generator_images(f)
        kinds.add(want.kind)
        witnesses.add(want.witness[0] if want.witness else None)
    assert fixed and {"certified_yes", "no"} <= kinds
    assert witnesses >= WITNESSES.get(name, {"loop", "curve"})
