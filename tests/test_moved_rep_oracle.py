"""Oracle for representatives that keep only the vertices and ends their map moves.

``ProperMapRep.make`` keeps in ``moves`` only the vertices v with vmap[v] != v
and in ``end_moves`` only the live cylinders c with end_action[c] != c.
``is_properly_homotopic_to_identity`` reads only what moves: its end
witness is the least moved cylinder, it skips ``is_inner`` when two loops are
fixed and one moves, and with w = 1 it checks only the frontier vertices that
are moved or lie below a wrapped edge.  The references below are ``make``,
``genus_frontier`` and the criterion from before, kept verbatim (``make``
returns its five dicts instead of a representative, and the criterion reads
the full vertex map and end action through ``full_vmap`` and
``full_end_action``).  Checked:

- verdict, depth and witness on every ``check-id`` map of all six variants of
  the ``maps`` workload and on every ``realize`` representative;
- ``moves`` and ``end_moves`` against the reference's full dicts with their
  identity entries removed, and the verdict, on random maps:
  frontier swaps, wraps at several depths, banded maps with and without an end
  action, and inner maps, some conjugating by a power of one loop;
- the same exception type and message on malformed inputs;
- the two-fixed-letters shortcut against ``st.is_inner``.
"""

import random

from propermaps import graph_model as gm
from propermaps import mapclass as mc
from propermaps import stallings as st
from propermaps import words as W
from propermaps.graph_model import (
    bisimulation_classes,
    cylinders,
    genus,
    loop_reaching_states,
    path_str,
    unfold,
)
from propermaps.mapclass import (
    IDENTITY_OUTSIDE,
    IdentityVerdict,
    InconsistentFrontierError,
    LineRep,
    _moved_class_witness,
)
from tests.conftest import full_end_action, full_vmap
from tests.test_identity_criterion_oracle import MAP_FILES, REALIZE


def ref_make(automaton, depth, vmap=None, loop_images=None, edge_wraps=None, end_action=None, outside=IDENTITY_OUTSIDE):
    """``ProperMapRep.make`` before it kept only moved vertices and ends, verbatim but for its
    last line: (vmap, loop_images, edge_wraps, end_action, outside)."""
    t = unfold(automaton, depth)
    verts = set(t.vertices)
    vm = {v: v for v in verts}
    vm.update(vmap or {})
    if set(vm) != verts or not set(vm.values()) <= verts:
        raise ValueError("vmap must map truncation vertices to truncation vertices")
    if vm[()] != ():
        raise ValueError("representatives fix the root")
    bis = bisimulation_classes(automaton)
    for v, s in t.frontier.items():
        w = vm[v]
        if w not in t.frontier or bis[t.frontier[w]] != bis[s]:
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
    live = frozenset(cylinders(automaton, depth))
    ea = {c: vm[c] for c in live}  # the subtree below c is carried onto the subtree below vmap[c]
    if outside == IDENTITY_OUTSIDE:
        if end_action is not None and dict(end_action) != ea:
            bad = min(c for c in set(ea) | set(end_action) if ea.get(c) != end_action.get(c))
            raise InconsistentFrontierError(f"end action disagrees with vmap at {path_str(bad)}")
    elif not (isinstance(outside, tuple) and outside[0] == "banded"):
        raise ValueError(f"bad outside flag {outside!r}")
    elif end_action is not None:
        ea = dict(end_action)
    if set(ea) != live or set(ea.values()) != live:
        raise ValueError("end action must be a bijection of the live frontier cylinders")
    reach = loop_reaching_states(automaton)
    if outside != IDENTITY_OUTSIDE and any((t.frontier[c] in reach) != (t.frontier[d] in reach) for c, d in ea.items()):
        raise ValueError("end action must preserve the genus end set")
    return vm, li, ew, ea, outside


def ref_genus_frontier(self):
    """``ProperMapRep.genus_frontier`` before it stopped re-sorting the frontier, verbatim."""
    t = self.truncation()
    reach = loop_reaching_states(self.automaton)
    out = []
    for v, s in sorted(t.frontier.items()):
        if any(c in reach for c in self.automaton.children[s]):
            out.append(v)
    return tuple(out)


def ref_is_properly_homotopic_to_identity(f):
    """``is_properly_homotopic_to_identity`` before it read only moved vertices and ends, verbatim
    but for calling ``ref_genus_frontier`` and reading ``full_vmap`` and ``full_end_action``."""
    end_action, vmap = full_end_action(f), full_vmap(f)
    for c in sorted(end_action):
        if end_action[c] != c:
            return IdentityVerdict("no", f.depth, ("end", c))

    rank = genus(f.automaton)
    lids = f.loop_ids()
    genus_front = ref_genus_frontier(f)
    dx_front = f.dx_frontier()

    w = W.EMPTY
    if rank != 0:
        if rank == 1:
            if f.loop_images:  # make keeps only moved loops
                lid = next(lid for lid in lids if lid in f.loop_images)
                return IdentityVerdict("no", f.depth, ("loop", lid))
            values = [f.accumulated_wrap(c) for c in dx_front]
            for c, val in zip(dx_front, values):
                if val != values[0]:
                    return IdentityVerdict("no", f.depth, ("line", LineRep(dx_front[0], W.EMPTY, c)))
        else:
            if f.loop_images:  # no moved loop: the substitution is the identity, w = 1
                w = st.is_inner(f.substitution())
                if w is None:
                    witness = _moved_class_witness(f)
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


def _verdict(v):
    return (v.kind, v.depth, v.witness)


def _assert_same_verdict(f):
    """The criterion on f, compared with the reference."""
    got = _verdict(mc.is_properly_homotopic_to_identity(f))
    assert got == _verdict(ref_is_properly_homotopic_to_identity(f))
    assert f.genus_frontier() == ref_genus_frontier(f)
    return got


def _fields(f):
    return f.moves, f.loop_images, f.edge_wraps, f.end_moves, f.outside


def _moved(fields):
    """The reference's (vmap, loop_images, edge_wraps, end_action, outside) with the identity
    entries of vmap and end_action removed."""
    vm, li, ew, ea, outside = fields
    return {v: w for v, w in vm.items() if v != w}, li, ew, {c: d for c, d in ea.items() if c != d}, outside


def _outcome(build):
    try:
        return build()
    except ValueError as exc:
        return (type(exc), str(exc))


# -- the benchmark's maps and actions ------------------------------------------------------------


def test_check_id_verdicts_match_reference_without_the_full_maps():
    kinds, witnesses = set(), set()
    for _, a, text in MAP_FILES:
        f = mc.parse_map_file(a, text)
        got = mc.is_properly_homotopic_to_identity(f)
        assert _verdict(got) == _verdict(ref_is_properly_homotopic_to_identity(f))
        kinds.add(got.kind)
        witnesses.add(got.witness[0] if got.witness else None)
        ea = full_end_action(f) if not f.is_identity_outside() else None
        assert _moved(ref_make(a, f.depth, f.moves, f.loop_images, f.edge_wraps, ea, f.outside)) == _fields(f)
    assert kinds == {"certified_yes", "no", "unknown"}
    assert {"loop", "curve"} <= witnesses


def test_realize_representatives_match_reference():
    reps = [f for *_, action in REALIZE for f in action.reps.values()]
    assert len(reps) > 50
    moved = 0
    for f in reps:
        _assert_same_verdict(f)
        ea = full_end_action(f) if not f.is_identity_outside() else None
        assert _moved(ref_make(f.automaton, f.depth, f.moves, f.loop_images, f.edge_wraps, ea, f.outside)) == _fields(f)
        moved += bool(f.moves)
    assert moved


# -- random maps ---------------------------------------------------------------------------------

GRAPHS = {
    "cantor": "root b\nstate b loops=0 children=b,b\n",  # rank 0: only the end action counts
    "loop_tree": "root b\nstate b loops=1 children=b,b\n",
    "rays": "root s\nstate s loops=1 children=s,d\nstate d loops=0 children=d\n",  # a loop ray with free rays
    "ray3": "root s\nstate s loops=3 children=s\n",
    "genus1": "root r\nstate r loops=1 children=d,d\nstate d loops=0 children=d\n",
    "genus2": "root r\nstate r loops=0 children=r2,d,d\nstate r2 loops=2 children=d\nstate d loops=0 children=d\n",
    # two finite blobs whose loops lie beyond the support at depth 1: swapping them moves no loop and no end
    "blobs": "root r\nstate r loops=0 children=g,g,d\nstate g loops=0 children=k\nstate k loops=1 children=\nstate d loops=0 children=d\n",
}
DEPTHS = {"cantor": 4, "loop_tree": 3, "rays": 5, "ray3": 4, "genus1": 4, "genus2": 4, "blobs": 3}


def _random_word(rng, lids, n):
    return W.reduce_word([(rng.choice(lids), rng.choice((1, -1))) for _ in range(n)])


def _swap(rng, a, t, bis):
    """A tree automorphism permuting equivalent children at random vertices: (vmap, loop images)."""
    perm = {}
    for v in t.vertices:
        if len(v) == t.depth or rng.random() < 0.6:
            continue
        kids = list(range(len(a.children[t.state[v]])))
        by_class = {}
        for i in kids:
            by_class.setdefault(bis[t.state[v + (i,)]], []).append(i)
        p = list(kids)
        for group in by_class.values():
            shuffled = rng.sample(group, len(group))
            for i, j in zip(group, shuffled):
                p[i] = j
        perm[v] = p
    vm = {(): ()}
    for parent, child in t.tree_edges:
        vm[child] = vm[parent] + (perm.get(parent, range(len(a.children[t.state[parent]])))[child[-1]],)
    li = {t.loop_name[v, k]: W.gen(t.loop_name[vm[v], k]) for v, k in t.loop_edges}
    return vm, li


def _random_case(rng, a, depth):
    """Arguments for ``make``: a composite of swaps, wraps, drags and inner maps, sometimes banded
    and sometimes spoilt by one malformed entry."""
    t = unfold(a, depth)
    lids = list(t.loop_ids)
    bis = bisimulation_classes(a)
    vm, li, ew, ea, outside = {}, {}, {}, None, IDENTITY_OUTSIDE
    for _ in range(rng.randint(1, 3)):
        move = rng.choice(("swap", "wrap", "wrap", "cancel", "inner", "power"))
        if move == "swap":
            vm, li = _swap(rng, a, t, bis)
        elif move == "wrap" and lids:  # an edge at any depth, and sometimes its loops dragged along
            child = rng.choice(t.vertices[1:])
            word = _random_word(rng, lids, rng.randint(1, 2))
            ew[child] = W.mul(ew.get(child, W.EMPTY), word)
            if rng.random() < 0.3:
                for lid, (v, _) in t.loop_at.items():
                    if v[: len(child)] == child:
                        li[lid] = W.conjugate(li.get(lid, W.gen(lid)), word)
        elif move == "cancel" and lids:  # a wrap undone on every edge below: A is 1 again there
            inner = [v for v in t.vertices[1:] if len(v) < depth]
            if inner:
                child = rng.choice(inner)
                word = _random_word(rng, lids, 2)
                ew[child] = W.mul(ew.get(child, W.EMPTY), word)
                for i in range(len(a.children[t.state[child]])):
                    if rng.random() < 0.8:
                        ew[child + (i,)] = W.mul(W.inv(word), ew.get(child + (i,), W.EMPTY))
        elif move in ("inner", "power") and lids:  # w x w^-1 on every loop, A = w on the frontier
            x = rng.choice(lids)
            word = W.gen(x, rng.choice((1, -1, 2))) if move == "power" else _random_word(rng, lids, rng.randint(1, 3))
            li = {lid: W.conjugate(li.get(lid, W.gen(lid)), word) for lid in lids}
            for i in range(len(a.children[a.root])):
                if rng.random() < 0.9:
                    ew[(i,)] = W.mul(word, ew.get((i,), W.EMPTY))
    live = cylinders(a, depth)
    if rng.random() < 0.3:
        outside = mc.banded(rng.randint(1, 2))
        if rng.random() < 0.5:
            ea = {c: vm.get(c, c) for c in live}
            if rng.random() < 0.5 and len(live) > 1:  # a permutation of the ends, maybe of the genus ends too
                c, d = rng.sample(live, 2)
                ea[c], ea[d] = ea[d], ea[c]
    elif rng.random() < 0.2:
        ea = {c: vm.get(c, c) for c in live}
    if rng.random() < 0.35:
        spoil = rng.choice(("outside", "root", "inequivalent", "collide", "end_bijection", "end_disagrees", "loop", "letter"))
        front = sorted(t.frontier)
        if spoil == "outside":
            vm = {**vm, rng.choice(t.vertices): (9,) * (depth + 1)}
        elif spoil == "root":
            vm = {**vm, (): rng.choice(t.vertices[1:])}
        elif spoil == "inequivalent":
            v = rng.choice(front)
            others = [w for w in front if bis[t.state[w]] != bis[t.state[v]]] or [w for w in t.vertices if len(w) < depth]
            vm = {**vm, v: rng.choice(others)}
        elif spoil == "collide" and len(front) > 1:
            v, w = rng.sample(front, 2)
            vm = {**vm, v: vm.get(w, w)}
        elif spoil == "end_bijection" and len(live) > 1:
            outside = mc.banded(1)
            c, d = rng.sample(live, 2)
            ea = {**{e: vm.get(e, e) for e in live}, c: d, d: d}
        elif spoil == "end_disagrees" and len(live) > 1:
            outside = IDENTITY_OUTSIDE
            c, d = rng.sample(live, 2)
            ea = {**{e: vm.get(e, e) for e in live}, c: d, d: c}
        elif spoil == "loop":
            li = {**li, "9/9:9": W.EMPTY}
        elif spoil == "letter" and len(t.vertices) > 1:
            ew = {**ew, t.vertices[1]: W.gen("9/9:9")}
    if rng.random() < 0.5:  # every vertex spelled out, or only the moved ones
        vm = {v: vm.get(v, v) for v in t.vertices} | vm
    else:
        vm = {v: w for v, w in vm.items() if v != w}
    return dict(vmap=vm, loop_images=li, edge_wraps=ew, end_action=ea, outside=outside)


def test_random_maps_match_reference():
    """Every random case builds the same maps, or fails with the same error, and gets the same
    verdict; together they reach every verdict and witness, with w = 1 and with w != 1."""
    seen, errors, moved, banded_given = set(), set(), 0, 0
    for name, text in GRAPHS.items():
        a = gm.parse_automaton(text)
        rng = random.Random(f"moved-rep/{name}")
        for _ in range(150):
            depth = rng.randint(1, DEPTHS[name])
            case = _random_case(rng, a, depth)
            want = _outcome(lambda: ref_make(a, depth, **case))
            got = _outcome(lambda: mc.ProperMapRep.make(a, depth, **case))
            if len(want) == 2:
                assert got == want
                errors.add(" ".join(want[1].split()[:3]))
                continue
            f = got
            kind, _, witness = _assert_same_verdict(f)
            assert _fields(f) == _moved(want)
            assert all(v != w for v, w in f.moves.items()) and all(c != d for c, d in f.end_moves.items())
            w = st.is_inner(f.substitution()) if f.loop_images else W.EMPTY
            seen.add((kind, witness[0] if witness else None, bool(w)))
            moved += bool(f.moves)
            banded_given += case["end_action"] is not None and not f.is_identity_outside()
    assert moved > 20 and banded_given > 20
    assert {
        ("certified_yes", None, False),
        ("certified_yes", None, True),
        ("unknown", None, False),
        ("no", "end", False),
        ("no", "loop", False),
        ("no", "curve", False),
        ("no", "curve", True),
        ("no", "line", False),
        ("no", "line", True),
    } <= seen
    assert {
        "vmap must map",
        "representatives fix the",
        "end action disagrees",
        "end action must",
        "unknown loop 9/9:9",
        "word uses unknown",
    } <= errors and sum(e.startswith("frontier vertex") for e in errors) > 5


# -- the two-fixed-letters shortcut ---------------------------------------------------------------


def _random_automorphism(rng, basis, fixed):
    """A random automorphism moving some letters of ``basis``, fixing the ``fixed`` others:
    Nielsen moves among the moving letters, conjugation by a word in them, or conjugation by
    a power of one letter (which fixes that letter)."""
    moving = [x for x in basis if x not in fixed]
    images = {x: W.gen(x) for x in basis}
    kind = rng.choice(("nielsen", "inner", "power"))
    if kind == "power" and len(fixed) <= 1:
        x = fixed[0] if fixed else rng.choice(basis)
        k = rng.choice((1, -1, 2))
        images = {y: W.conjugate(W.gen(y), W.gen(x, k)) for y in basis}
    elif kind == "inner" and not fixed:
        word = _random_word(rng, list(basis), rng.randint(1, 3))
        images = {y: W.conjugate(W.gen(y), word) for y in basis}
    else:
        for _ in range(rng.randint(1, 4)):
            x = rng.choice(moving)
            if rng.random() < 0.3 or len(moving) == 1:
                images[x] = W.inv(images[x])
            else:
                y = rng.choice([y for y in moving if y != x])
                images[x] = W.mul(images[x], images[y]) if rng.random() < 0.5 else W.mul(images[y], images[x])
    return st.FreeGroupAutomorphism(tuple(basis), images)


def test_two_fixed_letters_leave_no_inner_witness():
    """With two letters fixed and one moved no witness exists, as ``is_inner`` finds; with one
    letter fixed conjugation by its powers is inner, so the shortcut needs two."""
    rng = random.Random("moved-rep/fixed-letters")
    inner_with_one_fixed = 0
    for n_fixed in (0, 1, 2, 3):
        for _ in range(60):
            basis = [f"x{i}" for i in range(rng.randint(max(2, n_fixed + 1), 5))]
            fixed = rng.sample(basis, n_fixed)
            sigma = _random_automorphism(rng, basis, fixed)
            fixes = [x for x in basis if sigma.images[x] == W.gen(x)]
            moves = len(fixes) < len(basis)
            w = st.is_inner(sigma)
            if len(fixes) >= 2 and moves:
                assert w is None
            if len(fixes) == 1 and moves and w is not None:
                inner_with_one_fixed += 1
                assert w and all(x == fixes[0] for x, _ in w)
    assert inner_with_one_fixed
