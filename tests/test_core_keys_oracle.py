"""The core pipeline on carried keys against the code that re-keyed.

The ``ref_*`` functions are verbatim copies of the earlier code (module
names qualified, ``self`` renamed to ``t``): ``f_prime``, which intersects
F(J) with every pushforward, ``f_star``, ``_join``, ``TreeOfGroups.keys``,
``_tog_shape``, ``fold_to_t``, ``_tog_action`` and ``_induces``.  They key
every graph again where the new code reads a key carried with its system or
tree of groups.  ``ref_restrictions`` is the ``restriction_outer`` of every
stabiliser element, the identity included, that ``realize_core_case``
computed before it put the identity on the petal basis in its place.

- On every core variant of the ``realize`` workload and on the actions of
  the tests, F'(J) and F*(J) have the same keys and the same component
  graphs, vertex numbers included; T* and T carry exactly the keys of their
  groups; the scripts, their replays, the shapes and the T* actions agree;
  and the whole realization is the reference pipeline's.  The identity
  element's ``restriction_outer`` to every group of T* is the identity on
  its petal basis.
- F'(J) skips a pushforward equal to the running system (F ∧ F = F).  On
  systems that an element moves -- the twist of
  ``test_f_prime_strictly_smaller`` and seeded involutions that drag a loop
  across the edge of an interval -- the intersection still runs and agrees
  with the reference.
- Counts: a core realization keys at most half as many graphs as the
  re-keying pipeline did, each marking's ν is read once, and the ``ffs``
  path (``parse_ffs_file``, ``intersect_ffs``, CLI ``intersect``) carries no
  keys and no new state on its graphs.
"""

import random

import pytest

from perfbench import workloads
from propermaps import cli
from propermaps import graph_model as gm
from propermaps import mapclass as mc
from propermaps import nielsen as nz
from propermaps import stallings as st
from propermaps import words as W
from tests.conftest import loop_id, make_flip_action
from tests.test_nielsen import _branch_permutation_action, _order8_action

# -- reference implementations ------------------------------------------------------------


def ref_f_prime(ffs_J: st.FreeFactorSystem, action: nz.FiniteGroupAction) -> st.FreeFactorSystem:
    """Intersection of all pushforwards h_*(F(J)); a finite intersection."""
    out = ffs_J
    for g in action.group.elements:
        if g == action.group.identity:
            continue
        out = st.intersect_ffs(out, st.apply_automorphism(action.outer(g), ffs_J))
    return out


def ref_f_star(a, cover, J, action, depth) -> st.FreeFactorSystem:
    """Factors of F'(J) that contain a factor of F(J-); H-invariant for |J| >= 8.

    When J spans every depth up to ``depth``, F(J) is the ambient free
    group, so F*(J) = F(J) at any |J|.
    """
    result = nz.ffs_of_interval(a, cover, J, depth)
    if cover.depth_range(J) != (0, depth):
        fminus = nz.ffs_of_interval(a, cover, cover.minus(J), depth)
        fplus = nz.ffs_of_interval(a, cover, cover.plus(J), depth)
        fp = ref_f_prime(result, action)
        keep = []
        for comp in fp.components:
            target = st.FreeFactorSystem((comp,))
            if any(st.contained_in(st.FreeFactorSystem((b,)), target) for b in fminus.components):
                keep.append(comp)
        result = st.FreeFactorSystem(tuple(keep))
        if not st.contained_in(fminus, result) or not st.contained_in(result, fplus):
            raise nz.InvarianceFailedError("sandwich F(J-) < F*(J) < F(J+) fails")
        if J[1] - J[0] < 8:
            raise ValueError("invariance guarantee needs |J| >= 8")
    keys = result.keys()
    for g in action.group.elements:
        if st.apply_automorphism(action.outer(g), result).keys() != keys:
            raise nz.InvarianceFailedError(f"F*({J}) moved by {g}")
    return result


def ref_join(*graphs: st.LabeledGraph) -> st.LabeledGraph:
    """Subgroup join of conjugacy-class components inside the ambient group."""
    ws = []
    for g in graphs:
        _, petals = g.petals
        ws.extend(word for _, _, word in petals)
    sys = st.FreeFactorSystem.from_graphs([st.LabeledGraph.from_words(ws)])
    if len(sys.components) != 1:
        raise nz.IllegalMoveError("join of groups is not a single factor")
    return sys.components[0]


def ref_keys(t: nz.TreeOfGroups):
    vk = {v: g.canonical_key() for v, g in t.vertex_groups.items()}
    ek = {e: g.canonical_key() for e, g in t.edge_groups.items()}
    return vk, ek


def ref_tog_shape(t: nz.TreeOfGroups) -> tuple[list, list]:
    """The tree up to renaming: the sorted (height, key) of its vertices and
    (low height, edge key, low key, high key) of its edges."""
    vk, ek = ref_keys(t)
    return (
        sorted((t.vertex_heights[v], k) for v, k in vk.items()),
        sorted((t.vertex_heights[lo], ek[e], vk[lo], vk[hi]) for e, (lo, hi) in t.edge_ends.items()),
    )


def ref_fold_to_t(tstar: nz.TreeOfGroups, t: nz.TreeOfGroups, max_rounds: int = 8) -> list[tuple]:
    """Script of IA folds then IIA promotions carrying T* to T; replay-validated."""
    script: list[tuple] = []
    cur = tstar.copy()
    _, t_edge_keys = ref_keys(t)

    # match T* edges to T edges by height and containment
    def t_edge_of(comp: st.LabeledGraph, lo_height: int) -> str:
        hits = []
        for e, (lo, hi) in t.edge_ends.items():
            if t.vertex_heights[lo] == lo_height and st.contained_in(nz._single(comp), nz._single(t.edge_groups[e])):
                hits.append(e)
        if len(hits) != 1:
            raise nz.NoScriptFoundError("T* edge has no unique T image")
        return hits[0]

    # phase 1: IA folds of edges with a common image
    changed = True
    rounds = 0
    while changed:
        changed = False
        rounds += 1
        if rounds > max_rounds + len(cur.edge_ends):
            raise nz.NoScriptFoundError("IA folding failed to stabilize")
        groups: dict[tuple[str, str], list[str]] = {}
        for e, (lo, hi) in cur.edge_ends.items():
            img = t_edge_of(cur.edge_groups[e], cur.vertex_heights[lo])
            groups.setdefault((img, lo), []).append(e)
        for (_, _), es_ in sorted(groups.items()):
            if len(es_) > 1:
                e1, e2 = sorted(es_)[:2]
                script.append(("IA", e1, e2))
                cur = nz.fold_ia(cur, e1, e2)
                changed = True
                break

    # phase 2: IIA promotion of edge groups by pulls from both endpoints
    for _ in range(max_rounds):
        pending = []
        for e, (lo, hi) in sorted(cur.edge_ends.items()):
            img = t_edge_of(cur.edge_groups[e], cur.vertex_heights[lo])
            target_group = t.edge_groups[img]
            if cur.edge_groups[e].canonical_key() == t_edge_keys[img]:
                continue
            for w in (lo, hi):
                inter = st.intersect_ffs(nz._single(cur.vertex_groups[w]), nz._single(target_group))
                if not inter.is_empty():
                    pending.append(("IIA", w, e, inter))
        if not pending:
            break
        for move in pending:
            try:
                cur = nz.pull_iia(cur, move[1], move[2], move[3])
                script.append(move)
            except nz.IllegalMoveError:
                continue
    # phase 3: promote vertex groups by pulling edge groups across
    for _ in range(max_rounds):
        pending = []
        vertex_keys, _ = ref_keys(cur)
        for e, (lo, hi) in sorted(cur.edge_ends.items()):
            for w, far in ((lo, hi), (hi, lo)):
                sub = st.FreeFactorSystem((cur.edge_groups[e],))
                joined = ref_join(cur.vertex_groups[far], *sub.components)
                if joined.canonical_key() != vertex_keys[far]:
                    pending.append(("IIA", w, e, sub))
        if not pending:
            break
        for move in pending:
            try:
                cur = nz.pull_iia(cur, move[1], move[2], move[3])
                script.append(move)
            except nz.IllegalMoveError:
                continue

    t_shape = ref_tog_shape(t)
    if ref_tog_shape(cur) != t_shape:
        raise nz.NoScriptFoundError("move script does not reach T")
    replay = nz.apply_script(tstar, script)
    if ref_tog_shape(replay) != t_shape:
        raise nz.NoScriptFoundError("script replay validation failed")
    return script


def ref_tog_action(ts: nz.TreeOfGroups, action) -> dict[str, dict[str, str]]:
    """Permutation of T* vertices and edges induced by each group element."""
    out: dict[str, dict[str, str]] = {}
    vkeys, ekeys = ref_keys(ts)
    for h in action.group.elements:
        phi = action.outer(h)
        m: dict[str, str] = {}
        for v, g in ts.vertex_groups.items():
            pushed = st.apply_automorphism(phi, nz._single(g)).keys()
            key = pushed[0] if len(pushed) == 1 else None
            hits = [v2 for v2 in ts.vertex_groups if ts.vertex_heights[v2] == ts.vertex_heights[v] and vkeys[v2] == key]
            if len(hits) != 1:
                raise nz.InvarianceFailedError(f"element {h} does not permute the T* vertices")
            m[v] = hits[0]
        for e, g in ts.edge_groups.items():
            pushed = st.apply_automorphism(phi, nz._single(g)).keys()
            key = pushed[0] if len(pushed) == 1 else None
            lo = ts.edge_ends[e][0]
            hits = [
                e2
                for e2 in ts.edge_groups
                if ts.vertex_heights[ts.edge_ends[e2][0]] == ts.vertex_heights[lo] and ekeys[e2] == key
                and ts.edge_ends[e2][0] == m[lo]
            ]
            if len(hits) != 1:
                raise nz.InvarianceFailedError(f"element {h} does not permute the T* edges")
            m[e] = hits[0]
        out[h] = m
    return out


def ref_induces(marked, basis, alpha, target) -> bool:
    """Whether alpha induces the target under the marking ν of ``marked``,
    ν∘ρ∘ν⁻¹ ≃ T, read as ν∘ρ ≃ T∘ν: ν is a basis, so no ν⁻¹ is needed."""
    return st.outer_equal(marked.outer(basis, alpha), target.compose(marked.outer(basis)))


def ref_restrictions(comp, group, action):
    return {h: st.restriction_outer(comp, action.outer(h)) for h in group.elements}


# -- helpers -------------------------------------------------------------------------------


def lid(path, k=0):
    return loop_id(tuple(path), k)


def _graphs(f: st.FreeFactorSystem):
    return [(c.vertices, c.edges, c.basepoint) for c in f.components]


def _assert_same_system(got: st.FreeFactorSystem, want: st.FreeFactorSystem):
    """Same keys, same component graphs with the same vertex numbers, and
    the keys got carries are its components' keys."""
    assert got.keys() == want.keys()
    assert _graphs(got) == _graphs(want)
    assert got.__dict__["_keys"] == tuple(c.canonical_key() for c in got.components)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "raise", type(exc), str(exc)


def _assert_same_outcome(got, want):
    assert got[0] == want[0] and (got[0] == "ok" or got == want), (got, want)
    if got[0] == "ok":
        _assert_same_system(got[1], want[1])


def _assert_carried(t: nz.TreeOfGroups):
    """The tree carries a key for every group, and it is the group's key."""
    assert (t.vertex_keys, t.edge_keys) == ref_keys(t)


def _intervals(cover):
    return list(cover.intervals) + [cover.overlap(i) for i in range(len(cover.intervals) - 1)]


def _check_pipeline(action, cover):
    """F', F*, T*, T, the script, its replay, the shapes and the T* action
    against the references; the identity's restriction to each T* group."""
    a, depth = action.automaton, action.depth
    for J in _intervals(cover):
        F = nz.ffs_of_interval(a, cover, J, depth)
        _assert_same_system(nz.f_prime(F, action), ref_f_prime(F, action))
        _assert_same_outcome(_outcome(nz.f_star, a, cover, J, action, depth), _outcome(ref_f_star, a, cover, J, action, depth))
    ts = nz.build_tree_of_groups(a, cover, action, "T_STAR", depth)
    tt = nz.build_tree_of_groups(a, cover, action, "T", depth)
    _assert_carried(ts)
    _assert_carried(tt)
    script = nz.fold_to_t(ts, tt)
    assert script == ref_fold_to_t(ts, tt)
    replay = nz.apply_script(ts, script)
    _assert_carried(replay)
    assert nz._tog_shape(replay) == ref_tog_shape(replay) == ref_tog_shape(tt)
    assert nz._tog_action(ts, action) == ref_tog_action(ts, action)
    identity = action.outer(action.group.identity)
    for comp in (*ts.vertex_groups.values(), *ts.edge_groups.values()):
        names = [name for _, name, _ in comp.petals[1]]
        assert st.restriction_outer(comp, identity) == st.FreeGroupAutomorphism.identity(names)


def _check_realization(action, cover, monkeypatch):
    """The realization is the reference pipeline's, and every verdict the
    search computes is the reference's."""
    induces, verdicts = nz._induces, []

    def checked_induces(marked, basis, alpha, target, nu=None):
        assert nu is None or nu == marked.outer(basis)
        out = induces(marked, basis, alpha, target, nu)
        assert out == ref_induces(marked, basis, alpha, target)
        verdicts.append(out)
        return out

    with monkeypatch.context() as m:
        m.setattr(nz, "_induces", checked_induces)
        got = nz.realize_core_case(action, cover)
    assert verdicts
    with monkeypatch.context() as m:
        refs = [("f_star", ref_f_star), ("fold_to_t", ref_fold_to_t), ("_tog_action", ref_tog_action), ("_restrictions", ref_restrictions)]
        for name, ref in refs:
            m.setattr(nz, name, ref)
        m.setattr(nz, "_induces", lambda marked, basis, alpha, target, nu=None: ref_induces(marked, basis, alpha, target))
        want = nz.realize_core_case(action, cover)
    assert (got.graph, got.action, got.labels, got.script, got.report) == (want.graph, want.action, want.labels, want.script, want.report)
    for tree in ("t_star", "t"):
        g, w = getattr(got, tree), getattr(want, tree)
        assert (g.vertex_groups, g.edge_groups, g.edge_ends) == (w.vertex_groups, w.edge_groups, w.edge_ends)
    assert {h: v.kind for h, v in got.verdicts.items()} == {h: v.kind for h, v in want.verdicts.items()}


CORE_SLOTS = [slot for slot, kind, _, _ in workloads.REALIZE_SLOTS if kind == "core"]


def _core_variants(slot, tmp_path):
    """(action, cover) of every variant of a core slot of the realize workload."""
    _, _, build, (r_max, intervals, min_overlap) = next(s for s in workloads.REALIZE_SLOTS if s[0] == slot)
    for v in range(workloads.VARIANTS):
        graph, maps, act_text = build(random.Random(f"realize/{slot}/{v}"))
        d = tmp_path / f"v{v}"
        d.mkdir()
        for name, text in maps.items():
            (d / f"{name}.map").write_text(text)
        action = nz.parse_action_file(gm.parse_automaton(graph), act_text, lambda rel: (d / rel).read_text())
        yield action, nz.IntervalCover.make(range(r_max + 1), [tuple(iv) for iv in intervals], min_overlap=min_overlap)


def _test_actions():
    """(name, action, cover) of the core actions of the tests."""
    loop_ray = gm.UnfoldingAutomaton.make("s", {"s": ["s"]}, {"s": 1})
    two_loop_ray = gm.UnfoldingAutomaton.make("s", {"s": ["s"]}, {"s": 2})
    two_branch = gm.UnfoldingAutomaton.make("r", {"r": ["p", "q"], "p": ["p"], "q": ["q"]}, {"r": 1, "p": 1, "q": 1})
    three = gm.UnfoldingAutomaton.make(
        "r", {"r": ["p", "q", "s"], "p": ["p"], "q": ["q"], "s": ["s"]}, {"r": 1, "p": 1, "q": 1, "s": 1}
    )

    def cover(depth, intervals, k):
        return nz.IntervalCover.make(range(depth + 1), intervals, min_overlap=k)

    swap = nz.FiniteGroupAction.make(
        nz.FiniteGroup.cyclic(2),
        {"e": mc.ProperMapRep.identity(two_branch, 14), "g1": _branch_permutation_action(two_branch, 14, {0: 1, 1: 0})},
    )
    rotation = nz.FiniteGroupAction.make(
        nz.FiniteGroup.cyclic(3),
        {
            "e": mc.ProperMapRep.identity(three, 14),
            "g1": _branch_permutation_action(three, 14, {0: 1, 1: 2, 2: 0}),
            "g2": _branch_permutation_action(three, 14, {0: 2, 1: 0, 2: 1}),
        },
    )
    trivial = nz.FiniteGroupAction.make(nz.FiniteGroup.trivial(), {"e": mc.ProperMapRep.identity(loop_ray, 14)})
    return [
        ("trivial-14", trivial, cover(14, [(0, 12), (2, 14)], 10)),
        ("flip-14", make_flip_action(loop_ray, 14), cover(14, [(0, 12), (2, 14)], 10)),
        ("flip-36", make_flip_action(loop_ray, 36), cover(36, [(0, 12), (4, 24), (16, 36)], 8)),
        ("flip-40", make_flip_action(loop_ray, 40), cover(40, [(0, 16), (4, 30), (18, 40)], 10)),
        ("branches-flip-30", make_flip_action(two_branch, 30), cover(30, [(0, 12), (4, 22), (14, 30)], 8)),
        ("order8-14", _order8_action(two_loop_ray, 14)[1], cover(14, [(0, 12), (2, 14)], 10)),
        ("order8-40", _order8_action(two_loop_ray, 40)[1], cover(40, [(0, 16), (4, 30), (18, 40)], 10)),
        ("branch-swap-14", swap, cover(14, [(0, 12), (2, 14)], 10)),
        ("branch-rotation-14", rotation, cover(14, [(0, 12), (2, 14)], 10)),
    ]


TEST_ACTIONS = _test_actions()


# -- the pipeline ------------------------------------------------------------------------------


@pytest.mark.parametrize("slot", CORE_SLOTS)
def test_core_variants_match_the_rekeying_pipeline(slot, tmp_path, monkeypatch):
    variants = 0
    for action, cover in _core_variants(slot, tmp_path):
        _check_pipeline(action, cover)
        _check_realization(action, cover, monkeypatch)
        variants += 1
    assert variants == workloads.VARIANTS


@pytest.mark.parametrize("name, action, cover", TEST_ACTIONS, ids=[name for name, _, _ in TEST_ACTIONS])
def test_test_actions_match_the_rekeying_pipeline(name, action, cover, monkeypatch):
    _check_pipeline(action, cover)
    _check_realization(action, cover, monkeypatch)


def test_toy_trees_fold_as_the_rekeying_script_does():
    """Trees built by hand carry no keys; the folds set the keys of the
    groups they make, and ``keys`` fills in the rest."""
    comp = lambda *gens: st.FreeFactorSystem.from_generator_lists([[W.word_from_str(g) for g in gens]]).components[0]
    tstar = nz.TreeOfGroups(
        "T_STAR",
        {"v0": comp("a", "b", "c"), "v1": comp("a"), "v2": comp("b")},
        {"v0": 0, "v1": 1, "v2": 1},
        {"e1": comp("a"), "e2": comp("b")},
        {"e1": ("v0", "v1"), "e2": ("v0", "v2")},
    )
    t = nz.TreeOfGroups("T", {"v0": comp("a", "b", "c"), "v1": comp("a", "b")}, {"v0": 0, "v1": 1}, {"e": comp("a", "b")}, {"e": ("v0", "v1")})
    script = nz.fold_to_t(tstar, t)
    assert script == ref_fold_to_t(tstar, t) and script[0][0] == "IA"
    folded = nz.fold_ia(tstar, "e1", "e2")
    assert set(folded.edge_keys) == {"e1"} and set(folded.vertex_keys) == {"v1"}
    assert folded.keys() == ref_keys(folded)
    replay = nz.apply_script(tstar, script)
    assert replay.keys() == ref_keys(replay) and nz._tog_shape(replay) == ref_tog_shape(t)


# -- systems that an element moves ------------------------------------------------------------


class _Action:
    """A group with an automorphism per element: all that f_prime and
    f_star read of an action."""

    def __init__(self, group, automaton, depth, outers):
        self.group, self.automaton, self.depth, self._outers = group, automaton, depth, outers

    def outer(self, g):
        return self._outers[g]


def _twist_action(two_loop_ray, depth):
    """x -> x, y -> x y^-1 x at every vertex: an involution moving <y> off itself."""
    li = {}
    for v, k in gm.unfold(two_loop_ray, depth).loop_edges:
        if k == 1:
            li[lid(v, 1)] = W.mul(W.gen(lid(v, 0)), W.gen(lid(v, 1), -1), W.gen(lid(v, 0)))
    tw = mc.ProperMapRep.make(two_loop_ray, depth, loop_images=li)
    return nz.FiniteGroupAction.make(nz.FiniteGroup.cyclic(2), {"e": mc.ProperMapRep.identity(two_loop_ray, depth), "g1": tw})


def _drag(names, rng):
    """An involution x_a -> u x_b u^-1, x_b -> u^-1 x_a u, with u a random
    word in the other letters, so φ(u) = u; a and b lie at different depths."""
    a, b = sorted(rng.sample(range(len(names)), 2))
    others = [x for i, x in enumerate(names) if i not in (a, b)]
    u = W.reduce_word(tuple((rng.choice(others), rng.choice((1, -1))) for _ in range(rng.randint(0, 3))))
    return {names[a]: W.mul(u, W.gen(names[b]), W.inv(u)), names[b]: W.mul(W.inv(u), W.gen(names[a]), u)}


def _compose_outer(phi: st.FreeGroupAutomorphism, psi: st.FreeGroupAutomorphism) -> st.FreeGroupAutomorphism:
    """phi after psi."""
    return st.FreeGroupAutomorphism(phi.basis, {x: phi(psi.images[x]) for x in phi.basis})


def _seeded_drags(loop_ray, depth, seed):
    """A Z/2 action by one seeded drag, certified, and a Klein four-group of two."""
    rng = random.Random(seed)
    t = gm.unfold(loop_ray, depth)
    names = [lid(v, k) for v, k in t.loop_edges]
    drag = mc.ProperMapRep.make(loop_ray, depth, loop_images=_drag(names, rng))
    z2 = nz.FiniteGroupAction.make(nz.FiniteGroup.cyclic(2), {"e": mc.ProperMapRep.identity(loop_ray, depth), "g1": drag})
    ident = st.FreeGroupAutomorphism.identity(tuple(names))
    while True:  # two drags on disjoint letters commute
        first, second = _drag(names, rng), _drag(names, rng)
        if not {x for w in first.values() for x, _ in w} & {x for w in second.values() for x, _ in w} | (set(first) & set(second)):
            break
    a = st.FreeGroupAutomorphism(tuple(names), {**ident.images, **first})
    b = st.FreeGroupAutomorphism(tuple(names), {**ident.images, **second})
    elements = ["e", "a", "b", "ab"]
    table = {("e", x): x for x in elements} | {(x, "e"): x for x in elements}
    table |= {("a", "a"): "e", ("b", "b"): "e", ("ab", "ab"): "e", ("a", "b"): "ab", ("b", "a"): "ab"}
    table |= {("a", "ab"): "b", ("ab", "a"): "b", ("b", "ab"): "a", ("ab", "b"): "a"}
    klein = nz.FiniteGroup.make(elements, table)
    return z2, _Action(klein, loop_ray, depth, {"e": ident, "a": a, "b": b, "ab": _compose_outer(a, b)})


def _spans(depth):
    return [(lo, hi) for lo in range(depth + 1) for hi in range(lo, depth + 1)]


def test_moved_systems_intersect_as_the_reference_does(loop_ray, two_loop_ray, monkeypatch):
    pullback, pullbacks = st.pullback, [0]

    def counting_pullback(g1, g2):
        pullbacks[0] += 1
        return pullback(g1, g2)

    monkeypatch.setattr(st, "pullback", counting_pullback)
    moved = 0

    def check(system, action):
        nonlocal moved
        before = pullbacks[0]
        got = nz.f_prime(system, action)
        ran = pullbacks[0] > before
        want = ref_f_prime(system, action)
        _assert_same_system(got, want)
        moved += ran and got != system

    # the twist: the single-loop systems it moves, and the bands it keeps
    depth = 3
    twist = _twist_action(two_loop_ray, depth)
    letters = [lid(v, k) for v, k in gm.unfold(two_loop_ray, depth).loop_edges]
    for comps in ([[letters[1]]], [[letters[0]], [letters[1]]], [[letters[1], letters[2]]], [[letters[0], letters[3]], [letters[5]]]):
        check(st.FreeFactorSystem.from_generator_lists([[W.gen(x) for x in c] for c in comps]), twist)
    cover = nz.IntervalCover(tuple(range(depth + 1)), ((0, depth),))
    for J in _spans(depth):
        check(nz.ffs_of_interval(two_loop_ray, cover, J, depth), twist)

    # seeded drags across the edges of the bands, alone and two at a time
    depth = 10
    cover = nz.IntervalCover(tuple(range(depth + 1)), ((0, depth),))
    for seed in range(12):
        z2, klein = _seeded_drags(loop_ray, depth, seed)
        for J in _spans(depth):
            F = nz.ffs_of_interval(loop_ray, cover, J, depth)
            check(F, z2)
            check(F, klein)
    assert moved >= 100, moved


def test_f_star_on_moved_systems_matches_the_reference(loop_ray):
    """F*(J) under the seeded drags: the same system or the same refusal."""
    depth = 12
    cover = nz.IntervalCover.make(range(depth + 1), [(0, 10), (2, 12)], min_overlap=8)
    refused = 0
    for seed in range(8):
        for action in _seeded_drags(loop_ray, depth, seed):
            for J in _intervals(cover):
                got = _outcome(nz.f_star, loop_ray, cover, J, action, depth)
                _assert_same_outcome(got, _outcome(ref_f_star, loop_ray, cover, J, action, depth))
                refused += got[0] == "raise"
    assert refused > 0


# -- counts ---------------------------------------------------------------------------------------


def _workload_action(build, depth, tmp_path):
    graph, maps, act_text = build(random.Random(0))
    for name, text in maps.items():
        (tmp_path / f"{name}.map").write_text(text)
    action = nz.parse_action_file(gm.parse_automaton(graph), act_text, lambda rel: (tmp_path / rel).read_text())
    r_max, intervals, min_overlap = workloads._two_intervals(depth)
    return action, nz.IntervalCover.make(range(r_max + 1), [tuple(iv) for iv in intervals], min_overlap=min_overlap)


@pytest.mark.parametrize(
    "case, rekeyed",
    [("flip-d20", 50), ("order8-d14", 86)],
)
def test_core_realization_keys_at_most_half_as_many_graphs(case, rekeyed, tmp_path, monkeypatch):
    """The re-keying pipeline computed 50 and 86 keys on these ops."""
    if case == "flip-d20":
        action, cover = _workload_action(lambda rng: workloads._loop_ray_flip(rng, 20, False), 20, tmp_path)
    else:
        action, cover = _workload_action(lambda rng: workloads._order8(14), 14, tmp_path)
    key, keyed = st.LabeledGraph.canonical_key, []

    def counting_key(g):
        keyed.append(g)
        return key(g)

    monkeypatch.setattr(st.LabeledGraph, "canonical_key", counting_key)
    real = nz.realize_core_case(action, cover)
    assert all(v.kind == "certified_yes" for v in real.verdicts.values())
    assert 0 < len(keyed) <= rekeyed // 2, len(keyed)


def test_each_marking_is_read_once(two_loop_ray, monkeypatch):
    """ν = marked.outer(basis) is read once per marking, though the search
    asks for many verdicts under each."""
    _, action = _order8_action(two_loop_ray, 14)
    cover = nz.IntervalCover.make(range(15), [(0, 12), (2, 14)], min_overlap=10)
    outer, reads, verdicts = nz.MarkedGraph.outer, [], [0]
    induces = nz._induces

    def counting_outer(marked, basis, alpha=None):
        if alpha is None:
            reads.append(marked)
        return outer(marked, basis, alpha)

    def counting_induces(*args):
        verdicts[0] += 1
        return induces(*args)

    monkeypatch.setattr(nz.MarkedGraph, "outer", counting_outer)
    monkeypatch.setattr(nz, "_induces", counting_induces)
    nz.realize_core_case(action, cover)
    assert len(reads) == len({id(m) for m in reads})
    assert verdicts[0] > len(reads) > 1


FIELDS = {"vertices", "edges", "basepoint"}
LAZY = {"_index", "petals"}  # the adjacency index and the petal memo, as before keys were carried


def test_ffs_path_carries_no_keys(tmp_path, capsys, monkeypatch):
    """``parse_ffs_file`` and ``intersect_ffs`` hand back systems without
    keys, and no graph on the CLI ``intersect`` path holds a key."""
    texts = ["a\nb\n---\ncdC\n", "ab\nBa\n---\nc\nDcd\n"]
    f1, f2 = (st.parse_ffs_file(t) for t in texts)
    inter = st.intersect_ffs(f1, f2)
    for f in (f1, f2, inter):
        assert "_keys" not in f.__dict__
    key, keyed = st.LabeledGraph.canonical_key, []

    def recording_key(g):
        keyed.append(g)
        return key(g)

    monkeypatch.setattr(st.LabeledGraph, "canonical_key", recording_key)
    paths = []
    for i, text in enumerate(texts):
        paths.append(tmp_path / f"f{i}.ffs")
        paths[-1].write_text(text)
    assert cli.main(["intersect", *map(str, paths)]) == 0
    capsys.readouterr()
    assert keyed
    for g in keyed:
        assert set(g.__dict__) <= FIELDS | LAZY, sorted(g.__dict__)
        assert key(g) not in g.__dict__.values()
