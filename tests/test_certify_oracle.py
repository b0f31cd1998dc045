"""Certification read off the representatives against compose and invert.

``ref_certify`` is a verbatim copy of the earlier ``FiniteGroupAction.certify``
(``self`` renamed ``action``), but for taking ``compose`` and
``rigid_inverse`` from their reference copies: for each generator row it
builds rep(g)∘rep(h) with ``ref_compose``, composes it with
``ref_rigid_inverse`` of rep(gh), and asks the identity criterion of the
result.  ``FiniteGroupAction.certify`` reads each relation off the end
actions, substitutions and frontier wraps with ``mapclass.composes_to``;
both must accept the same actions and reject the others with the same
error.  Every case also runs with its representatives shuffled over the
group elements, which breaks most relations, and with its representatives
extended one and two levels deeper, which must not change the outcome.
"""

import random

import pytest

from propermaps import graph_model as gm
from propermaps import mapclass as mc
from propermaps import nielsen as nz
from propermaps import stallings as st
from propermaps import words as W
from tests.conftest import full_end_action, full_vmap
from tests.test_nielsen import _order8_action, _swap_branch_action, lid
from tests.test_nielsen_ray_oracle import (
    _loop_inverting_drag,
    _palindromic_drags,
    _swapped_core_with_rays,
    _twisted_swap_branch_action,
)
from tests.test_one_derivation_oracle import ref_compose, ref_rigid_inverse
from tests.test_tree_pipeline_oracle import _twisted_rotation

# -- reference: certification through composites --------------------------------------------


def ref_certify(action):
    """Check every relation g∘h = k at the level of proper homotopy classes.

    Generator rows suffice: from rep(e) ≃ id and rep(s)∘rep(h) ≃ rep(sh),
    induction on word length gives rep(g)∘rep(h) ≃ rep(gh) for all g.
    """
    ident = action.reps[action.group.identity]
    if not mc.is_properly_homotopic_to_identity(ident):
        raise ValueError("identity element representative is not certified trivial")
    inverses = {}
    for g in action.group.elements:
        inv = ref_rigid_inverse(action.reps[g])
        if inv is None:
            raise ValueError(f"representative of {g} has no rigid inverse")
        inverses[g] = inv
    for g in nz._generating_subset(action.group):
        for h in action.group.elements:
            k = action.group.mult[(g, h)]
            comp = ref_compose(action.reps[h], action.reps[g])  # h first, then g
            diff = ref_compose(comp, inverses[k])
            if not mc.is_properly_homotopic_to_identity(diff):
                raise ValueError(f"relation {g}*{h}={k} fails certification")


# -- the actions ---------------------------------------------------------------------------------

LOOP_RAY = gm.UnfoldingAutomaton.make("s", {"s": ["s"]}, {"s": 1})
TWO_LOOP_RAY = gm.UnfoldingAutomaton.make("s", {"s": ["s"]}, {"s": 2})
CANTOR = gm.UnfoldingAutomaton.make("b", {"b": ["b", "b"]}, {"b": 0})
GENUS_1 = gm.UnfoldingAutomaton.make("r", {"r": ["b", "b"], "b": ["b", "b"]}, {"r": 1, "b": 0})
GENUS_2 = gm.UnfoldingAutomaton.make("r", {"r": ["b", "b"], "b": ["b", "b"]}, {"r": 2, "b": 0})
# four branches whose loops start at depth 2; the whole genus lies beyond depth 1
LATE_LOOPS = gm.UnfoldingAutomaton.make("r", {"r": ["a"] * 4, "a": ["b"], "b": ["b"]}, {"r": 0, "a": 0, "b": 1})
# the same with finite branches: one loop at depth 2 each, and no ends
LATE_GENUS = gm.UnfoldingAutomaton.make("r", {"r": ["a"] * 4, "a": ["b"], "b": []}, {"r": 0, "a": 0, "b": 1})
# construction refused: an IDENTITY_OUTSIDE map's end action is vmap on the live frontier
REFUSED = "end action disagrees with vmap"


def _cyclic(reps):
    group = nz.FiniteGroup.cyclic(len(reps))
    return group, dict(zip(group.elements, reps))


def _flip(a, depth, rng=None, **kw):
    """Z/2 inverting every loop, or a random nonempty subset of them."""
    loops = [lid(v, k) for v, k in sorted(gm.unfold(a, depth).loop_edges)]
    if rng is not None:
        loops = rng.sample(loops, rng.randint(1, len(loops)))
    g1 = mc.ProperMapRep.make(a, depth, loop_images={x: W.gen(x, -1) for x in loops}, **kw)
    return _cyclic([mc.ProperMapRep.identity(a, depth), g1])


def _branch_rotation(n, depth, flip, branch_loops=1):
    """Z/n rotating n branches, loop rays or (without ``branch_loops``) plain
    rays, under a loop at the root; with ``flip`` a non-identity element
    inverts every loop."""
    a = gm.UnfoldingAutomaton.make("r", {"r": [f"p{i}" for i in range(n)], **{f"p{i}": [f"p{i}"] for i in range(n)}},
                                   {"r": 1, **{f"p{i}": branch_loops for i in range(n)}})
    t = gm.unfold(a, depth)
    reps = []
    for shift in range(n):
        def move(v):
            return ((v[0] + shift) % n,) + v[1:] if v else v

        li = {lid(v, k): W.gen(lid(move(v), k), -1 if flip and shift else 1) for v, k in t.loop_edges}
        reps.append(mc.ProperMapRep.make(a, depth, vmap={v: move(v) for v in t.vertices}, loop_images=li))
    return _cyclic(reps)


def _tree_rotation(rng, arity, depth):
    """Z/arity rotating the root's children of the regular tree, twisted below."""
    a, elements = _twisted_rotation(rng, arity, depth)
    reps = []
    for perm in elements.values():
        vmap = {v: perm[v + (0,) * (depth - len(v))][: len(v)] for v in gm.unfold(a, depth).vertices}
        reps.append(mc.ProperMapRep.make(a, depth, vmap=vmap))
    return _cyclic(reps)


def _conjugated(f, w, first_edges):
    """f followed by the drag of the base point around w: every loop image
    conjugated by w, w prepended to the wraps of the edges at the root."""
    li = {x: W.conjugate(f.loop_word(x), w) for x in f.loop_ids()}
    ew = dict(f.edge_wraps)
    ew.update({e: W.mul(w, f.wrap(e)) for e in first_edges})
    return mc.ProperMapRep.make(f.automaton, f.depth, f.moves, li, ew, full_end_action(f))


def _with(reps, name, **changes):
    """reps with reps[name] remade with some fields changed."""
    f = reps[name]
    fields = dict(vmap=f.moves, loop_images=f.loop_images, edge_wraps=f.edge_wraps, end_action=full_end_action(f),
                  outside=f.outside)
    fields.update(changes)
    return {**reps, name: mc.ProperMapRep.make(f.automaton, f.depth, **fields)}


def _at_depths(group, reps, depths):
    return group, {g: mc.extend(reps[g], depths.get(g, reps[g].depth)) for g in reps}


def _order8(depth):
    act = _order8_action(TWO_LOOP_RAY, depth)[1]
    return act.group, dict(act.reps)


def _swap(a, depth, sigma, wraps, ea=None):
    """Z/2 swapping the root's two children, with loop images and wraps."""
    t = gm.unfold(a, depth)
    vmap = {v: ((1 - v[0],) + v[1:]) if v else v for v in t.vertices}
    g1 = mc.ProperMapRep.make(a, depth, vmap=vmap, loop_images=sigma, edge_wraps=wraps, end_action=ea)
    return _cyclic([mc.ProperMapRep.identity(a, depth), g1])


def _turn(v, by):
    """Turn the first step of a path among four branches."""
    return ((v[0] + by) % 4,) + v[1:] if v else v


def _late_loops_rotation():
    """Z/4 turning the four branches of LATE_LOOPS at depth 2.  Each element's
    end action is its vmap on the frontier (an end action or endmap record
    that disagrees is refused; only banded maps carry one of their own), so
    each relation k = g∘f meets F(c) = k(c) at every frontier vertex whose
    wraps it compares."""
    a, depth = LATE_LOOPS, 2
    t = gm.unfold(a, depth)
    x = [lid((i, 0)) for i in range(4)]
    # wraps sigma(t(c))^-1 t(s(c)) for t = x0 at (0,0), a coboundary, so s^4 drags nothing
    s = mc.ProperMapRep.make(
        a, depth, vmap={v: _turn(v, 1) for v in t.vertices}, loop_images={x[i]: W.gen(x[(i + 1) % 4]) for i in range(4)},
        edge_wraps={(0, 0): W.gen(x[1], -1), (3, 0): W.gen(x[0])},
    )
    s2 = ref_compose(s, s)
    return _cyclic([mc.ProperMapRep.identity(a, depth), s, s2, ref_compose(s2, s)])


def _late_genus_rotation(turns=(0, 1, 2, 3)):
    """Z/4 on LATE_GENUS at depth 1, element i turning the finite branches by
    turns[i].  Every loop lies beyond the support and no frontier vertex is
    live, so only vmap on the genus frontier tells the turns apart."""
    t = gm.unfold(LATE_GENUS, 1)
    return _cyclic([mc.ProperMapRep.make(LATE_GENUS, 1, vmap={v: _turn(v, by) for v in t.vertices}) for by in turns])


def _cases():
    """(name, group, reps, expected error text or None)."""
    rng = random.Random(20260)
    ok = None
    bad_relation = "fails certification"
    no_inverse = "has no rigid inverse"
    not_trivial = "identity element representative is not certified trivial"
    cases = []
    for depth in range(14, 27, 2):
        cases.append((f"flip-d{depth}", *_flip(LOOP_RAY, depth), ok))
        cases.append((f"flip-subset-d{depth}", *_flip(LOOP_RAY, depth, rng), ok))
    for flip in (False, True):
        cases.append((f"branch2-d14-flip{int(flip)}", *_branch_rotation(2, 14, flip), ok))
    cases.append(("branch3-d14", *_branch_rotation(3, 14, False), ok))
    cases.append(("branch3-d14-flip", *_branch_rotation(3, 14, True), bad_relation))
    cases.append(("order8-d14", *_order8(14), ok))
    for arity, depths in ((2, (4, 5, 6, 7, 8)), (3, (3, 4))):
        for depth in depths:
            cases.append((f"tree{arity}-d{depth}", *_tree_rotation(rng, arity, depth), ok))
    for depth in (3, 4, 5):
        act = _swap_branch_action(depth)[1]
        cases.append((f"swap-branch-d{depth}", act.group, dict(act.reps), ok))
        act = _twisted_swap_branch_action(depth, depth)
        cases.append((f"swap-branch-d{depth}-twisted", act.group, dict(act.reps), ok))
    for name, act in (("swapped-core-with-rays", _swapped_core_with_rays()), ("palindromic-drags", _palindromic_drags()),
                      ("loop-inverting-drag", _loop_inverting_drag(3))):
        cases.append((name, act.group, dict(act.reps), ok))

    # rank >= 2 maps changed by an inner automorphism, wraps matching or not
    group, reps = _order8(6)
    w = W.mul(W.gen(lid(())), W.gen(lid((0,), 1)))
    for g in ("p01smp", "p10spp"):  # a generator and an element that is not one
        assert st.outer_conjugator(_conjugated(reps[g], w, [(0,)]).substitution(), reps[g].substitution()) == w
        cases.append((f"order8-d6-{g}-conjugated", group, {**reps, g: _conjugated(reps[g], w, [(0,)])}, ok))
        cases.append((f"order8-d6-{g}-conjugated-unwrapped", group, {**reps, g: _conjugated(reps[g], w, [])}, bad_relation))
    x0, x1 = W.gen(lid(())), W.gen(lid((), 1))
    group, reps = _swap(GENUS_2, 3, {lid(()): x1, lid((), 1): x0}, {(0,): x0, (1,): W.inv(x1)})
    cases.append(("genus2-swap", group, reps, ok))
    cases.append(("genus2-swap-conjugated", group, {**reps, "g1": _conjugated(reps["g1"], W.mul(x0, x1), [(0,), (1,)])}, ok))
    cases.append(("genus2-swap-perturbed", *_swap(GENUS_2, 3, {lid(()): x1, lid((), 1): x0}, {(0,): x0, (1,): x1}),
                  bad_relation))

    # genus 1: the loop's images must agree and D be constant on the DX frontier
    x = W.gen(lid(()))
    cases.append(("genus1-swap-inverting", *_swap(GENUS_1, 3, {lid(()): W.inv(x)}, {(0,): x, (1,): x}), ok))
    cases.append(("genus1-swap-one-wrap", *_swap(GENUS_1, 3, {}, {(0,): x}), ok))
    cases.append(("genus1-swap-inverting-one-wrap", *_swap(GENUS_1, 3, {lid(()): W.inv(x)}, {(0,): x}), bad_relation))
    cases.append(("genus1-rotation3-inverting", *_branch_rotation(3, 3, True, branch_loops=0), bad_relation))
    cases.append(("genus1-swap-deep-wrap", *_swap(GENUS_1, 3, {}, {(0, 1, 1): x}), bad_relation))

    # perturbed frontier wraps
    group, reps = _flip(LOOP_RAY, 14)
    front = (0,) * 14
    xr, xf = W.gen(lid(())), W.gen(lid(front))
    cases.append(("flip-d14-wrap-cancels", group, _with(reps, "g1", edge_wraps={front: xr}), ok))
    cases.append(("flip-d14-wrap-perturbed", group, _with(reps, "g1", edge_wraps={front: W.mul(xr, xf)}), bad_relation))
    group, reps = _order8(6)
    cases.append(("order8-d6-wrap-perturbed", group, _with(reps, "p10spp", edge_wraps={(0,) * 6: xr}), bad_relation))

    # representatives without a rigid inverse
    t = gm.unfold(CANTOR, 3)
    cyls = gm.cylinders(CANTOR, 3)
    group, reps = _swap(CANTOR, 3, {}, {})
    collapse = {**full_vmap(reps["g1"]), (1,): (1,)}  # both children of the root onto one; the ends still swap
    cases.append(("cantor-d3-non-bijective", group, _with(reps, "g1", vmap=collapse), no_inverse))
    group, reps = _flip(LOOP_RAY, 2)
    cases.append(("flip-d2-banded", group, _with(reps, "g1", outside=mc.banded(1)), no_inverse))
    cases.append(("flip-d2-square", group, _with(reps, "g1", loop_images={lid(()): W.power(xr, 2)}), no_inverse))
    one_loop = gm.UnfoldingAutomaton.make("r", {"r": ["s"], "s": ["s"]}, {"r": 1, "s": 1})
    cases.append(("one-loop-truncation-flip", *_flip(one_loop, 0), ok))
    group, reps = _flip(one_loop, 0)
    cases.append(("one-loop-truncation-square", group, _with(reps, "g1", loop_images={lid(()): W.power(xr, 2)}),
                  no_inverse))

    # end actions that disagree with the vertex maps: the representatives are refused
    cases.append(("cantor-d3-swap-fixing-ends", None, lambda: _swap(CANTOR, 3, {}, {}, {c: c for c in cyls}), REFUSED))
    cases.append(("cantor-d3-ends-swapped-alone", None,
                  lambda: _with(_swap(CANTOR, 3, {}, {})[1], "g1", vmap={v: v for v in t.vertices}), REFUSED))
    # relations read vmap where the end action is silent: on a genus frontier without ends
    cases.append(("late-loops-rotation", *_late_loops_rotation(), ok))
    cases.append(("late-genus-rotation", *_late_genus_rotation(), ok))
    cases.append(("late-genus-square-fixing", *_late_genus_rotation((0, 1, 0, 3)), bad_relation))
    cases.append(("late-genus-identity-turned", *_late_genus_rotation((2, 1, 0, 3)), not_trivial))

    # representatives at different depths, extended to the deepest of each relation
    cases.append(("flip-e-d10-g1-d14", *_at_depths(*_flip(LOOP_RAY, 10), {"g1": 14}), ok))
    cases.append(("order8-generators-d6", *_at_depths(*_order8(4), {"p01smp": 6, "p10smm": 6}), ok))
    cases.append(("tree2-e-d3-g1-d5", *_at_depths(*_tree_rotation(rng, 2, 3), {"g1": 5}), ok))
    cases.append(("cantor-swap-fixing-ends-e-d5", None,
                  lambda: _at_depths(*_swap(CANTOR, 3, {}, {}, {c: c for c in cyls}), {"e": 5}), REFUSED))
    group, reps = _swap(GENUS_1, 3, {}, {(0,): x})
    cases.append(("genus1-one-wrap-e-d5", *_at_depths(group, reps, {"e": 5}), ok))
    return cases


CASES = _cases()
BUILT = [case for case in CASES if case[3] != REFUSED]


def _permuted(group, reps, rng):
    images = list(reps.values())
    rng.shuffle(images)
    return dict(zip(reps, images))


def _outcome(certify, group, reps):
    some = reps[group.identity]
    try:
        certify(nz.FiniteGroupAction(group, some.automaton, some.depth, reps))
    except ValueError as err:
        return type(err).__name__, str(err)
    return None


@pytest.mark.parametrize("name, group, reps, expected", CASES, ids=[c[0] for c in CASES])
def test_certify_matches_compose_and_invert(name, group, reps, expected):
    if expected == REFUSED:  # ``reps`` builds the representatives
        with pytest.raises(mc.InconsistentFrontierError, match=REFUSED):
            reps()
        return
    want = _outcome(ref_certify, group, reps)
    assert _outcome(nz.FiniteGroupAction.certify, group, reps) == want
    assert (want is None) == (expected is None) and (want is None or expected in want[1]), want
    rng = random.Random(name)
    for _ in range(4):
        table = _permuted(group, reps, rng)
        assert _outcome(nz.FiniteGroupAction.certify, group, table) == _outcome(ref_certify, group, table)


DEEPENABLE = [case for case in BUILT if all(f.is_identity_outside() for f in case[2].values())]


@pytest.mark.parametrize("name, group, reps, expected", DEEPENABLE, ids=[c[0] for c in DEEPENABLE])
def test_certify_outcome_does_not_depend_on_depth(name, group, reps, expected):
    want = _outcome(nz.FiniteGroupAction.certify, group, reps)
    for more in (1, 2):
        deeper = _at_depths(group, reps, {g: f.depth + more for g, f in reps.items()})[1]
        assert _outcome(nz.FiniteGroupAction.certify, group, deeper) == want, more


def test_identity_verdicts_do_not_depend_on_depth():
    for name, _, reps, _ in DEEPENABLE:
        for g, f in reps.items():
            kinds = {mc.is_properly_homotopic_to_identity(mc.extend(f, f.depth + more)).kind for more in (0, 1, 2)}
            assert len(kinds) == 1, (name, g, kinds)


def test_cases_reach_every_genus_and_verdict():
    ranks = {min(gm.genus(reps[group.identity].automaton), 2) for _, group, reps, _ in BUILT}
    assert ranks == {0, 1, 2}
    assert {expected for *_, expected in CASES} == {
        None, "fails certification", "has no rigid inverse", "identity element representative is not certified trivial",
        REFUSED,
    }
    assert len(DEEPENABLE) == len(BUILT) - 1  # all but the banded flip
