import random
from dataclasses import replace

import pytest

from perfbench import workloads
from propermaps import graph_model as gm
from propermaps import mapclass as mc
from propermaps import words as W
from propermaps.end_space import ClopenSet
from tests.conftest import full_end_action
from tests.test_one_derivation_oracle import ref_compose, ref_rigid_inverse


def lid(path, k=0):
    return mc.loop_id(tuple(path), k)


def shift_map(loop_ray, depth, outside=None):
    """x0 -> x0, xn -> xn x(n-1): the map with no proper inverse."""
    li = {}
    for n in range(1, depth + 1):
        xn, xp = lid((0,) * n), lid((0,) * (n - 1))
        li[xn] = W.mul(W.gen(xn), W.gen(xp))
    return mc.ProperMapRep.make(loop_ray, depth, loop_images=li, outside=outside or mc.banded(1))


def drag_map(automaton, depth, child, word):
    """Wrap the edge into `child` by `word`; deeper loops conjugate along."""
    t = gm.unfold(automaton, depth)
    li = {}
    for v, k in t.loop_edges:
        if len(v) >= len(child) and v[: len(child)] == tuple(child):
            li[lid(v, k)] = W.conjugate(W.gen(lid(v, k)), word)
    return mc.ProperMapRep.make(automaton, depth, loop_images=li, edge_wraps={tuple(child): word})


# -- representatives ---------------------------------------------------------------


def test_make_validates_frontier(loop_ray):
    with pytest.raises(ValueError):
        mc.ProperMapRep.make(loop_ray, 2, vmap={(0, 0): (0,)})
    with pytest.raises(ValueError):
        mc.ProperMapRep.make(loop_ray, 2, vmap={(): (0,)})


def test_make_names_the_frontier_state_checks(core_with_rays):
    # depth-2 frontier: (0, 0) in the loop state s, (0, 1) and (1, 0) in the ray state d
    with pytest.raises(ValueError, match="frontier vertex 0/0 must map to an equivalent frontier vertex"):
        mc.ProperMapRep.make(core_with_rays, 2, vmap={(0, 0): (1, 0)})
    # only a banded map carries an end action of its own, so only there is the genus end set checked
    swap = {(0, 0): (0, 1), (0, 1): (0, 0), (1, 0): (1, 0)}
    with pytest.raises(ValueError, match="end action must preserve the genus end set"):
        mc.ProperMapRep.make(core_with_rays, 2, end_action=swap, outside=mc.banded(1))


def test_end_action_of(loop_ray, cantor_tree):
    ident = mc.ProperMapRep.identity(loop_ray, 3)
    assert ident.end_moves == {}
    s = shift_map(loop_ray, 4)
    assert s.end_moves == {}
    t = gm.unfold(cantor_tree, 2)
    vmap = {v: ((1 - v[0],) + v[1:] if v else ()) for v in t.vertices}
    swap = mc.ProperMapRep.make(cantor_tree, 2, vmap=vmap)
    assert swap.end_moves == {c: vmap[c] for c in t.frontier}
    assert swap.end_moves[(0, 0)] == (1, 0) and swap.end_moves[(1, 1)] == (0, 1)
    # a banded map keeps the end action it is given
    banded = mc.ProperMapRep.make(cantor_tree, 2, end_action=full_end_action(swap), outside=mc.banded(1))
    assert banded.end_moves == swap.end_moves and not banded.moves


def test_end_action_inconsistent_frontier(cantor_tree):
    t = gm.unfold(cantor_tree, 2)
    cyls = list(t.frontier)
    ea = {c: ((1 - c[0],) + c[1:]) for c in cyls}
    with pytest.raises(mc.InconsistentFrontierError, match="end action disagrees with vmap at 0/0"):
        mc.ProperMapRep.make(cantor_tree, 2, end_action=ea)
    vmap = {v: ((1 - v[0],) + v[1:] if v else ()) for v in t.vertices}
    with pytest.raises(mc.InconsistentFrontierError, match="end action disagrees with vmap at 1/1"):
        mc.ProperMapRep.make(cantor_tree, 2, vmap=vmap, end_action={**ea, (1, 1): (1, 1)})
    with pytest.raises(mc.InconsistentFrontierError, match="end action disagrees with vmap at 0/0/0"):
        mc.ProperMapRep.make(cantor_tree, 2, end_action={**{c: c for c in cyls}, (0, 0, 0): (0, 0, 0)})
    assert mc.ProperMapRep.make(cantor_tree, 2, vmap=vmap, end_action=ea).end_moves == ea


def test_outer_action_examples(loop_ray):
    ident = mc.ProperMapRep.identity(loop_ray, 3)
    assert ident.substitution().is_identity()
    s = shift_map(loop_ray, 3)
    oa = s.substitution()
    assert oa.images[lid((0,))] == W.mul(W.gen(lid((0,))), W.gen(lid(())))
    assert oa.images[lid(())] == W.gen(lid(()))


def test_outer_action_functorial(loop_ray):
    f = drag_map(loop_ray, 3, (0,), W.gen(lid(())))
    g = shift_map(loop_ray, 3, outside=mc.IDENTITY_OUTSIDE)
    comp = ref_compose(f, g)
    lhs = comp.substitution()
    rhs = g.substitution().compose(f.substitution())
    assert all(lhs.images[x] == rhs.images[x] for x in lhs.basis)
    # end actions compose as well
    f_ea, g_ea = full_end_action(f), full_end_action(g)
    assert full_end_action(comp) == {c: g_ea[f_ea[c]] for c in f_ea}


# -- identity criterion ------------------------------------------------------------------


def test_identity_certified(loop_ray):
    v = mc.is_properly_homotopic_to_identity(mc.ProperMapRep.identity(loop_ray, 4))
    assert v.kind == "certified_yes" and v.depth == 4


def test_shift_map_flagged(loop_ray):
    v = mc.is_properly_homotopic_to_identity(shift_map(loop_ray, 7))
    assert v.kind == "no"
    assert v.witness == ("loop", lid((0,)))


def test_core_inner_case_certified():
    # finite core graph: rank-2 rose; conjugation is inner but not literal
    rose = gm.UnfoldingAutomaton.make("r", {"r": []}, {"r": 2})
    x, y = lid((), 0), lid((), 1)
    conj = {x: W.conjugate(W.gen(x), W.gen(y)), y: W.gen(y)}
    f = mc.ProperMapRep.make(rose, 0, loop_images=conj)
    assert mc.is_properly_homotopic_to_identity(f).kind == "certified_yes"


def test_banded_unknown(loop_ray):
    f = mc.ProperMapRep.make(loop_ray, 3, outside=mc.banded(1))
    assert mc.is_properly_homotopic_to_identity(f).kind == "unknown"


def test_moved_end_is_witnessed(cantor_tree):
    t = gm.unfold(cantor_tree, 2)
    vmap = {v: ((1 - v[0],) + v[1:] if v else ()) for v in t.vertices}
    swap = mc.ProperMapRep.make(cantor_tree, 2, vmap=vmap)
    v = mc.is_properly_homotopic_to_identity(swap)
    assert v.kind == "no" and v.witness[0] == "end"


def test_drag_detected_by_line_invariant(core_with_rays):
    f = drag_map(core_with_rays, 3, (0, 1), W.gen(lid(())))
    v = mc.is_properly_homotopic_to_identity(f)
    assert v.kind == "no" and v.witness[0] == "line"


def test_inner_not_enough_with_free_ends(core_with_rays):
    # conjugating every loop by x0 without dragging the rays moves lines
    t = gm.unfold(core_with_rays, 3)
    x0 = lid(())
    li = {lid(v, k): W.conjugate(W.gen(lid(v, k)), W.gen(x0)) for v, k in t.loop_edges}
    f = mc.ProperMapRep.make(core_with_rays, 3, loop_images=li)
    v = mc.is_properly_homotopic_to_identity(f)
    assert v.kind == "no"


def test_verify_proper_pair(loop_ray, two_loop_ray):
    ident = mc.ProperMapRep.identity(loop_ray, 4)
    assert mc.verify_proper_pair(ident, ident)
    t = gm.unfold(two_loop_ray, 3)
    li = {lid(v, k): W.gen(lid(v, (k + 1) % 2)) for v, k in t.loop_edges}
    swap = mc.ProperMapRep.make(two_loop_ray, 3, loop_images=li)
    assert mc.verify_proper_pair(swap, swap)  # involution
    s = shift_map(loop_ray, 4, outside=mc.IDENTITY_OUTSIDE)
    assert not mc.verify_proper_pair(s, ident)


# -- composition, extension, inversion ------------------------------------------------------


def test_extend_transports_loops():
    a = gm.UnfoldingAutomaton.make("b", {"b": ["b", "b"]}, {"b": 1})
    t = gm.unfold(a, 1)
    vmap = {(): (), (0,): (1,), (1,): (0,)}
    li = {lid((), 0): W.gen(lid((), 0)), lid((0,), 0): W.gen(lid((1,), 0)), lid((1,), 0): W.gen(lid((0,), 0))}
    f = mc.ProperMapRep.make(a, 1, vmap=vmap, loop_images=li)
    g = mc.extend(f, 2)
    assert g.moves[(0, 1)] == (1, 1)
    assert g.loop_word(lid((0, 1))) == W.gen(lid((1, 1)))
    assert mc.verify_proper_pair(g, g)


def test_compose_wrap_bookkeeping(core_with_rays):
    x0 = lid(())
    f = drag_map(core_with_rays, 3, (0, 1), W.gen(x0))
    finv = drag_map(core_with_rays, 3, (0, 1), W.gen(x0, -1))
    assert mc.composes_to(f, finv, mc.ProperMapRep.identity(core_with_rays, 3))


def test_rigid_inverse(loop_ray):
    s = shift_map(loop_ray, 5, outside=mc.IDENTITY_OUTSIDE)
    assert mc.has_rigid_inverse(s)
    inv = ref_rigid_inverse(s)
    ident = mc.ProperMapRep.identity(loop_ray, 5)
    assert mc.composes_to(s, inv, ident) and mc.composes_to(inv, s, ident)


def test_rigid_inverse_refuses_a_square(loop_ray):
    # x -> x^2 at the root is no automorphism
    x = lid(())
    square = mc.ProperMapRep.make(loop_ray, 6, loop_images={x: W.power(W.gen(x), 2)})
    assert not mc.has_rigid_inverse(square)


# -- Phi_T ------------------------------------------------------------------------------------


def test_phi_identity_is_constant_one(core_with_rays):
    h = mc.phi_T(mc.ProperMapRep.identity(core_with_rays, 3))
    assert all(not w for _, w in h.assignments)


def test_phi_single_wrapped_edge(core_with_rays):
    x0 = lid(())
    f = drag_map(core_with_rays, 3, (0, 1), W.gen(x0))
    h = mc.phi_T(f)
    for c in h.dx_cylinders():
        expected = W.gen(x0, -1) if c[:2] == (0, 1) else W.EMPTY
        assert h.value_at(c) == expected


def test_phi_precondition_failures(core_with_rays, cantor_tree):
    # moved end action
    t = gm.unfold(cantor_tree, 2)
    vmap = {v: ((1 - v[0],) + v[1:] if v else ()) for v in t.vertices}
    swap = mc.ProperMapRep.make(cantor_tree, 2, vmap=vmap)
    with pytest.raises(mc.PreconditionFailedError):
        mc.phi_T(swap)
    # nontrivial based action with noncompact DX
    x0 = lid(())
    li = {x0: W.conjugate(W.gen(x0), W.gen(lid((0,))))}
    f = mc.ProperMapRep.make(core_with_rays, 3, loop_images=li)
    with pytest.raises(mc.PreconditionFailedError):
        mc.phi_T(f)


def _random_rfunction(a, depth, rng, alpha0):
    dx = gm.dx_states(a)
    cyls = [c for c in gm.cylinders(a, depth) if a.state_of(c) in dx]
    lids = mc.ProperMapRep.identity(a, depth).loop_ids()
    deep = gm.deep_mixed_states(a)

    def ok_nontrivial(c):
        return a.state_of(c) not in deep and not (len(c) <= len(alpha0) and alpha0[: len(c)] == c)

    blocks = []
    used = []
    for c in cyls:
        if c == alpha0 or not ok_nontrivial(c) or rng.random() < 0.4:
            used.append(c)
            continue
        word = W.reduce_word([(rng.choice(lids), rng.choice((1, -1))) for _ in range(rng.randint(1, 6))])
        blocks.append((ClopenSet.make([c], depth), word))
    if used:
        blocks.append((ClopenSet.make(used, depth), W.EMPTY))
    return mc.RFunction.make(a, depth, alpha0, blocks)


def test_phi_round_trip_randomized(core_with_rays):
    rng = random.Random(5)
    a = core_with_rays
    depth = 4
    alpha0 = mc.default_base_end(a, depth)
    for _ in range(25):
        h = _random_rfunction(a, depth, rng, alpha0)
        f = mc.realize_r_function(h)
        assert mc.phi_T(f, alpha0) == h


def _path_product_of_wraps(f, v):
    """A(v) as the product of the edge wraps along the root-to-v path, one query at a time."""
    out = W.EMPTY
    for i in range(1, len(v) + 1):
        out = W.mul(out, f.wrap(v[:i]))
    return out


def test_accumulated_wrap_matches_path_product(core_with_rays):
    rng = random.Random(17)
    a = core_with_rays
    depth = 4
    alpha0 = mc.default_base_end(a, depth)
    verts = gm.unfold(a, depth).vertices
    lids = mc.ProperMapRep.identity(a, depth).loop_ids()
    for _ in range(10):
        wraps = {
            v: W.reduce_word([(rng.choice(lids), rng.choice((1, -1))) for _ in range(rng.randint(1, 4))])
            for v in rng.sample(verts[1:], 5)
        }
        f = mc.ProperMapRep.make(a, depth, edge_wraps=wraps)
        g = mc.realize_r_function(_random_rfunction(a, depth, rng, alpha0))
        for h in (f, g, ref_compose(f, g)):
            for v in h.truncation().vertices:
                for path in (v, v + (0, 0)):  # at and beyond the support
                    assert h.accumulated_wrap(path) == _path_product_of_wraps(h, path)


def test_identity_criterion_computes_live_states_once(monkeypatch, core_with_rays):
    """`make` plus the identity criterion find the cycles of the automaton once."""
    a = core_with_rays
    on_a = []
    cycle_states = gm._cycle_states
    monkeypatch.setattr(gm, "_cycle_states", lambda children: on_a.append(children is a.children) or cycle_states(children))
    f = drag_map(a, 4, (0, 1), W.gen(lid(())))
    assert mc.is_properly_homotopic_to_identity(f).kind == "no"
    assert sum(on_a) == 1


def test_loop_ids_formatted_once_per_representative(monkeypatch, core_with_rays):
    """composes_to and the identity criterion ask for the loop ids again and again;
    a representative formats them on the first request only."""
    f = drag_map(core_with_rays, 4, (0, 1), W.gen(lid(())))
    g = mc.ProperMapRep.identity(core_with_rays, 4)
    reps = (f, g, ref_compose(f, g))
    for h in reps:
        mc.is_properly_homotopic_to_identity(h)
    want = tuple(mc.loop_id(v, k) for v, k in sorted(f.truncation().loop_edges))
    formatted = []
    loop_id = mc.loop_id
    monkeypatch.setattr(mc, "loop_id", lambda *args: formatted.append(args) or loop_id(*args))
    for h in reps:
        for _ in range(3):
            assert h.loop_ids() == want
    assert formatted == []


def test_r_compose_and_inverse(core_with_rays):
    rng = random.Random(9)
    alpha0 = mc.default_base_end(core_with_rays, 4)
    h = _random_rfunction(core_with_rays, 4, rng, alpha0)
    hinv = mc.r_inverse(h)
    prod = mc.r_compose(h, hinv)
    assert all(not prod.value_at(c) for c in prod.dx_cylinders())


def test_r_cocycle_identity_case(core_with_rays):
    rng = random.Random(3)
    alpha0 = mc.default_base_end(core_with_rays, 4)
    h = _random_rfunction(core_with_rays, 4, rng, alpha0)
    f = mc.realize_r_function(h)
    ident = mc.ProperMapRep.identity(core_with_rays, f.depth)
    assert mc.r_cocycle_check(f, ident, alpha0)
    assert mc.r_cocycle_check(ident, f, alpha0)


def test_r_cocycle_randomized_pairs(core_with_rays):
    rng = random.Random(21)
    alpha0 = mc.default_base_end(core_with_rays, 4)
    for _ in range(10):
        h1 = _random_rfunction(core_with_rays, 4, rng, alpha0)
        h2 = _random_rfunction(core_with_rays, 4, rng, alpha0)
        f, g = mc.realize_r_function(h1), mc.realize_r_function(h2)
        assert mc.r_cocycle_check(f, g, alpha0)


def test_r_cocycle_mixed_depths(core_with_rays):
    """Maps of different supports are compared at the deeper one, where the default base end is
    taken; a base end above that depth is refused."""
    a = core_with_rays
    e3, e4 = mc.ProperMapRep.identity(a, 3), mc.ProperMapRep.identity(a, 4)
    assert mc.r_cocycle_check(e3, e4) and mc.r_cocycle_check(e4, e3)
    with pytest.raises(mc.PreconditionFailedError, match="base end cylinder lies above the support depth 4"):
        mc.r_cocycle_check(e3, e4, mc.default_base_end(a, 3))
    rng = random.Random(23)
    depths = set()
    for _ in range(10):
        f, g = (mc.realize_r_function(_random_rfunction(a, d, rng, mc.default_base_end(a, d))) for d in (3, 4))
        depth = max(f.depth, g.depth)
        depths.add((f.depth, g.depth))
        assert mc.r_cocycle_check(f, g) and mc.r_cocycle_check(g, f)
        assert mc.r_cocycle_check(f, g, mc.default_base_end(a, depth + 1))
    assert any(df != dg for df, dg in depths)


def test_realize_constant_one_is_identity(core_with_rays):
    dx = gm.dx_states(core_with_rays)
    cyls = [c for c in gm.cylinders(core_with_rays, 3) if core_with_rays.state_of(c) in dx]
    h = mc.RFunction.make(core_with_rays, 3, mc.default_base_end(core_with_rays, 3), [(ClopenSet.make(cyls, 3), W.EMPTY)])
    f = mc.realize_r_function(h)
    assert not f.edge_wraps
    assert mc.is_properly_homotopic_to_identity(f).kind == "certified_yes"


def test_realize_r2_violation():
    # deep-mixed graph: loops accumulate onto every end of the branch
    a = gm.UnfoldingAutomaton.make("m", {"m": ["m", "d"], "d": ["d"]}, {"m": 1})
    dx = gm.dx_states(a)
    cyls = [c for c in gm.cylinders(a, 3) if a.state_of(c) in dx]
    alpha0 = mc.default_base_end(a, 3)
    others = [c for c in cyls if c != alpha0]
    x0 = lid(())
    blocks = [(ClopenSet.make([alpha0], 3), W.EMPTY), (ClopenSet.make(others, 3), W.gen(x0))]
    h = mc.RFunction.make(a, 3, alpha0, blocks)
    with pytest.raises(mc.R2ViolationError):
        mc.realize_r_function(h)


# -- c(f) ---------------------------------------------------------------------------------------


@pytest.fixture
def star_graph():
    """Loop-ray core with a single free ray at the root."""
    return gm.UnfoldingAutomaton.make("r", {"r": ["c", "d"], "c": ["c"], "d": ["d"]}, {"r": 1, "c": 1})


def test_c_of_identity(star_graph):
    assert mc.c_of(mc.ProperMapRep.identity(star_graph, 3)) == W.EMPTY


def test_c_of_wrap(star_graph):
    x0 = lid(())
    f = mc.ProperMapRep.make(star_graph, 3, edge_wraps={(1,): W.gen(x0)})
    assert mc.c_of(f) == W.gen(x0)


def test_c_of_homomorphism_random(star_graph):
    rng = random.Random(17)
    lids = mc.ProperMapRep.identity(star_graph, 3).loop_ids()
    for _ in range(15):
        w1 = W.reduce_word([(rng.choice(lids), rng.choice((1, -1))) for _ in range(rng.randint(0, 4))])
        w2 = W.reduce_word([(rng.choice(lids), rng.choice((1, -1))) for _ in range(rng.randint(0, 4))])
        f = mc.ProperMapRep.make(star_graph, 3, edge_wraps={(1,): w1} if w1 else {})
        g = mc.ProperMapRep.make(star_graph, 3, edge_wraps={(1, 0): w2} if w2 else {})
        # composition convention: ref_compose(f, g) applies f first
        assert mc.c_of(ref_compose(f, g)) == W.mul(mc.c_of(f), mc.c_of(g))


def test_c_of_precondition(star_graph, core_with_rays):
    with pytest.raises(mc.PreconditionFailedError):
        mc.c_of(mc.ProperMapRep.identity(core_with_rays, 3))  # many rays
    x0 = lid(())
    f = mc.ProperMapRep.make(star_graph, 3, loop_images={x0: W.gen(x0, -1)})
    with pytest.raises(mc.PreconditionFailedError):
        mc.c_of(f)


# -- U_K ------------------------------------------------------------------------------------------


def test_uk_identity_member(two_loop_ray):
    ident = mc.ProperMapRep.identity(two_loop_ray, 4)
    for K in (frozenset({()}), frozenset({(), (0,)})):
        assert mc.uk_membership(ident, K)


def test_uk_loop_inversion_outside_k(two_loop_ray):
    x2 = lid((0, 0))
    f = mc.ProperMapRep.make(two_loop_ray, 4, loop_images={x2: W.gen(x2, -1)})
    assert mc.uk_membership(f, frozenset({()}))
    # inverting a loop inside K is not allowed
    x0 = lid(())
    g = mc.ProperMapRep.make(two_loop_ray, 4, loop_images={x0: W.gen(x0, -1)})
    assert not mc.uk_membership(g, frozenset({()}))


def test_uk_component_swap_not_member(cantor_tree):
    t = gm.unfold(cantor_tree, 3)
    vmap = {v: ((1 - v[0],) + v[1:] if v else ()) for v in t.vertices}
    swap = mc.ProperMapRep.make(cantor_tree, 3, vmap=vmap)
    assert not mc.uk_membership(swap, frozenset({()}))


def test_uk_closed_under_composition(two_loop_ray):
    K = frozenset({()})
    f = drag_map(two_loop_ray, 4, (0, 0), W.gen(lid((0,), 0)))
    g = drag_map(two_loop_ray, 4, (0, 0), W.gen(lid((0,), 1)))
    assert mc.uk_membership(f, K) and mc.uk_membership(g, K)
    assert mc.uk_membership(ref_compose(f, g), K)


def test_uk_cosets_two_loop_ray(two_loop_ray):
    """Desk-scale echo of the infinite-index lemma."""
    K = frozenset({()})
    L = frozenset({(), (0,)})
    x1, y1 = lid((0,), 0), lid((0,), 1)
    words = [W.power(W.gen(x1), k) for k in range(1, 4)] + [W.mul(W.gen(x1), W.gen(y1))]
    maps = [drag_map(two_loop_ray, 4, (0, 0), w) for w in words]
    for m in maps:
        assert mc.uk_membership(m, K)
        assert not mc.uk_membership(m, L)
    for i, m1 in enumerate(maps):
        for m2 in maps[i + 1 :]:
            diff = ref_compose(m2, ref_rigid_inverse(m1))
            assert not mc.uk_membership(diff, L)


# -- extension over trees ----------------------------------------------------------------------


def test_extend_over_trees_identity(cantor_tree):
    cyls = gm.cylinders(cantor_tree, 3)
    f = mc.extend_over_trees(cantor_tree, 3, {}, {}, {}, {c: c for c in cyls})
    assert not f.moves


def test_extend_over_trees_swap_shadow_rule(cantor_tree):
    cyls = gm.cylinders(cantor_tree, 3)
    swap = {c: (1 - c[0],) + c[1:] for c in cyls}
    f = mc.extend_over_trees(cantor_tree, 3, {}, {}, {}, swap)
    assert () not in f.moves
    assert f.moves[(0,)] == (1,)
    assert f.moves[(0, 1)] == (1, 1)
    assert mc.verify_proper_pair(f, f)


def test_extend_over_trees_core_plus_ray(star_graph):
    cyls = gm.cylinders(star_graph, 3)
    corev = gm.core_vertices(star_graph, 3)
    f = mc.extend_over_trees(star_graph, 3, {v: v for v in corev}, {}, {}, {c: c for c in cyls})
    assert mc.is_properly_homotopic_to_identity(f).kind == "certified_yes"


def test_extend_over_trees_requires_state_preservation():
    a = gm.UnfoldingAutomaton.make("r", {"r": ["p", "q"], "p": ["p"], "q": ["q", "q"]}, {})
    cyls = gm.cylinders(a, 2)
    perm = dict(zip(sorted(cyls), sorted(cyls)[1:] + sorted(cyls)[:1]))
    with pytest.raises((mc.PreconditionFailedError, ValueError)):
        mc.extend_over_trees(a, 2, {}, {}, {}, perm)


# -- map files ---------------------------------------------------------------------------------


def test_map_file_roundtrip(core_with_rays):
    f = drag_map(core_with_rays, 3, (0, 1), W.gen(lid(())))
    text = mc.format_map_file(f)
    g = mc.parse_map_file(core_with_rays, text)
    assert g.moves == f.moves
    assert dict(g.loop_images) == dict(f.loop_images)
    assert dict(g.edge_wraps) == dict(f.edge_wraps)
    assert g.end_moves == f.end_moves
    assert g.outside == f.outside


@pytest.mark.parametrize(
    "text, message",
    [
        ("support 2\nsupport 3\noutside identity\n", "line 2: repeated support"),
        ("support 2\noutside banded 1\n# the flag again\noutside identity\n", "line 4: repeated outside"),
    ],
    ids=["support", "outside"],
)
def test_map_file_refuses_a_repeated_support_or_outside_line(loop_ray, text, message):
    with pytest.raises(ValueError, match=message):
        mc.parse_map_file(loop_ray, text)


def test_extend_across_bisimilar_branches():
    two_branch = gm.UnfoldingAutomaton.make(
        "r", {"r": ["p", "q"], "p": ["p"], "q": ["q"]}, {"r": 1, "p": 1, "q": 1}
    )
    t = gm.unfold(two_branch, 3)

    def sw(v):
        return ((1 - v[0],) + v[1:]) if v else v

    li = {}
    for v, k in t.loop_edges:
        img = lid(sw(v), k)
        if img != lid(v, k):
            li[lid(v, k)] = W.gen(img)
    swap = mc.ProperMapRep.make(two_branch, 3, vmap={v: sw(v) for v in t.vertices}, loop_images=li)
    ext = mc.extend(swap, 5)
    assert ext.moves[(0, 0, 0, 0, 0)] == (1, 0, 0, 0, 0)
    assert ext.loop_word(lid((0, 0, 0, 0))) == W.gen(lid((1, 0, 0, 0)))
    assert mc.verify_proper_pair(ext, ext)


def test_random_rigid_maps_pair_with_inverses(two_loop_ray):
    """Any rigid representative verifies as a proper pair with its inverse."""
    rng = random.Random(31)
    depth = 3
    t = gm.unfold(two_loop_ray, depth)
    all_lids = [lid(v, k) for v, k in sorted(t.loop_edges)]
    for _ in range(20):
        # random signed permutation of the two loops at every vertex,
        # plus random wraps
        li = {}
        for v, _k in t.loop_edges:
            if _k:
                continue
            swap = rng.random() < 0.5
            s0, s1 = rng.choice((1, -1)), rng.choice((1, -1))
            a_, b_ = lid(v, 0), lid(v, 1)
            li[a_] = W.gen(b_ if swap else a_, s0)
            li[b_] = W.gen(a_ if swap else b_, s1)
        wraps = {}
        for v in t.vertices:
            if v and rng.random() < 0.4:
                wraps[v] = W.reduce_word(
                    [(rng.choice(all_lids), rng.choice((1, -1))) for _ in range(rng.randint(1, 3))]
                )
        f = mc.ProperMapRep.make(two_loop_ray, depth, loop_images=li, edge_wraps=wraps)
        inv = ref_rigid_inverse(f)
        assert inv is not None
        assert mc.verify_proper_pair(f, inv)


# -- map paths through the truncation's vertex names ------------------------------------------


def _respelled(text, rng):
    """The map text with some paths spelled otherwise: spaces around parts, leading zeros, `.` as ``."""
    out = []
    for line in text.splitlines():
        kind, _, rest = line.partition(" ")
        if kind in ("vmap", "endmap", "wrap") and rng.random() < 0.5:
            src, _, dst = rest.partition("->")
            spell = rng.choice([lambda p: " " + p.replace("/", "/ "), lambda p: "/".join("0" + x for x in p.split("/")),
                                lambda p: "" if p.strip() == "." else p])
            rest = spell(src.strip()) + " -> " + (spell(dst.strip()) if kind != "wrap" else dst.strip())
        out.append(f"{kind} {rest}" if rest else kind)
    return "\n".join(out) + "\n"


def _parse_outcome(a, text):
    try:
        return mc.format_map_file(mc.parse_map_file(a, text))
    except ValueError as exc:
        return (type(exc), str(exc))


def test_map_paths_read_through_vertex_names_as_parse_path_reads_them(monkeypatch):
    """Every map of the maps and realize workloads, respelled, with a repeated or bad
    record added: names give the same map, or the same error, as parse_path alone."""
    texts = []
    for name in ("maps", "realize"):
        inp = workloads.make_inputs(name, 1)
        for op in inp.ops:
            if op.kind != "cli":
                continue
            graph = next(f for f in op.args if f.endswith(".aut"))
            maps = [f for f in op.args if f.endswith(".map")]
            if not maps and op.args[:1] == ["realize"]:
                prefix = graph.rsplit("/", 1)[0]
                maps = [f for f in inp.files if f.startswith(prefix + "/") and f.endswith(".map")]
            texts += [(inp.files[graph], inp.files[m]) for m in maps]
    assert len(texts) > 50
    rng = random.Random(3)
    cases = []
    for graph, text in texts:
        a = gm.parse_automaton(graph)
        body = _respelled(text, rng)
        lines = body.splitlines()
        vmaps = [ln for ln in lines if ln.startswith("vmap")]
        cases += [(a, body), (a, body + "vmap x -> 0\n"), (a, body + "endmap 9/9 -> 9/9\n")]
        if vmaps:
            cases.append((a, body + vmaps[0].replace("vmap ", "vmap  ") + "\n"))  # a repeated source
    with_names = [_parse_outcome(a, t) for a, t in cases]
    monkeypatch.setattr(mc, "unfold", lambda a, d: replace(gm.unfold(a, d), paths={}))
    assert with_names == [_parse_outcome(a, t) for a, t in cases]
    assert sum(isinstance(o, str) for o in with_names) > 50 and sum(isinstance(o, tuple) for o in with_names) > 100


def test_map_file_errors_come_in_line_order_before_the_truncation_is_built(monkeypatch, cantor_tree):
    """A file is checked line by line before its support-D truncation is built, and a
    record's own error on an earlier line is reported before a later line's."""
    monkeypatch.setattr(mc, "unfold", lambda a, d: pytest.fail("the truncation was built"))
    with pytest.raises(ValueError, match=r"^line 4: unknown record 'bogus'$"):
        mc.parse_map_file(cantor_tree, "support 1000000\nvmap 0 -> 1\nvmap 1 -> 0\nbogus\n")
    with pytest.raises(ValueError, match=r"^line 3: repeated vmap source 00$"):
        mc.parse_map_file(cantor_tree, "support 1000000\nvmap 0 -> 1\nvmap 00 -> 1\nbogus\n")
    with pytest.raises(ValueError, match=r"^line 3: repeated vmap source 00$"):
        mc.parse_map_file(cantor_tree, "support 1000000\nvmap 0 -> 1\nvmap 00 -> 1\nloop .:0 -> a\nloop .:0 -> a\n")
    with pytest.raises(ValueError, match="invalid literal"):
        mc.parse_map_file(cantor_tree, "vmap x -> 1\nsupport 1000000\nsupport 3\n")
    with pytest.raises(ValueError, match=r"^line 2: repeated wrap source 0/ 1$"):
        mc.parse_map_file(cantor_tree, "wrap 0/1 -> a\nwrap 0/ 1 -> a\n")
