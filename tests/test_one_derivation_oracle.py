"""Oracle for the checks that read composites and inverses off their factors.

``verify_proper_pair``, ``r_cocycle_check`` and ``uk_membership`` build no
composite and no inverse: they read sigma_{g∘f} = sigma_g∘sigma_f,
A_{g∘f}(c) = sigma_g(A_f(c)) A_g(f(c)), sigma_f^-1 and
A_{f^-1}(f(c)) = sigma_f^-1(A_f(c))^-1 off f and g.  The references below are
``compose``, ``rigid_inverse`` and the three checks from before, which built
whole representatives, kept verbatim but for reading the full vertex map and
end action through ``full_vmap`` and ``full_end_action``.  Other tests build
composites and inverses with ``ref_compose`` and ``ref_rigid_inverse``.

Checked on random maps of ``tests/test_moved_rep_oracle.py`` over its seven
graphs, and on every ``check-id`` map of the ``maps`` workload, for the
result or the exception type and message alike:

- ``verify_proper_pair`` on pairs at equal and mixed depths, banded maps
  included, and on maps paired with their rigid inverses;
- ``r_cocycle_check`` on equal-depth pairs; on mixed-depth pairs, where the
  reference fails, its outcome is the reference's on the pair extended to the
  common depth, True or a PreconditionFailedError;
- ``uk_membership`` on maps with and without a rigid inverse and on inverse
  pairs' composites, for random connected K at every depth below the support.
"""

import random

import pytest

from propermaps import graph_model as gm
from propermaps import mapclass as mc
from propermaps import words as W
from propermaps.graph_model import unfold
from tests.conftest import full_end_action, full_vmap
from tests.test_identity_criterion_oracle import MAP_FILES
from tests.test_moved_rep_oracle import DEPTHS, GRAPHS, _random_case

# -- references: composites and inverses built whole ----------------------------------------------


def ref_compose(f, g):
    """The composite g after f (apply f first)."""
    if f.automaton != g.automaton:
        raise ValueError("maps on different ambient graphs")
    depth = max(f.depth, g.depth)
    if f.depth < depth:
        f = mc.extend(f, depth)
    if g.depth < depth:
        g = mc.extend(g, depth)
    f_vmap, g_vmap = full_vmap(f), full_vmap(g)
    gs = g.substitution()
    vm = {v: g_vmap[f_vmap[v]] for v in f_vmap}
    li = {}
    for lid in f.loop_ids():
        img = gs(f.loop_word(lid))
        if img != W.gen(lid):
            li[lid] = img
    ew = {}
    t = unfold(f.automaton, depth)
    for parent, child in t.tree_edges:
        acc_u = g.accumulated_wrap(f_vmap[parent])
        acc_v = g.accumulated_wrap(f_vmap[child])
        delta = W.mul(W.inv(acc_u), gs(f.wrap(child)), acc_v)
        if delta:
            ew[child] = delta
    if f.is_identity_outside() and g.is_identity_outside():
        return mc.ProperMapRep.make(f.automaton, depth, vm, li, ew)
    bf = 0 if f.is_identity_outside() else f.outside[1]
    bg = 0 if g.is_identity_outside() else g.outside[1]
    f_ea, g_ea = full_end_action(f), full_end_action(g)
    ea = {c: g_ea[f_ea[c]] for c in f_ea}
    return mc.ProperMapRep.make(f.automaton, depth, vm, li, ew, ea, mc.banded(bf + bg))


def ref_rigid_inverse(f):
    """Inverse representative when vmap is bijective and the substitution inverts."""
    sigma_inv = mc._rigid_inverse_substitution(f)
    if sigma_inv is None:
        return None
    inv_vmap = {w: v for v, w in f.moves.items()}
    li = {}
    for lid in f.loop_ids():
        img = sigma_inv.images[lid]
        if img != W.gen(lid):
            li[lid] = img
    # solve 1 = A_inv(f(u))^-1 sigma_inv(delta_e) A_inv(f(v)) along tree edges
    f_vmap = full_vmap(f)
    acc = {(): W.EMPTY}
    t = f.truncation()
    for parent, child in t.tree_edges:
        acc[f_vmap[child]] = W.mul(W.inv(sigma_inv(f.wrap(child))), acc[f_vmap[parent]])
    ew = {}
    for parent, child in t.tree_edges:
        delta = W.mul(W.inv(acc[parent]), acc[child])
        if delta:
            ew[child] = delta
    return mc.ProperMapRep.make(f.automaton, f.depth, inv_vmap, li, ew)


def ref_verify_proper_pair(f, g):
    """True iff g∘f and f∘g are both certified properly homotopic to the identity."""
    return bool(mc.is_properly_homotopic_to_identity(ref_compose(f, g))) and bool(
        mc.is_properly_homotopic_to_identity(ref_compose(g, f))
    )


def ref_r_cocycle_check(f, g, alpha0=None):
    """Verify Phi(g∘f) = Phi(g) * g_*(Phi(f)) blockwise."""
    if alpha0 is None:
        alpha0 = mc.default_base_end(f.automaton, min(f.depth, g.depth))
    hf = mc.phi_T(f, alpha0)
    hg = mc.phi_T(g, alpha0)
    hgf = mc.phi_T(ref_compose(f, g), alpha0)
    d = max(hf.depth, hg.depth, hgf.depth)
    for c in hgf.dx_cylinders(d):
        expect = W.mul(hg.value_at(c), mc._gstar_at_base(g, alpha0, hf.value_at(c)))
        if hgf.value_at(c) != expect:
            return False
    return True


def ref_uk_membership(f, k_vertices):
    """Membership in U_K: identity on K and preservation of its complement."""
    if () not in k_vertices:
        raise ValueError("K must contain the root")
    for v in k_vertices:
        if v and v[:-1] not in k_vertices:
            raise ValueError("K must be a connected subtree")
        if len(v) >= f.depth:
            raise ValueError("K must sit strictly inside the support")

    def conditions(g):
        for c, d in g.end_moves.items():
            if mc._component_of(k_vertices, c) != mc._component_of(k_vertices, d):
                return False
        t = g.truncation()
        for lid, (v, _) in t.loop_at.items():
            img = g.loop_word(lid)
            if v in k_vertices:
                if img != W.gen(lid):
                    return False
            else:
                comp = mc._component_of(k_vertices, v)
                for gname, _ in img:
                    gv = t.loop_at[gname][0]
                    if gv in k_vertices or mc._component_of(k_vertices, gv) != comp:
                        return False
        checkpoints = set(t.frontier) | {v for v, _ in t.loop_edges}
        for c in checkpoints:
            acc = g.accumulated_wrap(c)
            if c in k_vertices:
                if acc != W.EMPTY:
                    return False
            else:
                comp = mc._component_of(k_vertices, c)
                for gname, _ in acc:
                    gv = t.loop_at[gname][0]
                    if gv in k_vertices or mc._component_of(k_vertices, gv) != comp:
                        return False
        return True

    if not conditions(f):
        return False
    inv = ref_rigid_inverse(f)
    if inv is None:
        return False
    return conditions(inv)


# -- random maps ------------------------------------------------------------------------------------


def _outcome(check, *args):
    try:
        return check(*args)
    except (ValueError, KeyError) as exc:
        return (type(exc), str(exc))


def _interior_shuffle(rng, a, depth):
    """A map permuting the vertices strictly between the root and the frontier, with wraps spelt
    in loops below the wrapped edge.  It moves no loop and no end, so it may carry a vertex of K
    and one outside K onto each other, which only its inverse's wraps can tell."""
    t = unfold(a, depth)
    inner = [v for v in t.vertices[1:] if len(v) < depth]
    ew = {}
    for v in rng.sample(t.vertices[1:], min(3, len(t.vertices) - 1)):
        below = [lid for lid, (u, _) in t.loop_at.items() if u[: len(v)] == v]
        if below:
            ew[v] = W.reduce_word([(rng.choice(below), rng.choice((1, -1))) for _ in range(rng.randint(1, 2))])
    return mc.ProperMapRep.make(a, depth, vmap=dict(zip(inner, rng.sample(inner, len(inner)))), edge_wraps=ew)


def _random_maps(name, count):
    """(automaton, maps, rng): the maps ``make`` builds from ``count`` random cases on graph
    ``name``, some interior shuffles, and the rigid inverse of each map that has one."""
    a = gm.parse_automaton(GRAPHS[name])
    rng = random.Random(f"one-derivation/{name}")
    maps = []
    for _ in range(count):
        depth = rng.randint(1, DEPTHS[name])
        try:
            maps.append(mc.ProperMapRep.make(a, depth, **_random_case(rng, a, depth)))
        except ValueError:
            continue
    maps += [_interior_shuffle(rng, a, rng.randint(2, DEPTHS[name])) for _ in range(count // 4)]
    maps += [inv for inv in map(ref_rigid_inverse, maps) if inv is not None]
    return a, maps, rng


MAPS = {name: _random_maps(name, 80) for name in GRAPHS}


def test_random_maps_cover_banded_and_non_invertible_maps():
    maps = [f for _, fs, _ in MAPS.values() for f in fs]
    assert sum(not f.is_identity_outside() for f in maps) > 20
    assert sum(f.is_identity_outside() and not mc.has_rigid_inverse(f) for f in maps) > 20
    assert sum(bool(f.moves) for f in maps) > 20


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_verify_proper_pair_matches_reference(name):
    a, maps, rng = MAPS[name]
    pairs = [(f, ref_rigid_inverse(f)) for f in maps if mc.has_rigid_inverse(f)]
    pairs += [tuple(rng.sample(maps, 2)) for _ in range(200)]
    pairs += [(f, mc.extend(f, f.depth + 1)) for f in maps if f.is_identity_outside()][:20]
    seen = set()
    for f, g in pairs:
        want = _outcome(ref_verify_proper_pair, f, g)
        assert _outcome(mc.verify_proper_pair, f, g) == want
        banded = not (f.is_identity_outside() and g.is_identity_outside())
        seen.add((want if isinstance(want, bool) else want[0], banded, f.depth == g.depth))
    assert {(True, False, True), (False, False, True), (False, True, True), (True, False, False)} <= seen
    assert (mc.PreconditionFailedError, True, False) in seen  # a banded map at the shallower depth


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_r_cocycle_check_matches_reference(name):
    a, maps, rng = MAPS[name]
    seen = set()
    for _ in range(200):
        f, g = rng.sample(maps, 2)
        got = _outcome(mc.r_cocycle_check, f, g)
        if f.depth == g.depth:
            assert got == _outcome(ref_r_cocycle_check, f, g)
        else:
            depth = max(f.depth, g.depth)
            try:
                deeper = mc.extend(f, depth), mc.extend(g, depth)
            except mc.PreconditionFailedError as exc:
                assert got == (mc.PreconditionFailedError, str(exc))
            else:
                assert got == _outcome(ref_r_cocycle_check, *deeper)
            assert got is True or got[0] is mc.PreconditionFailedError
        seen.add((got if isinstance(got, bool) else got[0], f.depth == g.depth))
    if name not in ("loop_tree", "ray3"):  # there every end is a genus end, so no base end exists
        assert {(True, True), (True, False)} <= seen


def _random_k(rng, a, depth):
    """A random connected subtree of the truncation that contains the root, of depth at most ``depth``."""
    t = unfold(a, depth)
    k = {()}
    for v in t.vertices[1:]:
        if v[:-1] in k and rng.random() < 0.6:
            k.add(v)
    return frozenset(k)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_uk_membership_matches_reference(name):
    a, maps, rng = MAPS[name]
    cases = list(maps)
    for f in maps:
        inv = ref_rigid_inverse(f)
        if inv is not None and rng.random() < 0.3:
            cases.append(ref_compose(f, inv))  # f^-1∘f: in every U_K
    seen = set()
    for f in cases:
        for k_depth in range(f.depth):
            for _ in range(2):
                k = _random_k(rng, a, k_depth)
                want = _outcome(ref_uk_membership, f, k)
                assert _outcome(mc.uk_membership, f, k) == want
                seen.add(want)
    assert True in seen and False in seen


def test_workload_maps_match_reference():
    """Every ``check-id`` map of the ``maps`` workload, paired with itself and with its rigid
    inverse, and its membership in U_K for K the root."""
    seen = set()
    for _, a, text in MAP_FILES:
        f = mc.parse_map_file(a, text)
        inv = ref_rigid_inverse(f)
        for g in [f] if inv is None else [f, inv]:
            want = _outcome(ref_verify_proper_pair, f, g)
            assert _outcome(mc.verify_proper_pair, f, g) == want
            seen.add(("pair", want))
        if f.depth:
            want = _outcome(ref_uk_membership, f, frozenset({()}))
            assert _outcome(mc.uk_membership, f, frozenset({()})) == want
            seen.add(("uk", want))
    assert {("pair", True), ("pair", False), ("uk", True), ("uk", False)} <= seen
