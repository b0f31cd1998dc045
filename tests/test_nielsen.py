import itertools
import random

import pytest

from propermaps import end_space as es
from propermaps import graph_model as gm
from propermaps import mapclass as mc
from propermaps import nielsen as nz
from propermaps import stallings as st
from propermaps import words as W
from tests.conftest import make_flip_action
from tests.test_classification_fuzz import random_automaton


def lid(path, k=0):
    return mc.loop_id(tuple(path), k)


def w(s):
    return W.word_from_str(s)


def test_finite_group_construction():
    z3 = nz.FiniteGroup.cyclic(3)
    assert z3.identity == "e"
    assert z3.inverse("g1") == "g2"
    nz.FiniteGroup.make(["e", "g"], {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "e"})
    with pytest.raises(ValueError):
        # g has no inverse
        nz.FiniteGroup.make(["e", "g"], {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "g"})
    with pytest.raises(ValueError, match="repeated element names"):
        nz.FiniteGroup.make(["e", "e"], {("e", "e"): "e"})


def test_action_certification_rejects_fake(loop_ray):
    grp = nz.FiniteGroup.cyclic(2)
    ident = mc.ProperMapRep.identity(loop_ray, 3)
    s = mc.ProperMapRep.make(loop_ray, 3, loop_images={lid((0,)): W.mul(W.gen(lid((0,))), W.gen(lid(())))})
    with pytest.raises(ValueError):
        nz.FiniteGroupAction.make(grp, {"e": ident, "g1": s})  # s*s is not the identity class


def test_action_needs_a_representative_of_every_element(loop_ray):
    """A missing representative, the identity's too, is refused before any is read."""
    grp = nz.FiniteGroup.cyclic(2)
    ident = mc.ProperMapRep.identity(loop_ray, 3)
    for reps in ({"g1": ident}, {"e": ident}, {"e": ident, "g1": ident, "g2": ident}):
        with pytest.raises(ValueError, match="need one representative per group element"):
            nz.FiniteGroupAction.make(grp, reps)


# -- displacement bound ----------------------------------------------------------------


def test_displacement_identity_and_flip(loop_ray):
    act = make_flip_action(loop_ray, 8)
    assert nz.verify_displacement_bound(act, list(range(9)), 8)


def test_displacement_stretched_fails(loop_ray):
    grp = nz.FiniteGroup.cyclic(2)
    ident = mc.ProperMapRep.identity(loop_ray, 8)
    stretched = mc.ProperMapRep.make(
        loop_ray, 8, loop_images={lid(()): W.gen(lid((0, 0, 0)))}, outside=mc.banded(3)
    )
    act = nz.FiniteGroupAction(grp, loop_ray, 8, {"e": ident, "g1": stretched})
    assert not nz.verify_displacement_bound(act, list(range(9)), 8)


# -- interval covers and factor systems ----------------------------------------------------


def test_interval_cover_validation():
    with pytest.raises(ValueError):
        nz.IntervalCover.make(range(11), [(0, 8), (2, 10)])  # overlap 6 < 22
    cov = nz.IntervalCover.make(range(27), [(0, 24), (2, 26)])
    assert cov.overlap(0) == (2, 24)
    assert cov.minus((0, 24)) == (0, 22)
    assert cov.plus((2, 26)) == (0, 26)
    with pytest.raises(ValueError):
        nz.IntervalCover.make(range(11), [(0, 6), (2, 8), (6, 10)], min_overlap=2)  # 0 and 2 meet


def test_ffs_of_interval(loop_ray):
    cov = nz.IntervalCover.make(range(11), [(0, 8), (2, 10)], min_overlap=6)
    full = nz.ffs_of_interval(loop_ray, cov, (0, 10), 10)
    assert full.ranks() == (11,)
    degenerate = nz.ffs_of_interval(loop_ray, cov, 3, 10)
    assert degenerate.ranks() == (1,)


def test_ffs_of_interval_two_branch_core():
    two = gm.UnfoldingAutomaton.make("r", {"r": ["p", "q"], "p": ["p"], "q": ["q"]}, {"r": 1, "p": 1, "q": 1})
    cov = nz.IntervalCover.make(range(7), [(0, 6)], min_overlap=0)
    missing_root = nz.ffs_of_interval(two, cov, (2, 6), 6)
    assert len(missing_root.components) == 2


class RefUnionFind:
    """Reference: the union-find the interval systems were built on."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            if ry < rx:
                rx, ry = ry, rx
            self.parent[ry] = rx


def ref_ffs_of_interval(a, cover, J, depth):
    """Reference: the band's components joined along tree edges by union-find."""
    if isinstance(J, int):
        lo = hi = cover.r[J]
    else:
        lo, hi = cover.depth_range(J)
    t = gm.unfold(a, depth)
    verts = [v for v in t.vertices if lo <= len(v) <= hi]
    vset = set(verts)
    uf = RefUnionFind(verts)
    for u, v in t.tree_edges:
        if u in vset and v in vset:
            uf.union(u, v)
    comps = {}
    for v, k in t.loop_edges:
        if v in vset:
            comps.setdefault(uf.find(v), []).append(mc.loop_id(v, k))
    graphs = [st.LabeledGraph.rose(sorted(lids)) for _, lids in sorted(comps.items())]
    return st.FreeFactorSystem.from_graphs(graphs)


def test_ffs_of_interval_matches_union_find_on_random_cores():
    rng = random.Random(17)
    checked = split = 0
    while checked < 80:
        a = gm.core(random_automaton(rng, max_states=rng.choice((2, 3, 4))))
        if a is None:
            continue
        depth = rng.randint(0, 4)
        if len(gm.unfold(a, depth).vertices) > 400:
            continue
        cover = nz.IntervalCover(tuple(range(depth + 1)), ((0, depth),))
        lo = rng.randint(0, depth)
        for J in ((lo, rng.randint(lo, depth)), lo):
            got = nz.ffs_of_interval(a, cover, J, depth)
            want = ref_ffs_of_interval(a, cover, J, depth)
            assert got.keys() == want.keys()
            assert [c.edges for c in got.components] == [c.edges for c in want.components]
            split += len(got.components) > 1
        checked += 1
    assert split >= 10, "too few bands with several components"


def test_ffs_requires_core(cantor_tree):
    cov = nz.IntervalCover.make(range(5), [(0, 4)], min_overlap=0)
    with pytest.raises(nz.NotCoreGraphError):
        nz.ffs_of_interval(cantor_tree, cov, (0, 4), 4)


def test_f_prime_trivial_and_flip(loop_ray):
    cov = nz.IntervalCover.make(range(11), [(0, 8), (2, 10)], min_overlap=6)
    fj = nz.ffs_of_interval(loop_ray, cov, (0, 8), 10)
    triv = nz.FiniteGroupAction.make(
        nz.FiniteGroup.trivial(), {"e": mc.ProperMapRep.identity(loop_ray, 10)}
    )
    assert nz.f_prime(fj, triv) == fj
    flip = make_flip_action(loop_ray, 10)
    assert nz.f_prime(fj, flip) == fj  # inversion preserves each factor


def test_f_prime_strictly_smaller(two_loop_ray):
    # x -> x, y -> x y^-1 x is an order-2 twist moving <y> off itself
    depth = 3
    t = gm.unfold(two_loop_ray, depth)
    li = {}
    for v, k in t.loop_edges:
        x, y = lid(v, 0), lid(v, 1)
        if k == 1:
            li[y] = W.mul(W.gen(x), W.gen(y, -1), W.gen(x))
    tw = mc.ProperMapRep.make(two_loop_ray, depth, loop_images=li)
    act = nz.FiniteGroupAction.make(nz.FiniteGroup.cyclic(2), {"e": mc.ProperMapRep.identity(two_loop_ray, depth), "g1": tw})
    f = st.FreeFactorSystem.from_generator_lists([[W.gen(lid((), 1))]])
    smaller = nz.f_prime(f, act)
    assert smaller.is_empty()


def test_f_star_flip_sandwich(loop_ray):
    act = make_flip_action(loop_ray, 14)
    cov = nz.IntervalCover.make(range(15), [(0, 12), (2, 14)], min_overlap=10)
    fs = nz.f_star(loop_ray, cov, (0, 12), act, 14)
    fminus = nz.ffs_of_interval(loop_ray, cov, (0, 10), 14)
    fplus = nz.ffs_of_interval(loop_ray, cov, (0, 14), 14)
    assert st.contained_in(fminus, fs) and st.contained_in(fs, fplus)
    assert fs == nz.f_prime(nz.ffs_of_interval(loop_ray, cov, (0, 12), 14), act)
    with pytest.raises(ValueError):
        nz.f_star(loop_ray, cov, (2, 8), act, 14)  # |J| = 6 < 8


# -- trees of groups -------------------------------------------------------------------------


def _flip_cover14(loop_ray):
    return make_flip_action(loop_ray, 14), nz.IntervalCover.make(range(15), [(0, 12), (2, 14)], min_overlap=10)


def test_build_tree_of_groups(loop_ray):
    act, cov = _flip_cover14(loop_ray)
    ts = nz.build_tree_of_groups(loop_ray, cov, act, "T_STAR", 14)
    ts.check_tree_axioms()
    assert sorted(g.rank() for g in ts.vertex_groups.values()) == [13, 13]
    assert [g.rank() for g in ts.edge_groups.values()] == [11]
    assert ts.rank() == 15


def test_three_interval_path_tree(loop_ray):
    act = make_flip_action(loop_ray, 36)
    cov = nz.IntervalCover.make(range(37), [(0, 12), (4, 24), (16, 36)], min_overlap=8)
    ts = nz.build_tree_of_groups(loop_ray, cov, act, "T_STAR", 36)
    ts.check_tree_axioms()
    assert len(ts.vertex_groups) == 3 and len(ts.edge_groups) == 2
    heights = sorted(ts.vertex_heights.values())
    assert heights == [0, 1, 2]


def test_tree_branches_at_branch_height():
    two = gm.UnfoldingAutomaton.make("r", {"r": ["p", "q"], "p": ["p"], "q": ["q"]}, {"r": 1, "p": 1, "q": 1})
    act = make_flip_action(two, 30)
    cov = nz.IntervalCover.make(range(31), [(0, 12), (4, 22), (14, 30)], min_overlap=8)
    ts = nz.build_tree_of_groups(two, cov, act, "T_STAR", 30)
    ts.check_tree_axioms()
    by_height = {}
    for v, h in ts.vertex_heights.items():
        by_height.setdefault(h, []).append(v)
    assert len(by_height[0]) == 1
    assert len(by_height[1]) == 2 and len(by_height[2]) == 2


def _toy_tog():
    comp = lambda *gens: st.FreeFactorSystem.from_generator_lists([[w(g) for g in gens]]).components[0]
    return nz.TreeOfGroups(
        "T_STAR",
        {"v0": comp("a", "b", "c"), "v1": comp("a"), "v2": comp("b")},
        {"v0": 0, "v1": 1, "v2": 1},
        {"e1": comp("a"), "e2": comp("b")},
        {"e1": ("v0", "v1"), "e2": ("v0", "v2")},
    )


def test_fold_ia_merges_edges():
    t = _toy_tog()
    before = t.rank()
    out = nz.fold_ia(t, "e1", "e2")
    assert out.rank() == before
    assert len(out.edge_groups) == 1
    merged = next(iter(out.edge_groups.values()))
    assert merged.rank() == 2
    with pytest.raises(nz.IllegalMoveError):
        nz.fold_ia(t, "e1", "e1")


def test_pull_iia_no_op_and_promotion():
    t = _toy_tog()
    sub = st.FreeFactorSystem.from_generator_lists([[w("a")]])
    same = nz.pull_iia(t, "v0", "e1", sub)  # generator already present
    assert same.edge_groups["e1"].canonical_key() == t.edge_groups["e1"].canonical_key()
    bigger = st.FreeFactorSystem.from_generator_lists([[w("b")]])
    out = nz.pull_iia(t, "v0", "e1", bigger)
    assert out.edge_groups["e1"].rank() == 2
    assert out.vertex_groups["v1"].rank() == 2
    with pytest.raises(nz.IllegalMoveError):
        nz.pull_iia(t, "v1", "e2", sub)  # edge not incident to vertex


def test_fold_to_t_script_ia_then_iia():
    comp = lambda *gens: st.FreeFactorSystem.from_generator_lists([[w(g) for g in gens]]).components[0]
    tstar = _toy_tog()
    t = nz.TreeOfGroups(
        "T",
        {"v0": comp("a", "b", "c"), "v1": comp("a", "b")},
        {"v0": 0, "v1": 1},
        {"e": comp("a", "b")},
        {"e": ("v0", "v1")},
    )
    script = nz.fold_to_t(tstar, t)
    kinds = [m[0] for m in script]
    assert kinds[0] == "IA"
    replay = nz.apply_script(tstar, script)
    assert replay.rank() == t.rank()


def test_fold_to_t_iia_only():
    # T* has a smaller edge and a smaller far vertex; IIA pulls promote both
    comp = lambda *gens: st.FreeFactorSystem.from_generator_lists([[w(g) for g in gens]]).components[0]
    tstar = nz.TreeOfGroups(
        "T_STAR",
        {"v0": comp("a", "b", "c"), "v1": comp("a", "d")},
        {"v0": 0, "v1": 1},
        {"e": comp("a")},
        {"e": ("v0", "v1")},
    )
    t = nz.TreeOfGroups(
        "T",
        {"v0": comp("a", "b", "c"), "v1": comp("a", "b", "d")},
        {"v0": 0, "v1": 1},
        {"e": comp("a", "b")},
        {"e": ("v0", "v1")},
    )
    assert tstar.rank() == t.rank() == 4
    script = nz.fold_to_t(tstar, t)
    assert script and all(m[0] == "IIA" for m in script)


def test_fold_to_t_trivial(loop_ray):
    act, cov = _flip_cover14(loop_ray)
    ts = nz.build_tree_of_groups(loop_ray, cov, act, "T_STAR", 14)
    tt = nz.build_tree_of_groups(loop_ray, cov, act, "T", 14)
    assert nz.fold_to_t(ts, tt) == []


# -- finite realization -------------------------------------------------------------------


def _z2():
    return nz.FiniteGroup.cyclic(2)


def assert_action_table(group, action):
    """The whole |G|^2 multiplication table of a graph action, entry by entry."""
    for g in group.elements:
        for h in group.elements:
            assert action[group.mult[(g, h)]] == action[g].compose(action[h]), f"action table fails at {g}*{h}"


def test_realize_trivial_is_rose():
    out = nz.realize_relative(nz.FiniteGroup.trivial(), {"e": st.FreeGroupAutomorphism.identity(("a", "b", "c"))}, None)
    assert out.graph.n_vertices == 1 and len(out.graph.edges) == 3


def test_realize_swap_on_rose():
    targets = {
        "e": st.FreeGroupAutomorphism.identity(("a", "b")),
        "g1": st.FreeGroupAutomorphism.from_images(("a", "b"), {"a": w("b"), "b": w("a")}),
    }
    out = nz.realize_relative(_z2(), targets, None)
    assert out.graph.n_vertices == 1 and len(out.graph.edges) == 2
    assert out.action["g1"].emap in (((1, 0), (0, 0)),)
    out_check = out.marked.outer(out.basis, out.action["g1"])
    assert st.outer_equal(out_check, targets["g1"])


def test_realize_double_inversion():
    targets = {
        "e": st.FreeGroupAutomorphism.identity(("a", "b")),
        "g1": st.FreeGroupAutomorphism.from_images(("a", "b"), {"a": w("A"), "b": w("B")}),
    }
    out = nz.realize_relative(_z2(), targets, None)
    assert all(flip for _, flip in out.action["g1"].emap)
    assert_action_table(_z2(), out.action)


def test_realize_conjugated_swap_needs_search():
    # swap conjugated by a: images are not signed letters but the class is realizable
    conj = st.FreeGroupAutomorphism.inner(("a", "b"), w("a"))
    swap = st.FreeGroupAutomorphism.from_images(("a", "b"), {"a": w("b"), "b": w("a")})
    targets = {"e": st.FreeGroupAutomorphism.identity(("a", "b")), "g1": conj.compose(swap)}
    out = nz.realize_relative(_z2(), targets, None)
    got = out.marked.outer(out.basis, out.action["g1"])
    assert st.outer_equal(got, targets["g1"])


def test_realize_not_found_within_bound():
    # Z/5 cannot act faithfully realizing the identity on F_2 (injectivity fails)
    z5 = nz.FiniteGroup.cyclic(5)
    targets = {g: st.FreeGroupAutomorphism.identity(("a", "b")) for g in z5.elements}
    with pytest.raises(nz.NotFoundWithinBoundError) as exc:
        nz.realize_relative(z5, targets, None, e_max=4)
    assert str(exc.value) == "no realization within e_max = 4 edges; examined 23 graphs and 23 actions"
    with pytest.raises(nz.NotFoundWithinBoundError) as exc:
        nz.realize_relative(z5, targets, None, rank_bound=1)
    assert str(exc.value) == "rank 2 exceeds the search bound rank_bound = 1"


def _full_table_action(group, gens, g, images):
    """Reference: the former check, which composes every element along its
    expression and then compares the whole |G|^2 table."""
    expr = nz._element_expressions(group, gens)
    gen_img = dict(zip(gens, images))
    act = {}
    ok = True
    for elem, word in expr.items():
        acc = nz.identity_automorphism(g)
        for s in reversed(word):
            acc = gen_img[s].compose(acc)
        act[elem] = acc
    for gname in group.elements:
        for hname in group.elements:
            if act[group.mult[(gname, hname)]] != act[gname].compose(act[hname]):
                ok = False
                break
        if not ok:
            break
    return act if ok else None


def _extensions_match_full_table(group, g):
    """Compare over every generator assignment; return (accepted, rejected)."""
    gens = nz._generating_subset(group)
    expr = nz._element_expressions(group, gens)
    outcomes = []
    for images in itertools.product(nz.automorphisms(g), repeat=len(gens)):
        want = _full_table_action(group, gens, g, images)
        assert nz._extend_to_action(group, expr, g, dict(zip(gens, images))) == want
        outcomes.append(want is not None)
    return outcomes.count(True), outcomes.count(False)


@pytest.mark.parametrize("petals", [1, 2])
@pytest.mark.parametrize("group_name", ["z2", "z3", "order8"])
def test_extend_to_action_matches_full_table_on_roses(group_name, petals):
    group = {
        "z2": nz.FiniteGroup.cyclic(2),
        "z3": nz.FiniteGroup.cyclic(3),
        "order8": _order8_wedge_group()[0],
    }[group_name]
    accepted, _ = _extensions_match_full_table(group, nz.SymGraph(1, ((0, 0),) * petals))
    assert accepted >= 1  # the trivial action


def test_extend_to_action_matches_full_table_on_small_graphs():
    graphs = list(nz._enumerate_graphs(2, 4))
    assert len(graphs) > 1
    totals = [_extensions_match_full_table(nz.FiniteGroup.cyclic(2), g) for g in graphs]
    assert all(accepted >= 1 for accepted, _ in totals)
    assert any(rejected for _, rejected in totals)


# -- relative realization ------------------------------------------------------------------


def test_generator_rows_catch_every_broken_table():
    """A table that fails the full |G|^2 check fails the generator rows, with
    act[e] the identity (the trivial group has no generator rows): tables of
    small-graph actions with two entries swapped or one replaced by another
    automorphism."""
    rng = random.Random(9)
    for group in (nz.FiniteGroup.trivial(), nz.FiniteGroup.cyclic(3), nz.FiniteGroup.cyclic(4), _order8_wedge_group()[0]):
        for g, act in itertools.islice(nz._small_graph_actions(group, 2, 4), 40):
            nz._check_action(group, g, act)
            auts = nz.automorphisms(g)
            for _ in range(5):
                broken = dict(act)
                x, y = rng.choice(group.elements), rng.choice(group.elements)
                if rng.random() < 0.5:
                    broken[x], broken[y] = act[y], act[x]
                else:
                    broken[x] = rng.choice(auts)
                try:
                    assert_action_table(group, broken)
                except AssertionError:
                    with pytest.raises(nz.FinalCheckFailedError):
                        nz._check_action(group, g, broken)
                else:
                    nz._check_action(group, g, broken)


def test_realize_relative_empty_delegates():
    targets = {
        "e": st.FreeGroupAutomorphism.identity(("a", "b")),
        "g1": st.FreeGroupAutomorphism.from_images(("a", "b"), {"a": w("b"), "b": w("a")}),
    }
    out = nz.realize_relative(_z2(), targets, None)
    assert out.embedding is None and out.graph.rank() == 2


def test_realize_relative_complete_piece():
    rose = nz.SymGraph(1, ((0, 0), (0, 0)))
    swap_auto = nz.GraphAutomorphism((0,), ((1, 0), (0, 0)))
    piece = nz.RelativePiece(
        rose,
        {"e": nz.identity_automorphism(rose), "g1": swap_auto},
        ((w("a"), w("b")),),
    )
    targets = {
        "e": st.FreeGroupAutomorphism.identity(("a", "b")),
        "g1": st.FreeGroupAutomorphism.from_images(("a", "b"), {"a": w("b"), "b": w("a")}),
    }
    out = nz.realize_relative(_z2(), targets, piece)
    assert out.graph.rank() == 2
    assert out.embedding is not None


def test_realize_relative_invariant_loop_in_swap():
    # gamma0: circle of two edges, rotation action, realizing <ab> inside the swap instance
    circle = nz.SymGraph(2, ((0, 1), (1, 0)))
    rot = nz.GraphAutomorphism((1, 0), ((1, 0), (0, 0)))
    piece = nz.RelativePiece(circle, {"e": nz.identity_automorphism(circle), "g1": rot}, ((w("ab"),),))
    targets = {
        "e": st.FreeGroupAutomorphism.identity(("a", "b")),
        "g1": st.FreeGroupAutomorphism.from_images(("a", "b"), {"a": w("b"), "b": w("a")}),
    }
    out = nz.realize_relative(_z2(), targets, piece, e_max=4)
    assert out.embedding is not None
    assert out.graph.rank() == 2
    # the embedded circle really carries the invariant factor
    assert nz._embedded_classes_match(piece, out.marked, out.embedding)


# -- core pipeline ----------------------------------------------------------------------------


def test_realize_core_trivial_group(loop_ray):
    act = nz.FiniteGroupAction.make(nz.FiniteGroup.trivial(), {"e": mc.ProperMapRep.identity(loop_ray, 14)})
    cov = nz.IntervalCover.make(range(15), [(0, 12), (2, 14)], min_overlap=10)
    real = nz.realize_core_case(act, cov)
    assert real.graph.rank() == 15
    assert all(bool(v) for v in real.verdicts.values())


def test_realize_core_flip(loop_ray):
    act, cov = _flip_cover14(loop_ray)
    real = nz.realize_core_case(act, cov)
    assert real.graph.rank() == 15
    assert all(bool(v) for v in real.verdicts.values())
    # the action is a simplicial involution
    g1 = real.action["g1"]
    assert g1.compose(g1) == nz.identity_automorphism(real.graph)


def test_realize_core_flip_height_two(loop_ray):
    """Three intervals: a tree of groups of height 2."""
    act = make_flip_action(loop_ray, 40)
    cov = nz.IntervalCover.make(range(41), [(0, 16), (4, 30), (18, 40)], min_overlap=10)
    real = nz.realize_core_case(act, cov)
    assert [h for h, _ in real.report["t_star_shape"]] == [0, 1, 2]
    assert real.graph.rank() == 41
    assert all(v.kind == "certified_yes" for v in real.verdicts.values())


@pytest.mark.parametrize("depth", [1, 4, 7, 8, 14, 20])
def test_realize_core_one_interval_cover(loop_ray, depth):
    """The default cover at supports up to 24 is one interval: a one-vertex tree of groups."""
    act = make_flip_action(loop_ray, depth)
    real = nz.realize_core_case(act)
    assert real.report["intervals"] == [(0, depth)]
    assert real.report["vertex_count"] == 1
    assert real.graph.rank() == depth + 1
    assert all(v.kind == "certified_yes" for v in real.verdicts.values())
    trivial = nz.FiniteGroupAction.make(nz.FiniteGroup.trivial(), {"e": mc.ProperMapRep.identity(loop_ray, depth)})
    assert nz.realize_core_case(trivial).verdicts["e"].kind == "certified_yes"


def test_realize_core_rejects_tree(cantor_tree):
    act = nz.FiniteGroupAction.make(nz.FiniteGroup.trivial(), {"e": mc.ProperMapRep.identity(cantor_tree, 4)})
    with pytest.raises(nz.NotCoreGraphError):
        nz.realize_core_case(act)


# -- fixed points -----------------------------------------------------------------------------


def test_fixed_point_examples():
    assert nz.fixed_point_in_finite_tree([0], [], [{0: 0}]) == ("vertex", 0)
    assert nz.fixed_point_in_finite_tree([0, 1, 2], [(0, 1), (1, 2)], [{0: 2, 1: 1, 2: 0}]) == ("vertex", 1)
    assert nz.fixed_point_in_finite_tree([0, 1], [(0, 1)], [{0: 1, 1: 0}]) == ("edge", (0, 1))


def test_fixed_point_random_trees():
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(1, 25)
        edges = [(rng.randint(0, i - 1), i) for i in range(1, n)]
        sigma = _random_tree_automorphism(n, edges, rng)
        center = nz.fixed_point_in_finite_tree(list(range(n)), edges, [sigma])
        if center[0] == "vertex":
            assert sigma[center[1]] == center[1]
        else:
            u, v = center[1]
            assert {sigma[u], sigma[v]} == {u, v}


def _random_tree_automorphism(n, edges, rng):
    """Random rooted-tree automorphism: shuffle isomorphic sibling subtrees."""
    children = {v: [] for v in range(n)}
    for u, v in edges:
        children[u].append(v)

    def shape(v):
        return tuple(sorted(shape(c) for c in children[v]))

    sigma = {0: 0}

    def descend(v, img):
        groups: dict = {}
        for c in children[v]:
            groups.setdefault(shape(c), []).append(c)
        img_groups: dict = {}
        for c in children[img]:
            img_groups.setdefault(shape(c), []).append(c)
        for sh, group in groups.items():
            targets = img_groups[sh][:]
            rng.shuffle(targets)
            for c, ic in zip(group, targets):
                sigma[c] = ic
                descend(c, ic)

    descend(0, 0)
    return sigma


def test_fixed_point_in_orbit_hull():
    # pruning the convex hull of any orbit yields a fixed point inside it
    edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]

    def tree_geodesic(a, b):
        """Vertex path from a to b in the tree, by breadth-first search."""
        adj = {v: [] for v in range(7)}
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        prev = {a: a}
        queue = [a]
        for x in queue:  # the queue grows while it is walked
            for y in adj[x]:
                if y not in prev:
                    prev[y] = x
                    queue.append(y)
        path = [b]
        while path[-1] != a:
            path.append(prev[path[-1]])
        return path

    sigma = {0: 0, 1: 2, 2: 1, 3: 5, 4: 6, 5: 3, 6: 4}
    center = nz.fixed_point_in_finite_tree(list(range(7)), edges, [sigma])
    assert center == ("vertex", 0)
    for v in range(7):
        orbit = sorted({v, sigma[v]})
        hull = set()
        for x in orbit:
            for y in orbit:
                hull.update(tree_geodesic(x, y))
        hull_edges = [e for e in edges if e[0] in hull and e[1] in hull]
        sub = nz.fixed_point_in_finite_tree(sorted(hull), hull_edges, [{x: sigma[x] for x in hull}])
        pts = {sub[1]} if sub[0] == "vertex" else set(sub[1])
        assert pts <= hull


# -- Nielsen rays ------------------------------------------------------------------------------


def test_nielsen_ray_trivial_stabilizer(core_with_rays):
    act = nz.FiniteGroupAction.make(nz.FiniteGroup.trivial(), {"e": mc.ProperMapRep.identity(core_with_rays, 4)})
    ray = nz.nielsen_ray(act, (0, 0, 1, 0))
    assert ray.attachment == (0, 0)
    assert ray.core_point() == ("vertex", (0, 0))


def test_nielsen_ray_flip_stabilizer(core_with_rays):
    act = make_flip_action(core_with_rays, 4)
    ray = nz.nielsen_ray(act, (0, 1, 0, 0))
    assert ray.core_point() == ("vertex", (0,))
    assert set(ray.stabilizer) == {"e", "g1"}


def test_nielsen_ray_displaced_by_drag():
    # invert all loops and drag the free ray by x0: the fixed point moves
    # to the midpoint of the x0 axis in the cover
    a = gm.UnfoldingAutomaton.make("r", {"r": ["c", "d"], "c": ["c"], "d": ["d"]}, {"r": 1, "c": 1})
    depth = 4
    t = gm.unfold(a, depth)
    x0 = lid(())
    li = {lid(v, k): W.gen(lid(v, k), -1) for v, k in t.loop_edges}
    h = mc.ProperMapRep.make(a, depth, loop_images=li, edge_wraps={(1,): W.gen(x0)})
    act = nz.FiniteGroupAction.make(nz.FiniteGroup.cyclic(2), {"e": mc.ProperMapRep.identity(a, depth), "g1": h})
    ray = nz.nielsen_ray(act, (1, 0, 0, 0))
    kind, pt = ray.rho
    assert kind == "edge"
    ends = {p[1] for p in pt}
    assert ends == {()}  # both cover endpoints sit over the root: the x0 axis


def test_nielsen_ray_far_drag():
    # the x0^5 drag puts the orbit point five loop crossings from the
    # attachment; the center of their geodesic is its middle edge
    a = gm.UnfoldingAutomaton.make("r", {"r": ["c", "d"], "c": ["c"], "d": ["d"]}, {"r": 1, "c": 1})
    depth = 4
    t = gm.unfold(a, depth)
    x0 = lid(())
    li = {lid(v, k): W.gen(lid(v, k), -1) for v, k in t.loop_edges}
    h = mc.ProperMapRep.make(
        a, depth, loop_images=li, edge_wraps={(1,): W.power(W.gen(x0), 5)}
    )
    act = nz.FiniteGroupAction.make(nz.FiniteGroup.cyclic(2), {"e": mc.ProperMapRep.identity(a, depth), "g1": h})
    kind, pt = nz.nielsen_ray(act, (1, 0, 0, 0)).rho
    assert kind == "edge"
    assert set(pt) == {(W.power(W.gen(x0), -2), ()), (W.power(W.gen(x0), -3), ())}


def test_nielsen_ray_rejects_non_invariant_hull():
    # dragging the free ray by x0 without inverting the loops has infinite
    # order: the lift moves the orbit hull off itself
    a = gm.UnfoldingAutomaton.make("r", {"r": ["c", "d"], "c": ["c"], "d": ["d"]}, {"r": 1, "c": 1})
    depth = 4
    h = mc.ProperMapRep.make(a, depth, edge_wraps={(1,): W.gen(lid(()))})
    act = nz.FiniteGroupAction(nz.FiniteGroup.cyclic(2), a, depth, {"e": mc.ProperMapRep.identity(a, depth), "g1": h})
    with pytest.raises(nz.InvarianceFailedError):
        nz.nielsen_ray(act, (1, 0, 0, 0))


# -- good covers and the general case -----------------------------------------------------------


def _swap_branch_action(depth=4):
    model = gm.UnfoldingAutomaton.make("r", {"r": ["c", "b"], "c": ["c"], "b": ["b", "b"]}, {"r": 1, "c": 1})
    t = gm.unfold(model, depth)

    def swap_v(v):
        if len(v) >= 2 and v[0] == 1:
            return (1, 1 - v[1]) + v[2:]
        return v

    h = mc.ProperMapRep.make(model, depth, vmap={v: swap_v(v) for v in t.vertices})
    act = nz.FiniteGroupAction.make(
        nz.FiniteGroup.cyclic(2), {"e": mc.ProperMapRep.identity(model, depth), "g1": h}
    )
    return model, act


def test_action_takes_every_representative_at_the_deepest_support():
    """The stabilizer of an end reads each representative at the action's depth, so ``make``
    extends a shallower one there: the swap at support 2 moves the end 1/0/0/0."""
    model, same = _swap_branch_action(4)
    swap = mc.ProperMapRep.make(model, 2, vmap={(1, 0): (1, 1), (1, 1): (1, 0)})
    mixed = nz.FiniteGroupAction.make(same.group, {"e": same.reps["e"], "g1": swap})
    assert mixed.depth == 4 and mixed.reps["g1"].moves == same.reps["g1"].moves
    beta = (1, 0, 0, 0)
    assert nz.nielsen_ray(mixed, beta) == nz.nielsen_ray(same, beta)
    assert nz.nielsen_ray(mixed, beta).stabilizer == ("e",)


def test_good_filter_selects_branch():
    from fractions import Fraction

    model, act = _swap_branch_action()
    seq = [es.Partition.trivial(model, 4)] + [
        es.epsilon_partition(model, Fraction(2) ** (1 - n), 4) for n in range(1, 4)
    ]
    cover = nz.good_filter(seq, act)
    assert len(cover.blocks) >= 1
    levels = [n for n, _ in cover.blocks]
    assert min(levels) >= 1


def test_good_filter_rejects_straddling_block(core_with_rays):
    # the free rays at depth 0 and depth 1 are only covered by one block
    # sitting over two different attachment points; it cannot be good
    ident = mc.ProperMapRep.identity(core_with_rays, 3)
    act = nz.FiniteGroupAction.make(nz.FiniteGroup.trivial(), {"e": ident})
    straddle = es.ClopenSet.make([(0, 1, 0), (1, 0, 0)], 3)
    rest = es.ClopenSet.make([(0, 0, 0), (0, 0, 1)], 3)
    p = es.Partition.make(core_with_rays, 3, [straddle, rest])
    seq = [es.Partition.trivial(core_with_rays, 3), p]
    with pytest.raises(nz.NoGoodLevelError):
        nz.good_filter(seq, act)


def test_realize_general_reduces_to_tree(cantor_tree):
    t = gm.unfold(cantor_tree, 3)
    vmap = {v: ((1 - v[0],) + v[1:] if v else ()) for v in t.vertices}
    swap = mc.ProperMapRep.make(cantor_tree, 3, vmap=vmap)
    act = nz.FiniteGroupAction.make(nz.FiniteGroup.cyclic(2), {"e": mc.ProperMapRep.identity(cantor_tree, 3), "g1": swap})
    out = nz.realize_general_case(act, levels=3)
    assert isinstance(out, nz.TreeRealization)


def test_realize_general_reduces_to_core(loop_ray):
    act, cov = make_flip_action(loop_ray, 26), None
    out = nz.realize_general_case(act)
    assert isinstance(out, nz.CoreRealization)


def test_realize_general_mixed():
    model, act = _swap_branch_action()
    out = nz.realize_general_case(act, levels=3)
    assert isinstance(out, nz.GeneralRealization)
    g1 = out.action["g1"]
    assert g1.compose(g1) == nz.identity_automorphism(out.graph)
    # core loops stay put, telescope vertices mirror
    assert out.graph.rank() == 5  # loops at core depths 0..4


def test_general_requires_simplicial_core():
    model = gm.UnfoldingAutomaton.make("r", {"r": ["c", "b"], "c": ["c"], "b": ["b", "b"]}, {"r": 1, "c": 1})
    depth = 3
    x0 = lid(())
    li = {x0: W.conjugate(W.gen(x0), W.gen(lid((0,))))}

    t = gm.unfold(model, depth)
    conj = mc.ProperMapRep.make(model, depth, loop_images=li)
    # order 2 fails; build the action uncertified to hit the simplicial check
    act = nz.FiniteGroupAction(nz.FiniteGroup.cyclic(2), model, depth, {"e": mc.ProperMapRep.identity(model, depth), "g1": conj})
    with pytest.raises(ValueError):
        nz.realize_general_case(act, levels=2)


# -- action files -------------------------------------------------------------------------------


def test_parse_action_file(loop_ray):
    ident = mc.format_map_file(mc.ProperMapRep.identity(loop_ray, 3))
    t = gm.unfold(loop_ray, 3)
    li = {lid(v, k): W.gen(lid(v, k), -1) for v, k in t.loop_edges}
    flip = mc.format_map_file(mc.ProperMapRep.make(loop_ray, 3, loop_images=li))
    files = {"e.map": ident, "g1.map": flip}
    text = """group z2 order 2
elem e: mapfile=e.map
elem g1: mapfile=g1.map
mult e e = e
mult e g1 = g1
mult g1 e = g1
mult g1 g1 = e
"""
    act = nz.parse_action_file(loop_ray, text, lambda rel: files[rel])
    assert set(act.group.elements) == {"e", "g1"}
    assert act.reps["g1"].loop_word(lid(())) == W.gen(lid(()), -1)


def test_displacement_shift_map_band_one(loop_ray):
    grp = nz.FiniteGroup.cyclic(2)
    ident = mc.ProperMapRep.identity(loop_ray, 8)
    li = {}
    for n in range(1, 9):
        xn, xp = lid((0,) * n), lid((0,) * (n - 1))
        li[xn] = W.mul(W.gen(xn), W.gen(xp))
    shift = mc.ProperMapRep.make(loop_ray, 8, loop_images=li, outside=mc.banded(1))
    act = nz.FiniteGroupAction(grp, loop_ray, 8, {"e": ident, "g1": shift})
    assert nz.verify_displacement_bound(act, list(range(9)), 8)


def _order8_wedge_group():
    """Signed permutations of two letters: the order-8 symmetry group."""
    import itertools as it

    elements = {}
    for perm in ((0, 1), (1, 0)):
        for signs in it.product((1, -1), repeat=2):
            name = f"p{perm[0]}{perm[1]}s{'p' if signs[0] > 0 else 'm'}{'p' if signs[1] > 0 else 'm'}"
            elements[name] = (perm, signs)

    def compose(a, b):
        (pa, sa), (pb, sb) = elements[a], elements[b]
        # apply b then a: x_k -> x_{pb(k)}^{sb_k} -> x_{pa(pb(k))}^{sa_{pb(k)} sb_k}
        perm = tuple(pa[pb[k]] for k in range(2))
        signs = tuple(sa[pb[k]] * sb[k] for k in range(2))
        return next(n for n, v in elements.items() if v == (perm, signs))

    names = sorted(elements)
    mult = {(a, b): compose(a, b) for a in names for b in names}
    return nz.FiniteGroup.make(names, mult), elements


def _order8_action(two_loop_ray, depth):
    group, elements = _order8_wedge_group()
    t = gm.unfold(two_loop_ray, depth)
    reps = {}
    for name, (perm, signs) in elements.items():
        li = {}
        for v, k in t.loop_edges:
            img = W.gen(lid(v, perm[k]), signs[k])
            if img != W.gen(lid(v, k)):
                li[lid(v, k)] = img
        reps[name] = mc.ProperMapRep.make(two_loop_ray, depth, loop_images=li)
    return group, nz.FiniteGroupAction.make(group, reps)


def test_realize_core_order8_two_loop_ray(two_loop_ray):
    """The order-8 per-vertex symmetry of the two-loop ray, depth-14 run."""
    depth = 14
    group, act = _order8_action(two_loop_ray, depth)
    cov = nz.IntervalCover.make(range(depth + 1), [(0, 12), (2, 14)], min_overlap=10)
    real = nz.realize_core_case(act, cov)
    assert real.graph.rank() == 2 * (depth + 1)
    assert all(v.kind == "certified_yes" for v in real.verdicts.values())
    # simplicial action table of order 8
    assert_action_table(group, real.action)
    assert len({tuple(a.emap) for a in real.action.values()}) == 8


def test_core_realization_builds_each_system_and_pushforward_once(two_loop_ray, monkeypatch):
    # T and T* ask for F(J), F(J-) and F(J+) again and again, and f_prime,
    # the invariance checks of F* and the action on T* push the same
    # components by the same elements: each must be built once per op
    group, act = _order8_action(two_loop_ray, 14)
    cov = nz.IntervalCover.make(range(15), [(0, 12), (2, 14)], min_overlap=10)
    rose, push = st.LabeledGraph.rose, st._push_component
    roses, pushes = [], []

    def counting_rose(cls, labels, basepoint=0):
        roses.append(tuple(labels))  # one rose per component of an interval system
        return rose(labels, basepoint)

    def counting_push(phi, comp):
        pushes.append((phi.tuple_images(), comp))
        return push(phi, comp)

    monkeypatch.setattr(st.LabeledGraph, "rose", classmethod(counting_rose))
    monkeypatch.setattr(st, "_push_component", counting_push)
    real = nz.realize_core_case(act, cov)
    assert all(v.kind == "certified_yes" for v in real.verdicts.values())
    assert roses and len(roses) == len(set(roses))
    assert pushes and len(pushes) == len(set(pushes))
    assert {images for images, _ in pushes} == {act.outer(g).tuple_images() for g in group.elements}


def test_certify_checks_generator_rows_without_composites(two_loop_ray, monkeypatch):
    # two generator rows of the order-8 table are 16 relations, each read off
    # the representatives by composes_to
    _, act = _order8_action(two_loop_ray, 4)
    composes_to, relations = mc.composes_to, []

    def counting_composes_to(*args):
        relations.append(args)
        return composes_to(*args)

    monkeypatch.setattr(mc, "composes_to", counting_composes_to)
    act.certify()
    assert len(nz._generating_subset(act.group)) == 2
    assert len(relations) == 16


def test_certify_rejects_wrong_non_generator_element():
    # Z/3 is generated by g1 alone; a wrong rep(g2) shows in the g1 row
    three = gm.UnfoldingAutomaton.make(
        "r", {"r": ["p", "q", "s"], "p": ["p"], "q": ["q"], "s": ["s"]}, {"r": 1, "p": 1, "q": 1, "s": 1}
    )
    rotate = _branch_permutation_action(three, 4, {0: 1, 1: 2, 2: 0})
    reps = {"e": mc.ProperMapRep.identity(three, 4), "g1": rotate, "g2": rotate}
    assert nz._generating_subset(nz.FiniteGroup.cyclic(3)) == ["g1"]
    with pytest.raises(ValueError, match=r"relation g1\*g1=g2 fails certification"):
        nz.FiniteGroupAction.make(nz.FiniteGroup.cyclic(3), reps)


@pytest.mark.parametrize(
    "case, depth, intervals",
    [
        ("flip", 60, [(0, 16), (4, 30), (18, 44), (32, 60)]),
        ("flip", 80, [(0, 16), (4, 30), (18, 44), (32, 58), (46, 80)]),
        ("order8", 40, [(0, 16), (4, 30), (18, 40)]),
    ],
)
def test_realize_core_many_fresh_wedge_petals(loop_ray, two_loop_ray, case, depth, intervals):
    """Pieces whose wedges need 8 to 22 fresh petals, k!·2^k signed
    permutations each; the one that realizes the target is read off it."""
    if case == "flip":
        act, rank = make_flip_action(loop_ray, depth), depth + 1
    else:
        act, rank = _order8_action(two_loop_ray, depth)[1], 2 * (depth + 1)
    real = nz.realize_core_case(act, nz.IntervalCover.make(range(depth + 1), intervals, min_overlap=10))
    assert [h for h, _ in real.report["t_star_shape"]] == list(range(len(intervals)))
    assert real.graph.rank() == rank
    assert all(v.kind == "certified_yes" for v in real.verdicts.values())


def test_structured_search_extends_only_admitted_assignments(two_loop_ray, monkeypatch):
    # unscreened, each order-8 vertex search extended 3,968 assignments to find one
    group, act = _order8_action(two_loop_ray, 14)
    cov = nz.IntervalCover.make(range(15), [(0, 12), (2, 14)], min_overlap=10)
    extend, relative = nz._extend_to_action, nz.realize_relative
    extended, per_call = [0], []

    def counting_extend(*args):
        extended[0] += 1
        return extend(*args)

    def counting_relative(*args, **kwargs):
        before = extended[0]
        out = relative(*args, **kwargs)
        per_call.append(extended[0] - before)
        return out

    monkeypatch.setattr(nz, "_extend_to_action", counting_extend)
    monkeypatch.setattr(nz, "realize_relative", counting_relative)
    real = nz.realize_core_case(act, cov)
    assert all(v.kind == "certified_yes" for v in real.verdicts.values())
    assert per_call and max(per_call) <= 8, per_call


def _branch_permutation_action(automaton, depth, perm_of_first_index):
    t = gm.unfold(automaton, depth)

    def move(v):
        return ((perm_of_first_index[v[0]],) + v[1:]) if v else v

    vmap = {v: move(v) for v in t.vertices}
    li = {}
    for v, k in t.loop_edges:
        img = lid(move(v), k)
        if img != lid(v, k):
            li[lid(v, k)] = W.gen(img)
    return mc.ProperMapRep.make(automaton, depth, vmap=vmap, loop_images=li)


def test_realize_core_branch_swap():
    """Z/2 exchanging two loop-ray branches: nontrivial orbits in T*."""
    two_branch = gm.UnfoldingAutomaton.make(
        "r", {"r": ["p", "q"], "p": ["p"], "q": ["q"]}, {"r": 1, "p": 1, "q": 1}
    )
    depth = 14
    swap = _branch_permutation_action(two_branch, depth, {0: 1, 1: 0})
    act = nz.FiniteGroupAction.make(
        nz.FiniteGroup.cyclic(2), {"e": mc.ProperMapRep.identity(two_branch, depth), "g1": swap}
    )
    cov = nz.IntervalCover.make(range(depth + 1), [(0, 12), (2, 14)], min_overlap=10)
    real = nz.realize_core_case(act, cov)
    assert real.graph.rank() == 2 * depth + 1
    assert all(v.kind == "certified_yes" for v in real.verdicts.values())
    g1 = real.action["g1"]
    assert g1.compose(g1) == nz.identity_automorphism(real.graph)
    assert g1 != nz.identity_automorphism(real.graph)


def test_realize_core_branch_rotation():
    """Z/3 rotating three loop-ray branches: order-3 orbit transport."""
    three = gm.UnfoldingAutomaton.make(
        "r", {"r": ["p", "q", "s"], "p": ["p"], "q": ["q"], "s": ["s"]},
        {"r": 1, "p": 1, "q": 1, "s": 1},
    )
    depth = 14
    act = nz.FiniteGroupAction.make(
        nz.FiniteGroup.cyclic(3),
        {
            "e": mc.ProperMapRep.identity(three, depth),
            "g1": _branch_permutation_action(three, depth, {0: 1, 1: 2, 2: 0}),
            "g2": _branch_permutation_action(three, depth, {0: 2, 1: 0, 2: 1}),
        },
    )
    cov = nz.IntervalCover.make(range(depth + 1), [(0, 12), (2, 14)], min_overlap=10)
    real = nz.realize_core_case(act, cov)
    assert real.graph.rank() == 3 * depth + 1
    assert all(v.kind == "certified_yes" for v in real.verdicts.values())
    a1 = real.action["g1"]
    assert a1.compose(a1.compose(a1)) == nz.identity_automorphism(real.graph)


def test_general_deep_mixing_is_honest():
    """DX accumulating onto genus ends cannot be covered at finite depth."""
    model = gm.UnfoldingAutomaton.make(
        "r", {"r": ["p", "q"], "p": ["p", "d"], "q": ["q", "d"], "d": ["d"]},
        {"r": 1, "p": 1, "q": 1},
    )
    assert gm.deep_mixed_states(model)
    depth = 4
    t = gm.unfold(model, depth)

    def sw(v):
        return ((1 - v[0],) + v[1:]) if v else v

    li = {}
    for v, k in t.loop_edges:
        img = lid(sw(v), k)
        if img != lid(v, k):
            li[lid(v, k)] = W.gen(img)
    swap = mc.ProperMapRep.make(model, depth, vmap={v: sw(v) for v in t.vertices}, loop_images=li)
    act = nz.FiniteGroupAction.make(
        nz.FiniteGroup.cyclic(2), {"e": mc.ProperMapRep.identity(model, depth), "g1": swap}
    )
    with pytest.raises(nz.NoGoodLevelError):
        nz.realize_general_case(act, levels=3)


def test_general_swapping_core_with_rays():
    """Telescopes re-attach equivariantly when the core itself is swapped."""
    model = gm.UnfoldingAutomaton.make(
        "r",
        {"r": ["p", "q"], "p": ["pc", "d"], "q": ["qc", "d"], "pc": ["pc"], "qc": ["qc"], "d": ["d"]},
        {"r": 1, "p": 1, "q": 1, "pc": 1, "qc": 1},
    )
    assert not gm.deep_mixed_states(model)
    depth = 4
    t = gm.unfold(model, depth)

    def sw(v):
        return ((1 - v[0],) + v[1:]) if v else v

    li = {}
    for v, k in t.loop_edges:
        img = lid(sw(v), k)
        if img != lid(v, k):
            li[lid(v, k)] = W.gen(img)
    swap = mc.ProperMapRep.make(model, depth, vmap={v: sw(v) for v in t.vertices}, loop_images=li)
    act = nz.FiniteGroupAction.make(
        nz.FiniteGroup.cyclic(2), {"e": mc.ProperMapRep.identity(model, depth), "g1": swap}
    )
    out = nz.realize_general_case(act, levels=3)
    # the two free-ray blocks form one orbit attached at swapped core vertices
    rho_points = sorted(out.report["rho"].values())
    assert rho_points == ["0", "1"]
    g1 = out.action["g1"]
    assert g1.compose(g1) == nz.identity_automorphism(out.graph)
    assert g1 != nz.identity_automorphism(out.graph)
