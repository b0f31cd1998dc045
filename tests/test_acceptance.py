"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line with its runtime and enforces the stated
budget and tolerance (exact unless noted).
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from propermaps import end_space as es
from propermaps import graph_model as gm
from propermaps import mapclass as mc
from propermaps import nielsen as nz
from propermaps import stallings as st
from propermaps import words as W
from propermaps.end_space import ClopenSet
from tests.conftest import make_flip_action
from tests.test_nielsen import assert_action_table
from tests.test_one_derivation_oracle import ref_compose, ref_rigid_inverse


def w(s):
    return W.word_from_str(s)


def lid(path, k=0):
    return mc.loop_id(tuple(path), k)


class _Timer:
    def __init__(self, number, budget, label):
        self.number, self.budget, self.label = number, budget, label

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number}: {status} ({elapsed:.2f}s) {self.label}")
        if exc_type is None:
            assert elapsed < self.budget, f"criterion {self.number} exceeded {self.budget}s"


def test_criterion_1_free_factor_intersection():
    with _Timer(1, 1.0, "free factor intersection reproduces the worked example"):
        ab = st.FreeFactorSystem.from_generator_lists([[w("a"), w("b")]])
        a_cbc = st.FreeFactorSystem.from_generator_lists([[w("a"), w("cbC")]])
        c = st.FreeFactorSystem.from_generator_lists([[w("c")]])
        inter = st.intersect_ffs(ab, a_cbc)
        assert inter == st.FreeFactorSystem.from_generator_lists([[w("a")], [w("b")]])
        assert inter.ranks() == (1, 1)
        empty = st.intersect_ffs(ab, c)
        assert empty.is_empty()
        assert len(empty.components) == 0


def test_criterion_2_example_map_flagged(loop_ray):
    with _Timer(2, 10.0, "the x_n -> x_n x_{n-1} map has no proper inverse"):
        depth = 7
        li = {}
        for n in range(1, depth + 1):
            xn, xp = lid((0,) * n), lid((0,) * (n - 1))
            li[xn] = W.mul(W.gen(xn), W.gen(xp))
        shift = mc.ProperMapRep.make(loop_ray, depth, loop_images=li, outside=mc.banded(1))
        verdict = mc.is_properly_homotopic_to_identity(shift)
        assert verdict.kind == "no"
        assert verdict.witness == ("loop", lid((0,)))

        # Every IDENTITY_OUTSIDE candidate inverse up to support depth 6 fails.
        # Dichotomy: write w6 = g_*(x6).  If w6 is nontrivial then (g o f)
        # moves the class of x7 = x7 w6; if w6 is trivial then (f o g) kills
        # the class of x6.  Both branches are exercised on a systematic
        # family plus random candidates.
        shift_io = mc.ProperMapRep.make(loop_ray, depth, loop_images=li)
        rng = random.Random(0)
        lids6 = [lid((0,) * n) for n in range(0, 7)]
        x6, x7 = lid((0,) * 6), lid((0,) * 7)

        def candidate(images):
            return mc.ProperMapRep.make(loop_ray, 6, loop_images=images)

        candidates = [candidate({})]  # identity
        for target in (W.EMPTY, W.gen(x6), W.gen(x6, -1), W.gen(lids6[0]), W.mul(W.gen(x6), W.gen(lids6[5]))):
            # maps differing from the identity only at x6, including the
            # degenerate x6 -> 1 killing the class on the other side
            candidates.append(candidate({x6: target}))
        for _ in range(40):
            images = {}
            for x in lids6[1:]:
                word = W.reduce_word([(rng.choice(lids6), rng.choice((1, -1))) for _ in range(rng.randint(0, 3))])
                images[x] = W.mul(W.gen(x), word) if rng.random() < 0.7 else (word or W.gen(x))
            try:
                candidates.append(candidate(images))
            except ValueError:
                continue
        # include the truncated genuine inverse (the best possible candidate)
        trunc = mc.ProperMapRep.make(loop_ray, 6, loop_images={
            lid((0,) * n): W.mul(W.gen(lid((0,) * n)), W.gen(lid((0,) * (n - 1)))) for n in range(1, 7)
        })
        best = ref_rigid_inverse(trunc)
        assert best is not None
        candidates.append(best)

        for g in candidates:
            assert not mc.verify_proper_pair(shift_io, g)
            # dichotomy on the composite classes: one side always moves
            g7 = mc.extend(g, depth)
            gf = ref_compose(g7, shift_io)
            fg = ref_compose(shift_io, g7)
            assert (
                not W.is_conjugate(gf.loop_word(x7), W.gen(x7))
                or not W.is_conjugate(fg.loop_word(x6), W.gen(x6))
            )


def test_criterion_3_classify(two_loop_ray, cantor_tree, plain_ray):
    with _Timer(3, 1.0, "classification of the intro pair and ray vs Cantor tree"):
        three = gm.UnfoldingAutomaton.make("s", {"s": ["s"]}, {"s": 3})
        assert gm.classify_equivalent(two_loop_ray, three) == "YES"
        assert gm.classify_equivalent(plain_ray, cantor_tree) == "NO"


def test_criterion_4_phi_round_trip(core_with_rays):
    with _Timer(4, 60.0, "Phi_T round-trip on 100 random R-functions + cocycle"):
        rng = random.Random(42)
        a = core_with_rays
        depth = 5
        alpha0 = mc.default_base_end(a, depth)
        dx = gm.dx_states(a)
        deep = gm.deep_mixed_states(a)
        cyls = [c for c in gm.cylinders(a, depth) if a.state_of(c) in dx]
        lids = mc.ProperMapRep.identity(a, depth).loop_ids()

        def random_rfunction():
            blocks, trivial = [], []
            for c in cyls:
                nontrivial_ok = a.state_of(c) not in deep and c != alpha0
                if not nontrivial_ok or rng.random() < 0.5:
                    trivial.append(c)
                    continue
                word = W.reduce_word(
                    [(rng.choice(lids), rng.choice((1, -1))) for _ in range(rng.randint(1, 6))]
                )
                blocks.append((ClopenSet.make([c], depth), word))
            if trivial:
                blocks.append((ClopenSet.make(trivial, depth), W.EMPTY))
            return mc.RFunction.make(a, depth, alpha0, blocks)

        functions = [random_rfunction() for _ in range(100)]
        realized = []
        for h in functions:
            f = mc.realize_r_function(h)
            realized.append(f)
            assert mc.phi_T(f, alpha0) == h
        sample = realized[:12]
        for f, g in itertools.product(sample, sample):
            assert mc.r_cocycle_check(f, g, alpha0)


def test_criterion_5_tree_pipeline(cantor_tree):
    with _Timer(5, 10.0, "tree pipeline for Z/2 on Cantor and Z/3 on ternary"):
        depth = 4
        cyls = gm.cylinders(cantor_tree, depth)
        swap = {c: (1 - c[0],) + c[1:] for c in cyls}
        grp = es.FiniteCylinderGroup(cantor_tree, depth, {"e": {c: c for c in cyls}, "s": swap})
        tr = nz.realize_tree_case(cantor_tree, grp, levels=4)
        tr.telescope.check_tree()
        tr.boundary.check_bijective()
        tr.boundary.check_equivariant(grp, tr.action)
        # action table: s has order 2 on vertices
        vs = tr.telescope.vertices()
        assert all(tr.action.apply("s", tr.action.apply("s", v)) == v for v in vs)

        ternary = gm.UnfoldingAutomaton.make("t", {"t": ["t", "t", "t"]}, {"t": 0})
        cyls3 = gm.cylinders(ternary, depth)

        def rot(c, k):
            return ((c[0] + k) % 3,) + c[1:]

        grp3 = es.FiniteCylinderGroup(
            ternary,
            depth,
            {"e": {c: c for c in cyls3}, "r1": {c: rot(c, 1) for c in cyls3}, "r2": {c: rot(c, 2) for c in cyls3}},
        )
        tr3 = nz.realize_tree_case(ternary, grp3, levels=3)
        tr3.telescope.check_tree()
        tr3.boundary.check_bijective()
        tr3.boundary.check_equivariant(grp3, tr3.action)
        for v in tr3.telescope.vertices():
            x = tr3.action.apply("r1", tr3.action.apply("r1", tr3.action.apply("r1", v)))
            assert x == v


def test_criterion_6_core_pipeline(loop_ray):
    with _Timer(6, 300.0, "core pipeline on the depth-26 loop ray with loop inversion"):
        depth = 26
        action = make_flip_action(loop_ray, depth)
        cover = nz.IntervalCover.make(range(depth + 1), [(0, 24), (2, 26)])
        assert cover.overlap(0)[1] - cover.overlap(0)[0] >= 22

        # the fStar sandwich
        for J in cover.intervals:
            fs = nz.f_star(loop_ray, cover, J, action, depth)
            fminus = nz.ffs_of_interval(loop_ray, cover, cover.minus(J), depth)
            fplus = nz.ffs_of_interval(loop_ray, cover, cover.plus(J), depth)
            assert st.contained_in(fminus, fs) and st.contained_in(fs, fplus)

        t_star = nz.build_tree_of_groups(loop_ray, cover, action, "T_STAR", depth)
        t_star.check_tree_axioms()  # unique height-0 vertex, no same-height adjacency

        t = nz.build_tree_of_groups(loop_ray, cover, action, "T", depth)
        script = nz.fold_to_t(t_star, t)  # replay with rank preservation built in
        replay = nz.apply_script(t_star, script)
        assert replay.rank() == t_star.rank() == t.rank()

        real = nz.realize_core_case(action, cover)
        assert all(v.kind == "certified_yes" for v in real.verdicts.values())


def test_criterion_7_realize_finite_out():
    with _Timer(7, 30.0, "finite realization of Z/2 swap and double inversion in Out(F2)"):
        z2 = nz.FiniteGroup.cyclic(2)
        ident = st.FreeGroupAutomorphism.identity(("a", "b"))
        swap = st.FreeGroupAutomorphism.from_images(("a", "b"), {"a": w("b"), "b": w("a")})
        out = nz.realize_relative(z2, {"e": ident, "g1": swap}, None, e_max=6)
        assert out.graph.n_vertices == 1 and len(out.graph.edges) == 2
        assert st.outer_equal(out.marked.outer(out.basis, out.action["g1"]), swap)
        assert_action_table(z2, out.action)

        inv = st.FreeGroupAutomorphism.from_images(("a", "b"), {"a": w("A"), "b": w("B")})
        out2 = nz.realize_relative(z2, {"e": ident, "g1": inv}, None, e_max=6)
        assert out2.graph.n_vertices == 1 and len(out2.graph.edges) == 2
        assert all(flip for _, flip in out2.action["g1"].emap)
        assert st.outer_equal(out2.marked.outer(out2.basis, out2.action["g1"]), inv)

        triv = nz.realize_relative(nz.FiniteGroup.trivial(), {"e": ident}, None, e_max=6)
        assert triv.graph.n_vertices == 1 and len(triv.graph.edges) == 2


def _random_tree_and_group(rng, max_vertices=40, closure_cap=400):
    n = rng.randint(1, max_vertices)
    edges = [(rng.randint(0, i - 1), i) for i in range(1, n)]
    children = {v: [] for v in range(n)}
    for u, v in edges:
        children[u].append(v)

    def shape(v):
        return tuple(sorted(shape(c) for c in children[v]))

    def sample_auto():
        sigma = {0: 0}

        def descend(v, img):
            groups, img_groups = {}, {}
            for c in children[v]:
                groups.setdefault(shape(c), []).append(c)
            for c in children[img]:
                img_groups.setdefault(shape(c), []).append(c)
            for sh, group in groups.items():
                targets = img_groups[sh][:]
                rng.shuffle(targets)
                for c, ic in zip(group, targets):
                    sigma[c] = ic
                    descend(c, ic)

        descend(0, 0)
        return tuple(sigma[v] for v in range(n))

    gens = {sample_auto() for _ in range(rng.randint(1, 2))}
    group = set(gens) | {tuple(range(n))}
    frontier = list(group)
    while frontier:
        x = frontier.pop()
        for g in list(gens):
            comp = tuple(g[x[v]] for v in range(n))
            if comp not in group:
                if len(group) >= closure_cap:
                    return None
                group.add(comp)
                frontier.append(comp)
    return n, edges, group


def test_criterion_8_fixed_points():
    with _Timer(8, 30.0, "fixed points on 500 random trees with automorphism subgroups"):
        rng = random.Random(2024)
        done = 0
        while done < 500:
            out = _random_tree_and_group(rng)
            if out is None:
                continue
            n, edges, group = out
            elements = [{v: g[v] for v in range(n)} for g in group]
            center = nz.fixed_point_in_finite_tree(list(range(n)), edges, elements)
            for sigma in elements:  # brute force over all group elements
                if center[0] == "vertex":
                    assert sigma[center[1]] == center[1]
                else:
                    u, v = center[1]
                    assert {sigma[u], sigma[v]} == {u, v}
            done += 1


def test_criterion_9_clopen_subgroup_cosets(two_loop_ray):
    with _Timer(9, 60.0, "at least 20 distinct U_L-cosets inside U_K on the two-loop ray"):
        depth = 5
        K = frozenset({()})
        L = frozenset({(), (0,)})
        x1, y1 = lid((0,), 0), lid((0,), 1)

        words = []
        for length in range(1, 6):
            for combo in itertools.product([(x1, 1), (x1, -1), (y1, 1), (y1, -1)], repeat=length):
                word = W.reduce_word(combo)
                if len(word) == length and word not in words:
                    words.append(word)
            if len(words) >= 20:
                break
        words = words[:20]
        assert len(words) == 20

        t = gm.unfold(two_loop_ray, depth)

        def drag(word):
            li = {}
            for v, k in t.loop_edges:
                if len(v) >= 2 and v[:2] == (0, 0):
                    li[lid(v, k)] = W.conjugate(W.gen(lid(v, k)), word)
            return mc.ProperMapRep.make(two_loop_ray, depth, loop_images=li, edge_wraps={(0, 0): word})

        maps = [drag(word) for word in words]
        for m in maps:
            assert mc.uk_membership(m, K)
        # pairwise distinct U_L-cosets, certified through the identity criterion
        inverses = [ref_rigid_inverse(m) for m in maps]
        assert all(inv is not None for inv in inverses)
        for i in range(len(maps)):
            for j in range(len(maps)):
                diff = ref_compose(maps[j], inverses[i])
                if i == j:
                    assert mc.is_properly_homotopic_to_identity(diff).kind == "certified_yes"
                    assert mc.uk_membership(diff, L)
                else:
                    assert not mc.uk_membership(diff, L)
