import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st_h

from propermaps import stallings as st
from propermaps import words as W


def w(s):
    return W.word_from_str(s)


def ffs(*gen_lists):
    return st.FreeFactorSystem.from_generator_lists([[w(g) for g in gens] for gens in gen_lists])


# -- folding -----------------------------------------------------------------


def test_fold_merges_same_label_edges():
    g = st.LabeledGraph.make([0, 1, 2], [(0, "a", 1), (0, "a", 2)])
    folded = g.fold()
    assert folded.is_folded()
    assert len(folded.vertices) == 2


def test_fold_fixes_folded_graph():
    g = st.LabeledGraph.rose(["a", "b"])
    assert g.fold().canonical_key() == g.canonical_key()


def test_redundant_ab_path_folds_to_rose():
    # rose on a,b plus a subdivided path spelling ab from base back to base
    g = st.LabeledGraph.make(
        [0, 1],
        [(0, "a", 0), (0, "b", 0), (0, "a", 1), (1, "b", 0)],
        basepoint=0,
    )
    folded = g.fold().core()
    assert folded.canonical_key() == st.LabeledGraph.rose(["a", "b"]).canonical_key()
    # oracle: everything freely reduced over {a,b} must read as a loop
    rng = random.Random(7)
    for _ in range(200):
        word = W.reduce_word([(rng.choice("ab"), rng.choice((1, -1))) for _ in range(rng.randint(0, 8))])
        assert folded.reads(word)


def _subgroup_elements(gens, length_cap, work_cap=14):
    """Independent membership oracle: closure of products under strict caps."""
    seen = {(): None}
    frontier = [()]
    while frontier:
        x = frontier.pop()
        for g in gens:
            for cand in (W.mul(x, g), W.mul(x, W.inv(g))):
                if len(cand) <= work_cap and cand not in seen:
                    seen[cand] = None
                    frontier.append(cand)
    return {x for x in seen if len(x) <= length_cap}


@pytest.mark.parametrize(
    "gens",
    [
        ["ab", "ba"],
        ["aa", "b"],
        ["abc", "ca"],
        ["aba", "bb", "c"],
    ],
)
def test_membership_matches_bruteforce(gens):
    gens = [w(s) for s in gens]
    graph = st.subgroup_graph(gens)
    elements = _subgroup_elements(gens, 8)
    alphabet = sorted({g for word in gens for g, _ in word})
    for n in range(0, 5):
        for combo in itertools.product([(a, s) for a in alphabet for s in (1, -1)], repeat=n):
            word = W.reduce_word(combo)
            if len(word) > 8:
                continue
            assert graph.reads(word) == (word in elements), W.word_to_str(word)


def test_fold_confluent_under_relabeling():
    rng = random.Random(3)
    for _ in range(20):
        gens = [
            W.reduce_word([(rng.choice("ab"), rng.choice((1, -1))) for _ in range(rng.randint(1, 5))])
            for _ in range(2)
        ]
        gens = [g for g in gens if g]
        if not gens:
            continue
        g1 = st.subgroup_graph(gens)
        g2 = st.subgroup_graph(list(reversed(gens)))
        assert g1.canonical_key() == g2.canonical_key()


# -- core ---------------------------------------------------------------------


def test_core_of_tree_is_empty():
    g = st.LabeledGraph.make([0, 1], [(0, "a", 1)]).fold()
    assert st.LabeledGraph(g.vertices, g.edges, None).core().is_empty()


def test_core_of_rose_unchanged():
    g = st.LabeledGraph.rose(["a", "b"])
    assert st.LabeledGraph(g.vertices, g.edges, None).core().canonical_key() == g.canonical_key()


def test_core_prunes_hanging_path():
    g = st.LabeledGraph.make([0, 1, 2], [(0, "a", 0), (0, "b", 1), (1, "a", 2)])
    cored = st.LabeledGraph(g.vertices, g.edges, None).core()
    assert cored.canonical_key() == st.LabeledGraph.rose(["a"]).canonical_key()


# -- pullback and intersections --------------------------------------------------


def test_pullback_contains_diagonal():
    g = st.subgroup_graph([w("ab"), w("ba")])
    g0 = st.LabeledGraph(g.vertices, g.edges, None)
    pb = st.pullback(g0, g0)
    comps = [c for c in st.FreeFactorSystem.from_graphs([pb]).components]
    assert any(c.canonical_key() == g0.core().canonical_key() for c in comps)


def test_pullback_disjoint_bases_empty():
    assert st.intersect_ffs(ffs(["a", "b"]), ffs(["c"])).is_empty()


def test_paper_intersection_example():
    inter = st.intersect_ffs(ffs(["a", "b"]), ffs(["a", "cbC"]))
    assert inter == ffs(["a"], ["b"])
    assert inter.ranks() == (1, 1)


def test_intersection_idempotent_commutative():
    f1 = ffs(["a", "b"])
    f2 = ffs(["a", "cbC"])
    assert st.intersect_ffs(f1, f1) == f1
    assert st.intersect_ffs(f1, f2) == st.intersect_ffs(f2, f1)


def test_intersection_associative_and_unit():
    full = ffs(["a", "b", "c"])
    f1 = ffs(["a", "b"])
    f2 = ffs(["a", "cbC"])
    f3 = ffs(["a", "c"])
    lhs = st.intersect_ffs(st.intersect_ffs(f1, f2), f3)
    rhs = st.intersect_ffs(f1, st.intersect_ffs(f2, f3))
    assert lhs == rhs
    assert st.intersect_ffs(f1, full) == f1


def test_hanna_neumann_bound():
    rng = random.Random(11)
    for _ in range(10):
        gens1 = [W.reduce_word([(rng.choice("abc"), rng.choice((1, -1))) for _ in range(rng.randint(1, 4))]) for _ in range(2)]
        gens2 = [W.reduce_word([(rng.choice("abc"), rng.choice((1, -1))) for _ in range(rng.randint(1, 4))]) for _ in range(2)]
        g1 = st.subgroup_graph([g for g in gens1 if g] or [w("a")])
        g2 = st.subgroup_graph([g for g in gens2 if g] or [w("b")])
        r1, r2 = g1.rank(), g2.rank()
        inter = st.intersect_ffs(
            st.FreeFactorSystem.from_graphs([st.LabeledGraph(g1.vertices, g1.edges, None)]),
            st.FreeFactorSystem.from_graphs([st.LabeledGraph(g2.vertices, g2.edges, None)]),
        )
        if r1 >= 1 and r2 >= 1:
            total = sum(r - 1 for r in inter.ranks())
            assert total <= 2 * max(r1 - 1, 0) * max(r2 - 1, 0) + max(r1 - 1, 0) * max(r2 - 1, 0)


# -- containment ---------------------------------------------------------------


def test_contained_in_basic():
    assert st.contained_in(ffs(["a"]), ffs(["a", "b"]))
    assert not st.contained_in(ffs(["c"]), ffs(["a", "b"]))


def test_intersection_contained_in_both():
    f1, f2 = ffs(["a", "b"]), ffs(["a", "cbC"])
    inter = st.intersect_ffs(f1, f2)
    assert st.contained_in(inter, f1)
    assert st.contained_in(inter, f2)


# -- automorphisms ----------------------------------------------------------------


def _swap():
    return st.FreeGroupAutomorphism.from_images(("a", "b"), {"a": w("b"), "b": w("a")})


def test_automorphisms_compare_and_hash_by_value():
    ident = st.FreeGroupAutomorphism.identity(("a", "b"))
    assert ident != _swap()
    assert len({ident, _swap()}) == 2
    same = st.FreeGroupAutomorphism.from_images(("a", "b"), {"b": w("a"), "a": w("b")})
    assert same == _swap() and hash(same) == hash(_swap())
    assert len({ident, _swap(), same, st.FreeGroupAutomorphism.identity(("a", "b"))}) == 2
    assert ident != st.FreeGroupAutomorphism.identity(("b", "a"))


def test_apply_automorphism_examples():
    ident = st.FreeGroupAutomorphism.identity(("a", "b"))
    f = ffs(["a"])
    assert st.apply_automorphism(ident, f) == f
    assert st.apply_automorphism(_swap(), f) == ffs(["b"])
    phi = st.FreeGroupAutomorphism.from_images(("a", "b"), {"a": w("a"), "b": w("ab")})
    assert st.apply_automorphism(phi, ffs(["b"])) == ffs(["ab"])


def test_apply_automorphism_rejects_non_automorphism():
    endo = st.FreeGroupAutomorphism.from_images(("a", "b"), {"a": w("a"), "b": w("a")})
    with pytest.raises(st.NotAnAutomorphismError):
        st.apply_automorphism(endo, ffs(["a"]))


def test_apply_roundtrip_inverse():
    phi = st.FreeGroupAutomorphism.from_images(("a", "b"), {"a": w("ab"), "b": w("b")})
    f = ffs(["aba"])
    assert st.apply_automorphism(phi.inverse(), st.apply_automorphism(phi, f)) == f


def test_is_inner_examples():
    ident = st.FreeGroupAutomorphism.identity(("a", "b"))
    assert st.is_inner(ident) == ()
    conj = st.FreeGroupAutomorphism.inner(("a", "b"), w("ab"))
    assert st.is_inner(conj) == w("ab")
    assert st.is_inner(_swap()) is None


def test_outer_equal_examples():
    ident = st.FreeGroupAutomorphism.identity(("a", "b"))
    conj = st.FreeGroupAutomorphism.inner(("a", "b"), w("aab"))
    assert st.outer_equal(ident, conj)
    assert not st.outer_equal(_swap(), ident)
    phi = st.FreeGroupAutomorphism.from_images(("a", "b"), {"a": w("ab"), "b": w("b")})
    assert st.outer_equal(phi, conj.compose(phi))


def ref_is_inner(rho):
    """``is_inner`` before it became ``outer_conjugator(rho, identity)``, verbatim."""
    basis = rho.basis
    if not basis:
        return W.EMPTY
    if len(basis) == 1:
        x = basis[0]
        return W.EMPTY if rho.images[x] == W.gen(x) else None
    x1 = basis[0]
    u = W.conjugator(rho.images[x1], W.gen(x1))
    if u is None:
        return None
    maxlen = max(len(rho.images[x]) for x in basis)
    bound = len(u) + maxlen + 2
    for k in range(-bound, bound + 1):
        w = W.mul(u, W.power(W.gen(x1), k))
        if all(rho.images[x] == W.conjugate(W.gen(x), w) for x in basis):
            return w
    return None


def ref_outer_equal(phi, psi):
    """``outer_equal`` before it became a test of ``outer_conjugator``, verbatim."""
    basis = phi.basis
    if set(basis) != set(psi.basis):
        raise ValueError("automorphisms over different bases")
    if not basis:
        return True
    if len(basis) == 1:
        return phi.images[basis[0]] == psi.images[basis[0]]
    x1 = basis[0]
    u = W.conjugator(phi.images[x1], psi.images[x1])
    if u is None:
        return False
    c1, p = W.cyclic_reduce(psi.images[x1])
    root, _ = W.root_of(c1)
    gen_c = W.conjugate(root, p)
    maxlen = max(max(len(phi.images[x]), len(psi.images[x])) for x in basis)
    bound = len(u) + maxlen + 2
    for k in range(-bound, bound + 1):
        w = W.mul(u, W.power(gen_c, k))
        if all(phi.images[x] == W.mul(w, psi.images[x], W.inv(w)) for x in basis):
            return True
    return False


def _nielsen_automorphism(rng, basis, moves):
    """A product of random Nielsen moves: x_i -> x_i x_j^±1 or x_j^±1 x_i,
    x_i -> x_i^-1, and transpositions of two letters."""
    phi = st.FreeGroupAutomorphism.identity(basis)
    for _ in range(moves):
        imgs = {x: W.gen(x) for x in basis}
        i, j = rng.sample(basis, 2) if len(basis) > 1 else (basis[0], None)
        kind = rng.choice(["right", "left", "invert", "swap"] if j else ["invert"])
        if kind == "right":
            imgs[i] = W.mul(W.gen(i), W.gen(j, rng.choice((1, -1))))
        elif kind == "left":
            imgs[i] = W.mul(W.gen(j, rng.choice((1, -1))), W.gen(i))
        elif kind == "invert":
            imgs[i] = W.gen(i, -1)
        else:
            imgs[i], imgs[j] = W.gen(j), W.gen(i)
        phi = st.FreeGroupAutomorphism(basis, imgs).compose(phi)
    return phi


def test_outer_conjugator_matches_old_is_inner_and_outer_equal():
    rng = random.Random(31)
    for basis in (("a",), ("a", "b"), ("a", "b", "c")):
        for _ in range(40):
            phi = _nielsen_automorphism(rng, basis, rng.randint(0, 5))
            psi = _nielsen_automorphism(rng, basis, rng.randint(0, 3))
            w = W.reduce_word([(rng.choice(basis), rng.choice((1, -1))) for _ in range(rng.randint(0, 4))])
            conj = st.FreeGroupAutomorphism.inner(basis, w)
            for rho in (phi, conj, conj.compose(phi), phi.compose(conj)):
                assert st.is_inner(rho) == ref_is_inner(rho)
            for a, b in ((phi, psi), (conj.compose(phi), phi), (phi, conj.compose(psi)), (phi, phi)):
                assert st.outer_equal(a, b) == ref_outer_equal(a, b)
            if len(basis) > 1:  # the centre is trivial: the witness is w itself
                assert st.outer_conjugator(conj.compose(phi), phi) == w
    assert st.outer_conjugator(_swap(), st.FreeGroupAutomorphism.identity(("a", "b"))) is None


@given(st_h.lists(st_h.sampled_from(["ra", "rb", "la", "lb", "swap", "inva"]), max_size=6))
@settings(max_examples=40, deadline=None)
def test_inverse_of_random_automorphism(moves):
    phi = st.FreeGroupAutomorphism.identity(("a", "b"))
    table = {
        "ra": {"a": w("ab")},
        "rb": {"b": w("ba")},
        "la": {"a": w("ba")},
        "lb": {"b": w("ab")},
        "swap": {"a": w("b"), "b": w("a")},
        "inva": {"a": w("A")},
    }
    for m in moves:
        step = st.FreeGroupAutomorphism.from_images(("a", "b"), table[m])
        phi = step.compose(phi)
    inv = phi.inverse()
    assert phi.compose(inv).is_identity()
    assert inv.compose(phi).is_identity()


def test_inverse_where_nielsen_reduction_found_no_reducing_move():
    # x0 -> x0x2, x1 -> x0x2x1x2x0^-1x2x1x2x2, x2 -> x0x2^-1x1^-1 with x0, x1, x2 = a, b, c
    phi = st.FreeGroupAutomorphism.from_images(("a", "b", "c"), {"a": w("ac"), "b": w("acbcAcbcc"), "c": w("aCB")})
    inv = phi.inverse()
    assert phi.compose(inv).is_identity()
    assert inv.compose(phi).is_identity()


# verbatim copy of the removed stallings.generates_free_group, the reference
def generates_free_group(generators, basis) -> bool:
    """Whether the words generate the free group on `basis`.

    That is, whether their Stallings graph is the rose on the basis: one
    vertex whose loop labels are exactly the basis (a folded graph has at
    most one loop per label).
    """
    g = st.subgroup_graph(generators)
    return len(g.vertices) == 1 and {l for _, l, _ in g.edges} == set(basis)


def _rose_by_key(images, basis):
    """The key comparison that generates_free_group replaced."""
    g = st.subgroup_graph(images)
    return g.canonical_key() == st.LabeledGraph.rose(sorted(basis)).canonical_key()


def _nielsen_images(rng, basis, moves):
    """The basis images of a random automorphism, by random Nielsen moves."""
    imgs = [W.gen(x) for x in basis]
    for _ in range(moves):
        i, j = rng.randrange(len(imgs)), rng.randrange(len(imgs))
        if i == j:
            imgs[i] = W.inv(imgs[i])
            continue
        other = imgs[j] if rng.random() < 0.5 else W.inv(imgs[j])
        imgs[i] = W.mul(imgs[i], other) if rng.random() < 0.5 else W.mul(other, imgs[i])
    return imgs


@pytest.mark.parametrize("seed", range(6))
def test_generates_free_group_matches_key_comparison(seed):
    rng = random.Random(seed)
    for n in (1, 2, 3):
        basis = ("a", "b", "c")[:n]
        for _ in range(25):
            aut = _nielsen_images(rng, basis, rng.randrange(12))
            by = tuple(rng.choice([(x, 1), (x, -1)]) for x in rng.choices(basis, k=rng.randrange(1, 4)))
            i = rng.randrange(n)
            proper = aut[:i] + [W.power(aut[i], 2)] + aut[i + 1 :]
            cases = [
                (aut, True),
                ([W.conjugate(x, by) for x in aut], True),  # the whole group, conjugated
                (proper, False),
                ([W.conjugate(x, by) for x in proper], False),  # a hair to the basepoint
                (aut + [W.gen("z")], False),  # a letter outside the basis
                (aut[:i] + [W.mul(aut[i], W.gen("z"))] + aut[i + 1 :], False),
            ]
            for images, want in cases:
                assert _rose_by_key(images, basis) == want
                assert generates_free_group(images, basis) == want
                if len(images) == n:
                    assert st.FreeGroupAutomorphism(basis, dict(zip(basis, images))).is_automorphism() == want
    assert _rose_by_key([], ()) and generates_free_group([], ())
    assert st.FreeGroupAutomorphism((), {}).is_automorphism()
    assert not _rose_by_key([W.gen("a")], ()) and not generates_free_group([W.gen("a")], ())


def test_restriction_outer_on_invariant_component():
    comp = st.FreeFactorSystem.from_generator_lists([[w("a"), w("b")]]).components[0]
    phi = st.FreeGroupAutomorphism.from_images(("a", "b", "c"), {"a": w("b"), "b": w("a"), "c": w("c")})
    rho = st.restriction_outer(comp, phi)
    imgs = sorted(W.word_to_str(v) for v in rho.images.values())
    assert sorted(imgs) == ["[p0]", "[p1]"] or imgs == ["p0", "p1"]
    # swapping a,b must be an order-two outer class on the component
    assert st.outer_equal(rho.compose(rho), st.FreeGroupAutomorphism.identity(rho.basis))


# -- file formats -------------------------------------------------------------------


def test_ffs_file_roundtrip():
    f = ffs(["a", "b"], ["cbC"])
    text = st.format_ffs(f)
    assert st.parse_ffs_file(text) == f


def test_subgroup_file_parsing():
    words = st.parse_subgroup_file("# generators\nacBC\nb\n\n")
    assert words == [w("acBC"), w("b")]
    graph = st.subgroup_graph(words)
    assert graph.reads(w("acBC")) and not graph.reads(w("a"))
    with pytest.raises(ValueError, match=r"^line 3: bad character '-' in word 'a-b'$"):
        st.parse_subgroup_file("# generators\nab\na-b\n")
