"""Pushforwards kept per automorphism against the fresh pushforward they replaced.

``ref_apply_automorphism`` is a verbatim copy of ``apply_automorphism`` as
it was before each component's pushed pieces were kept on the automorphism,
with verbatim copies of the ``from_graphs``, ``petals`` and
``generates_free_group`` it used.  It pushes, folds and keys every
component on every call; the kept version must give equal components in
equal order, with equal vertex numbering, and carry exactly the keys of
those components.
"""

import random

import pytest

from propermaps import stallings as st
from propermaps import words as W
from propermaps.stallings import FreeFactorSystem, LabeledGraph

# -- reference implementations ------------------------------------------------------------


def ref_petals(self, base):
    tree = self.spanning_tree(base)
    tree_edges = set()
    for v, (p, l, s, _) in tree.items():
        if p == v:
            continue
        tree_edges.add((p, l, v) if s > 0 else (v, l, p))
    out = []
    for e in sorted(self.edges - frozenset(tree_edges)):
        u, l, v = e
        word = W.mul(self.tree_path_word(tree, base, u), ((l, 1),), self.tree_path_word(tree, v, base))
        out.append((e, f"p{len(out)}", word))
    return tree, out


def ref_from_graphs(graphs):
    comps = []
    for g in graphs:
        g = g.fold()
        if g.basepoint is not None:
            g = LabeledGraph(g.vertices, g.edges, None)
        g = g.core()
        if g.is_empty():
            continue
        for c in g.components():
            comps.append(c)
    comps.sort(key=lambda c: c.canonical_key())
    return FreeFactorSystem(tuple(comps))


def generates_free_group(generators, basis) -> bool:
    """Whether the words generate the free group on `basis`.

    That is, whether their Stallings graph is the rose on the basis: one
    vertex whose loop labels are exactly the basis (a folded graph has at
    most one loop per label).
    """
    g = st.subgroup_graph(generators)
    return len(g.vertices) == 1 and {l for _, l, _ in g.edges} == set(basis)


def ref_apply_automorphism(phi, f):
    if not generates_free_group(phi.tuple_images(), phi.basis):
        raise st.NotAnAutomorphismError(f"{phi.images} is not an automorphism")
    pieces = []
    for comp in f.components:
        base = min(comp.vertices)
        _, petals = ref_petals(comp, base)
        imgs = [phi(word) for _, _, word in petals]
        pieces.append(LabeledGraph.from_words(imgs))
    return ref_from_graphs(pieces)


# -- random automorphisms and systems ------------------------------------------------------


def _nielsen_automorphism(rng, basis, moves):
    """A random automorphism by Nielsen moves, conjugated by a random word half the time."""
    imgs = [W.gen(x) for x in basis]
    for _ in range(moves):
        i, j = rng.randrange(len(imgs)), rng.randrange(len(imgs))
        if i == j:
            imgs[i] = W.inv(imgs[i])
            continue
        other = imgs[j] if rng.random() < 0.5 else W.inv(imgs[j])
        imgs[i] = W.mul(imgs[i], other) if rng.random() < 0.5 else W.mul(other, imgs[i])
    if rng.random() < 0.5:
        by = _random_word(rng, basis, rng.randrange(1, 4))
        imgs = [W.conjugate(x, by) for x in imgs]
    return st.FreeGroupAutomorphism.from_images(basis, dict(zip(basis, imgs)))


def _random_word(rng, basis, length):
    return W.reduce_word([(rng.choice(basis), rng.choice((1, -1))) for _ in range(length)])


def _components(rng, basis, count):
    """Core components of random subgroups, some of them conjugate to each other."""
    comps = []
    while len(comps) < count:
        words = [_random_word(rng, basis, rng.randrange(1, 7)) for _ in range(rng.randrange(1, 3))]
        comps.extend(FreeFactorSystem.from_generator_lists([words]).components)
        if comps and rng.random() < 0.3:
            # the same class again, numbered from another basepoint
            by = _random_word(rng, basis, rng.randrange(1, 4))
            _, petals = ref_petals(comps[-1], min(comps[-1].vertices))
            words = [W.conjugate(word, by) for _, _, word in petals]
            comps.extend(FreeFactorSystem.from_generator_lists([words]).components)
    return comps[:count]


def _assert_same(got, want):
    assert got.components == want.components  # equal graphs, equal numbering, equal order
    assert got.keys() == tuple(c.canonical_key() for c in want.components)
    assert got == want


# -- the pushforward ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_pushforward_matches_fresh_reference(seed):
    rng = random.Random(seed)
    for n in (1, 2, 3, 4):
        basis = ("a", "b", "c", "d")[:n]
        for _ in range(6):
            phi = _nielsen_automorphism(rng, basis, rng.randrange(10))
            comps = _components(rng, basis, 6)
            # systems sharing components, each pushed by the same phi; the
            # first is pushed again at the end, from the kept pieces only
            systems = [FreeFactorSystem(tuple(rng.sample(comps, rng.randrange(1, 4)))) for _ in range(4)]
            for f in systems + systems[:1]:
                _assert_same(st.apply_automorphism(phi, f), ref_apply_automorphism(phi, f))


def test_pushforward_keeps_the_stable_order_of_tied_keys():
    # ab and ba are one conjugacy class numbered two ways: equal keys, and
    # the pushed system lists them in the order of the components pushed
    ab, ba = (FreeFactorSystem.from_generator_lists([[W.word_from_str(s)]]).components[0] for s in ("ab", "ba"))
    assert ab.canonical_key() == ba.canonical_key() and ab != ba
    basis = ("a", "b")
    swap = st.FreeGroupAutomorphism.from_images(basis, {"a": W.word_from_str("b"), "b": W.word_from_str("a")})
    rng = random.Random(5)
    phis = [st.FreeGroupAutomorphism.identity(basis), swap] + [_nielsen_automorphism(rng, basis, 6) for _ in range(10)]
    for phi in phis:
        for f in (FreeFactorSystem((ab, ba)), FreeFactorSystem((ba, ab)), FreeFactorSystem((ab, ab, ba))):
            got = st.apply_automorphism(phi, f)
            _assert_same(got, ref_apply_automorphism(phi, f))
            assert len(set(got.keys())) == 1 and len(got.components) == len(f.components)


def test_pushforward_of_a_non_automorphism_raises_the_same_error_every_time():
    f = FreeFactorSystem.from_generator_lists([[W.word_from_str("a")], [W.word_from_str("bc")]])
    for images in ({"a": "a", "b": "a", "c": "c"}, {"a": "aa", "b": "b", "c": "c"}, {"a": "ab", "b": "ab", "c": "c"}):
        endo = st.FreeGroupAutomorphism.from_images(("a", "b", "c"), {x: W.word_from_str(s) for x, s in images.items()})
        with pytest.raises(st.NotAnAutomorphismError) as want:
            ref_apply_automorphism(endo, f)
        for _ in range(3):
            with pytest.raises(st.NotAnAutomorphismError) as got:
                st.apply_automorphism(endo, f)
            assert str(got.value) == str(want.value)
        assert not endo.is_automorphism()


@pytest.mark.parametrize("seed", range(4))
def test_kept_petals_and_automorphism_checks_match_fresh_ones(seed):
    rng = random.Random(seed)
    basis = ("a", "b", "c")
    for comp in _components(rng, basis, 12):
        kept = comp.petals
        assert kept == ref_petals(comp, min(comp.vertices))
        assert comp.petals is kept
        # a graph equal to comp but built afresh keeps its own petals
        again = LabeledGraph(comp.vertices, comp.edges, comp.basepoint)
        assert again.petals == kept and again.petals is not kept
    for _ in range(20):
        phi = _nielsen_automorphism(rng, basis, rng.randrange(8))
        images = list(phi.tuple_images())
        images[rng.randrange(3)] = W.power(images[0], 2)
        endo = st.FreeGroupAutomorphism.from_images(basis, dict(zip(basis, images)))
        for aut in (phi, endo):
            want = generates_free_group(aut.tuple_images(), basis)
            assert aut.is_automorphism() == want
            assert aut.is_automorphism() == want
