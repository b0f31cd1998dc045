"""The indexed Stallings kernel against the edge-scan reference it replaced.

The ``ref_*`` functions are verbatim copies of the scan-based
``LabeledGraph`` methods (``_encode_from``, ``canonical_key``, ``fold``,
``core``, ``step``, ``spanning_tree``, ``immersions_into``), written as
functions of the graph.  They rescan the whole edge set at every step, so
they are slow but obviously right; the indexed versions must agree with
them exactly, on folded and unfolded graphs alike.

``ref_pullback`` is the full fiber product that ``pullback`` built before
it built only the core; folded and cored, it is the reference for the
product core, and ``from_graphs`` over its pieces is the reference for
``intersect_ffs``.  ``from_graphs_intersect_ffs`` is ``intersect_ffs`` as it
was before it stopped sending the pullback cores through ``from_graphs``.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st_h

from propermaps import stallings as st
from propermaps import words as W
from propermaps.stallings import LabeledGraph

# -- reference implementations ------------------------------------------------------------


def ref_encode_from(self, start):
    order = {start: 0}
    queue = [start]
    rows = []
    while queue:
        v = queue.pop(0)
        row = []
        for lab in sorted({l for _, l, _ in self.edges}):
            nxt_out = [t for (u, l, t) in self.edges if u == v and l == lab]
            nxt_in = [u for (u, l, t) in self.edges if t == v and l == lab]
            for direction, targets in (("+", nxt_out), ("-", nxt_in)):
                if not targets:
                    row.append((lab, direction, -1))
                    continue
                t = targets[0]
                if t not in order:
                    order[t] = len(order)
                    queue.append(t)
                row.append((lab, direction, order[t]))
        rows.append(tuple(row))
    if len(order) != len(self.vertices):
        return None  # disconnected
    return tuple(rows)


def ref_canonical_key(self):
    if not self.vertices:
        return ()
    if self.basepoint is not None:
        enc = ref_encode_from(self, self.basepoint)
        if enc is None:
            raise ValueError("canonical_key requires a connected graph")
        return enc
    encs = [ref_encode_from(self, v) for v in sorted(self.vertices)]
    encs = [e for e in encs if e is not None]
    if not encs:
        raise ValueError("canonical_key requires a connected graph")
    return min(encs)


def ref_fold(self):
    parent = {v: v for v in self.vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra

    edges = set(self.edges)
    changed = True
    while changed:
        changed = False
        collapsed = {(find(u), l, find(v)) for u, l, v in edges}
        out_map = {}
        in_map = {}
        for u, l, v in sorted(collapsed):
            if (u, l) in out_map and out_map[(u, l)] != v:
                union(out_map[(u, l)], v)
                changed = True
                break
            out_map[(u, l)] = v
            if (l, v) in in_map and in_map[(l, v)] != u:
                union(in_map[(l, v)], u)
                changed = True
                break
            in_map[(l, v)] = u
        edges = collapsed
    vs = frozenset(find(v) for v in self.vertices)
    es = frozenset((find(u), l, find(v)) for u, l, v in edges)
    bp = find(self.basepoint) if self.basepoint is not None else None
    return LabeledGraph(vs, es, bp)


def ref_core(self):
    vs = set(self.vertices)
    es = set(self.edges)
    while True:
        deg = {v: 0 for v in vs}
        for u, _, v in es:
            deg[u] += 1
            deg[v] += 1
        prune = {v for v in vs if deg[v] <= 1 and v != self.basepoint}
        if not prune:
            break
        vs -= prune
        es = {e for e in es if e[0] not in prune and e[2] not in prune}
    if not es and self.basepoint is None:
        return LabeledGraph.empty()
    if not es and self.basepoint is not None:
        return LabeledGraph(frozenset([self.basepoint]), frozenset(), self.basepoint)
    return LabeledGraph(frozenset(vs), frozenset(es), self.basepoint)


def ref_step(self, v, gen, sign):
    if sign > 0:
        for u, l, t in self.edges:
            if u == v and l == gen:
                return t
    else:
        for u, l, t in self.edges:
            if t == v and l == gen:
                return u
    return None


def ref_spanning_tree(self, base):
    tree = {base: (base, "", 0, 0)}
    queue = [base]
    while queue:
        v = queue.pop(0)
        nbrs = []
        for u, l, t in sorted(self.edges):
            if u == v:
                nbrs.append((t, l, 1))
            if t == v:
                nbrs.append((u, l, -1))
        for t, l, s in nbrs:
            if t not in tree:
                tree[t] = (v, l, s, tree[v][3] + 1)
                queue.append(t)
    return tree


def ref_immersions_into(self, other):
    if self.is_empty():
        yield {}
        return
    v0 = min(self.vertices)
    for w0 in sorted(other.vertices):
        fmap = {v0: w0}
        queue = [v0]
        ok = True
        while queue and ok:
            v = queue.pop(0)
            for u, l, t in sorted(self.edges):
                pairs = []
                if u == v:
                    pairs.append((t, l, 1))
                if t == v:
                    pairs.append((u, l, -1))
                for nbr, lab, sgn in pairs:
                    img = ref_step(other, fmap[v], lab, sgn)
                    if img is None:
                        ok = False
                        break
                    if nbr in fmap:
                        if fmap[nbr] != img:
                            ok = False
                            break
                    else:
                        fmap[nbr] = img
                        queue.append(nbr)
                if not ok:
                    break
        if ok and len(fmap) == len(self.vertices):
            if all(ref_step(other, fmap[u], l, 1) == fmap[t] for u, l, t in self.edges):
                yield dict(fmap)


def ref_pullback(g1: LabeledGraph, g2: LabeledGraph) -> LabeledGraph:
    """Fiber product over the rose; folded when both inputs are folded.

    Only vertex pairs incident to an edge are kept (isolated pairs are
    contractible anyway).
    """
    pair_id: dict[tuple[int, int], int] = {}  # numbered in order of first use
    edges = []
    by_label1: dict[str, list[st.Edge]] = {}
    for e in sorted(g1.edges):
        by_label1.setdefault(e[1], []).append(e)
    for u2, l, v2 in sorted(g2.edges):
        for u1, _, v1 in by_label1.get(l, []):
            u = pair_id.setdefault((u1, u2), len(pair_id))
            edges.append((u, l, pair_id.setdefault((v1, v2), len(pair_id))))
    bp = None
    if g1.basepoint is not None and g2.basepoint is not None:
        bp = pair_id.setdefault((g1.basepoint, g2.basepoint), len(pair_id))
    return LabeledGraph(frozenset(pair_id.values()), frozenset(edges), bp)


def ref_intersect_ffs(f1, f2):
    return st.FreeFactorSystem.from_graphs([ref_pullback(c1, c2) for c1 in f1.components for c2 in f2.components])


def from_graphs_intersect_ffs(f1, f2):
    pieces = []
    for c1 in f1.components:
        for c2 in f2.components:
            pieces.append(st.pullback(c1, c2))
    return st.FreeFactorSystem.from_graphs(pieces)


# -- graphs ------------------------------------------------------------------------------------


@st_h.composite
def graphs(draw, max_vertices=7, labels="abc"):
    """Random labeled graph, possibly unfolded, disconnected or based."""
    n = draw(st_h.integers(1, max_vertices))
    verts = st_h.integers(0, n - 1)
    edges = draw(st_h.lists(st_h.tuples(verts, st_h.sampled_from(labels), verts), max_size=3 * n))
    based = draw(st_h.booleans())
    return LabeledGraph.make(range(n), edges, 0 if based else None)


def key_or_error(key, g):
    try:
        return key(g)
    except ValueError:
        return ValueError


def assert_kernel_matches(g):
    """Every indexed routine agrees with its scan-based reference on g."""
    assert key_or_error(LabeledGraph.canonical_key, g) == key_or_error(ref_canonical_key, g)
    for v in sorted(g.vertices):
        based = LabeledGraph(g.vertices, g.edges, v)  # same edge set object, so the same edge order
        assert key_or_error(LabeledGraph.canonical_key, based) == (ref_encode_from(g, v) or ValueError)
        assert g.spanning_tree(v) == ref_spanning_tree(g, v)
        for lab in "abcd":
            for sign in (1, -1):
                assert g.step(v, lab, sign) == ref_step(g, v, lab, sign)
    assert g.fold() == ref_fold(g)
    assert g.core() == ref_core(g)


@given(graphs())
@settings(max_examples=300, deadline=None)
def test_unfolded_graphs_match_reference(g):
    assert_kernel_matches(g)


@given(graphs())
@settings(max_examples=300, deadline=None)
def test_folded_graphs_match_reference(g):
    folded = ref_fold(g)
    assert folded.is_folded()
    assert_kernel_matches(folded)
    free = LabeledGraph(folded.vertices, folded.edges, None)
    assert_kernel_matches(free)
    assert_kernel_matches(ref_core(free))


@given(graphs(), graphs())
@settings(max_examples=200, deadline=None)
def test_immersions_match_reference(g, h):
    source, target = ref_fold(g), ref_fold(h)
    for src in (source, ref_core(LabeledGraph(source.vertices, source.edges, None))):
        assert list(src.immersions_into(target)) == list(ref_immersions_into(src, target))


def test_disconnected_graphs_raise_in_both():
    two_loops = LabeledGraph.make([0, 1], [(0, "a", 0), (1, "b", 1)])
    based = LabeledGraph.make([0, 1, 2], [(0, "a", 0), (1, "a", 2)], basepoint=0)
    for g in (two_loops, based):
        with pytest.raises(ValueError):
            ref_canonical_key(g)
        with pytest.raises(ValueError):
            g.canonical_key()


# -- start order of the basepoint-free key ------------------------------------------------------


def ref_first_row(self, v):
    """Row 0 of the reference encoding from v, whether or not the walk is connected."""
    order = {v: 0}
    row = []
    for lab in sorted({l for _, l, _ in self.edges}):
        nxt_out = [t for (u, l, t) in self.edges if u == v and l == lab]
        nxt_in = [u for (u, l, t) in self.edges if t == v and l == lab]
        for targets in (nxt_out, nxt_in):
            row.append(order.setdefault(targets[0], len(order)) if targets else -1)
    return tuple(row)


def least_first_row_starts(g):
    rows = {v: ref_first_row(g, v) for v in g.vertices}
    least = min(rows.values())
    return sorted(v for v in g.vertices if rows[v] == least), sorted(v for v in g.vertices if rows[v] > least)


def latest_filled_starts(g):
    """The starts whose first row is -1 the longest: their first filled slot comes latest."""
    lead = {v: next((i for i, x in enumerate(ref_first_row(g, v)) if x != -1), 2 * len({l for _, l, _ in g.edges})) for v in g.vertices}
    latest = max(lead.values())
    return sorted(v for v in g.vertices if lead[v] == latest)


def cayley_graph(n, gens):
    """Schreier graph of permutations of range(n) (tuples of images) on the orbit of 0."""
    verts, queue, edges = {0}, [0], []
    for v in queue:
        for lab, perm in gens.items():
            edges.append((v, lab, perm[v]))
            if perm[v] not in verts:
                verts.add(perm[v])
                queue.append(perm[v])
    return LabeledGraph.make(verts, edges)


def cyclic_cover(k, ups, downs=""):
    """The k-fold cyclic cover of the rose: i -x-> i+1 for x in ups, i -x-> i-1 for x in downs."""
    edges = [(i, x, (i + 1) % k) for i in range(k) for x in ups] + [(i, x, (i - 1) % k) for i in range(k) for x in downs]
    return LabeledGraph.make(range(k), edges)


TIED = {
    "rose-abc": LabeledGraph.make([0], [(0, x, 0) for x in "abc"]),
    "cover-2-a": cyclic_cover(2, "a"),
    "cover-3-ab": cyclic_cover(3, "ab"),
    "cover-4-a-b": cyclic_cover(4, "a", "b"),
    "cover-5-bc-a": cyclic_cover(5, "bc", "a"),
    "theta-double-cover": LabeledGraph.make(range(2), [(0, "a", 1), (1, "a", 0), (0, "b", 1), (1, "b", 0)]),
    "klein-four": cayley_graph(4, {"a": (1, 0, 3, 2), "b": (2, 3, 0, 1)}),
    "s3-transposition-and-rotation": cayley_graph(6, {"a": (1, 0, 3, 2, 5, 4), "b": (2, 5, 4, 1, 0, 3)}),
    "cayley-8": cayley_graph(8, {"a": (1, 2, 3, 0, 5, 6, 7, 4), "c": (4, 7, 6, 5, 2, 1, 0, 3)}),
}


@pytest.mark.parametrize("name", TIED)
def test_key_where_the_latest_filled_starts_tie(name):
    """Vertex-transitive folded cores: every latest-filled start gives the key itself."""
    g = TIED[name]
    assert g.is_folded()
    key = ref_canonical_key(g)
    starts = latest_filled_starts(g)
    assert all(ref_encode_from(g, v) == key for v in starts) and len(starts) == len(g.vertices)
    assert g.canonical_key() == key


@pytest.mark.parametrize("word", ["a", "ab", "aab", "abAB", "abaB"])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_key_of_periodic_circle(word, k):
    """The circle spelling w^k: k automorphic starts tie in every row, and
    all of them are latest-filled."""
    circle = LabeledGraph.from_words([W.power(W.word_from_str(word), k)])
    circle = LabeledGraph(circle.vertices, circle.edges, None)
    assert circle.is_folded() and len(circle.vertices) == k * len(word)
    key = ref_canonical_key(circle)
    assert sum(ref_encode_from(circle, v) == key for v in latest_filled_starts(circle)) == k
    assert circle.canonical_key() == key


def test_key_replaces_the_first_least_first_row_start():
    """A b-triangle with an a-loop: the key starts at the second of two least-first-row starts."""
    g = LabeledGraph.make(range(3), [(0, "a", 0), (0, "b", 2), (1, "b", 0), (2, "b", 1)])
    lows, _ = least_first_row_starts(g)
    encs = [ref_encode_from(g, v) for v in lows]
    assert len(lows) == 2 and encs[0] != min(encs)
    assert g.canonical_key() == ref_canonical_key(g)


@pytest.mark.parametrize(
    "edges",
    [
        [(0, "a", 2), (1, "a", 2)],
        [(0, "a", 2), (2, "b", 1), (3, "a", 3), (3, "b", 1)],
    ],
)
def test_key_of_unfolded_graph_past_the_least_first_row(edges):
    """Every least-first-row start misses a vertex; a start with a larger first row reaches all."""
    g = LabeledGraph.make([], edges)
    lows, highs = least_first_row_starts(g)
    assert all(ref_encode_from(g, v) is None for v in lows)
    assert any(ref_encode_from(g, v) is not None for v in highs)
    assert g.canonical_key() == ref_canonical_key(g)


def test_key_of_unfolded_graphs_past_every_latest_filled_start():
    """Seeded unfolded graphs on which every latest-filled start misses a
    vertex but some other start reaches them all: the other starts are tried."""
    rng = random.Random("latest-filled-fallback")
    found = 0
    while found < 60:
        n = rng.randint(2, 6)
        edges = [(rng.randrange(n), rng.choice("ab"), rng.randrange(n)) for _ in range(rng.randint(n - 1, 2 * n))]
        g = LabeledGraph.make(range(n), edges)
        latest = latest_filled_starts(g)
        if all(ref_encode_from(g, v) is None for v in latest) and any(ref_encode_from(g, v) is not None for v in g.vertices):
            assert not g.is_folded()
            assert g.canonical_key() == ref_canonical_key(g)
            found += 1


# -- ffs-style pullbacks ------------------------------------------------------------------------


def random_word(rng, letters, length):
    out = []
    while len(out) < length:
        g, s = rng.choice(letters), rng.choice((1, -1))
        if out and out[-1] == (g, -s):
            continue
        out.append((g, s))
    return tuple(out)


def ffs_pair(rng, letters, length):
    """Two-generator core graphs sharing words, as in an ffs intersection."""
    a, b = random_word(rng, letters, length), random_word(rng, letters, length)
    by = random_word(rng, letters, 3)
    first = LabeledGraph.from_words([a, b])
    partner = LabeledGraph.from_words([W.mul(a, b), W.mul(by, a, W.inv(by)), b])
    return [LabeledGraph(g.vertices, g.edges, None) for g in (ref_fold(first), ref_fold(partner))]


@pytest.mark.parametrize("nletters", [3, 4])
@pytest.mark.parametrize("length", [8, 16, 24])
def test_ffs_pullbacks_match_reference(nletters, length):
    rng = random.Random(f"oracle/{nletters}/{length}")
    for _ in range(3):
        g1, g2 = ffs_pair(rng, "abcd"[:nletters], length)
        pb = ref_pullback(ref_core(g1), ref_core(g2))
        folded = pb.fold()
        assert folded == ref_fold(pb)
        cored = folded.core()
        assert cored == ref_core(folded)
        for comp in cored.components():
            assert comp.canonical_key() == ref_canonical_key(comp)
            assert list(comp.immersions_into(ref_core(g1))) == list(ref_immersions_into(comp, ref_core(g1)))


# -- the product core against the full product ----------------------------------------------------


def by_rank(g: LabeledGraph) -> LabeledGraph:
    """g with its vertices renumbered 0, 1, ... in their order."""
    rank = {v: i for i, v in enumerate(sorted(g.vertices))}
    return LabeledGraph(frozenset(rank.values()), frozenset((rank[u], l, rank[t]) for u, l, t in g.edges), None)


def assert_product_core_matches(f1, f2):
    """Pullbacks and intersections of two systems agree with the full-product reference."""
    for c1 in f1.components:
        for c2 in f2.components:
            assert by_rank(st.pullback(c1, c2)) == by_rank(ref_pullback(c1, c2).fold().core())
    inter, ref = st.intersect_ffs(f1, f2), ref_intersect_ffs(f1, f2)
    assert inter.keys() == ref.keys()
    assert st.format_ffs(inter) == st.format_ffs(ref)
    assert_split_as_from_graphs(f1, f2)


def assert_split_as_from_graphs(f1, f2):
    """Each pullback core is its own fold and core, and ``intersect_ffs``
    has the components of ``from_graphs_intersect_ffs``, in its order."""
    for c1 in f1.components:
        for c2 in f2.components:
            pb = st.pullback(c1, c2)
            assert pb.fold() is pb and pb.core() is pb
    got, want = st.intersect_ffs(f1, f2), from_graphs_intersect_ffs(f1, f2)
    assert got.components == want.components
    assert got.keys() == want.keys()


def ffs_systems(rng, letters, length):
    """Two-component system and a partner built from its words, as the ffs benchmark draws them."""
    first = [[random_word(rng, letters, length) for _ in range(2)] for _ in range(2)]
    partner = []
    for a, b in first:
        by = random_word(rng, letters, 3)
        partner.append([W.mul(a, b), W.mul(by, a, W.inv(by)), b])
    partner.append([rng.choice([w for comp in first for w in comp])])
    return st.FreeFactorSystem.from_generator_lists(first), st.FreeFactorSystem.from_generator_lists(partner)


@pytest.mark.parametrize("nletters", [3, 4])
@pytest.mark.parametrize("length", [8, 16, 24, 36, 48])
def test_product_core_matches_full_product(nletters, length):
    rng = random.Random(f"product-core/{nletters}/{length}")
    for _ in range(2):
        f1, f2 = ffs_systems(rng, "abcd"[:nletters], length)
        for a, b in ((f1, f2), (f2, f1), (f1, f1)):
            assert_product_core_matches(a, b)


def words_over(alphabet):
    letters = st_h.tuples(st_h.sampled_from(alphabet), st_h.sampled_from((1, -1)))
    return st_h.lists(letters, min_size=1, max_size=10).map(W.reduce_word).filter(bool)


@st_h.composite
def systems(draw):
    """Systems of one to three components over a drawn alphabet.

    A one-letter word gives a single-vertex loop and a lone word a circle;
    the alphabets "ab" and "cd" are disjoint, so some pairs intersect
    trivially.
    """
    alphabet = draw(st_h.sampled_from(["a", "ab", "abc", "cd", "abcd"]))
    comps = draw(st_h.lists(st_h.lists(words_over(alphabet), min_size=1, max_size=3), min_size=1, max_size=3))
    return st.FreeFactorSystem.from_generator_lists(comps)


@given(systems(), systems())
@settings(max_examples=300, deadline=None)
def test_product_core_matches_full_product_on_drawn_systems(f1, f2):
    assert_product_core_matches(f1, f2)
    assert_product_core_matches(f2, f1)


def test_product_core_on_circles_loops_and_disjoint_alphabets():
    """The fixed cases the drawn systems are meant to cover, checked by name."""
    circle = st.FreeFactorSystem.from_generator_lists([[W.word_from_str("abAc")]])
    loop = st.FreeFactorSystem.from_generator_lists([[W.word_from_str("a")]])
    rose = st.FreeFactorSystem.from_generator_lists([[W.word_from_str("a"), W.word_from_str("b"), W.word_from_str("c")]])
    other = st.FreeFactorSystem.from_generator_lists([[W.word_from_str("cd"), W.word_from_str("dcD")]])
    assert circle.ranks() == loop.ranks() == (1,)
    for f1, f2 in ((circle, rose), (loop, rose), (circle, circle), (loop, circle), (rose, other)):
        assert_product_core_matches(f1, f2)
        assert_product_core_matches(f2, f1)
    assert st.intersect_ffs(loop, st.FreeFactorSystem.from_generator_lists([[W.word_from_str("b")]])).is_empty()


def test_intersection_of_pieces_with_several_components_or_none():
    """A pullback of an index-2 cover with itself has two components, and
    the pullback of disjoint alphabets is contractible; both split as
    ``from_graphs`` split them."""
    system = lambda *comps: st.FreeFactorSystem.from_generator_lists([[W.word_from_str(g) for g in comp] for comp in comps])
    cover = system(["aa", "b", "aBA"])  # the words of even exponent sum in a
    mixed = system(["ab", "ba", "abb"])
    two = system(["aa", "b", "aBA"], ["cd", "dc"])
    counts = []
    for f1, f2 in ((cover, cover), (cover, mixed), (mixed, mixed), (cover, two), (cover, system(["cd"]))):
        for c1 in f1.components:
            for c2 in f2.components:
                counts.append(len(st.pullback(c1, c2).components()))
        assert_split_as_from_graphs(f1, f2)
        assert_split_as_from_graphs(f2, f1)
    assert 0 in counts and max(counts) >= 2
