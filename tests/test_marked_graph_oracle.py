"""``MarkedGraph.read`` against the dart-path readings it replaced.

The references below are verbatim copies of the earlier code (module names
qualified, ``self`` renamed to ``g``): ``SymGraph.spanning_tree`` with its
breadth-first ``_tree`` and ``_petal_index``, ``tree_path_darts``,
``_petal_loops``, ``edge_words``, ``induced_outer``, ``_Marking`` (ν with
ν⁻¹, ``outer`` as ν∘ρ∘ν⁻¹), ``_subgraph_class_words``,
``_embedded_classes_match``, ``_read_off_images``, ``realize_relative`` and
the certification of ``_certify_against_ambient``.  Each loop there is a dart
path through the breadth-first tree; the marked graph reads every loop from
one breadth-first pass of tree words.

- Under positional labels (petal j reads basis[j], a tree edge nothing) the
  read of an automorphism is the reference's induced outer action, word for
  word.
- Under any labels the read is ν∘ρ word for word, ν is a basis exactly when
  the reference marking is one, and "alpha induces T" (ν∘ρ ≃ T∘ν) agrees
  with the reference's ν∘ρ∘ν⁻¹ ≃ T.
- On every core op of every ``realize`` variant of the benchmark, the search
  finds the same first realization, marking and labels as the reference, reads
  off the same images, and the certification gives the same verdicts.
- The certification reads a number of letters that grows about linearly with
  the support (the dart paths made it quadratic).
"""

import itertools
import random
from collections import deque

import pytest

from perfbench import workloads
from propermaps import graph_model as gm
from propermaps import mapclass as mc
from propermaps import nielsen as nz
from propermaps import stallings as st
from propermaps import words as W
from tests.conftest import make_flip_action
from tests.test_nielsen import _order8_action

# -- references: the dart-path readings -----------------------------------------------------


def ref_spanning_tree(g):
    """{vertex: (parent, edge, side_in)} reaching each vertex from 0."""
    # breadth first from 0, each vertex scanning its incidences in order
    tree = {0: (0, -1, 0)}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for dst, e, side in g._incidence.get(v, ()):
            if dst not in tree:
                tree[dst] = (v, e, side)
                queue.append(dst)
    return tree


def ref_tree_path_darts(tree, src, dst):
    """Edge path src->dst inside the tree as (edge, direction) pairs."""

    def up(x):
        out = []
        while tree[x][1] != -1:
            p, e, side = tree[x]
            out.append((e, -1 if side == 1 else 1))  # traverse toward parent
            x = p
        return out, x

    u1, _ = up(src)
    u2, _ = up(dst)
    # cancel common tail toward the root
    while u1 and u2 and u1[-1][0] == u2[-1][0]:
        u1.pop()
        u2.pop()
    down = [(e, -d) for e, d in reversed(u2)]
    return u1 + down


def ref_petal_index(g):
    """Petal edge -> its place among the edges off the spanning tree."""
    tree_e = {e for (_, e, _) in ref_spanning_tree(g).values() if e != -1}
    return {e: i for i, e in enumerate(e for e in range(len(g.edges)) if e not in tree_e)}


def ref_petal_loops(g):
    """Per petal, the loop 0 -> a -> b -> 0 through the tree as (edge, direction) pairs."""
    tree = ref_spanning_tree(g)
    loops = []
    for e in ref_petal_index(g):
        a, b = g.edges[e]
        loops.append(tuple(ref_tree_path_darts(tree, 0, a) + [(e, 1)] + ref_tree_path_darts(tree, b, 0)))
    return tuple(loops)


def ref_edge_words(g, petal_words):
    """What each edge reads under a petal marking: petal j reads
    ``petal_words[j]`` and a tree edge reads nothing."""
    index = ref_petal_index(g)
    return [petal_words[index[e]] if e in index else W.EMPTY for e in range(len(g.edges))]


def ref_induced_outer(g, alpha, basis):
    """Outer action of a graph automorphism in the petal marking.

    The marking sends petal i (in canonical order) to basis[i].  The image of
    petal i is alpha applied to its tree loop; the tree path joining the base
    vertex to its image carries no petal, so it adds no letters.
    """
    petal_index = ref_petal_index(g)
    if len(petal_index) != len(basis):
        raise ValueError("marking size mismatch")
    after = []  # what each edge reads once alpha has moved it
    for img, flip in alpha.emap:
        i = petal_index.get(img)
        after.append(W.EMPTY if i is None else W.gen(basis[i], -1 if flip else 1))
    return st.FreeGroupAutomorphism(tuple(basis), {x: W.substitute(loop, after) for x, loop in zip(basis, ref_petal_loops(g))})


class RefMarking:
    """A petal marking, petal j -> words[j], with its change of basis ν and ν⁻¹."""

    def __init__(self, words, nu, nu_inv):
        self.words, self.nu, self.nu_inv = words, nu, nu_inv

    @classmethod
    def make(cls, words, basis):
        """Raises NotAnAutomorphismError when the words are not a basis."""
        nu = st.FreeGroupAutomorphism(tuple(basis), dict(zip(basis, words)))
        return cls(tuple(words), nu, nu.inverse())

    def outer(self, g, alpha):
        """Outer action of alpha under this marking: ν ∘ ρ ∘ ν⁻¹."""
        return self.nu.compose(ref_induced_outer(g, alpha, self.nu.basis)).compose(self.nu_inv)


def ref_subgraph_class_words(g, petal_words, vertex_set, edge_set):
    """Cycle-basis words (through the marking) of an embedded connected
    subgraph: its own petal loops, with its vertices renumbered from the
    least one, read through the words of its edges in g."""
    at = {v: i for i, v in enumerate(sorted(vertex_set))}
    edges = sorted(edge_set)
    sub = nz.SymGraph(len(at), tuple((at[a], at[b]) for a, b in (g.edges[e] for e in edges)))
    reads = ref_edge_words(g, petal_words)
    sub_reads = [reads[e] for e in edges]
    return [W.substitute(loop, sub_reads) for loop in ref_petal_loops(sub)]


def ref_embedded_classes_match(piece, g, petal_words, emb):
    comps = piece.graph.components()
    for comp, words in zip(comps, piece.factor_words):
        edge_set = {emb.emap[e][0] for e in range(len(piece.graph.edges)) if set(piece.graph.edges[e]) <= comp}
        vset = {emb.vmap[v] for v in comp}
        got = ref_subgraph_class_words(g, petal_words, vset, edge_set)
        lhs = st.FreeFactorSystem.from_graphs([st.LabeledGraph.from_words(got)])
        rhs = st.FreeFactorSystem.from_graphs([st.LabeledGraph.from_words(list(words))])
        if lhs != rhs:
            return False
    return True


def ref_read_off_images(g, base, basis, marks, target):
    """The images on the wedge g of a generator that acts by ``base`` (vertex
    permutation, edge map of the old edges) and by a signed permutation of
    the fresh petals after them, and that induce ``target`` under one of
    ``marks``."""
    vperm, base_emap = base
    fresh = range(len(base_emap), len(g.edges))
    letters = [basis[ref_petal_index(g)[e]] for e in fresh]
    slot = {x: j for j, x in enumerate(letters)}
    read = set()
    for m in marks:
        perm, flips = [], []
        for x in letters:
            cyc, _ = W.cyclic_reduce(m.nu_inv(target(m.nu.images[x])))
            if len(cyc) != 1 or cyc[0][0] not in slot:
                break
            perm.append(slot[cyc[0][0]])
            flips.append(int(cyc[0][1] < 0))
        else:
            if len(set(perm)) == len(fresh):
                read.add((tuple(perm), tuple(flips)))
    images = (
        nz.GraphAutomorphism(vperm, base_emap + tuple((fresh[p], f) for p, f in zip(perm, flips)))
        for perm, flips in sorted(read)
    )
    return [img for img in images if any(st.outer_equal(m.outer(g, img), target) for m in marks)]


def ref_realization(g, act, basis, emb, pw):
    """The reference's result (graph, action, basis, embedding, petal
    words) as a realization: the marked graph carries the reference's edge
    words."""
    return nz.RelativeRealization(nz.MarkedGraph(g, tuple(ref_edge_words(g, pw))), act, tuple(basis), emb)


def ref_realize_relative(group, targets, piece, e_max=6, rank_bound=3):
    basis = list(targets[group.identity].basis)
    n = len(basis)
    absolute = piece is None or piece.graph.n_vertices == 0
    if absolute:
        empty = nz.SymGraph(0, ())
        piece = nz.RelativePiece(empty, dict.fromkeys(group.elements, nz.identity_automorphism(empty)), ())
    positional = tuple(W.gen(x) for x in basis)

    def markings(g, emb):
        words = [positional]
        aligned = nz._aligned_marking(piece, g, emb, basis)
        if aligned is not None and aligned != positional:
            words.insert(0, aligned)
        if n <= 3 and not absolute:
            for perm in itertools.permutations(basis):
                for signs in itertools.product((1, -1), repeat=n):
                    cand = tuple(W.gen(x, s) for x, s in zip(perm, signs))
                    if cand not in words:
                        words.append(cand)
        out = []
        for pw in words:
            try:
                out.append(RefMarking.make(pw, basis))
            except st.NotAnAutomorphismError:
                continue
        return out

    def verify(g, act, emb, marks=None):
        if absolute and len({(a.vperm, a.emap) for a in act.values()}) != len(group.elements):
            return None  # not faithful
        if not nz._apply_embedding_action_check(piece, g, act, emb, group.elements):
            return None
        for m in markings(g, emb) if marks is None else marks:
            if all(st.outer_equal(m.outer(g, act[h]), targets[h]) for h in group.elements):
                if ref_embedded_classes_match(piece, g, m.words, emb):
                    return m.words
        return None

    def realized(g, act, emb, pw):
        return ref_realization(g, act, basis, None if absolute else emb, pw)

    wedge = nz._structured_wedge(group, piece, n)
    if wedge is not None:
        g, emb, bases = wedge
        # g and emb are fixed for the whole wedge search: mark once
        marks = markings(g, emb)
        expr = nz._element_expressions(group, list(bases))
        per_gen = [ref_read_off_images(g, bases[s], basis, marks, targets[s]) for s in bases]
        for images in itertools.product(*per_gen):
            act = nz._extend_to_action(group, expr, g, dict(zip(bases, images)))
            if act is None:
                continue
            pw = verify(g, act, emb, marks)
            if pw is not None:
                return realized(g, act, emb, pw)

    if n > rank_bound:
        raise nz.NotFoundWithinBoundError(f"rank {n} exceeds the search bound rank_bound = {rank_bound}")
    graphs = actions = 0
    last = None
    for g, act in nz._small_graph_actions(group, n, e_max):
        graphs += g is not last  # a graph's actions come together, its trivial one among them
        last = g
        actions += 1
        for emb in nz._enumerate_embeddings(piece.graph, g):
            pw = verify(g, act, emb)
            if pw is not None:
                return realized(g, act, emb, pw)
    raise nz.NotFoundWithinBoundError(
        f"no realization within e_max = {e_max} edges; examined {graphs} graphs and {actions} actions"
    )


def ref_certify_against_ambient(action, y, y_action, labels):
    """Certify g∘h∘f∘h^-1 trivial for every h, through the label marking."""
    depth = action.depth
    loop_alphabet = gm.unfold(action.automaton, depth).loop_ids
    if len(y.petal_edges()) != len(loop_alphabet):
        raise nz.FinalCheckFailedError("realized graph has the wrong rank")

    try:
        marking = RefMarking.make([W.substitute(loop, labels) for loop in ref_petal_loops(y)], loop_alphabet)
    except st.NotAnAutomorphismError:
        raise nz.FinalCheckFailedError("label marking is not an isomorphism onto the ambient group") from None
    verdicts = {}
    for h in action.group.elements:
        inner = st.outer_equal(marking.outer(y, y_action[h]), action.outer(h))
        verdicts[h] = mc.IdentityVerdict("certified_yes" if inner else "no", depth)
    return verdicts


# -- helpers ------------------------------------------------------------------------------------


def positional_outer(g, alpha, basis):
    """The outer action alpha induces in the petal basis: the read of alpha
    under positional labels."""
    return nz.MarkedGraph.on_petals(g, [W.gen(x) for x in basis]).outer(basis, alpha)


def random_word(rng, letters, max_len):
    return W.reduce_word(tuple((rng.choice(letters), rng.choice((1, -1))) for _ in range(rng.randint(0, max_len))))


GRAPHS = [g for n in (1, 2, 3) for g in nz._enumerate_graphs(n, 5)]


def _outcome(run):
    """run()'s value, or the type and text of the refusal it raised."""
    try:
        return run()
    except (ValueError, st.NotAnAutomorphismError) as exc:
        return type(exc).__name__, str(exc)


# -- random graphs with every automorphism --------------------------------------------------------


def test_graphs_cover_ranks_one_to_three():
    assert {g.rank() for g in GRAPHS} == {1, 2, 3}
    assert all(len(g.edges) <= 5 for g in GRAPHS)
    assert len(GRAPHS) == 221


def test_positional_read_is_the_induced_outer_action():
    for g in GRAPHS:
        assert g._tree == ref_spanning_tree(g)
        assert g.petal_edges() == list(ref_petal_index(g))
        basis = [f"x{i}" for i in range(g.rank())]
        positional = [W.gen(x) for x in basis]
        marked = nz.MarkedGraph.on_petals(g, positional)
        assert list(marked.labels) == ref_edge_words(g, positional)
        assert marked.read() == tuple(positional)
        for alpha in nz.automorphisms(g):
            assert marked.outer(basis, alpha).images == ref_induced_outer(g, alpha, basis).images


def _random_labels(rng, g, letters):
    """Random labels on every edge, tree edges included."""
    return tuple(random_word(rng, letters, 2) for _ in g.edges)


@pytest.mark.parametrize("seed", range(4))
def test_read_is_the_marking_after_the_induced_action(seed):
    """Any labels: the read of alpha is ν∘ρ word for word, and the marking
    is refused exactly when the reference refuses it."""
    rng = random.Random(seed)
    tree_labelled = 0
    for g in GRAPHS:
        basis = [f"x{i}" for i in range(g.rank())]
        for letters in (basis, basis[:1]):  # the second is never a basis above rank 1
            labels = _random_labels(rng, g, letters)
            tree_labelled += any(labels[e] for e in range(len(g.edges)) if e not in ref_petal_index(g))
            marked = nz.MarkedGraph(g, labels)
            words = [W.substitute(loop, labels) for loop in ref_petal_loops(g)]
            assert list(marked.read()) == words
            nu = marked.outer(basis)
            ref = _outcome(lambda: RefMarking.make(words, basis))
            assert nu.is_automorphism() == isinstance(ref, RefMarking)
            for alpha in nz.automorphisms(g):
                assert marked.outer(basis, alpha) == nu.compose(ref_induced_outer(g, alpha, basis))
    assert tree_labelled > 100


@pytest.mark.parametrize("seed", range(2))
def test_induced_targets_agree_with_the_conjugated_marking(seed):
    """Labels that form a basis: alpha induces T under the marking (ν∘ρ ≃
    T∘ν) exactly when the reference's ν∘ρ∘ν⁻¹ ≃ T, for T the reference's
    image of every automorphism and a random inner twist of it."""
    rng = random.Random(seed)
    checked = 0
    for g in GRAPHS:
        basis = [f"x{i}" for i in range(g.rank())]
        for _ in range(20):
            labels = _random_labels(rng, g, basis)
            words = [W.substitute(loop, labels) for loop in ref_petal_loops(g)]
            ref = _outcome(lambda: RefMarking.make(words, basis))
            if isinstance(ref, RefMarking):
                break
        else:
            continue
        marked = nz.MarkedGraph(g, labels)
        auts = nz.automorphisms(g)
        for alpha in auts:
            for beta in rng.sample(auts, min(3, len(auts))):
                target = ref.outer(g, beta)
                if rng.random() < 0.5:
                    target = st.FreeGroupAutomorphism.inner(tuple(basis), random_word(rng, basis, 3)).compose(target)
                want = st.outer_equal(ref.outer(g, alpha), target)
                assert nz._induces(marked, basis, alpha, target) == want
                checked += 1
    assert checked > 500


def test_a_wrong_basis_size_is_refused_as_before():
    for g in GRAPHS[:40]:
        basis = [f"x{i}" for i in range(g.rank() + 1)]
        marked = nz.MarkedGraph.on_petals(g, [W.gen(x) for x in basis[:-1]])
        alpha = nz.identity_automorphism(g)
        assert _outcome(lambda: marked.outer(basis, alpha)) == _outcome(lambda: ref_induced_outer(g, alpha, basis))


def _random_connected_subgraph(rng, g):
    """A connected subgraph: the component of a random vertex under a random edge subset."""
    chosen = {e for e in range(len(g.edges)) if rng.random() < 0.75}
    start = rng.randrange(g.n_vertices)
    vertex_set, stack = {start}, [start]
    while stack:
        v = stack.pop()
        for e in chosen:
            a, b = g.edges[e]
            for x, y in ((a, b), (b, a)):
                if x == v and y not in vertex_set:
                    vertex_set.add(y)
                    stack.append(y)
    return vertex_set, {e for e in chosen if set(g.edges[e]) <= vertex_set}


@pytest.mark.parametrize("seed", range(3))
def test_subgraph_class_words_read_the_reference_words(seed):
    rng = random.Random(seed)
    for g in GRAPHS:
        petal_words = [random_word(rng, "abc", 3) for _ in range(g.rank())]
        marked = nz.MarkedGraph.on_petals(g, petal_words)
        for _ in range(3):
            vertex_set, edge_set = _random_connected_subgraph(rng, g)
            got = nz._subgraph_class_words(marked, vertex_set, edge_set)
            assert list(got) == ref_subgraph_class_words(g, petal_words, vertex_set, edge_set)


# -- the certification ------------------------------------------------------------------------


def _flip(depth):
    return make_flip_action(gm.UnfoldingAutomaton.make("s", {"s": ["s"]}, {"s": 1}), depth)


CERTIFY_CASES = {
    "flip-d2": lambda: _flip(2),
    "flip-d6": lambda: _flip(6),
    "flip-d14": lambda: _flip(14),
    "order8-d6": lambda: _order8_action(gm.UnfoldingAutomaton.make("s", {"s": ["s"]}, {"s": 2}), 6)[1],
}


@pytest.mark.parametrize("case", list(CERTIFY_CASES))
def test_certification_gives_the_reference_verdicts_and_refusals(case):
    """A realized core case under its own labels, random labels (most no
    basis), its labels with one label inverted, and its labels with two
    labels swapped; then a graph of the wrong rank."""
    action = CERTIFY_CASES[case]()
    real = nz.realize_core_case(action)
    y = real.graph
    alphabet = list(gm.unfold(action.automaton, action.depth).loop_ids)
    rng = random.Random(case)
    labellings = [real.labels] + [[random_word(rng, alphabet, 2) for _ in y.edges] for _ in range(6)]
    labelled = [e for e in range(len(y.edges)) if real.labels[e]]
    for e in labelled:
        labellings.append(real.labels[:e] + [W.inv(real.labels[e])] + real.labels[e + 1:])
    for e, f in zip(labelled, labelled[1:]):
        swapped = list(real.labels)
        swapped[e], swapped[f] = swapped[f], swapped[e]
        labellings.append(swapped)
    outcomes = set()
    for labels in labellings:
        want = _verdicts_or_refusal(lambda: ref_certify_against_ambient(action, y, real.action, labels))
        assert _verdicts_or_refusal(lambda: nz._certify_against_ambient(action, y, real.action, labels)) == want
        outcomes.add(str(want))
    assert len(outcomes) >= 2
    wrong_rank = nz.SymGraph(y.n_vertices, y.edges + ((0, 0),))
    ident = {h: nz.identity_automorphism(wrong_rank) for h in real.action}
    want = _verdicts_or_refusal(lambda: ref_certify_against_ambient(action, wrong_rank, ident, real.labels + [W.EMPTY]))
    assert want == ("FinalCheckFailedError", "realized graph has the wrong rank")
    assert _verdicts_or_refusal(lambda: nz._certify_against_ambient(action, wrong_rank, ident, real.labels + [W.EMPTY])) == want


def _verdicts_or_refusal(run):
    try:
        return {h: (v.kind, v.depth) for h, v in run().items()}
    except nz.FinalCheckFailedError as exc:
        return type(exc).__name__, str(exc)


def test_certification_reads_about_linearly_many_letters(monkeypatch):
    """The letters the certification hands to ``words.substitute`` and
    ``words.mul`` on the loop-ray flip, at supports 100, 200 and 400 (default
    cover): each doubling at most 2.3 times as many.  The dart paths of
    the reference grew about 4.1 times per doubling."""
    counted = {"on": False, "letters": 0}
    substitute, mul, certify = W.substitute, W.mul, nz._certify_against_ambient

    def counting_substitute(word, images):
        word = tuple(word)
        counted["letters"] += counted["on"] * len(word)
        return substitute(word, images)

    def counting_mul(*words):
        words = [tuple(w) for w in words]
        counted["letters"] += counted["on"] * sum(map(len, words))
        return mul(*words)

    def counting_certify(*args):
        counted["on"] = True
        try:
            return certify(*args)
        finally:
            counted["on"] = False

    monkeypatch.setattr(W, "substitute", counting_substitute)
    monkeypatch.setattr(W, "mul", counting_mul)
    monkeypatch.setattr(nz, "_certify_against_ambient", counting_certify)
    letters = []
    for depth in (100, 200, 400):
        counted["letters"] = 0
        real = nz.realize_core_case(_flip(depth))
        assert all(v.kind == "certified_yes" for v in real.verdicts.values())
        letters.append(counted["letters"])
    assert letters[0] > 0
    assert all(b <= 2.3 * a for a, b in zip(letters, letters[1:])), letters


# -- every core op of the realize workload -----------------------------------------------------------


CORE_SLOTS = [slot for slot, kind, _, _ in workloads.REALIZE_SLOTS if kind == "core"]


def _core_variants(slot, tmp_path):
    """(action, cover) of each distinct variant of a core slot."""
    _, _, build, cover = next(s for s in workloads.REALIZE_SLOTS if s[0] == slot)
    seen = set()
    for v in range(workloads.VARIANTS):
        graph, maps, act_text = build(random.Random(f"realize/{slot}/{v}"))
        key = (graph, tuple(sorted(maps.items())), act_text)
        if key in seen:
            continue
        seen.add(key)
        d = tmp_path / f"v{v}"
        d.mkdir()
        for name, text in maps.items():
            (d / f"{name}.map").write_text(text)
        automaton = gm.parse_automaton(graph)
        action = nz.parse_action_file(automaton, act_text, lambda rel: (d / rel).read_text())
        r_max, intervals, min_overlap = cover
        yield action, nz.IntervalCover.make(range(r_max + 1), [tuple(iv) for iv in intervals], min_overlap=min_overlap)


def _is_signed_permutation(words, basis):
    return len(words) == len(basis) and all(len(w) == 1 for w in words) and sorted(w[0][0] for w in words) == sorted(basis)


@pytest.mark.parametrize("slot", CORE_SLOTS)
def test_core_ops_match_the_reference_search_and_certification(slot, tmp_path, monkeypatch):
    """Every realize_relative, _read_off_images and _certify_against_ambient
    call of the pipeline answers as the reference does on the same
    arguments: the same first realization with the same marking and edge
    labels, the same read-off images, the same verdicts.  Every marking the
    search reads off under is a signed permutation of the basis."""
    search, read_off, certify = nz.realize_relative, nz._read_off_images, nz._certify_against_ambient
    calls = {"search": 0, "read_off": 0, "certify": 0}

    def checked_search(group, targets, piece, **bounds):
        out = search(group, targets, piece, **bounds)
        assert out == ref_realize_relative(group, targets, piece, **bounds)
        calls["search"] += 1
        return out

    def checked_read_off(base, marks, target, induces):
        out = read_off(base, marks, target, induces)
        basis = target.basis
        assert all(_is_signed_permutation(m.read(), basis) for m in marks)
        g = marks[0].graph
        ref_marks = [RefMarking.make(m.read(), basis) for m in marks]
        assert out == ref_read_off_images(g, base, basis, ref_marks, target)
        calls["read_off"] += 1
        return out

    def checked_certify(action, y, y_action, labels):
        out = certify(action, y, y_action, labels)
        assert out == ref_certify_against_ambient(action, y, y_action, labels)
        calls["certify"] += 1
        return out

    monkeypatch.setattr(nz, "realize_relative", checked_search)
    monkeypatch.setattr(nz, "_read_off_images", checked_read_off)
    monkeypatch.setattr(nz, "_certify_against_ambient", checked_certify)
    variants = 0
    for action, cover in _core_variants(slot, tmp_path):
        real = nz.realize_core_case(action, cover)
        assert all(v.kind == "certified_yes" for v in real.verdicts.values())
        variants += 1
    assert variants >= 1 and calls["certify"] == variants
    assert calls["search"] > variants and calls["read_off"] > 0
