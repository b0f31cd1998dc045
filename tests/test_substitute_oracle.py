"""``words.substitute`` against the five letter-image loops it replaced.

The references below are verbatim copies of the earlier loops (module names
qualified, ``self`` renamed): ``FreeGroupAutomorphism.__call__``, the inline
loop of ``induced_outer``, ``_subgraph_class_words`` with its ``expand``,
BFS tree and ``conn`` path, ``label_of_path`` of
``_certify_against_ambient``, and the label loop of ``realize_core_case``
(one piece, each edge its own glued class with a given flip).  Each must
read the same words as the one substitution, except
``_subgraph_class_words``, whose cycle basis changed: there the two word
lists must generate the same free factor system.  The dart paths those loops
read (``_petal_loops``, ``tree_path_darts``, ``spanning_tree``) are the
references of ``tests/test_marked_graph_oracle.py``, and the code under test
reads through ``MarkedGraph``.
"""

import random

import pytest

from propermaps import graph_model as gm
from propermaps import nielsen as nz
from propermaps import stallings as st
from propermaps import words as W
from tests.conftest import make_flip_action
from tests.test_marked_graph_oracle import positional_outer, ref_petal_loops, ref_spanning_tree, ref_tree_path_darts
from tests.test_nielsen import _order8_action

# -- references: the loops before words.substitute ------------------------------------------


def ref_call(phi, word):
    out: list[tuple[str, int]] = []
    for g, s in word:
        img = phi.images[g]
        out.extend(img if s > 0 else W.inv(img))
    return W.reduce_word(out)


def ref_induced_outer(g, alpha, basis):
    petal_index = g._petal_index
    if len(petal_index) != len(basis):
        raise ValueError("marking size mismatch")
    images = {}
    for x, loop in zip(basis, ref_petal_loops(g)):
        word = []
        for e, direction in loop:
            img, flip = alpha.emap[e]
            i = petal_index.get(img)
            if i is not None:
                word.append((basis[i], -direction if flip else direction))
        images[x] = W.reduce_word(word)
    return st.FreeGroupAutomorphism(tuple(basis), images)


def ref_subgraph_class_words(g, petal_words, vertex_set, edge_set):
    """Cycle-basis words (through the marking) of an embedded subgraph."""
    tree = ref_spanning_tree(g)
    petals = g.petal_edges()
    petal_index = {e: i for i, e in enumerate(petals)}

    def expand(path):
        out: list = []
        for e, direction in path:
            if e in petal_index:
                wd = petal_words[petal_index[e]]
                out.extend(wd if direction > 0 else W.inv(wd))
        return W.reduce_word(out)

    # spanning tree of the subgraph
    sub_adj: dict[int, list[tuple[int, int, int]]] = {v: [] for v in vertex_set}
    for e in edge_set:
        a, b = g.edges[e]
        sub_adj[a].append((b, e, 1))
        sub_adj[b].append((a, e, -1))
    base = min(vertex_set)
    sub_tree: dict[int, tuple[int, int, int]] = {base: (base, -1, 0)}
    queue = [base]
    while queue:
        v = queue.pop(0)
        for w_, e, d in sorted(sub_adj[v]):
            if w_ not in sub_tree:
                sub_tree[w_] = (v, e, d)
                queue.append(w_)

    def sub_path_to_base(x):
        out = []
        while sub_tree[x][1] != -1:
            p, e, d = sub_tree[x]
            out.append((e, -d))
            x = p
        return out

    tree_edges = {e for (_, e, _) in sub_tree.values() if e != -1}
    words = []
    for e in sorted(edge_set - tree_edges):
        a, b = g.edges[e]
        down = [(ed, -d) for ed, d in reversed(sub_path_to_base(a))]
        up = sub_path_to_base(b)
        cycle = down + [(e, 1)] + up
        conn = ref_tree_path_darts(tree, 0, base)
        full = conn + cycle + [(ed, -d) for ed, d in reversed(conn)]
        words.append(expand(full))
    return words


def ref_label_of_path(labels, path) -> W.Word:
    out: W.Word = W.EMPTY
    for e, direction in path:
        w_ = labels.get(e, W.EMPTY)
        out = W.mul(out, w_ if direction > 0 else W.inv(w_))
    return out


def ref_core_labels(g, petal_words, marking, outer, flips):
    """The label loop of ``realize_core_case`` on one piece whose edges are
    each their own glued class, edge e glued with flip ``flips[e]``."""
    labels = {}
    petals = g.petal_edges()
    petal_index = {e: i for i, e in enumerate(petals)}
    for e in range(len(g.edges)):
        f = flips[e]
        if e in petal_index:
            pword = petal_words[petal_index[e]]
            word = W.reduce_word([
                letter
                for name, sign in pword
                for letter in (marking[name] if sign > 0 else W.inv(marking[name]))
            ])
            word = outer(word)
        else:
            word = W.EMPTY
        labels[e] = W.inv(word) if f else word
    return labels


# -- random inputs ------------------------------------------------------------------------------


def random_word(rng, letters, max_len):
    return tuple((rng.choice(letters), rng.choice((1, -1))) for _ in range(rng.randint(0, max_len)))


GRAPHS = [g for n, e_max in ((1, 4), (2, 5), (3, 5)) for g in nz._enumerate_graphs(n, e_max)]


def random_graphs(seed, count):
    return random.Random(seed).sample(GRAPHS, count)


# -- the oracles ----------------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_substitute_matches_the_automorphism_loop(seed):
    rng = random.Random(seed)
    basis = "abcd"[: rng.randint(1, 4)]
    for _ in range(200):
        phi = st.FreeGroupAutomorphism(tuple(basis), {x: random_word(rng, basis, 6) for x in basis})
        word = random_word(rng, basis, 12)
        assert W.substitute(word, phi.images) == phi(word) == ref_call(phi, word)


@pytest.mark.parametrize("seed", range(8))
def test_substitute_reads_dart_paths(seed):
    """Int letters: a dart path (edge, ±1) through a list of edge words."""
    rng = random.Random(seed)
    for _ in range(200):
        edge_words = [random_word(rng, "abc", 4) for _ in range(rng.randint(1, 6))]
        path = tuple((rng.randrange(len(edge_words)), rng.choice((1, -1))) for _ in range(rng.randint(0, 10)))
        labels = dict(enumerate(edge_words))
        assert W.substitute(path, edge_words) == ref_label_of_path(labels, path)
        assert W.substitute(path, edge_words) == ref_call(st.FreeGroupAutomorphism((), labels), path)


@pytest.mark.parametrize("seed", range(4))
def test_induced_outer_matches_on_every_automorphism(seed):
    for g in random_graphs(seed, 30):
        basis = [f"x{i}" for i in range(g.rank())]
        for alpha in nz.automorphisms(g):
            assert positional_outer(g, alpha, basis).images == ref_induced_outer(g, alpha, basis).images


def test_induced_outer_refuses_a_wrong_marking_size():
    g = GRAPHS[0]
    marked = nz.MarkedGraph.on_petals(g, [W.gen("x")] * g.rank())
    with pytest.raises(ValueError, match="marking size mismatch"):
        marked.outer(["x"] * (g.rank() + 1), nz.identity_automorphism(g))


@pytest.mark.parametrize("seed", range(6))
def test_core_labels_match_on_random_labellings(seed):
    rng = random.Random(seed)
    for g in random_graphs(seed, 40):
        names = [f"p{i}" for i in range(g.rank())]
        petal_words = [random_word(rng, names, 3) for _ in names]
        marking = {x: random_word(rng, "abc", 4) for x in names}
        outer = st.FreeGroupAutomorphism(tuple("abc"), {x: random_word(rng, "abc", 3) for x in "abc"})
        flips = [rng.randrange(2) for _ in g.edges]
        reads = nz.MarkedGraph.on_petals(g, petal_words).labels
        got = []
        for e, f in enumerate(flips):
            word = outer(W.substitute(reads[e], marking))
            got.append(W.inv(word) if f else word)
        ref = ref_core_labels(g, petal_words, marking, outer, flips)
        assert got == [ref[e] for e in range(len(g.edges))]


@pytest.mark.parametrize("seed", range(6))
def test_certification_marking_matches_on_random_labellings(seed):
    """Sparse labellings for the reference (a missing edge reads nothing),
    the full list for the substitution."""
    rng = random.Random(seed)
    for g in random_graphs(seed, 40):
        labels = {e: random_word(rng, "abc", 3) for e in range(len(g.edges)) if rng.random() < 0.7}
        full = [labels.get(e, W.EMPTY) for e in range(len(g.edges))]
        assert list(nz.MarkedGraph(g, tuple(full)).read()) == [
            ref_label_of_path(labels, loop) for loop in ref_petal_loops(g)
        ]


def _realized(case):
    """(action, CoreRealization) of a core case: two-interval covers at
    support 14, or the compact rose at support 0."""
    if case.endswith("rose"):
        ambient = gm.UnfoldingAutomaton.make("s", {"s": []}, {"s": 2})
        action = _order8_action(ambient, 0)[1] if case.startswith("order8") else make_flip_action(ambient, 0)
        return action, nz.realize_core_case(action)
    if case.startswith("order8"):
        action = _order8_action(gm.UnfoldingAutomaton.make("s", {"s": ["s"]}, {"s": 2}), 14)[1]
    else:
        action = make_flip_action(gm.UnfoldingAutomaton.make("s", {"s": ["s"]}, {"s": 1}), 14)
    return action, nz.realize_core_case(action, nz.IntervalCover.make(range(15), [(0, 12), (2, 14)], min_overlap=10))


@pytest.mark.parametrize("case", ["flip-loop-ray", "order8-two-loop-ray", "flip-rose", "order8-rose"])
def test_certify_against_ambient_reads_the_reference_marking(monkeypatch, case):
    """The marking the certification reads (once) is the reference's, on a
    realized graph under its own labels and under random labellings."""
    action, real = _realized(case)
    y = real.graph
    alphabet = list(gm.unfold(action.automaton, action.depth).loop_ids)
    if case.endswith("rose"):  # the labels _realize_compact_core built
        old = {e: W.gen(alphabet[j]) for j, e in enumerate(y.petal_edges())}
        assert real.labels == [old.get(e, W.EMPTY) for e in range(len(y.edges))]
    seen = []
    read = nz.MarkedGraph.read

    def spy(marked, alpha=None):
        out = read(marked, alpha)
        if alpha is None:
            seen.append(list(out))
        return out

    monkeypatch.setattr(nz.MarkedGraph, "read", spy)
    rng = random.Random(case)
    for labels in [real.labels] + [[random_word(rng, alphabet, 2) for _ in y.edges] for _ in range(5)]:
        seen.clear()
        try:
            nz._certify_against_ambient(action, y, real.action, labels)
        except nz.FinalCheckFailedError:
            pass
        assert seen == [[ref_label_of_path(dict(enumerate(labels)), loop) for loop in ref_petal_loops(y)]]


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
    edge_set = {e for e in chosen if set(g.edges[e]) <= vertex_set}
    return vertex_set, edge_set


@pytest.mark.parametrize("seed", range(6))
def test_subgraph_class_words_generate_the_reference_system(seed):
    rng = random.Random(seed)
    for g in random_graphs(seed, 40):
        petal_words = [random_word(rng, "abc", 3) for _ in range(g.rank())]
        for _ in range(3):
            vertex_set, edge_set = _random_connected_subgraph(rng, g)
            got = nz._subgraph_class_words(nz.MarkedGraph.on_petals(g, petal_words), vertex_set, edge_set)
            ref = ref_subgraph_class_words(g, petal_words, vertex_set, edge_set)
            assert len(got) == len(ref)
            lhs = st.FreeFactorSystem.from_graphs([st.LabeledGraph.from_words(got)])
            rhs = st.FreeFactorSystem.from_graphs([st.LabeledGraph.from_words(ref)])
            assert lhs == rhs
