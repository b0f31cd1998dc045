"""The read-off wedge search against the blind one and the rose search.

The reference below is a verbatim copy of the earlier blind search (module
names qualified with ``nz.``): ``_lazy_product``, ``_structured_extensions``
with ``_wedge_images`` and its cap, ``marked_outer`` and ``realize_relative``
with its ``verify`` loop, plus the scan-based ``SymGraph.spanning_tree`` /
``petal_edges`` and ``induced_outer`` they rested on.  For a call without a
piece it ran the separate absolute search, copied verbatim too:
``realize_finite_out`` with ``_signed_permutation_candidate`` (the rose) and
``RealizedAction`` with its full-table ``check_homomorphism``.  The
adjacency scans of ``RelativePiece.component_vertex_sets``,
``SymGraph.degree`` and ``is_connected`` are the reference for the
incidence index.  The search must find the same first realization (graph, action, embedding and petal
words), read off on a piece's wedge exactly the images that the blind
enumeration admits, in the same order, and read off on the rose the signed
permutation that the rose search reads.  ``GraphAutomorphism.apply_edge_dir``
is copied verbatim below; ``tree_path_darts``, ``edge_words`` and
``_embedded_classes_match`` as they were are the references of
``tests/test_marked_graph_oracle.py``.
"""

import functools
import itertools
import math
import random
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Mapping, Sequence

import pytest

from propermaps import graph_model as gm
from propermaps import mapclass as mc
from propermaps import nielsen as nz
from propermaps import stallings as st
from propermaps import words as W
from tests.conftest import make_flip_action
from tests.test_marked_graph_oracle import (
    positional_outer,
    ref_embedded_classes_match,
    ref_realization,
    ref_tree_path_darts,
)
from tests.test_nielsen import _branch_permutation_action, _order8_action

# -- reference: the unscreened search -------------------------------------------------------

STRUCTURED_SEARCH_CAP = 6000
"""Generator assignments the structured wedge search examines before it
stops, counted by position in the unscreened product."""


def _wedge_images(vperm: tuple[int, ...], base_emap: tuple[tuple[int, int], ...], wedge_petals: Sequence[int]):
    """One generator's image, extended by each signed permutation of the wedge
    petals in turn (permutations outermost, then flips)."""
    k = len(wedge_petals)
    for perm in itertools.permutations(range(k)):
        for flips in itertools.product((0, 1), repeat=k):
            yield nz.GraphAutomorphism(vperm, base_emap + tuple((wedge_petals[p], f) for p, f in zip(perm, flips)))


def ref_spanning_tree(self):
    """{vertex: (parent, edge, side_in)} reaching each vertex from 0."""
    tree = {0: (0, -1, 0)}
    queue = [0]
    while queue:
        v = queue.pop(0)
        for e, (a, b) in enumerate(self.edges):
            for src, dst, side in ((a, b, 1), (b, a, 0)):
                if src == v and dst not in tree:
                    tree[dst] = (v, e, side)
                    queue.append(dst)
    return tree


def ref_petal_edges(self):
    tree = ref_spanning_tree(self)
    tree_e = {e for (_, e, _) in tree.values() if e != -1}
    return [e for e in range(len(self.edges)) if e not in tree_e]


def ref_apply_edge_dir(self, e, direction):
    img, flip = self.emap[e]
    return (img, -direction if flip else direction)


def ref_induced_outer(g, alpha, basis):
    """Outer action of a graph automorphism in the petal marking.

    The marking sends petal i (in canonical order) to basis[i].
    """
    tree = ref_spanning_tree(g)
    petals = ref_petal_edges(g)
    if len(petals) != len(basis):
        raise ValueError("marking size mismatch")
    petal_index = {e: i for i, e in enumerate(petals)}

    def expand(path):
        out = []
        for e, direction in path:
            if e in petal_index:
                out.append((basis[petal_index[e]], direction))
        return W.reduce_word(out)

    images = {}
    v0 = 0
    prefix = ref_tree_path_darts(tree, v0, alpha.apply_vertex(v0))
    for i, e in enumerate(petals):
        a, b = g.edges[e]
        loop_path = ref_tree_path_darts(tree, v0, a) + [(e, 1)] + ref_tree_path_darts(tree, b, v0)
        img_path = []
        cur = alpha.apply_vertex(v0)
        for ed, direction in loop_path:
            ie, idir = ref_apply_edge_dir(alpha, ed, direction)
            img_path.append((ie, idir))
        full = prefix + img_path + [(e2, -d2) for (e2, d2) in reversed(prefix)]
        images[basis[i]] = expand(full)
    return st.FreeGroupAutomorphism(tuple(basis), images)


def ref_lazy_product(factors):
    """The order of ``itertools.product(*(f() for f in factors))``, but each
    factor is re-made for every prefix instead of being held in memory."""
    if not factors:
        yield ()
        return
    for head in factors[0]():
        for tail in ref_lazy_product(factors[1:]):
            yield (head,) + tail


def ref_structured_extensions(group, piece, n):
    """Wedge extra petals at an action-fixed vertex (single piece), or wedge
    the pieces at a fresh base vertex; enumerate signed-permutation actions
    on the fresh petals.  Raises NotFoundWithinBoundError once
    STRUCTURED_SEARCH_CAP generator assignments have been examined."""
    g0 = piece.graph
    comps = ref_component_vertex_sets(piece)
    gens = nz._generating_subset(group)
    k = n - g0.rank() if len(comps) == 1 else n - sum(
        len({e for e in range(len(g0.edges)) if set(g0.edges[e]) <= comp}) - len(comp) + 1 for comp in comps
    )
    if k < 0:
        return
    if len(comps) == 1:
        fixed = [v for v in range(g0.n_vertices) if all(piece.action[h].apply_vertex(v) == v for h in group.elements)]
        if not fixed:
            return
        g = nz.SymGraph(g0.n_vertices, tuple(g0.edges) + ((fixed[0], fixed[0]),) * k)
        bases = {s: (tuple(piece.action[s].vperm), tuple(piece.action[s].emap)) for s in gens}
    else:
        base = g0.n_vertices
        attach = [min(comp) for comp in comps]
        g = nz.SymGraph(g0.n_vertices + 1, tuple(g0.edges) + tuple((base, v) for v in attach) + ((base, base),) * k)
        bases = {}
        for s in gens:
            a0 = piece.action[s]
            # connecting edges follow the component permutation
            comp_img = []
            for v in attach:
                img = a0.apply_vertex(v)
                j = next(jj for jj, c2 in enumerate(comps) if img in c2)
                if img != attach[j]:
                    return
                comp_img.append(j)
            bases[s] = (tuple(a0.vperm) + (base,), tuple(a0.emap) + tuple((len(g0.edges) + j, 0) for j in comp_img))
    emb = nz.Embedding({v: v for v in range(g0.n_vertices)}, {e: (e, 0) for e in range(len(g0.edges))})
    wedge_petals = range(len(g.edges) - k, len(g.edges))
    expr = nz._element_expressions(group, gens)
    factors = [functools.partial(_wedge_images, *bases[s], wedge_petals) for s in gens]
    for examined, images in enumerate(ref_lazy_product(factors)):
        if examined == STRUCTURED_SEARCH_CAP:
            total = (math.factorial(k) * 2**k) ** len(gens)
            raise nz.NotFoundWithinBoundError(
                f"the structured wedge search stopped at its cap (STRUCTURED_SEARCH_CAP = {STRUCTURED_SEARCH_CAP}) "
                f"after examining {examined} of {total} signed-permutation assignments"
            )
        act = nz._extend_to_action(group, expr, g, dict(zip(gens, images)))
        if act is not None:
            yield g, act, emb


def ref_marked_outer(g, alpha, petal_words, basis):
    """Outer action under the marking petal j -> petal_words[j]."""
    qnames = tuple(f"__q{i}" for i in range(len(petal_words)))
    rho_q = ref_induced_outer(g, alpha, qnames)
    rename = dict(zip(qnames, basis))
    nu = st.FreeGroupAutomorphism(tuple(basis), {rename[q]: petal_words[i] for i, q in enumerate(qnames)})
    nu_inv = nu.inverse()
    rho_x = st.FreeGroupAutomorphism(
        tuple(basis),
        {rename[q]: W.reduce_word([(rename[t], s) for t, s in rho_q.images[q]]) for q in qnames},
    )
    return nu.compose(rho_x).compose(nu_inv)


def ref_component_vertex_sets(self):
    adj = {v: set() for v in range(self.graph.n_vertices)}
    for a, b in self.graph.edges:
        adj[a].add(b)
        adj[b].add(a)
    seen, out = set(), []
    for v in range(self.graph.n_vertices):
        if v in seen:
            continue
        comp, stack = set(), [v]
        while stack:
            x = stack.pop()
            if x in comp:
                continue
            comp.add(x)
            stack.extend(adj[x] - comp)
        seen |= comp
        out.append(comp)
    return out


def ref_degree(self, v):
    d = 0
    for a, b in self.edges:
        d += (a == v) + (b == v)
    return d


def ref_is_connected(self):
    if self.n_vertices == 0:
        return False
    adj = {v: set() for v in range(self.n_vertices)}
    for a, b in self.edges:
        adj[a].add(b)
        adj[b].add(a)
    seen, stack = set(), [0]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adj[v] - seen)
    return len(seen) == self.n_vertices


@dataclass(frozen=True)
class RefRealizedAction:
    graph: nz.SymGraph
    action: Mapping[str, nz.GraphAutomorphism]
    basis: tuple[str, ...]

    def check_homomorphism(self, group):
        for gname in group.elements:
            for hname in group.elements:
                k = group.mult[(gname, hname)]
                lhs = self.action[gname].compose(self.action[hname])
                if lhs != self.action[k]:
                    raise nz.FinalCheckFailedError(f"action table fails at {gname}*{hname}")


def ref_signed_permutation_candidate(group, targets, basis):
    """Rose realization when every target is a signed permutation up to conjugacy."""
    n = len(basis)
    rose = nz.SymGraph(1, tuple((0, 0) for _ in range(n)))
    action = {}
    for gname, phi in targets.items():
        emap = []
        for i, x in enumerate(basis):
            nf = W.cyclic_normal_form(phi.images[x])
            if len(nf) != 1:
                return None
            tgt, sign = nf[0]
            emap.append((basis.index(tgt), 0 if sign > 0 else 1))
        imgs = {e for e, _ in emap}
        if len(imgs) != n:
            return None
        action[gname] = nz.GraphAutomorphism((0,), tuple(emap))
    if len({a.emap for a in action.values()}) != len(group.elements):
        return None  # not a faithful action
    cand = RefRealizedAction(rose, action, tuple(basis))
    try:
        cand.check_homomorphism(group)
    except nz.FinalCheckFailedError:
        return None
    for gname, phi in targets.items():
        if not st.outer_equal(ref_induced_outer(rose, action[gname], basis), phi):
            return None
    return cand


def ref_realize_finite_out(group, targets, e_max=6, rank_bound=3):
    """Finite graph with simplicial action inducing the target outer action.

    Signed-permutation targets are realized directly on the rose; otherwise
    an exhaustive search over small graphs and injections of the group into
    their automorphism groups runs, in canonical enumeration order.
    """
    basis = list(targets[group.identity].basis)
    n = len(basis)
    fast = ref_signed_permutation_candidate(group, targets, basis)
    if fast is not None:
        return fast
    if n > rank_bound:
        raise nz.NotFoundWithinBoundError(f"rank {n} exceeds the search bound {rank_bound}")
    for g, act in nz._small_graph_actions(group, n, e_max):
        if len({tuple(a.vperm) + tuple(a.emap) for a in act.values()}) != len(group.elements):
            continue  # not injective
        if all(st.outer_equal(ref_induced_outer(g, act[h], basis), targets[h]) for h in group.elements):
            return RefRealizedAction(g, act, tuple(basis))
    raise nz.NotFoundWithinBoundError("no realization within the edge bound")


def ref_realize_relative(group, targets, piece, e_max=6, rank_bound=3):
    basis = list(targets[group.identity].basis)
    n = len(basis)
    if piece is None or piece.graph.n_vertices == 0:
        out = ref_realize_finite_out(group, targets, e_max, rank_bound)
        return ref_realization(out.graph, out.action, out.basis, None, tuple(W.gen(x) for x in out.basis))

    def marking_candidates(g, emb):
        out = []
        aligned = nz._aligned_marking(piece, g, emb, basis)
        if aligned is not None:
            out.append(aligned)
        out.append(tuple(W.gen(x) for x in basis))
        if n <= 3:
            for perm in itertools.permutations(basis):
                for signs in itertools.product((1, -1), repeat=n):
                    cand = tuple(W.gen(x, s) for x, s in zip(perm, signs))
                    if cand not in out:
                        out.append(cand)
        return out

    def verify(g, act, emb):
        if not g.is_connected() or g.rank() != n:
            return None
        if not nz._apply_embedding_action_check(piece, g, act, emb, group.elements):
            return None
        for pw in marking_candidates(g, emb):
            try:
                if not all(st.outer_equal(ref_marked_outer(g, act[h], pw, basis), targets[h]) for h in group.elements):
                    continue
            except st.NotAnAutomorphismError:
                continue
            if ref_embedded_classes_match(piece, g, pw, emb):
                return pw
        return None

    cut_off = ""
    try:
        for g, act, emb in ref_structured_extensions(group, piece, n):
            pw = verify(g, act, emb)
            if pw is not None:
                return ref_realization(g, act, tuple(basis), emb, pw)
    except nz.NotFoundWithinBoundError as exc:
        cut_off = f"; {exc}"

    if n <= rank_bound:
        for g, act in nz._small_graph_actions(group, n, e_max):
            for emb in nz._enumerate_embeddings(piece.graph, g):
                pw = verify(g, act, emb)
                if pw is not None:
                    return ref_realization(g, act, tuple(basis), emb, pw)
    raise nz.NotFoundWithinBoundError(f"no equivariant extension within the bounds{cut_off}")


# -- the cases ----------------------------------------------------------------------------


def _cover(depth):
    return nz.IntervalCover.make(range(depth + 1), [(0, depth - 2), (2, depth)], min_overlap=depth - 4)


def _order8_case():
    _, act = _order8_action(gm.UnfoldingAutomaton.make("s", {"s": ["s"]}, {"s": 2}), 14)
    return act, _cover(14)


def _branch_case(branches):
    auto = gm.UnfoldingAutomaton.make(
        "r", {"r": [f"p{i}" for i in range(branches)], **{f"p{i}": [f"p{i}"] for i in range(branches)}},
        {"r": 1, **{f"p{i}": 1 for i in range(branches)}},
    )
    group = nz.FiniteGroup.cyclic(branches)
    reps = {"e": mc.ProperMapRep.identity(auto, 14)}
    for shift in range(1, branches):
        reps[f"g{shift}"] = _branch_permutation_action(auto, 14, {i: (i + shift) % branches for i in range(branches)})
    return nz.FiniteGroupAction.make(group, reps), _cover(14)


def _flip_case(depth):
    return make_flip_action(gm.UnfoldingAutomaton.make("s", {"s": ["s"]}, {"s": 1}), depth), _cover(depth)


def _flip_height_two_case():
    act = make_flip_action(gm.UnfoldingAutomaton.make("s", {"s": ["s"]}, {"s": 1}), 40)
    return act, nz.IntervalCover.make(range(41), [(0, 16), (4, 30), (18, 40)], min_overlap=10)


CASES = {
    "order8-d14": _order8_case,
    "branch2-d14": lambda: _branch_case(2),
    "branch3-d14": lambda: _branch_case(3),
    "flip-d14": lambda: _flip_case(14),
    "flip-d20": lambda: _flip_case(20),
    "flip-height2-d40": _flip_height_two_case,
}


def _recorded_calls(monkeypatch, action, cover):
    """realize_core_case, with every realize_relative call's arguments and result."""
    calls = []
    screened = nz.realize_relative

    def recording(*args, **kwargs):
        out = screened(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    monkeypatch.setattr(nz, "realize_relative", recording)
    real = nz.realize_core_case(action, cover)
    monkeypatch.setattr(nz, "realize_relative", screened)
    return real, calls


@pytest.mark.parametrize("case", list(CASES))
def test_first_realization_matches_unscreened_search(case, monkeypatch):
    action, cover = CASES[case]()
    real, calls = _recorded_calls(monkeypatch, action, cover)
    assert any(args[2] is not None for args, _, _ in calls), "no relative piece was realized"
    assert any(args[2] is None for args, _, _ in calls), "no edge group was realized"
    for args, kwargs, out in calls:
        ref = ref_realize_relative(*args, **kwargs)
        assert out.graph == ref.graph
        assert out.action == ref.action
        assert out.embedding == ref.embedding
        assert out.marked == ref.marked
        assert out == ref
        for h, alpha in out.action.items():
            basis = [f"x{i}" for i in range(out.graph.rank())]
            assert positional_outer(out.graph, alpha, basis).images == ref_induced_outer(out.graph, alpha, basis).images
    assert all(v.kind == "certified_yes" for v in real.verdicts.values())


def _absolute_targets(basis, images, order):
    """Targets of Z/order generated by the automorphism with these images,
    an outer automorphism of that order."""
    group = nz.FiniteGroup.cyclic(order)
    phi = st.FreeGroupAutomorphism.from_images(basis, {x: W.word_from_str(img) for x, img in images.items()})
    targets, power = {}, st.FreeGroupAutomorphism.identity(basis)
    for elem in group.elements:
        targets[elem] = power
        power = phi.compose(power)
    assert st.outer_equal(power, targets["e"])
    return group, targets


ABSOLUTE_CASES = {
    "trivial-rank3": lambda: _absolute_targets(("a", "b", "c"), {}, 1),
    "swap": lambda: _absolute_targets(("a", "b"), {"a": "b", "b": "a"}, 2),
    "double-inversion": lambda: _absolute_targets(("a", "b"), {"a": "A", "b": "B"}, 2),
    "rank3-cycle": lambda: _absolute_targets(("a", "b", "c"), {"a": "b", "b": "C", "c": "a"}, 6),
    # the swap conjugated by a: no letter image, found by the small-graph stream
    "conjugated-swap": lambda: _absolute_targets(("a", "b"), {"a": "abA", "b": "a"}, 2),
    # no rose carries a -> b, b -> (ab)^-1; the stream finds a 5-vertex, 6-edge graph
    "z3-rotation": lambda: _absolute_targets(("a", "b"), {"a": "b", "b": "BA"}, 3),
}


@pytest.mark.parametrize("case", list(ABSOLUTE_CASES))
def test_absolute_realization_matches_rose_search(case):
    group, targets = ABSOLUTE_CASES[case]()
    out = nz.realize_relative(group, targets, None)
    ref = ref_realize_finite_out(group, targets)
    assert (out.graph, out.action, out.basis) == (ref.graph, ref.action, ref.basis)
    assert out.embedding is None
    assert out.marked.read() == tuple(W.gen(x) for x in ref.basis)
    if case == "z3-rotation":
        assert (out.graph.n_vertices, len(out.graph.edges)) == (5, 6)


def test_absolute_bound_matches_rose_search():
    z5 = nz.FiniteGroup.cyclic(5)
    targets = {g: st.FreeGroupAutomorphism.identity(("a", "b")) for g in z5.elements}
    for bounds in ({"e_max": 4}, {"rank_bound": 1}):
        with pytest.raises(nz.NotFoundWithinBoundError):
            ref_realize_finite_out(z5, targets, **bounds)
        with pytest.raises(nz.NotFoundWithinBoundError):
            nz.realize_relative(z5, targets, None, **bounds)


def _compact_case(name):
    rose = gm.UnfoldingAutomaton.make("s", {"s": []}, {"s": 2})
    if name == "order8-rose":
        return _order8_action(rose, 0)[1]
    return make_flip_action(rose, 0)


@pytest.mark.parametrize("case", ["order8-rose", "flip-rose"])
def test_compact_core_matches_rose_search(case, monkeypatch):
    action = _compact_case(case)
    real, calls = _recorded_calls(monkeypatch, action, None)
    assert [args[2] for args, _, _ in calls] == [None]
    (args, kwargs, out), = calls
    ref = ref_realize_finite_out(*args[:2], **kwargs)
    assert (out.graph, out.action, out.embedding) == (ref.graph, ref.action, None)
    assert all(v.kind == "certified_yes" for v in real.verdicts.values())
    _assert_read_off_matches_reference(_read_off_calls(monkeypatch, lambda: nz.realize_core_case(action)))


def test_symgraph_marking_structure_matches_scan():
    graphs = list(nz._enumerate_graphs(2, 4)) + list(nz._enumerate_graphs(3, 4))
    graphs.append(nz.SymGraph(4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 0), (2, 2), (1, 3))))
    for g in graphs:
        assert g._tree == ref_spanning_tree(g)
        assert g.is_connected() and ref_is_connected(g)
        assert [g.degree(v) for v in range(g.n_vertices)] == [ref_degree(g, v) for v in range(g.n_vertices)]
        assert g.petal_edges() == ref_petal_edges(g)
        basis = [f"x{i}" for i in range(g.rank())]
        for alpha in nz.automorphisms(g):
            got = positional_outer(g, alpha, basis)
            assert got.images == ref_induced_outer(g, alpha, basis).images


def _random_edge(rng, n):
    """An edge (a, b) with a <= b, or a loop, on n vertices."""
    if n > 1 and rng.random() < 0.8:
        return tuple(sorted(rng.sample(range(n), 2)))
    v = rng.randrange(n)
    return (v, v)


def test_symgraph_components_match_scan():
    rng = random.Random(3)
    graphs = [nz.SymGraph(0, ()), nz.SymGraph(3, ((1, 1),)), nz.SymGraph(5, ((0, 1), (2, 2), (3, 4), (4, 3)))]
    for _ in range(200):
        n = rng.randint(1, 7)
        graphs.append(nz.SymGraph(n, tuple(_random_edge(rng, n) for _ in range(rng.randint(0, 8)))))
    for g in graphs:
        assert g.components() == ref_component_vertex_sets(SimpleNamespace(graph=g))
        assert g.is_connected() == ref_is_connected(g)
        assert [g.degree(v) for v in range(g.n_vertices)] == [ref_degree(g, v) for v in range(g.n_vertices)]


def _small_cases(count):
    """Realizable Z/2 targets around a one-petal piece.

    Each case takes a small graph with a Z/2 action and an invariant loop,
    re-marks its outer action by a random signed permutation nu, and asks
    for an extension of that loop (with nu's image of its letter as factor
    word)."""
    rng = random.Random(5)
    group = nz.FiniteGroup.cyclic(2)
    pool = []
    for n in (2, 3):
        for g, act in nz._small_graph_actions(group, n, 4):
            loops = [e for e, (a, b) in enumerate(g.edges) if a == b and act["g1"].emap[e][0] == e]
            if loops and len({a.emap for a in act.values()}) == 2:
                pool.append((g, act, loops))
    cases = []
    for _ in range(count):
        g, act, loops = rng.choice(pool)
        basis = ("a", "b", "c")[: g.rank()]
        images = list(basis)
        rng.shuffle(images)
        nu = st.FreeGroupAutomorphism(basis, {x: W.gen(y, rng.choice((1, -1))) for x, y in zip(basis, images)})
        nu_inv = nu.inverse()
        targets = {h: nu.compose(positional_outer(g, act[h], basis)).compose(nu_inv) for h in group.elements}
        e = rng.choice(loops)
        rose = nz.SymGraph(1, ((0, 0),))
        flip = nz.GraphAutomorphism((0,), ((0, act["g1"].emap[e][1]),))
        letter = nu.images[basis[g.petal_edges().index(e)]]
        piece = nz.RelativePiece(rose, {"e": nz.identity_automorphism(rose), "g1": flip}, ((letter,),))
        cases.append((targets, piece))
    return cases


def _hand_cases():
    """The rose with a petal swap (complete piece) and the rotated two-edge
    circle, which has no fixed vertex to wedge at."""
    swap = {
        "e": st.FreeGroupAutomorphism.identity(("a", "b")),
        "g1": st.FreeGroupAutomorphism.from_images(("a", "b"), {"a": W.gen("b"), "b": W.gen("a")}),
    }
    rose = nz.SymGraph(1, ((0, 0), (0, 0)))
    complete = nz.RelativePiece(
        rose,
        {"e": nz.identity_automorphism(rose), "g1": nz.GraphAutomorphism((0,), ((1, 0), (0, 0)))},
        ((W.gen("a"), W.gen("b")),),
    )
    circle = nz.SymGraph(2, ((0, 1), (1, 0)))
    rotated = nz.RelativePiece(
        circle,
        {"e": nz.identity_automorphism(circle), "g1": nz.GraphAutomorphism((1, 0), ((1, 0), (0, 0)))},
        ((W.word_from_str("ab"),),),
    )
    return [(swap, complete), (swap, rotated)]


@pytest.fixture(scope="module")
def small_cases():
    return _small_cases(24) + _hand_cases()


@pytest.mark.parametrize("case", range(26))
def test_small_pieces_match_unscreened_search(case, small_cases):
    """Small ranks: every signed-permutation marking is a candidate, and a
    piece without a fixed vertex goes to the small-graph stream."""
    targets, piece = small_cases[case]
    group = nz.FiniteGroup.cyclic(2)
    want = ref_realize_relative(group, targets, piece, e_max=4)
    assert nz.realize_relative(group, targets, piece, e_max=4) == want


def _read_off_calls(monkeypatch, run):
    """run(), with every _read_off_images call's arguments and result."""
    calls = []
    read_off = nz._read_off_images

    def recording(*args):
        out = read_off(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(nz, "_read_off_images", recording)
    run()
    monkeypatch.setattr(nz, "_read_off_images", read_off)
    return calls


def ref_rose_image(target, basis):
    """The rose image that ``ref_signed_permutation_candidate`` reads off one
    target (its per-element loop), if it induces the target; else None."""
    emap = []
    for x in basis:
        nf = W.cyclic_normal_form(target.images[x])
        if len(nf) != 1:
            return None
        tgt, sign = nf[0]
        emap.append((basis.index(tgt), 0 if sign > 0 else 1))
    if len({e for e, _ in emap}) != len(basis):
        return None
    img = nz.GraphAutomorphism((0,), tuple(emap))
    rose = nz.SymGraph(1, ((0, 0),) * len(basis))
    return img if st.outer_equal(ref_induced_outer(rose, img, basis), target) else None


def _assert_read_off_matches_reference(calls):
    """Each read-off list on a piece's wedge is the blind enumeration of the
    generator's wedge images, screened as before (the target induced under
    some marking).  Without a piece (no old edges) the wedge is the rose, the
    positional marking is the only one, and the list holds the image that the
    rose search reads, if any: the blind enumeration of k!·2^k images would
    not end on the rank-8 roses of the order-8 case."""
    assert calls and any(out for _, out in calls), "no image was read off"
    for (base, marks, target, _), out in calls:
        basis = target.basis
        g = marks[0].graph
        if not base[1]:
            assert [m.read() for m in marks] == [tuple(W.gen(x) for x in basis)]
            img = ref_rose_image(target, list(basis))
            assert out == ([] if img is None else [img])
            continue
        wedge_petals = range(len(base[1]), len(g.edges))
        admitted = [
            img
            for img in _wedge_images(*base, wedge_petals)
            if any(st.outer_equal(ref_marked_outer(g, img, m.read(), basis), target) for m in marks)
        ]
        assert out == admitted


@pytest.mark.parametrize("case", ["order8-d14", "branch2-d14", "branch3-d14"])
def test_read_off_matches_admitted_enumeration(case, monkeypatch):
    action, cover = CASES[case]()
    _assert_read_off_matches_reference(_read_off_calls(monkeypatch, lambda: nz.realize_core_case(action, cover)))


def test_small_pieces_read_off_matches_admitted_enumeration(small_cases, monkeypatch):
    group = nz.FiniteGroup.cyclic(2)

    def run():
        for targets, piece in small_cases:
            nz.realize_relative(group, targets, piece, e_max=4)

    _assert_read_off_matches_reference(_read_off_calls(monkeypatch, run))
