import pytest

from propermaps import graph_model as gm
from propermaps.graph_model import INFINITY, UnfoldingAutomaton


def aut(root, children, loops=None):
    return UnfoldingAutomaton.make(root, children, loops or {})


def format_automaton(a: UnfoldingAutomaton) -> str:
    """The text form that ``gm.parse_automaton`` reads: the root line, then one line per state."""
    lines = [f"root {a.root}"]
    for s in a.states:
        kids = ",".join(a.children[s])
        lines.append(f"state {s} loops={a.loops[s]} children={kids}")
    return "\n".join(lines) + "\n"


# -- unfold ------------------------------------------------------------------


def test_unfold_two_loop_ray(two_loop_ray):
    t = gm.unfold(two_loop_ray, 3)
    assert len(t.vertices) == 4
    assert len(t.tree_edges) == 3
    assert len(t.loop_edges) == 8  # two loops at each of the 4 vertices


def test_unfold_depth_zero(two_loop_ray):
    t = gm.unfold(two_loop_ray, 0)
    assert t.vertices == ((),)
    assert len(t.loop_edges) == 2
    assert set(t.frontier) == {()}


def test_unfold_cantor_counts(cantor_tree):
    t = gm.unfold(cantor_tree, 2)
    assert len(t.vertices) == 7
    assert len(t.tree_edges) == 6


def test_unfold_vertex_count_monotone(core_with_rays):
    counts = [len(gm.unfold(core_with_rays, d).vertices) for d in range(5)]
    assert counts == sorted(counts)
    # exact count: paths of length <= d
    assert counts[0] == 1


# -- core ---------------------------------------------------------------------


def test_core_of_tree_is_empty(cantor_tree):
    assert gm.core(cantor_tree) is None


def test_core_of_loop_ray_is_whole(loop_ray):
    assert gm.core(loop_ray) == loop_ray


def test_core_single_root_loop():
    a = aut("r", {"r": ["c"], "c": ["c"]}, {"r": 1})
    c = gm.core(a)
    assert c is not None
    assert c.children == {"r": ()}
    assert c.loops == {"r": 1}


def test_core_branch_vertex_between_loops():
    # Y-shape: loops only at the two branch tips; the branch vertex is in the hull
    a = aut("r", {"r": ["p", "q"], "p": [], "q": []}, {"p": 1, "q": 1})
    c = gm.core(a)
    assert c.root == "r"
    assert set(c.children) == {"r", "p", "q"}


def test_core_idempotent(loop_ray, core_with_rays):
    for a in (loop_ray, core_with_rays, aut("r", {"r": ["c"], "c": ["c"]}, {"r": 1})):
        c = gm.core(a)
        assert gm.core(c) == c


# -- genus ----------------------------------------------------------------------


def test_genus_examples(cantor_tree):
    assert gm.genus(cantor_tree) == 0
    three = aut("s", {"s": ["s"]}, {"s": 3})
    assert gm.genus(three) == INFINITY
    finite = aut("r", {"r": ["u", "v"], "u": [], "v": []}, {"r": 1, "u": 3, "v": 1})
    assert gm.genus(finite) == 5


def test_genus_equals_betti_on_finite_unfoldings():
    finite = aut("r", {"r": ["u", "u"], "u": ["v"], "v": []}, {"u": 2, "v": 1})
    t = gm.unfold(finite, 5)
    e = len(t.tree_edges) + len(t.loop_edges)
    v = len(t.vertices)
    assert gm.genus(finite) == e - v + 1


def test_genus_iff_genus_ends(loop_ray, cantor_tree):
    for a in (loop_ray, cantor_tree, aut("r", {"r": ["c"], "c": ["c"]}, {"r": 1})):
        ge = gm.genus_ends(a)
        nonempty = gm.classify_end_space(ge).kind != "empty"
        assert (gm.genus(a) == INFINITY) == nonempty


# -- genus ends -----------------------------------------------------------------


def test_genus_ends_core_automaton(loop_ray):
    assert gm.genus_ends(loop_ray) == loop_ray


def test_genus_ends_tree(cantor_tree):
    assert gm.genus_ends(cantor_tree) is None


def test_genus_ends_ray_with_cantor_branch():
    a = aut("r", {"r": ["l", "b"], "l": ["l"], "b": ["b", "b"]}, {"l": 1})
    ge = gm.genus_ends(a)
    assert gm.classify_end_space(ge) == gm.EndFamily("finite", 1)
    # brute-force oracle: a depth-6 vertex has genus ends below iff its
    # deeper unfolding still carries loops
    t6 = gm.unfold(a, 6)
    t12 = gm.unfold(a, 12)
    loopy_below = {v for (v, _k) in t12.loop_edges}
    reach = gm.loop_reaching_states(a)
    for v in t6.frontier:
        has_loop_below = any(w[: len(v)] == v for w in loopy_below if len(w) >= len(v))
        assert (a.state_of(v) in reach) == has_loop_below


# -- end space classification -------------------------------------------------------


def test_classify_families(cantor_tree, plain_ray, loop_ray):
    assert gm.classify_end_space(cantor_tree) == gm.EndFamily("cantor")
    assert gm.classify_end_space(plain_ray) == gm.EndFamily("finite", 1)
    assert gm.classify_end_space(None) == gm.EndFamily("empty")
    two_rays = aut("r", {"r": ["p", "p"], "p": ["p"]})
    assert gm.classify_end_space(two_rays) == gm.EndFamily("finite", 2)
    mixed = aut("r", {"r": ["l", "b"], "l": ["l"], "b": ["b", "b"]})
    assert gm.classify_end_space(mixed) == gm.EndFamily("cantor_plus", 1)
    omega = aut("u", {"u": ["u", "p"], "p": ["p"]})
    assert gm.classify_end_space(omega) == gm.EndFamily("other")


# -- characteristic pairs and classification ------------------------------------------


def test_characteristic_pairs(two_loop_ray, cantor_tree):
    cp = gm.characteristic_pair(two_loop_ray)
    assert cp.kind == "INFINITE_GENUS"
    assert cp.end_family() == gm.EndFamily("finite", 1)
    assert cp.genus_end_family() == gm.EndFamily("finite", 1)
    cp2 = gm.characteristic_pair(cantor_tree)
    assert cp2.kind == "FINITE_GENUS"
    assert cp2.genus == 0


def test_figure3_style_pair():
    # Cantor end space with a proper closed genus subset
    a = aut("r", {"r": ["cb", "b"], "cb": ["cb", "cb", "b"], "b": ["b", "b"]}, {"cb": 1})
    cp = gm.characteristic_pair(a)
    assert cp.kind == "INFINITE_GENUS"
    assert cp.end_family() == gm.EndFamily("cantor")
    assert cp.genus_end_family() == gm.EndFamily("cantor")


def test_classify_equivalent(two_loop_ray, cantor_tree, plain_ray):
    three_loop_ray = aut("s", {"s": ["s"]}, {"s": 3})
    assert gm.classify_equivalent(two_loop_ray, three_loop_ray) == "YES"
    assert gm.classify_equivalent(cantor_tree, plain_ray) == "NO"
    omega = aut("u", {"u": ["u", "p"], "p": ["p"]})
    assert gm.classify_equivalent(omega, omega) == "UNKNOWN"


def test_classify_reflexive_symmetric(two_loop_ray, cantor_tree, loop_ray, plain_ray):
    graphs = [two_loop_ray, cantor_tree, loop_ray, plain_ray]
    for x in graphs:
        assert gm.classify_equivalent(x, x) == "YES"
    for x in graphs:
        for y in graphs:
            assert gm.classify_equivalent(x, y) == gm.classify_equivalent(y, x)


# -- standard models ---------------------------------------------------------------------


def test_standard_model_point_end():
    c = gm.characteristic_pair(aut("r", {"r": ["r"]}))
    m = gm.standard_model(c)
    assert m == aut("ray", {"ray": ["ray"]})


def test_standard_model_cantor_core():
    cc = aut("cb", {"cb": ["cb", "cb"]}, {"cb": 1})
    m = gm.standard_model(gm.characteristic_pair(cc))
    assert m.loops[m.root] == 1
    assert len(m.children[m.root]) == 2
    assert gm.classify_equivalent(m, cc) == "YES"


def test_standard_model_finite_genus_cantor():
    a = aut("r", {"r": ["b", "b"], "b": ["b", "b"]}, {"r": 2})
    m = gm.standard_model(gm.characteristic_pair(a))
    assert gm.classify_equivalent(m, a) == "YES"
    assert m.loops[m.root] == 2


def test_standard_model_fixes_canonical_family(two_loop_ray, cantor_tree, loop_ray):
    mixed = aut("r", {"r": ["l", "b"], "l": ["l"], "b": ["b", "b"]}, {"l": 1})
    for a in (two_loop_ray, cantor_tree, loop_ray, mixed):
        m = gm.standard_model(gm.characteristic_pair(a))
        assert gm.classify_equivalent(m, a) == "YES"


def test_standard_model_unsupported():
    omega = aut("u", {"u": ["u", "p"], "p": ["p"]})
    with pytest.raises(gm.UnsupportedPairError):
        gm.standard_model(gm.characteristic_pair(omega))


# -- DX helpers ----------------------------------------------------------------------------


def test_dx_compact(core_with_rays):
    assert not gm.dx_compact(core_with_rays)
    clean = aut("r", {"r": ["l", "d"], "l": ["l"], "d": ["d"]}, {"l": 1})
    assert gm.dx_compact(clean)


def test_core_vertices(core_with_rays):
    cv = gm.core_vertices(core_with_rays, 3)
    assert () in cv and (0,) in cv
    assert (1,) not in cv  # the free ray at the root


# -- text format and DOT ---------------------------------------------------------------------


def test_parse_format_roundtrip(core_with_rays):
    text = format_automaton(core_with_rays)
    assert gm.parse_automaton(text) == core_with_rays


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        gm.parse_automaton("state s loops=1\nroot s\n")
    with pytest.raises(ValueError):
        gm.parse_automaton("state s loops=0 children=\n")


def test_truncation_dot(cantor_tree):
    dot = gm.truncation_to_dot(gm.unfold(cantor_tree, 2))
    assert dot.startswith("digraph") and dot.count("->") >= 6


def test_unfold_frontier_states_match_state_of(core_with_rays, cantor_tree):
    mixed = gm.UnfoldingAutomaton.make("r", {"r": ["s", "d", "r"], "s": ["s", "d"], "d": ["d"]}, {"s": 1})
    for a in (core_with_rays, cantor_tree, mixed):
        for depth in range(4):
            t = gm.unfold(a, depth)
            assert set(t.frontier) == {v for v in t.vertices if len(v) == depth}
            assert all(t.frontier[v] == a.state_of(v) for v in t.frontier)
            assert sorted(t.loop_edges) == sorted((v, k) for v in t.vertices for k in range(a.loops[a.state_of(v)]))
