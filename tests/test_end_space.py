from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st_h

from propermaps import end_space as es
from propermaps import graph_model as gm


def cantor_group(a, depth):
    cyls = gm.cylinders(a, depth)
    swap = {c: (1 - c[0],) + c[1:] for c in cyls}
    return es.FiniteCylinderGroup(a, depth, {"e": {c: c for c in cyls}, "s": swap})


# -- clopen sets -------------------------------------------------------------------


def test_clopen_normalization():
    c = es.ClopenSet.make([(0,), (0, 1)], 2)
    assert c.cylinders == frozenset({(0,)})


def test_clopen_subset(cantor_tree):
    small = es.ClopenSet.make([(0, 0)], 2)
    big = es.ClopenSet.make([(0,)], 1)
    assert es.clopen_subset(cantor_tree, small, big)
    assert not es.clopen_subset(cantor_tree, big, small)


# -- metrics --------------------------------------------------------------------------


def distance(u, v):
    """The 2^-prefix ultrametric that epsilon partitions are taken in."""
    return Fr(0) if u == v else Fr(1, 2 ** es.common_prefix_len(u, v))


def test_base_metric_values():
    assert distance((0, 0), (0, 1)) == Fr(1, 2)
    assert distance((0, 0), (1, 1)) == Fr(1)
    assert distance((0, 0), (0, 0)) == 0


def test_not_an_action(cantor_tree):
    cyls = gm.cylinders(cantor_tree, 2)
    # a single swap without the identity is not closed
    swap = {c: (1 - c[0],) + c[1:] for c in cyls}
    with pytest.raises(es.NotAnActionError):
        es.FiniteCylinderGroup(cantor_tree, 2, {"s": swap})
    # tree-incompatible bijection
    perm = dict(zip(sorted(cyls), sorted(cyls)[1:] + sorted(cyls)[:1]))
    with pytest.raises(es.NotAnActionError):
        es.FiniteCylinderGroup(cantor_tree, 2, {"e": {c: c for c in cyls}, "x": perm})


# -- partitions -----------------------------------------------------------------------


def test_epsilon_partition_examples(cantor_tree):
    huge = es.epsilon_partition(cantor_tree, Fr(2), 2)
    assert len(huge.blocks) == 1
    p03 = es.epsilon_partition(cantor_tree, Fr(3, 10), 2)
    assert [sorted(cell) for cell in p03.cells] == [[(0, 0)], [(0, 1)], [(1, 0)], [(1, 1)]]
    p06 = es.epsilon_partition(cantor_tree, Fr(6, 10), 2)
    assert [sorted(cell) for cell in p06.cells] == [[(0, 0), (0, 1)], [(1, 0), (1, 1)]]
    # each block lists its one prefix
    assert [sorted(b.cylinders) for b in p06.blocks] == [[(0,)], [(1,)]]


def test_epsilon_strictness(cantor_tree):
    # d = 1/2 exactly: strict < means no join at eps = 1/2
    p = es.epsilon_partition(cantor_tree, Fr(1, 2), 2)
    assert len(p.blocks) == 4


def test_refines(cantor_tree):
    p03 = es.epsilon_partition(cantor_tree, Fr(3, 10), 2)
    p06 = es.epsilon_partition(cantor_tree, Fr(6, 10), 2)
    assert es.refines(p03, p03)
    assert es.refines(p03, p06)
    assert not es.refines(p06, p03)


def test_crossing_partitions_do_not_refine(cantor_tree):
    p1 = es.Partition.make(cantor_tree, 2, [es.ClopenSet.make([(0,)], 1), es.ClopenSet.make([(1,)], 1)])
    p2 = es.Partition.make(
        cantor_tree,
        2,
        [es.ClopenSet.make([(0, 0), (1, 0)], 2), es.ClopenSet.make([(0, 1), (1, 1)], 2)],
    )
    assert not es.refines(p1, p2)
    assert not es.refines(p2, p1)


@given(st_h.integers(min_value=1, max_value=6), st_h.integers(min_value=1, max_value=6))
@settings(max_examples=20, deadline=None)
def test_epsilon_monotone_refinement(n1, n2):
    cantor_tree = gm.UnfoldingAutomaton.make("b", {"b": ["b", "b"]}, {"b": 0})
    e1, e2 = Fr(1, 2) ** n1, Fr(1, 2) ** n2
    p1 = es.epsilon_partition(cantor_tree, min(e1, e2), 3)
    p2 = es.epsilon_partition(cantor_tree, max(e1, e2), 3)
    assert es.refines(p1, p2)


@pytest.mark.parametrize(
    "children,depth,eps",
    [
        (["t", "t", "t"], 3, Fr(1, 4)),   # 27 cylinders
        (["b", "b"], 6, Fr(1, 8)),        # 64 cylinders
        (["b", "b"], 6, Fr(1, 2)),
    ],
)
def test_union_find_matches_transitive_closure(children, depth, eps):
    a = gm.UnfoldingAutomaton.make(children[0], {children[0]: children}, {children[0]: 0})
    p = es.epsilon_partition(a, eps, depth)
    cyls = gm.cylinders(a, depth)
    # brute force transitive closure of the < eps relation
    blocks = {c: {c} for c in cyls}
    changed = True
    while changed:
        changed = False
        for u in cyls:
            for v in cyls:
                if u != v and distance(u, v) < eps and blocks[u] is not blocks[v]:
                    merged = blocks[u] | blocks[v]
                    for x in merged:
                        blocks[x] = merged
                    changed = True
    expected = {frozenset(b) for b in blocks.values()}
    got = {es.expand_to_depth(a, b.cylinders, depth) for b in p.blocks}
    assert got == expected


# -- telescopes ------------------------------------------------------------------------


def _binary_seq(cantor_tree, depth):
    seq = [es.Partition.trivial(cantor_tree, depth)]
    for n in range(1, depth + 1):
        seq.append(es.epsilon_partition(cantor_tree, Fr(2) ** (1 - n), depth))
    return seq


def test_telescope_of_constant_trivial(plain_ray):
    seq = [es.Partition.trivial(plain_ray, 2) for _ in range(4)]
    t = es.telescope(seq)
    assert len(t.vertices()) == 4
    assert len(t.edges) == 3  # a ray


def test_telescope_binary_depth3(cantor_tree):
    t = es.telescope(_binary_seq(cantor_tree, 3))
    assert len(t.vertices()) == 1 + 2 + 4 + 8
    assert len(t.edges) == len(t.vertices()) - 1
    t.check_tree()
    # boundary bijection at depth 3: leaves <-> cylinders
    bm = es.boundary_map(t)
    leaves = {bm.vertex_of(3, c) for c in gm.cylinders(cantor_tree, 3)}
    assert len(leaves) == 8


def test_telescope_stabilizing_partition(cantor_tree):
    half = es.epsilon_partition(cantor_tree, Fr(1), 3)
    seq = [es.Partition.trivial(cantor_tree, 3), half, half, half]
    t = es.telescope(seq)
    # beyond level 1 each vertex has exactly one child: two rays
    for n in (1, 2):
        for i in range(len(t.partitions[n].blocks)):
            children = [e for e in t.edges if e[1] == (n, i)]
            assert len(children) == 1


def test_telescope_not_refining(cantor_tree):
    fine = es.epsilon_partition(cantor_tree, Fr(1, 2), 2)
    coarse = es.epsilon_partition(cantor_tree, Fr(1), 2)
    with pytest.raises(es.NotRefiningError):
        es.telescope([es.Partition.trivial(cantor_tree, 2), fine, coarse])
    with pytest.raises(es.NotRefiningError):
        es.telescope([fine, coarse])


# -- boundary map and induced actions ----------------------------------------------------


def test_boundary_map_ray(plain_ray):
    seq = [es.Partition.trivial(plain_ray, 2) for _ in range(3)]
    bm = es.boundary_map(es.telescope(seq))
    assert bm.vertex_of(2, (0, 0)) == (2, 0)


def test_induced_action_examples(cantor_tree):
    t = es.telescope(_binary_seq(cantor_tree, 3))
    grp = cantor_group(cantor_tree, 3)
    act = es.induced_telescope_action(t, grp)
    # reflection at level 1 swaps the two blocks
    assert act.apply("s", (1, 0)) == (1, 1)
    assert act.apply("e", (1, 0)) == (1, 0)
    es.boundary_map(t).check_equivariant(grp, act)


def test_induced_action_trivial_on_blocks(cantor_tree):
    # swap inside each half: nontrivial on cylinders, trivial on level-1 blocks
    cyls = gm.cylinders(cantor_tree, 2)
    inner = {c: (c[0], 1 - c[1]) for c in cyls}
    grp = es.FiniteCylinderGroup(cantor_tree, 2, {"e": {c: c for c in cyls}, "w": inner})
    seq = [es.Partition.trivial(cantor_tree, 2), es.epsilon_partition(cantor_tree, Fr(1), 2)]
    act = es.induced_telescope_action(es.telescope(seq), grp)
    assert all(act.apply("w", v) == v for v in es.telescope(seq).vertices())


def test_induced_action_not_invariant(cantor_tree):
    # a partition separating 00 from 01 is not swap-invariant
    p = es.Partition.make(
        cantor_tree,
        2,
        [es.ClopenSet.make([(0, 0), (1, 0)], 2), es.ClopenSet.make([(0, 1), (1, 1)], 2)],
    )
    t = es.telescope([es.Partition.trivial(cantor_tree, 2), p])
    bad = {(0, 0): (0, 1), (0, 1): (0, 0), (1, 0): (1, 0), (1, 1): (1, 1)}
    grp = es.FiniteCylinderGroup(cantor_tree, 2, {"e": {c: c for c in gm.cylinders(cantor_tree, 2)}, "b": bad})
    with pytest.raises(es.NotInvariantError):
        es.induced_telescope_action(t, grp)


# -- formats -------------------------------------------------------------------------------


def test_partition_file_roundtrip(cantor_tree):
    p = es.epsilon_partition(cantor_tree, Fr(6, 10), 2)
    text = es.format_partition(p)
    assert text == "block b0: 0/0,0/1\nblock b1: 1/0,1/1\n"
    p2 = es.parse_partition_file(cantor_tree, 2, text)
    assert p2.cells == p.cells
    assert es.format_partition(p2) == text


def test_partition_file_roundtrip_keeps_a_dead_block():
    """A block listing only a dead vertex above the depth prints as that vertex, so the file reads back
    as the same partition, and the telescope labels it by that vertex."""
    a = gm.UnfoldingAutomaton.make("r", {"r": ["b", "x", "b"], "b": ["b", "b"], "x": []}, {"r": 0})
    text = "block b0: 0/0/0,0/0/1,0/1/0,0/1/1\nblock b1: 1\nblock b2: 2/0/0,2/0/1,2/1/0,2/1/1\n"
    p = es.parse_partition_file(a, 3, text)
    assert p.cells[1] == frozenset()
    assert es.format_partition(p) == text
    assert es.parse_partition_file(a, 3, es.format_partition(p)) == p
    t = es.telescope([es.Partition.trivial(a, 3), p])
    assert '"v1_1" [label="1:1"];' in es.telescope_to_dot(t)


def test_telescope_dot(cantor_tree):
    t = es.telescope(_binary_seq(cantor_tree, 2))
    dot = es.telescope_to_dot(t)
    assert dot.startswith("graph") and "--" in dot


# -- block lookup ----------------------------------------------------------------------


def _scan_block_of(p, cyl):
    """The linear scan that block_of replaced."""
    for i, b in enumerate(p.blocks):
        if any(es.is_ancestor(u, cyl) for u in b.cylinders):
            return i
    raise KeyError(cyl)


@pytest.mark.parametrize("arity, depth", [(2, 4), (2, 6), (3, 3), (3, 4)])
def test_block_of_index_matches_scan(arity, depth):
    a = gm.UnfoldingAutomaton.make("b", {"b": ["b"] * arity}, {"b": 0})
    parts = [es.Partition.trivial(a, depth)]
    parts += [es.epsilon_partition(a, Fr(2) ** (1 - n), depth) for n in range(1, depth + 2)]
    queries = list(gm.unfold(a, depth + 1).vertices)
    for p in parts:
        for cyl in queries * 2:  # the second round is answered from the memo
            try:
                want = _scan_block_of(p, cyl)
            except KeyError:
                with pytest.raises(KeyError):
                    p.block_of(cyl)
                continue
            assert p.block_of(cyl) == want
