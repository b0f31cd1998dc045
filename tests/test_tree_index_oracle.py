"""Oracle for the tree index: truncation states and partition cells.

``cylinders``, ``core_vertices`` and ``expand_to_depth`` read the truncation
that ``unfold`` builds (every vertex's state) instead of walking the tree,
and a ``Partition`` keeps the cells that ``make`` expands.  The recursive
walkers and the expand-and-``block_of`` path they replaced are kept here
verbatim as references, and the new paths are checked against them on
random automata (leaf states, dead branches, loops) and random partitions.
"""

import random

import pytest

from propermaps import end_space as es
from propermaps import graph_model as gm
from propermaps import mapclass as mc
from propermaps import nielsen as nz
from propermaps.end_space import ClopenSet, DepthTooShallowError, Partition
from propermaps.graph_model import live_states, loop_reaching_states, path_str
from tests.conftest import cylinder_action


# -- references ------------------------------------------------------------------------------


def ref_core_vertices(a, depth):
    """Truncation vertices lying in the core (hull of all loops)."""
    reach = loop_reaching_states(a)
    out = set()

    def walk(path, s, outside, d):
        if s not in reach:
            return
        loopy = [c for c in a.children[s] if c in reach]
        directions = len(loopy) + (1 if outside else 0)
        if a.loops[s] > 0 or directions >= 2:
            out.add(path)
        if d == depth:
            return
        for i, c in enumerate(a.children[s]):
            if c not in reach:
                continue
            side_loops = a.loops[s] > 0 or any(cc in reach for j, cc in enumerate(a.children[s]) if j != i)
            walk(path + (i,), c, outside or side_loops, d + 1)

    walk((), a.root, False, 0)
    return frozenset(out)


def ref_cylinders(a, depth):
    """Live depth-D vertices; their shadows partition the end space."""
    live = live_states(a)
    out = []

    def walk(path, s, d):
        if s not in live:
            return
        if d == depth:
            out.append(path)
            return
        for i, c in enumerate(a.children[s]):
            walk(path + (i,), c, d + 1)

    walk((), a.root, 0)
    return tuple(sorted(out))


def ref_expand_to_depth(a, cyls, depth):
    """Live descendants at exactly `depth` of each (shallower) cylinder."""
    live = live_states(a)
    out = set()

    def walk(path, s, d):
        if s not in live:
            return
        if d == depth:
            out.add(path)
            return
        for i, c in enumerate(a.children[s]):
            walk(path + (i,), c, d + 1)

    for v in cyls:
        if len(v) > depth:
            raise DepthTooShallowError(f"cylinder {path_str(v)} deeper than {depth}")
        walk(v, a.state_of(v), len(v))
    return frozenset(out)


def ref_block_of(p, cyl):
    """The lowest-index block listing cyl or one of its ancestors."""
    index = {}
    for i, b in enumerate(p.blocks):
        for u in b.cylinders:
            index.setdefault(u, i)
    hits = [index[cyl[:n]] for n in range(len(cyl) + 1) if cyl[:n] in index]
    if not hits:
        raise KeyError(f"cylinder {path_str(cyl)} not covered")
    return min(hits)


def ref_parents(fine, coarse):
    if fine.automaton != coarse.automaton:
        raise ValueError("partitions of different end spaces")
    depth = max(fine.depth, coarse.depth)
    out = []
    for b in fine.blocks:
        js = {ref_block_of(coarse, c) for c in ref_expand_to_depth(fine.automaton, b.cylinders, depth)}
        out.append(list(js) if len(js) == 1 else [] if js else list(range(len(coarse.blocks))))
    return out


# -- inputs ----------------------------------------------------------------------------------


def random_automaton(rng):
    """Up to five states, 0-3 children each (leaf states and dead branches occur), 0-2 loops."""
    n = rng.randint(1, 5)
    names = [f"s{i}" for i in range(n)]
    children = {s: [] for s in names}
    for i in range(1, n):  # a spanning tree keeps every state reachable
        children[names[rng.randrange(i)]].append(names[i])
    for s in names:
        while len(children[s]) < 3 and rng.random() < 0.4:
            children[s].append(rng.choice(names))
        rng.shuffle(children[s])
    loops = {s: rng.choice((0, 0, 0, 1, 2)) for s in names}
    return gm.UnfoldingAutomaton.make(names[0], children, loops)


def random_antichain(rng, t):
    """Random truncation vertices, normalized to an antichain by ClopenSet.make."""
    picks = rng.sample(t.vertices, min(len(t.vertices), rng.randint(1, 4)))
    return sorted(ClopenSet.make(picks, t.depth).cylinders)


def random_partition(rng, a, depth):
    """A random cut of the tree into pieces (dead ones too), grouped into blocks that may cross."""
    t = gm.unfold(a, depth)
    pieces = []
    stack = [()]
    while stack:
        v = stack.pop()
        kids = [v + (i,) for i in range(len(a.children[t.state[v]]))] if len(v) < depth else []
        if kids and rng.random() < 0.7:
            stack.extend(kids)
        else:
            pieces.append(v)
    rng.shuffle(pieces)
    k = rng.randint(1, len(pieces))
    groups = [pieces[i::k] for i in range(k)]
    return Partition.make(a, depth, [ClopenSet.make(g, depth) for g in groups])


def _cases(seed, count):
    rng = random.Random(seed)
    return [(random_automaton(rng), rng.randint(0, 8), random.Random(rng.random())) for _ in range(count)]


def _small(a, depth):
    return len(gm.unfold(a, depth).vertices) <= 3000


# -- tests -----------------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_truncation_index_matches_walkers(seed):
    checked = 0
    for a, _, rng in _cases(seed, 60):
        for depth in range(9):
            if not _small(a, depth):
                break
            t = gm.unfold(a, depth)
            assert all(s == a.state_of(v) for v, s in t.state.items())
            assert gm.cylinders(a, depth) == ref_cylinders(a, depth)
            assert gm.core_vertices(a, depth) == ref_core_vertices(a, depth)
            for _ in range(3):
                cyls = random_antichain(rng, t)
                assert es.expand_to_depth(a, cyls, depth) == ref_expand_to_depth(a, cyls, depth)
                for v in cyls:
                    assert set(gm.cylinders_below(a, depth, v)) == ref_expand_to_depth(a, [v], depth)
            checked += 1
    assert checked >= 150


@pytest.mark.parametrize("seed", range(3))
def test_expand_to_depth_refuses_what_the_walker_refused(seed):
    for a, depth, rng in _cases(100 + seed, 40):
        if not _small(a, depth + 1):
            continue
        deeper = gm.unfold(a, depth + 1).frontier
        if deeper:
            v = rng.choice(list(deeper))
            for fn in (es.expand_to_depth, ref_expand_to_depth):
                with pytest.raises(DepthTooShallowError):
                    fn(a, [v], depth)
        if depth:
            v = gm.unfold(a, depth - 1).vertices[-1]
            outside = v + (len(a.children[a.state_of(v)]),)  # one child index past the last
            for fn in (es.expand_to_depth, ref_expand_to_depth):
                with pytest.raises(LookupError):
                    fn(a, [outside], depth)


@pytest.mark.parametrize("seed", range(6))
def test_partition_cells_match_expansion_and_block_of(seed):
    checked = 0
    for a, depth, rng in _cases(200 + seed, 60):
        if not _small(a, depth) or not ref_cylinders(a, depth):
            continue
        parts = [random_partition(rng, a, depth) for _ in range(3)]
        for p in parts:
            assert list(p.cells) == [ref_expand_to_depth(a, b.cylinders, depth) for b in p.blocks]
            assert p.index == {c: ref_block_of(p, c) for c in ref_cylinders(a, depth)}
            assert dict(p.index) == {c: p.block_of(c) for c in gm.cylinders(a, depth)}
        for p in parts:
            for q in parts:
                assert [sorted(js) for js in es._parents(p, q)] == [sorted(js) for js in ref_parents(p, q)]
        checked += 1
    assert checked >= 30


@pytest.mark.parametrize("seed", range(3))
def test_blocks_meeting_matches_the_cells(seed):
    """Each live vertex, asked in random order on one partition (so answers above
    the listed vertices are kept before those below them), meets exactly the
    blocks of the cylinders below it."""
    checked = 0
    for a, depth, rng in _cases(300 + seed, 60):
        if not _small(a, depth) or not ref_cylinders(a, depth):
            continue
        live = [v for v in gm.unfold(a, depth).vertices if ref_expand_to_depth(a, [v], depth)]
        for p in [random_partition(rng, a, depth) for _ in range(3)]:
            rng.shuffle(live)
            for v in live:
                assert p.blocks_meeting([v]) == {p.index[c] for c in ref_expand_to_depth(a, [v], depth)}
            batch = rng.sample(live, min(len(live), 3))
            assert p.blocks_meeting(batch) == {p.index[c] for c in ref_expand_to_depth(a, batch, depth)}
        checked += 1
    assert checked >= 30


def test_telescope_refuses_partitions_of_different_depths(cantor_tree):
    coarse, fine = Partition.trivial(cantor_tree, 2), Partition.trivial(cantor_tree, 3)
    with pytest.raises(ValueError, match="different depths") as info:
        es.telescope([coarse, fine])
    assert not isinstance(info.value, es.NotRefiningError)
    with pytest.raises(ValueError, match="different depths"):
        es.refines(fine, coarse)


def test_telescope_action_refuses_an_action_of_another_depth(cantor_tree):
    t = es.telescope([Partition.trivial(cantor_tree, 2)] * 2)
    cyls = gm.cylinders(cantor_tree, 3)
    grp = cylinder_action(cantor_tree, 3, {"e": {c: c for c in cyls}})
    with pytest.raises(ValueError, match="different depths"):
        es.induced_telescope_action(t, grp.level_maps)


def test_good_filter_refuses_partitions_of_another_depth(cantor_tree):
    act = nz.FiniteGroupAction.make(nz.FiniteGroup.trivial(), {"e": mc.ProperMapRep.identity(cantor_tree, 3)})
    with pytest.raises(ValueError, match="different depths"):
        nz.good_filter([Partition.trivial(cantor_tree, 2)], act)
