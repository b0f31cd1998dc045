"""The tree pipeline against the pairwise routines it replaced.

The ``ref_*`` functions are verbatim copies of the old ``end_space`` tree
pipeline: the group-averaged metric as a ``Fraction`` table over all
cylinder pairs, the union-find epsilon partition over all pairs, the
pairwise ``clopen_subset`` parent search of ``refines`` and ``telescope``,
the linear image-block search of ``induced_telescope_action``, and the
printers of partitions and telescopes.  They are slow but obviously right
for any metric and any blocks; the prefix versions must agree with them
exactly on tree-compatible actions.  The prefix pipeline has no metric
object and no averaging pass: its partitions are ``nielsen._epsilon_sequence``
of the automaton, and the averaged reference metric is checked to be the
2^-prefix metric itself.

A reference block lists all of its depth-D cylinders, where an epsilon block
lists its one prefix; so each block is compared through its cell, its live
expansion, which holds exactly the reference block's cylinders.

Every action is certified (``tests.conftest.cylinder_action``), and the
pipeline reads its level maps.  ``ref_group`` hands the references each
element's permutation of the cylinders, and ``ref_validate`` is the old
group check, which the level maps of a certified group must match.
"""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st_h

from propermaps import end_space as es
from propermaps import graph_model as gm
from propermaps import nielsen as nz
from propermaps.end_space import (
    ClopenSet,
    DepthTooShallowError,
    NotAnActionError,
    NotInvariantError,
    NotRefiningError,
    Partition,
    TelescopeAction,
    TelescopeTree,
    common_prefix_len,
    cylinders,
    expand_to_depth,
    is_ancestor,
    path_str,
)
from tests.conftest import cylinder_action
from tests.test_end_space import format_partition, refines
from tests.test_nielsen import _swap_branch_action

# -- reference implementations ------------------------------------------------------------


def ref_group(action):
    """What the references read of a certified action: each element's permutation of the live
    depth-D cylinders, by name, as the old cylinder group held it."""
    cyls = cylinders(action.automaton, action.depth)
    elements = {g: {c: action.reps[g].end_moves.get(c, c) for c in cyls} for g in action.group.elements}
    return SimpleNamespace(
        automaton=action.automaton,
        depth=action.depth,
        elements=elements,
        apply=lambda h, c: elements[h][c],
        names=lambda: tuple(sorted(elements)),
    )


class RefEndMetric:
    """Exact metric on depth-D cylinders; BASE is the 2^-prefix ultrametric."""

    def __init__(self, automaton, depth, kind="base", table=None):
        self.automaton = automaton
        self.depth = depth
        self.kind = kind
        self._table = dict(table) if table is not None else None

    @classmethod
    def base(cls, a, depth):
        return cls(a, depth, "base")

    def distance(self, u, v):
        if u == v:
            return Fraction(0)
        if self.kind == "base":
            return Fraction(1, 2 ** common_prefix_len(u, v))
        key = (u, v) if u <= v else (v, u)
        if self._table is None or key not in self._table:
            raise DepthTooShallowError(f"averaged metric has no value for {path_str(u)},{path_str(v)}")
        return self._table[key]


def ref_average_metric(d, action):
    if action.automaton != d.automaton or action.depth != d.depth:
        raise NotAnActionError("action and metric live on different cylinder sets")
    cyls = cylinders(d.automaton, d.depth)
    n = len(action.elements)
    table = {}
    for i, u in enumerate(cyls):
        for v in cyls[i + 1 :]:
            total = sum((d.distance(action.apply(h, u), action.apply(h, v)) for h in action.names()), Fraction(0))
            table[(u, v)] = total / n
    out = RefEndMetric(d.automaton, d.depth, "averaged", table)
    for h in action.names():
        for i, u in enumerate(cyls):
            for v in cyls[i + 1 :]:
                assert out.distance(action.apply(h, u), action.apply(h, v)) == out.distance(u, v)
    return out


class RefUnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            if ry < rx:
                rx, ry = ry, rx
            self.parent[ry] = rx


def ref_epsilon_partition(m, eps, depth):
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if m.kind == "averaged" and depth != m.depth:
        raise DepthTooShallowError("averaged metrics evaluate only at their construction depth")
    cyls = cylinders(m.automaton, depth)
    uf = RefUnionFind(cyls)
    for i, u in enumerate(cyls):
        for v in cyls[i + 1 :]:
            if m.distance(u, v) < eps:
                uf.union(u, v)
    groups = {}
    for c in cyls:
        groups.setdefault(uf.find(c), set()).add(c)
    blocks = [ClopenSet.make(g, depth) for g in groups.values()]
    return Partition.make(m.automaton, depth, blocks)


def ref_clopen_subset(a, c1, c2):
    d = max(c1.reference_depth, c2.reference_depth, max((len(v) for v in c1.cylinders | c2.cylinders), default=0))
    return expand_to_depth(a, c1.cylinders, d) <= expand_to_depth(a, c2.cylinders, d)


def ref_refines(p, q):
    if p.automaton != q.automaton:
        raise ValueError("partitions of different end spaces")
    for b in p.blocks:
        if not any(ref_clopen_subset(p.automaton, b, c) for c in q.blocks):
            return False
    return True


def ref_telescope(seq):
    if not seq:
        raise ValueError("empty partition sequence")
    if len(seq[0].blocks) != 1:
        raise NotRefiningError("sequence must start with the trivial partition")
    parts = tuple(seq)
    edges = []
    for n in range(1, len(parts)):
        fine, coarse = parts[n], parts[n - 1]
        if not ref_refines(fine, coarse):
            raise NotRefiningError(f"partition {n} does not refine partition {n - 1}")
        for i, b in enumerate(fine.blocks):
            js = [j for j, c in enumerate(coarse.blocks) if ref_clopen_subset(fine.automaton, b, c)]
            if len(js) != 1:
                raise NotRefiningError(f"block {i} of level {n} has {len(js)} parents")
            edges.append(((n, i), (n - 1, js[0])))
    t = TelescopeTree(parts, tuple(edges))
    t.check_tree()
    return t


def ref_block_image(action, name, block):
    ex = expand_to_depth(action.automaton, block.cylinders, action.depth)
    return frozenset(action.apply(name, c) for c in ex)


def ref_induced_telescope_action(t, action):
    a = t.automaton
    maps = {}
    for h in action.names():
        vmap = {}
        for n, p in enumerate(t.partitions):
            ex_blocks = [expand_to_depth(a, b.cylinders, action.depth) for b in p.blocks]
            for i, b in enumerate(p.blocks):
                img = ref_block_image(action, h, b)
                js = [j for j, e in enumerate(ex_blocks) if e == img]
                if not js:
                    raise NotInvariantError(f"element {h} does not preserve partition level {n}")
                vmap[(n, i)] = (n, js[0])
        maps[h] = vmap
    out = TelescopeAction(t, maps)
    edge_set = set(t.edges)
    for h, vmap in maps.items():
        for child, parent in t.edges:
            if (vmap[child], vmap[parent]) not in edge_set:
                raise AssertionError(f"element {h} does not act simplicially")
    return out


def ref_clopen_make(cyls, reference_depth):
    cs = set(cyls)
    keep = {v for v in cs if not any(is_ancestor(u, v) and u != v for u in cs)}
    return ClopenSet(frozenset(keep), reference_depth)


def ref_validate(self):
    cyls = set(cylinders(self.automaton, self.depth))
    perms = list(self.elements.items())
    for name, perm in perms:
        if set(perm) != cyls or set(perm.values()) != cyls:
            raise NotAnActionError(f"element {name} is not a bijection of the depth-{self.depth} cylinders")
        # tree compatibility: same prefix at depth k maps to same prefix
        for k in range(self.depth):
            images = {}
            for c, d in perm.items():
                pre, img = c[:k], d[:k]
                if pre in images and images[pre] != img:
                    raise NotAnActionError(f"element {name} is incompatible with the cylinder tree at depth {k}")
                images[pre] = img
    # closure under composition (finite closed sets of bijections are groups)
    keyed = {tuple(sorted(p.items())): n for n, p in self.elements.items()}
    for n1, p1 in perms:
        for n2, p2 in perms:
            comp = {c: p2[p1[c]] for c in p1}
            if tuple(sorted(comp.items())) not in keyed:
                raise NotAnActionError(f"composition {n2}*{n1} escapes the element set")
    if not any(all(p[c] == c for c in p) for p in self.elements.values()):
        raise NotAnActionError("identity element missing")


def ref_check_equivariant(self, action, tele_action):
    for h in action.names():
        for n, p in enumerate(self.tree.partitions):
            for c, i in p.index.items():
                lhs = tele_action.apply(h, (n, i))
                rhs = (n, p.index[action.apply(h, c)])
                if lhs != rhs:
                    raise AssertionError(f"boundary correspondence not equivariant at {h}, level {n}")


def ref_format_partition(p):
    lines = []
    for i, b in enumerate(p.blocks):
        paths = ",".join(path_str(c) for c in sorted(b.cylinders))
        lines.append(f"block b{i}: {paths}")
    return "\n".join(lines) + "\n"


def ref_telescope_to_dot(t):
    lines = ["graph telescope {"]
    for n, p in enumerate(t.partitions):
        for i, b in enumerate(p.blocks):
            label = "|".join(path_str(c) for c in sorted(b.cylinders))
            lines.append(f'  "v{n}_{i}" [label="{n}:{label}"];')
    for (n1, i1), (n0, i0) in t.edges:
        lines.append(f'  "v{n1}_{i1}" -- "v{n0}_{i0}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- inputs ---------------------------------------------------------------------------------


def _twisted_rotation(rng, arity, depth):
    """Z/arity rotating the root's children, twisted below by a random prefix
    automorphism pi on child 0 and its inverse on child 1, as named cylinder permutations."""
    a = gm.UnfoldingAutomaton.make("t", {"t": ["t"] * arity}, {"t": 0})
    prefixes = {tuple(rng.randrange(arity) for _ in range(rng.randint(0, max(0, depth - 2)))) for _ in range(rng.randint(0, 3))}

    def twist(path, sign):
        out = []
        for i, d in enumerate(path):
            key = tuple(out) if sign < 0 else path[:i]
            out.append((d + sign) % arity if key in prefixes else d)
        return tuple(out)

    below = [lambda p: twist(p, 1), lambda p: twist(p, -1)] + [lambda p: p] * (arity - 2)
    cyls = gm.cylinders(a, depth)
    power = {c: c for c in cyls}
    elements = {}
    for k in range(arity):
        elements[f"g{k}"] = dict(power)
        power = {c: ((x[0] + 1) % arity,) + below[x[0]](x[1:]) for c, x in power.items()}
    return a, elements


def _twisted_action(rng, arity, depth):
    a, elements = _twisted_rotation(rng, arity, depth)
    return a, cylinder_action(a, depth, elements)


def _cases():
    rng = random.Random(20211)
    cases = []
    for depth in range(2, 7):
        for copy in range(2):
            cases.append((f"cantor-d{depth}-{copy}", *_twisted_action(rng, 2, depth)))
    for depth in range(2, 6):
        cases.append((f"ternary-d{depth}", *_twisted_action(rng, 3, depth)))
    for depth in (3, 4):
        cases.append((f"swap-branch-d{depth}", *_swap_branch_action(depth)))
    ray = gm.UnfoldingAutomaton.make("r", {"r": ["r"]}, {"r": 0})
    cases.append(("plain-ray-d3", ray, cylinder_action(ray, 3, {"e": {c: c for c in cylinders(ray, 3)}})))
    for depth in (3, 4):
        cases.append((f"dead-path-d{depth}", *_dead_path_swap(depth)))
    return cases


def _dead_path_swap(depth):
    """Z/2 swapping the live root branches 0 and 2 around the dead path (1,), a leaf state."""
    a = gm.UnfoldingAutomaton.make("r", {"r": ["b", "x", "b"], "b": ["b", "b"], "x": []}, {"r": 0})
    cyls = gm.cylinders(a, depth)
    swap = {c: (2 - c[0],) + c[1:] for c in cyls}
    return a, cylinder_action(a, depth, {"e": {c: c for c in cyls}, "s": swap})


CASES = _cases()
BASES = [Fraction(2), Fraction(3), Fraction(3, 2), Fraction(1)]
LEVELS = 5


def _outcome(fn, *args):
    """The value fn returns, or the type and text of the error it raises."""
    try:
        return fn(*args)
    except (ValueError, AssertionError) as exc:
        return (type(exc), str(exc))


def prefix_distance(u, v):
    """The 2^-prefix ultrametric."""
    return Fraction(0) if u == v else Fraction(1, 2 ** common_prefix_len(u, v))


def _run(tele_fn, act_fn, seq, action):
    """A partition sequence with its telescope and telescope action (or their errors)."""
    tele = _outcome(tele_fn, seq)
    tact = _outcome(act_fn, tele, action) if isinstance(tele, TelescopeTree) else None
    return seq, tele, tact


def _ref_pipeline(a, action, bases, levels=LEVELS):
    """The averaged metric, then per eps base: partition sequence, telescope, telescope action."""
    group = ref_group(action)
    avg = ref_average_metric(RefEndMetric.base(a, action.depth), group)
    runs = []
    for base in bases:
        seq = [Partition.trivial(a, action.depth)]
        seq += [ref_epsilon_partition(avg, base ** (1 - n), action.depth) for n in range(1, levels + 1)]
        runs.append(_run(ref_telescope, ref_induced_telescope_action, seq, group))
    return avg, runs


def _pipeline(a, action, bases, levels=LEVELS):
    """Per eps base: the prefix partition sequence, telescope, telescope action."""
    seqs = (nz._epsilon_sequence(a, action.depth, base, levels) for base in bases)
    return [_run(es.telescope, es.induced_telescope_action, seq, action.level_maps) for seq in seqs]


# -- tests ---------------------------------------------------------------------------------


def _assert_runs_agree(ref_runs, runs, action):
    for (ref_seq, ref_tele, ref_act), (seq, tele, tact) in zip(ref_runs, runs):
        # both start at the trivial partition; then each block's expansion, in order, is the reference block
        assert seq[0] == ref_seq[0]
        assert [list(p.cells) for p in seq[1:]] == [[b.cylinders for b in p.blocks] for p in ref_seq[1:]]
        assert [format_partition(p) for p in seq] == [ref_format_partition(p) for p in ref_seq]
        pairs = [(p, q) for p, q in zip(seq, seq[1:])] + [(q, p) for p, q in zip(seq, seq[1:])]
        assert [refines(p, q) for p, q in pairs] == [ref_refines(p, q) for p, q in pairs]
        assert isinstance(tele, TelescopeTree) and isinstance(ref_tele, TelescopeTree)
        assert tele.edges == ref_tele.edges
        assert es.telescope_to_dot(tele) == ref_telescope_to_dot(ref_tele)
        assert isinstance(tact, TelescopeAction) and tact.vertex_maps == ref_act.vertex_maps
        bnd = es.boundary_map(tele)
        assert _outcome(bnd.check_equivariant, action.level_maps, tact) is None
        assert _outcome(ref_check_equivariant, bnd, ref_group(action), tact) is None


@pytest.mark.parametrize("name, a, action", CASES, ids=[c[0] for c in CASES])
def test_tree_pipeline_matches_pairwise_reference(name, a, action):
    ref_avg, ref_runs = _ref_pipeline(a, action, BASES)
    cyls = cylinders(a, action.depth)
    for i, u in enumerate(cyls):
        for v in cyls[i:]:
            assert ref_avg.distance(u, v) == prefix_distance(u, v)
    _assert_runs_agree(ref_runs, _pipeline(a, action, BASES), action)
    # the whole tree pipeline, report and DOT text included, where it applies
    for base, (ref_seq, ref_tele, ref_act) in zip(BASES, ref_runs if gm.genus(a) == 0 else ()):
        tr = nz.realize_tree_case(action, levels=LEVELS, eps_base=base)
        assert es.telescope_to_dot(tr.telescope) == ref_telescope_to_dot(ref_tele)
        assert tr.action.vertex_maps == ref_act.vertex_maps
        assert tr.report["block_counts"] == [len(p.blocks) for p in ref_seq]
        assert tr.report["vertices"] == len(ref_tele.vertices()) and tr.report["edges"] == len(ref_tele.edges)


@pytest.mark.parametrize("name, a, action", CASES, ids=[c[0] for c in CASES])
def test_level_maps_are_the_prefix_maps(name, a, action):
    for h, perm in ref_group(action).elements.items():
        naive = tuple({c[:k]: perm[c][:k] for c in perm} for k in range(action.depth + 1))
        assert action.level_maps[h] == naive
    _assert_prefix_isometries(action)


# eps = base^(1-n) for n = 1..5 lists prefixes of depths 1,1,1,1,1 (base 1), 1,1,2,2,3 (3/2),
# 1,2,4,5,7 (3) and 1,3,5,7,9 (4): depths repeat and skip, and pass the support
@pytest.mark.parametrize("base, depths", [(1, [1] * 5), (Fraction(3, 2), [1, 1, 2, 2, 3]), (3, [1, 2, 4, 5, 7]), (4, [1, 3, 5, 7, 9])])
def test_eps_bases_that_repeat_or_skip_prefix_depths(base, depths):
    a, action = next((a, act) for name, a, act in CASES if name == "cantor-d6-0")
    _, ref_runs = _ref_pipeline(a, action, [Fraction(base)])
    runs = _pipeline(a, action, [Fraction(base)])
    ((seq, _, _),) = runs
    assert [len(next(iter(p.blocks[0].cylinders))) for p in seq[1:]] == [min(j, action.depth) for j in depths]
    _assert_runs_agree(ref_runs, runs, action)


@pytest.mark.parametrize("name, a, action", [c for c in CASES if c[0] in ("cantor-d4-0", "ternary-d3", "dead-path-d3")])
def test_zero_levels_match_reference(name, a, action):
    _, ref_runs = _ref_pipeline(a, action, [Fraction(2)], levels=0)
    runs = _pipeline(a, action, [Fraction(2)], levels=0)
    _assert_runs_agree(ref_runs, runs, action)
    ((_, tele, _),) = runs
    assert tele.vertices() == ((0, 0),) and tele.edges == ()
    report = nz.realize_tree_case(action, levels=0).report
    assert report["vertices"] == 1 and report["block_counts"] == [1]


@pytest.mark.parametrize("name, a, action", [c for c in CASES if c[0] in ("cantor-d4-0", "ternary-d3", "swap-branch-d3")])
def test_increasing_eps_fails_alike(name, a, action):
    ((_, ref_tele, _),) = _ref_pipeline(a, action, [Fraction(1, 2)])[1]
    ((_, tele, _),) = _pipeline(a, action, [Fraction(1, 2)])
    assert tele == ref_tele
    assert tele[0] is NotRefiningError and tele[1].startswith("partition 2 does not refine")


def test_crossing_partitions_fail_alike(cantor_tree):
    halves = Partition.make(cantor_tree, 2, [ClopenSet.make([(0,)], 1), ClopenSet.make([(1,)], 1)])
    stripes = Partition.make(cantor_tree, 2, [ClopenSet.make([(0, 0), (1, 0)], 2), ClopenSet.make([(0, 1), (1, 1)], 2)])
    for p, q in ((halves, stripes), (stripes, halves)):
        assert refines(p, q) == ref_refines(p, q) == False  # noqa: E712
        seq = [Partition.trivial(cantor_tree, 2), q, p]
        want = _outcome(ref_telescope, seq)
        assert _outcome(es.telescope, seq) == want and want[0] is NotRefiningError


def test_non_invariant_partition_fails_alike(cantor_tree):
    stripes = Partition.make(cantor_tree, 2, [ClopenSet.make([(0, 0), (1, 0)], 2), ClopenSet.make([(0, 1), (1, 1)], 2)])
    t = es.telescope([Partition.trivial(cantor_tree, 2), stripes])
    cyls = gm.cylinders(cantor_tree, 2)
    bad = {(0, 0): (0, 1), (0, 1): (0, 0), (1, 0): (1, 0), (1, 1): (1, 1)}
    grp = cylinder_action(cantor_tree, 2, {"e": {c: c for c in cyls}, "b": bad})
    want = _outcome(ref_induced_telescope_action, t, ref_group(grp))
    assert _outcome(es.induced_telescope_action, t, grp.level_maps) == want and want[0] is NotInvariantError


def test_dead_block_parents_match_reference():
    # a leaf state makes (1,) a dead path: its block expands to nothing and
    # lies in every block of the coarser partition
    a = gm.UnfoldingAutomaton.make("r", {"r": ["b", "x"], "b": ["b", "b"], "x": []}, {"r": 0})
    trivial = Partition.trivial(a, 2)
    coarse = Partition.make(a, 2, [ClopenSet.make([(0,)], 2), ClopenSet.make([(1,)], 2)])
    fine = Partition.make(a, 2, [ClopenSet.make([c], 2) for c in ((0, 0), (0, 1), (1,))])
    for seq in ([trivial, coarse], [trivial, fine], [trivial, fine, coarse], [trivial, coarse, fine]):
        assert _outcome(es.telescope, seq) == _outcome(ref_telescope, seq)
        assert refines(seq[-1], seq[-2]) == ref_refines(seq[-1], seq[-2])


_paths = st_h.lists(st_h.integers(min_value=0, max_value=2), max_size=4).map(tuple)


@given(st_h.sets(_paths, max_size=12), st_h.integers(min_value=0, max_value=4))
@settings(max_examples=100, deadline=None)
def test_clopen_make_matches_all_pairs(paths, depth):
    assert ClopenSet.make(paths, depth) == ref_clopen_make(paths, depth)


ORDER_CAP = 24  # FiniteGroup.make checks associativity in O(|G|^3)


def _cyclic(x):
    """The cyclic group that the cylinder permutation x generates, as its powers named
    e, x, x2, ..., or None if its order passes ORDER_CAP."""
    powers = [{c: c for c in x}]
    while len(powers) <= ORDER_CAP:
        power = {c: x[d] for c, d in powers[-1].items()}
        if power == powers[0]:
            return dict(zip(["e", "x"] + [f"x{k}" for k in range(2, len(powers))], powers))
        powers.append(power)
    return None


def _closed(perms):
    """Whether distinct cylinder permutations hold the identity and every product of two."""
    keyed = {tuple(sorted(p.items())) for p in perms.values()}
    ident = tuple((c, c) for c in sorted(next(iter(perms.values()))))
    products = (tuple(sorted((c, p[d]) for c, d in q.items())) for p in perms.values() for q in perms.values())
    return len(keyed) == len(perms) and ident in keyed and all(k in keyed for k in products)


def _outcome_of_level_maps(a, depth, perms):
    """The level maps of the certified action of perms, with the reference validation's verdict beside it."""
    ref = _outcome(ref_validate, SimpleNamespace(automaton=a, depth=depth, elements=perms))
    got = _outcome(getattr, cylinder_action(a, depth, perms), "level_maps")
    return (None if isinstance(got, dict) else got), ref


@pytest.mark.parametrize("seed", range(4))
def test_group_validation_fails_alike(seed):
    """The cyclic groups that random bijections, automorphisms spoilt by one transposition and
    twisted rotations generate are certified, and their level maps are refused exactly when,
    and as, the old checks refused the group.  Sets that are not closed never certify."""
    rng = random.Random(seed)
    refused = checked = unclosed = 0
    for _ in range(40):
        arity, depth = rng.choice(((2, 2), (2, 3), (2, 4), (3, 2), (3, 3)))
        a, elements = _twisted_rotation(rng, arity, depth)
        cyls = list(gm.cylinders(a, depth))
        shuffled = rng.sample(cyls, len(cyls))
        spoilt = dict(elements["g1"])
        u, v = rng.sample(cyls, 2)
        spoilt[u], spoilt[v] = spoilt[v], spoilt[u]
        for extra in (dict(zip(cyls, shuffled)), spoilt, elements["g1"]):
            group = _cyclic(extra)
            if group is not None:
                got, ref = _outcome_of_level_maps(a, depth, group)
                assert got == ref
                refused += got is not None
                checked += 1
            for chosen in ({**elements, "x": extra}, {"e": elements["g0"], "x": extra}):
                if _closed(chosen):
                    got, ref = _outcome_of_level_maps(a, depth, chosen)
                    assert got == ref
                else:
                    with pytest.raises(ValueError):
                        cylinder_action(a, depth, chosen)
                    unclosed += 1
    assert checked >= 100 and refused >= 50 and unclosed >= 180


@pytest.mark.parametrize("name, a, action", [c for c in CASES if c[0] in ("cantor-d4-0", "ternary-d3", "swap-branch-d3", "dead-path-d3")])
def test_tampered_telescope_actions_fail_alike(name, a, action):
    ((_, tele, tact),) = _pipeline(a, action, [Fraction(2)])
    bnd = es.boundary_map(tele)
    assert _outcome(bnd.check_equivariant, action.level_maps, tact) is None
    rng = random.Random(name)
    caught = 0
    for h in sorted(action.group.elements):
        for v in rng.sample(tele.vertices(), min(8, len(tele.vertices()))):
            n, _ = v
            for w in [u for u in tele.vertices() if u[0] == n] + [(n + 1, 0)]:
                maps = {g: dict(m) for g, m in tact.vertex_maps.items()}
                maps[h][v] = w
                bad = TelescopeAction(tele, maps)
                got = _outcome(bnd.check_equivariant, action.level_maps, bad)
                assert got == _outcome(ref_check_equivariant, bnd, ref_group(action), bad)
                caught += got is not None
    assert caught > 0


def _assert_prefix_isometries(action):
    """What the averaging pass checked: every level map of every element is a bijection of
    the live depth-k prefixes at every depth k, so the group average of the prefix metric is
    that metric."""
    cyls = cylinders(action.automaton, action.depth)
    for h in sorted(action.level_maps):
        for k, level in enumerate(action.level_maps[h]):
            prefixes = {c[:k] for c in cyls}
            assert level.keys() == prefixes and set(level.values()) == prefixes
    avg = ref_average_metric(RefEndMetric.base(action.automaton, action.depth), ref_group(action))
    assert all(avg.distance(u, v) == prefix_distance(u, v) for u in cyls for v in cyls)


@pytest.mark.parametrize("seed", range(4))
def test_level_maps_of_valid_groups_are_bijections(seed):
    """The cyclic groups of the validation test that have level maps."""
    rng = random.Random(seed)
    checked = 0
    for _ in range(40):
        arity, depth = rng.choice(((2, 2), (2, 3), (2, 4), (3, 2), (3, 3)))
        a, elements = _twisted_rotation(rng, arity, depth)
        cyls = list(gm.cylinders(a, depth))
        for extra in (dict(zip(cyls, rng.sample(cyls, len(cyls)))), elements["g1"]):
            group = _cyclic(extra)
            if group is None:
                continue
            action = cylinder_action(a, depth, group)
            if isinstance(_outcome(getattr, action, "level_maps"), dict):
                _assert_prefix_isometries(action)
                checked += 1
    assert checked >= 40
