"""The automaton analyses against the fixpoint versions they replaced.

The ``ref_*`` functions are verbatim copies of the old ``graph_model``
analyses: "which states reach X" as ``while changed`` fixpoints, per-state
searches, and hand-rolled topological instance counts.  They are slow but
obviously right; the versions built on ``_reaching`` and
``_instance_counts`` must agree with them exactly.
"""

import random

import pytest

from propermaps import graph_model as gm
from propermaps.graph_model import INFINITY, EndFamily, UnfoldingAutomaton
from tests.test_classification_fuzz import handcrafted, random_automaton

# -- reference implementations ------------------------------------------------------------


def ref_automaton_eq(self, other):
    return (
        isinstance(other, UnfoldingAutomaton)
        and self.root == other.root
        and dict(self.children) == dict(other.children)
        and {s: self.loops[s] for s in self.children} == {s: other.loops[s] for s in other.children}
    )


def ref_loop_reaching_states(a: UnfoldingAutomaton) -> frozenset[str]:
    """States from which some loop-bearing state is reachable."""
    reach = {s for s in a.children if a.loops[s] > 0}
    changed = True
    while changed:
        changed = False
        for s, cs in a.children.items():
            if s not in reach and any(c in reach for c in cs):
                reach.add(s)
                changed = True
    return frozenset(reach)


def ref_cycle_states(children) -> frozenset[str]:
    """States lying on a directed cycle of the (restricted) children relation."""
    states = set(children)
    on_cycle = set()
    for s in states:
        # s on a cycle iff s reachable from one of its own children
        stack = list(children.get(s, ()))
        seen = set()
        while stack:
            t = stack.pop()
            if t == s:
                on_cycle.add(s)
                break
            if t in seen:
                continue
            seen.add(t)
            stack.extend(children.get(t, ()))
    return frozenset(on_cycle)


def ref_reachable_from(children, sources) -> frozenset[str]:
    seen = set(sources)
    stack = list(seen)
    while stack:
        s = stack.pop()
        for c in children.get(s, ()):
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return frozenset(seen)


def ref_live_states(a: UnfoldingAutomaton) -> frozenset[str]:
    """States admitting an infinite path (they reach a directed cycle)."""
    cyc = ref_cycle_states(a.children)
    live = set(cyc)
    changed = True
    while changed:
        changed = False
        for s, cs in a.children.items():
            if s not in live and any(c in live for c in cs):
                live.add(s)
                changed = True
    return frozenset(live)


def ref_restrict(a: UnfoldingAutomaton, keep: frozenset[str]) -> UnfoldingAutomaton | None:
    """Sub-automaton on a child-closed-along-paths state set containing root."""
    if a.root not in keep:
        return None
    ch = {s: tuple(c for c in cs if c in keep) for s, cs in a.children.items() if s in keep}
    lp = {s: a.loops[s] for s in ch}
    # drop states that became unreachable after restriction
    seen = {a.root}
    stack = [a.root]
    while stack:
        s = stack.pop()
        for c in ch[s]:
            if c not in seen:
                seen.add(c)
                stack.append(c)
    ch = {s: cs for s, cs in ch.items() if s in seen}
    lp = {s: lp[s] for s in ch}
    return UnfoldingAutomaton(a.root, ch, lp)


def ref_core(a: UnfoldingAutomaton) -> UnfoldingAutomaton | None:
    reach = ref_loop_reaching_states(a)
    if a.root not in reach:
        return None
    s = a.root
    seen_guard = 0
    while True:
        loopy_children = [c for c in a.children[s] if c in reach]
        if a.loops[s] > 0 or len(loopy_children) >= 2:
            break
        s = loopy_children[0]
        seen_guard += 1
        if seen_guard > len(a.children) + 1:
            raise AssertionError("core root walk failed to terminate")
    ch = {}
    stack = [s]
    while stack:
        t = stack.pop()
        if t in ch:
            continue
        ch[t] = tuple(c for c in a.children[t] if c in reach)
        stack.extend(ch[t])
    lp = {t: a.loops[t] for t in ch}
    return UnfoldingAutomaton(s, ch, lp)


def ref_genus(a: UnfoldingAutomaton) -> int | float:
    """Total number of loop instances in the unfolding (or INFINITY)."""
    reach = ref_loop_reaching_states(a)
    if a.root not in reach:
        return 0
    sub = {s: tuple(c for c in a.children[s] if c in reach) for s in reach}
    if ref_cycle_states(sub):
        return INFINITY
    # topological path counting on the loop-reaching DAG
    order: list[str] = []
    marks: dict[str, int] = {}

    def visit(s):
        if marks.get(s) == 2:
            return
        marks[s] = 1
        for c in sub[s]:
            visit(c)
        marks[s] = 2
        order.append(s)

    visit(a.root)
    inst = {s: 0 for s in sub}
    inst[a.root] = 1
    for s in reversed(order):
        for c in sub[s]:
            inst[c] += inst[s]
    return sum(a.loops[s] * inst[s] for s in sub)


def ref_classify_end_space(a: UnfoldingAutomaton | None) -> EndFamily:
    if a is None:
        return EndFamily("empty")
    live = ref_live_states(a)
    if a.root not in live:
        return EndFamily("empty")
    sub = ref_restrict(a, live)
    assert sub is not None
    ch = sub.children
    cyc = ref_cycle_states(ch)
    after_cycle = ref_reachable_from(ch, cyc)
    branch = {s for s in ch if len(ch[s]) >= 2}
    can_reach_branch = set(branch)
    changed = True
    while changed:
        changed = False
        for s in ch:
            if s not in can_reach_branch and any(c in can_reach_branch for c in ch[s]):
                can_reach_branch.add(s)
                changed = True

    if not (branch & after_cycle):
        # finitely many branch instances: count the ends
        memo: dict[str, int] = {}

        def ends_from(s) -> int:
            if s in memo:
                return memo[s]
            if s not in can_reach_branch:
                memo[s] = 1
                return 1
            memo[s] = sum(ends_from(c) for c in ch[s])
            return memo[s]

        return EndFamily("finite", ends_from(sub.root))

    rays = {s for s in ch if s not in can_reach_branch}
    if not rays:
        return EndFamily("cantor")
    # isolated ends correspond to entries into ray states
    entries = []
    for s in ch:
        if s in rays:
            continue
        for c in ch[s]:
            if c in rays:
                entries.append(s)
    if any(s in after_cycle for s in entries):
        return EndFamily("other")
    # count instances of entry sources on the cycle-free part
    na = {s: tuple(c for c in ch[s] if c not in after_cycle) for s in ch if s not in after_cycle}
    inst = {s: 0 for s in na}
    if sub.root in inst:
        inst[sub.root] = 1
        order: list[str] = []
        marks: dict[str, int] = {}

        def visit(s):
            if marks.get(s) == 2:
                return
            marks[s] = 1
            for c in na[s]:
                visit(c)
            marks[s] = 2
            order.append(s)

        visit(sub.root)
        for s in reversed(order):
            for c in na[s]:
                inst[c] += inst[s]
    k = sum(inst.get(s, 0) for s in entries)
    if k == 0:
        # the only ray entries are unreachable; no isolated points after all
        return EndFamily("cantor")
    return EndFamily("cantor_plus", k)


def ref_dx_states(a: UnfoldingAutomaton) -> frozenset[str]:
    """States with a non-genus end somewhere below them."""
    live = ref_live_states(a)
    reach = ref_loop_reaching_states(a)
    outside = live - reach
    has_dx = set(outside)
    changed = True
    while changed:
        changed = False
        for s, cs in a.children.items():
            if s not in has_dx and any(c in has_dx for c in cs):
                has_dx.add(s)
                changed = True
    return frozenset(has_dx)


def ref_genus_end_states(a: UnfoldingAutomaton) -> frozenset[str]:
    """States with a genus end below (an infinite path inside the loop-reaching set)."""
    reach = ref_loop_reaching_states(a)
    sub = {s: tuple(c for c in a.children[s] if c in reach) for s in reach}
    gcyc = ref_cycle_states(sub)
    out = set()
    for s in reach:
        stack = [s]
        seen = set()
        while stack:
            t = stack.pop()
            if t in gcyc:
                out.add(s)
                break
            if t in seen:
                continue
            seen.add(t)
            stack.extend(sub.get(t, ()))
    return frozenset(out)


def ref_mixed_states(a: UnfoldingAutomaton) -> frozenset[str]:
    """States with both genus ends and DX ends below."""
    return ref_genus_end_states(a) & ref_dx_states(a)


def ref_deep_mixed_states(a: UnfoldingAutomaton) -> frozenset[str]:
    live = ref_live_states(a)
    cyc = ref_cycle_states({s: tuple(c for c in a.children[s] if c in live) for s in live})
    after = ref_reachable_from(a.children, cyc)
    bad = ref_mixed_states(a) & after
    if not bad:
        return frozenset()
    out = set()
    for s in a.children:
        if ref_reachable_from(a.children, [s]) & bad:
            out.add(s)
    return frozenset(out)


# -- comparisons ----------------------------------------------------------------------------

PAIRS = [
    (ref_loop_reaching_states, gm.loop_reaching_states),
    (ref_live_states, gm.live_states),
    (ref_dx_states, gm.dx_states),
    (ref_genus_end_states, gm.genus_end_states),
    (ref_deep_mixed_states, gm.deep_mixed_states),
    (ref_genus, gm.genus),
    (ref_core, gm.core),
]


def _random_dag_over_ends(rng):
    """Random acyclic states above a Cantor state and a ray state.

    The ray entries are reached along many paths, so the isolated ends of
    "Cantor plus k" are counted through real instance counts.
    """
    names = [f"t{i}" for i in range(rng.randint(1, 5))]
    children = {"b": ["b", "b"], "p": ["p"]}
    for i, s in enumerate(names):
        children[s] = [rng.choice(names[i + 1 :] + ["b", "p"]) for _ in range(rng.randint(1, 3))]
    loops = {s: rng.choice((0, 0, 1)) for s in children}
    reach = {"t0"} | set(children["t0"])
    for s in names:
        if s in reach:
            reach.update(children[s])
    return gm.UnfoldingAutomaton.make("t0", {s: children[s] for s in reach}, {s: loops[s] for s in reach})


def _corpus():
    out = list(handcrafted())
    for seed in range(300):
        rng = random.Random(seed)
        out.append(random_automaton(rng, max_states=rng.choice((3, 4, 6))))
        out.append(_random_dag_over_ends(rng))
    return out


@pytest.mark.parametrize("ref, new", PAIRS, ids=[new.__name__ for _, new in PAIRS])
def test_analysis_matches_fixpoint_reference(ref, new):
    for a in _corpus():
        assert new(a) == ref(a), gm.format_automaton(a)


def test_end_families_match_fixpoint_reference():
    for a in _corpus():
        assert gm.classify_end_space(a) == ref_classify_end_space(a), gm.format_automaton(a)
        # on the restrictions the characteristic pair hands to the classifier
        ends, gends = ref_restrict(a, ref_live_states(a)), ref_restrict(a, ref_loop_reaching_states(a))
        c = gm.characteristic_pair(a)
        assert c.end_space == ends and c.genus_end_space == gends
        assert c.end_family() == ref_classify_end_space(ends)
        assert c.genus_end_family() == ref_classify_end_space(gends)
    assert gm.classify_end_space(None) == ref_classify_end_space(None)


def test_analyses_are_computed_once_per_automaton(monkeypatch):
    calls = []
    real = gm._reaching
    monkeypatch.setattr(gm, "_reaching", lambda children, targets: calls.append(1) or real(children, targets))
    a = handcrafted()[4]

    def analyses():
        return [new(a) for _, new in PAIRS if new is not gm.core] + [gm.classify_end_space(a), gm.unfold(a, 3)]

    first = analyses()
    n = len(calls)
    assert all(x is y for x, y in zip(first, analyses()))
    assert len(calls) == n


def test_equality_matches_the_copying_reference():
    """``==`` answers as the old dict-copying comparison does: on the same
    object, on an equal automaton built afresh, on its neighbours in the
    corpus and on non-automata."""
    corpus = _corpus()
    for a, b in zip(corpus, corpus[1:] + corpus[:1]):
        twin = UnfoldingAutomaton.make(a.root, a.children, a.loops)
        assert twin is not a
        for x, y in ((a, a), (a, twin), (twin, a), (a, b), (b, a)):
            assert (x == y) is ref_automaton_eq(x, y)
        assert (a == twin) and not (a == gm.format_automaton(a))
    assert sum(ref_automaton_eq(a, b) for a, b in zip(corpus, corpus[1:])) < len(corpus) - 1
