"""Oracle for ``stallings.outer_conjugator``, the one witness search behind
``is_inner``, ``outer_equal`` and ``composes_to``.

The reference below is the search it replaced, kept verbatim: every exponent
k from -bound up, c^k rebuilt with ``W.power``, every basis letter tested.
For an automorphism psi of a free group of rank >= 2 the witness is unique
(its images have trivial centralizer), so the new search, which returns the
empty word for equal images and otherwise tries k = 0, 1, -1, 2, -2, ...,
must give the same answer.  Checked:

- random automorphisms of F_2 to F_6 (products of Nielsen moves): w psi w^-1
  against psi (the answer is w), unrelated pairs, pairs one transvection
  apart (never equal in Out), phi a random endomorphism, either basis listed
  in another order, and rank 1;
- ``is_inner`` of every map of all six variants of the ``maps`` workload and
  of every representative of every ``realize`` variant;
- ``composes_to`` on every row of every ``realize`` variant's table, against
  the same function calling the reference;
- ``ProperMapRep._accumulated_wraps``, which now multiplies only at wrapped
  edges, against the product over every edge, on all of those maps.
"""

import random

import pytest

from perfbench import workloads
from propermaps import graph_model as gm
from propermaps import mapclass as mc
from propermaps import nielsen as nz
from propermaps import stallings as st
from propermaps import words as W
from tests.test_stallings import _nielsen_automorphism


def ref_outer_conjugator(phi, psi):
    """``outer_conjugator`` before the outward scan, verbatim."""
    basis = phi.basis
    if set(basis) != set(psi.basis):
        raise ValueError("automorphisms over different bases")
    if not basis:
        return W.EMPTY
    if len(basis) == 1:
        return W.EMPTY if phi.images[basis[0]] == psi.images[basis[0]] else None
    x1 = basis[0]
    u = W.conjugator(phi.images[x1], psi.images[x1])
    if u is None:
        return None
    c1, p = W.cyclic_reduce(psi.images[x1])
    root, _ = W.root_of(c1)
    gen_c = W.conjugate(root, p)
    maxlen = max(max(len(phi.images[x]), len(psi.images[x])) for x in basis)
    bound = len(u) + maxlen + 2
    for k in range(-bound, bound + 1):
        w = W.mul(u, W.power(gen_c, k))
        w_inv = W.inv(w)
        if all(phi.images[x] == W.mul(w, psi.images[x], w_inv) for x in basis):
            return w
    return None


def ref_accumulated_wraps(f):
    """A(v) for every truncation vertex: the product of the wraps of every edge on the root path."""
    acc = {(): W.EMPTY}
    for parent, child in f.truncation().tree_edges:
        acc[child] = W.mul(acc[parent], f.wrap(child))
    return acc


BASES = [tuple("abcdef"[:n]) for n in range(2, 7)]


def _random_word(rng, basis, length):
    return W.reduce_word([(rng.choice(basis), rng.choice((1, -1))) for _ in range(length)])


def _reordered(phi, rng):
    basis = list(phi.basis)
    while len(basis) > 1 and tuple(basis) == phi.basis:
        rng.shuffle(basis)
    return st.FreeGroupAutomorphism(tuple(basis), dict(phi.images))


def _transvection(basis):
    x, y = basis[:2]
    return st.FreeGroupAutomorphism.from_images(basis, {x: W.mul(W.gen(x), W.gen(y))})


def _assert_same(phi, psi):
    want = ref_outer_conjugator(phi, psi)
    assert st.outer_conjugator(phi, psi) == want
    return want


@pytest.mark.parametrize("basis", BASES, ids=lambda b: f"F{len(b)}")
def test_matches_reference_on_random_automorphisms(basis):
    rng = random.Random(f"outer-conjugator/{len(basis)}")
    outcomes = {"witness": 0, "empty": 0, "none": 0}
    for _ in range(60):
        psi = _nielsen_automorphism(rng, basis, rng.randint(0, 8))
        w = _random_word(rng, basis, rng.randint(0, 6))
        conj = st.FreeGroupAutomorphism.inner(basis, w).compose(psi)
        assert _assert_same(conj, psi) == w  # the witness is unique
        assert st.outer_conjugator(_reordered(conj, rng), _reordered(psi, rng)) == w
        assert _assert_same(psi, _reordered(psi, rng)) == W.EMPTY  # compared by letter, not by position
        assert _assert_same(_transvection(basis).compose(conj), psi) is None
        phi = _nielsen_automorphism(rng, basis, rng.randint(0, 8))
        endo = st.FreeGroupAutomorphism.from_images(basis, {x: _random_word(rng, basis, rng.randint(0, 4)) for x in basis})
        for a in (conj, phi, endo, st.FreeGroupAutomorphism.inner(basis, w).compose(endo)):
            got = _assert_same(a, psi)
            assert st.outer_conjugator(_reordered(a, rng), psi) == got
            assert st.outer_conjugator(a, _reordered(psi, rng)) == got
            assert st.is_inner(a) == ref_outer_conjugator(a, st.FreeGroupAutomorphism.identity(basis))
            outcomes["none" if got is None else "witness" if got else "empty"] += 1
    assert all(outcomes.values()), outcomes


def test_matches_reference_in_rank_one_and_zero():
    a, inv_a = st.FreeGroupAutomorphism.identity(("a",)), st.FreeGroupAutomorphism.from_images(("a",), {"a": W.gen("a", -1)})
    for phi in (a, inv_a):
        for psi in (a, inv_a):
            assert _assert_same(phi, psi) == (W.EMPTY if phi == psi else None)
    empty = st.FreeGroupAutomorphism.identity(())
    assert _assert_same(empty, empty) == W.EMPTY


def test_different_bases_are_refused():
    with pytest.raises(ValueError, match="different bases"):
        st.outer_conjugator(st.FreeGroupAutomorphism.identity("ab"), st.FreeGroupAutomorphism.identity("ac"))


# -- the benchmark's maps and actions ------------------------------------------------------------


def _maps_workload_maps():
    graphs, maps = {}, []
    for v in range(workloads.VARIANTS):
        inputs = workloads.WORKLOADS["maps"](lambda slot: v)
        for op in inputs.ops:
            if op.command == "check-id":
                graph, map_file = op.args[1:]
                a = graphs.setdefault(graph, gm.parse_automaton(inputs.files[graph]))
                maps.append((op.key, mc.parse_map_file(a, inputs.files[map_file])))
    return maps


def _realize_actions():
    """(key, action) of every variant of every realize slot, each distinct case of a slot once."""
    seen = {}
    for slot, _, build, _ in workloads.REALIZE_SLOTS:
        for v in range(workloads.VARIANTS):
            graph, maps, act_text = build(random.Random(f"realize/{slot}/{v}"))
            key = (slot, graph, tuple(sorted(maps.items())), act_text)
            if key not in seen:
                a = gm.parse_automaton(graph)
                seen[key] = (f"{slot}/v{v}", nz.parse_action_file(a, act_text, lambda rel: maps[rel.removesuffix(".map")]))
    return list(seen.values())


MAPS = _maps_workload_maps()
ACTIONS = _realize_actions()


def test_workloads_cover_every_variant():
    assert len({key.rsplit("/v", 1)[0] for key, _ in MAPS}) * workloads.VARIANTS == len(MAPS)
    assert {key.rsplit("/v", 1)[0] for key, _ in ACTIONS} == {slot for slot, *_ in workloads.REALIZE_SLOTS}


def test_is_inner_matches_reference_on_every_workload_map():
    reps = [f for _, f in MAPS] + [f for _, action in ACTIONS for f in action.reps.values()]
    verdicts = set()
    for f in reps:
        sub = f.substitution()
        want = ref_outer_conjugator(sub, st.FreeGroupAutomorphism.identity(sub.basis))
        assert st.is_inner(sub) == want
        verdicts.add(want is None)
    assert verdicts == {True, False}


def test_composes_to_matches_reference_on_every_realize_row(monkeypatch):
    rows = 0
    for _, action in ACTIONS:
        group, reps = action.group, action.reps
        for g in group.elements:
            for h in group.elements:
                k = group.mult[(g, h)]
                got = mc.composes_to(reps[h], reps[g], reps[k])
                with monkeypatch.context() as m:
                    m.setattr(st, "outer_conjugator", ref_outer_conjugator)
                    assert mc.composes_to(reps[h], reps[g], reps[k]) == got
                assert got  # parse_action_file certified the table
                rows += 1
    assert rows >= len(ACTIONS) * 2


def test_accumulated_wraps_match_the_product_over_every_edge():
    reps = [f for _, f in MAPS] + [f for _, action in ACTIONS for f in action.reps.values()]
    wrapped = 0
    for f in reps:
        assert f._accumulated_wraps == ref_accumulated_wraps(f)
        wrapped += bool(f.edge_wraps)
    assert wrapped
