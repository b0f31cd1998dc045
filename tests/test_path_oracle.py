"""Independent path-tracing oracle for the wrap calculus.

Maps here are given concretely: the edge into a marked child is sent to
itself followed by a detour that walks down to a loop, around it, and back.
Tracing a line through such a map and freely reducing the resulting
edge/loop letter sequence gives the class of `line . f(reversed line)`
without ever touching the accumulated-wrap bookkeeping, because collapsing
the underlying tree kills the edge letters and leaves exactly the reduced
loop word.
"""

import random

import pytest

from propermaps import graph_model as gm
from propermaps import mapclass as mc
from propermaps import words as W


def lid(path, k=0):
    return mc.loop_id(tuple(path), k)


def _loop_vertex(name):
    """The vertex of a loop, parsed from its ``<path>:<k>`` name."""
    return gm.parse_path(name.rsplit(":", 1)[0])


def _tree_path(src, dst):
    """Edge letters of the tree geodesic between two vertices."""
    n = 0
    for a, b in zip(src, dst):
        if a != b:
            break
        n += 1
    up = [("e", src[: i + 1], -1) for i in range(len(src) - 1, n - 1, -1)]
    down = [("e", dst[: i + 1], 1) for i in range(n, len(dst))]
    return up + down


def _inv(path):
    return [(k, p, -s) for k, p, s in reversed(path)]


def _reduce(path):
    out = []
    for letter in path:
        if out and out[-1][:2] == letter[:2] and out[-1][2] == -letter[2]:
            out.pop()
        else:
            out.append(letter)
    return out


def _loop_letters(path):
    return W.reduce_word([(p, s) for k, p, s in path if k == "l"])


def _insertion_rep(a, depth, detours):
    """The same map as a ProperMapRep: wraps are the detour classes."""
    wraps = {child: W.reduce_word(word) for child, word in detours.items() if word}
    return mc.ProperMapRep.make(a, depth, edge_wraps=wraps)


@pytest.fixture
def model():
    """Loop-ray core with a free ray at every vertex, depth 4."""
    return gm.UnfoldingAutomaton.make("s", {"s": ["s", "d"], "d": ["d"]}, {"s": 1})


def _random_detours(a, depth, rng, entries, lids_below):
    detours = {}
    for c in entries:
        if rng.random() < 0.5:
            continue
        pool = lids_below(c)
        if not pool:
            continue
        word = [(rng.choice(pool), rng.choice((1, -1))) for _ in range(rng.randint(1, 3))]
        detours[c] = word
    return detours


def test_phi_values_match_path_oracle(model):
    depth = 4
    rng = random.Random(13)
    a0 = mc.default_base_end(model, depth)
    reach = gm.loop_reaching_states(model)
    t = gm.unfold(model, depth)
    # entry edges of the free branches, away from the base end
    entries = [v for v in t.vertices if v and model.state_of(v) not in reach and model.state_of(v[:-1]) in reach]
    entries = [v for v in entries if not (len(v) <= len(a0) and a0[: len(v)] == v)]
    for _ in range(30):
        detours = {}
        for c in entries:
            if rng.random() < 0.5:
                continue
            parent = c[:-1]
            pool = [lid(parent + (0,) * j) for j in range(0, depth - len(parent))]
            word = [(rng.choice(pool), rng.choice((1, -1))) for _ in range(rng.randint(1, 3))]
            detours[c] = word
        rep = _insertion_rep(model, depth, detours)
        h = mc.phi_T(rep, a0)
        for b in h.dx_cylinders():
            got = h.value_at(b)
            want = _oracle_at(model, depth, detours, a0, b)
            assert got == want, (b, W.word_to_str(got), W.word_to_str(want))


def _oracle_at(a, depth, detours, a0, b):
    # detour letters live at arbitrary vertices; generalize _detour anchoring
    def detour_path(base, word):
        out = []
        for name, sign in word:
            v = _loop_vertex(name)
            out.extend(_tree_path(base, v))
            out.append(("l", name, sign))
            out.extend(_tree_path(v, base))
        return out

    def apply_map(path):
        out = []
        for kind, payload, sign in path:
            if kind == "l":
                out.append((kind, payload, sign))
                continue
            child = payload
            if sign > 0:
                out.append(("e", child, 1))
                if child in detours:
                    out.extend(detour_path(child, detours[child]))
            else:
                if child in detours:
                    out.extend(_inv(detour_path(child, detours[child])))
                out.append(("e", child, -1))
        return out

    forward = _tree_path(a0, b)
    return _loop_letters(_reduce(forward + apply_map(_inv(forward))))


def test_line_invariance_matches_oracle(model):
    """A drags lines iff the traced class is nontrivial, even for core wraps."""
    depth = 4
    rng = random.Random(7)
    t = gm.unfold(model, depth)
    dx = gm.dx_states(model)
    live = gm.live_states(model)
    cyls = [c for c in gm.cylinders(model, depth) if model.state_of(c) in dx and model.state_of(c) not in gm.loop_reaching_states(model)]
    all_lids = [lid(v, k) for v, k in t.loop_edges]
    for _ in range(40):
        detours = {}
        for v in t.vertices:
            if not v or rng.random() < 0.8:
                continue
            word = [(rng.choice(all_lids), rng.choice((1, -1)))]
            detours[v] = word
        rep = _insertion_rep(model, depth, detours)
        for _ in range(6):
            x, y = rng.choice(cyls), rng.choice(cyls)
            if x == y:
                continue
            oracle = _oracle_at(model, depth, detours, x, y)
            formula = W.mul(W.inv(rep.accumulated_wrap(y)), rep.accumulated_wrap(x))
            # both compute the class of line(x->y) . f(line(y->x))
            assert (oracle == W.EMPTY) == (formula == W.EMPTY)
            assert W.is_conjugate(oracle, formula) or oracle == formula
