"""Nielsen rays from geodesics against the radius-8 ball search they replaced.

``ball_nielsen_ray`` is a verbatim copy of the earlier ``nielsen_ray``
(renamed, with its ``RadiusTooSmallError``): a breadth-first search over
the radius-R ball of the core universal cover around the attachment point,
the hull of the orbit as the union of the search-tree paths to the base, a
prune loop, and the center of what is left.  It answers only when the orbit
and its hull fit inside the ball; on the models below it answers at radius
8 for every pure-DX anchor, and the geodesic hull must give the same ray.
"""

import random
from typing import Iterable

import pytest

from propermaps import graph_model as gm
from propermaps import mapclass as mc
from propermaps import nielsen as nz
from propermaps import words as W
from propermaps.graph_model import Path, core_vertices, live_states, loop_reaching_states, unfold
from propermaps.nielsen import FiniteGroupAction, NielsenRay, _beta_anchored_lift, fixed_point_in_finite_tree
from tests.conftest import loop_id, make_flip_action
from tests.test_nielsen import _swap_branch_action, lid

# -- reference: the ball search ----------------------------------------------------------------


class RadiusTooSmallError(ValueError):
    pass


def ball_nielsen_ray(action: FiniteGroupAction, beta: Path, radius: int = 8, stabilizer: Iterable[str] | None = None) -> NielsenRay:
    """Fixed point of the end stabilizer, computed in the core universal cover.

    Lifts the stabilizer to the cover by anchoring at the given end, takes
    the convex hull of the orbit of the attachment point inside a radius-R
    ball, and prunes to the center.
    """
    a = action.automaton
    depth = action.depth
    reach = loop_reaching_states(a)
    live = live_states(a)
    s_beta = a.state_of(beta)
    if s_beta in reach or s_beta not in live:
        raise ValueError("anchor must be a pure DX cylinder")
    corev = core_vertices(a, depth)
    if not corev:
        raise ValueError("ambient graph has no core")
    attach = ()
    for i in range(len(beta) + 1):
        if beta[:i] in corev:
            attach = beta[:i]
    if stabilizer is None:
        stabilizer = [h for h in action.group.elements if beta not in action.reps[h].end_moves]
    stab = tuple(sorted(set(stabilizer)))

    t = unfold(a, depth)
    core_children: dict[Path, list[Path]] = {v: [] for v in corev}
    for u, v in t.tree_edges:
        if u in corev and v in corev:
            core_children[u].append(v)
    core_parent = {v: u for u, cs in core_children.items() for v in cs}
    loops_at: dict[Path, list[str]] = {v: [] for v in corev}
    for v, k in t.loop_edges:
        if v in corev:
            loops_at[v].append(loop_id(v, k))

    def neighbors(point):
        g, v = point
        out = []
        for w_ in core_children.get(v, ()):
            out.append((g, w_))
        if v in core_parent:
            out.append((g, core_parent[v]))
        for lid in loops_at.get(v, ()):
            out.append((W.mul(g, W.gen(lid)), v))
            out.append((W.mul(g, W.gen(lid, -1)), v))
        return out

    z0 = (W.EMPTY, attach)
    dist = {z0: 0}
    prev = {z0: z0}
    queue = [z0]
    while queue:
        x = queue.pop(0)
        if dist[x] >= radius:
            continue
        for y in neighbors(x):
            if y not in dist:
                dist[y] = dist[x] + 1
                prev[y] = x
                queue.append(y)

    lifts = {h: _beta_anchored_lift(action, h, beta) for h in stab}
    orbit = []
    for h in stab:
        p = lifts[h](z0)
        if p not in dist:
            raise RadiusTooSmallError("orbit of the attachment leaves the cover ball")
        orbit.append(p)

    def path_to_base(x):
        out = [x]
        while prev[x] != x:
            x = prev[x]
            out.append(x)
        return out

    hull_v: set = set()
    for p in orbit:
        hull_v.update(path_to_base(p))
    # close up: the BFS tree paths between orbit points pass through z0, which
    # may overshoot the geodesic; prune hanging branches not needed for connectivity
    changed = True
    while changed:
        changed = False
        deg = {v: 0 for v in hull_v}
        hull_e = []
        for v in hull_v:
            p = prev[v]
            if p != v and p in hull_v:
                hull_e.append((p, v))
                deg[p] += 1
                deg[v] += 1
        for v in list(hull_v):
            if deg.get(v, 0) <= 1 and v not in orbit and v != z0:
                hull_v.discard(v)
                changed = True
    hull_e = []
    for v in hull_v:
        p = prev[v]
        if p != v and p in hull_v:
            hull_e.append((p, v))

    sigmas = []
    for h in stab:
        sigma = {}
        for v in hull_v:
            img = lifts[h](v)
            if img not in hull_v:
                raise RadiusTooSmallError("hull is not invariant inside the ball")
            sigma[v] = img
        sigmas.append(sigma)
    center = fixed_point_in_finite_tree(sorted(hull_v, key=repr), hull_e, sigmas)
    return NielsenRay(beta, attach, center, stab)


# -- actions -----------------------------------------------------------------------------------


def _prefix_twist(rng, depth):
    """A random automorphism of the binary prefix tree that flips the next
    digit below a random set of prefixes, and its inverse."""
    prefixes = {tuple(rng.randrange(2) for _ in range(rng.randint(0, max(0, depth - 2)))) for _ in range(rng.randint(0, 3))}

    def apply(path, sign):
        out = []
        for i, d in enumerate(path):
            key = tuple(out) if sign < 0 else path[:i]
            out.append(1 - d if key in prefixes else d)
        return tuple(out)

    return (lambda p: apply(p, 1)), (lambda p: apply(p, -1))


def _twisted_swap_branch_action(depth, seed):
    """Z/2 swapping the two halves of the Cantor subtree under a loop ray,
    twisted below by a prefix automorphism and its inverse."""
    model = gm.UnfoldingAutomaton.make("r", {"r": ["c", "b"], "c": ["c"], "b": ["b", "b"]}, {"r": 1, "c": 1})
    pi, pi_inv = _prefix_twist(random.Random(seed), depth - 1)
    twists = [pi, pi_inv]

    def move(v):
        if len(v) >= 2 and v[0] == 1:
            return (1, 1 - v[1]) + twists[v[1]](v[2:])
        return v

    h = mc.ProperMapRep.make(model, depth, vmap={v: move(v) for v in gm.unfold(model, depth).vertices})
    return nz.FiniteGroupAction.make(nz.FiniteGroup.cyclic(2), {"e": mc.ProperMapRep.identity(model, depth), "g1": h})


def _loop_inverting_drag(power, depth=4):
    """Z/2 inverting every loop and dragging the free ray by x0^power."""
    a = gm.UnfoldingAutomaton.make("r", {"r": ["c", "d"], "c": ["c"], "d": ["d"]}, {"r": 1, "c": 1})
    t = gm.unfold(a, depth)
    li = {lid(v, k): W.gen(lid(v, k), -1) for v, k in t.loop_edges}
    h = mc.ProperMapRep.make(a, depth, loop_images=li, edge_wraps={(1,): W.power(W.gen(lid(())), power)})
    return nz.FiniteGroupAction.make(nz.FiniteGroup.cyclic(2), {"e": mc.ProperMapRep.identity(a, depth), "g1": h})


def _palindromic_drags(depth=4):
    """Z/2 inverting every loop of the core with rays and dragging four free
    rays by palindromes, so that f^2 drags each by w·w^-1: the orbit points
    sit several tree steps and loop crossings from their attachments."""
    a = _core_with_rays()
    t = gm.unfold(a, depth)
    x = [W.gen(lid((0,) * n)) for n in range(depth + 1)]
    li = {lid(v, k): W.gen(lid(v, k), -1) for v, k in t.loop_edges}
    drags = {(1,): W.mul(x[1], x[0], x[1]), (0, 1): W.mul(x[0], x[1], x[0]), (0, 0, 1): x[1], (0, 0, 0, 1): W.mul(x[3], x[1], x[3])}
    h = mc.ProperMapRep.make(a, depth, loop_images=li, edge_wraps=drags)
    return nz.FiniteGroupAction.make(nz.FiniteGroup.cyclic(2), {"e": mc.ProperMapRep.identity(a, depth), "g1": h})


def _swapped_core_with_rays(depth=4):
    """Z/2 swapping two loop-ray cores that each carry a free ray at every vertex."""
    model = gm.UnfoldingAutomaton.make(
        "r",
        {"r": ["p", "q"], "p": ["pc", "d"], "q": ["qc", "d"], "pc": ["pc"], "qc": ["qc"], "d": ["d"]},
        {"r": 1, "p": 1, "q": 1, "pc": 1, "qc": 1},
    )
    t = gm.unfold(model, depth)

    def sw(v):
        return ((1 - v[0],) + v[1:]) if v else v

    li = {lid(v, k): W.gen(lid(sw(v), k)) for v, k in t.loop_edges if sw(v) != v}
    swap = mc.ProperMapRep.make(model, depth, vmap={v: sw(v) for v in t.vertices}, loop_images=li)
    return nz.FiniteGroupAction.make(nz.FiniteGroup.cyclic(2), {"e": mc.ProperMapRep.identity(model, depth), "g1": swap})


def _core_with_rays():
    return gm.UnfoldingAutomaton.make("s", {"s": ["s", "d"], "d": ["d"]}, {"s": 1})


ACTIONS = {
    "core-with-rays-trivial": lambda: nz.FiniteGroupAction.make(
        nz.FiniteGroup.trivial(), {"e": mc.ProperMapRep.identity(_core_with_rays(), 4)}
    ),
    "core-with-rays-flip": lambda: make_flip_action(_core_with_rays(), 4),
    "core-with-rays-palindromic-drags": _palindromic_drags,
    **{f"loop-inverting-drag-x0^{n}": (lambda n=n: _loop_inverting_drag(n)) for n in (1, 5)},
    **{f"swap-branch-d{d}": (lambda d=d: _swap_branch_action(d)[1]) for d in (3, 4, 5)},
    **{f"swap-branch-d{d}-twist{s}": (lambda d=d, s=s: _twisted_swap_branch_action(d, s)) for d in (3, 4, 5) for s in range(2)},
    "swapped-core-with-rays": _swapped_core_with_rays,
}


def _pure_dx_anchors(action):
    a = action.automaton
    reach, live = loop_reaching_states(a), live_states(a)
    return [c for c in gm.cylinders(a, action.depth) if a.state_of(c) not in reach and a.state_of(c) in live]


@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_geodesic_hull_matches_ball_search(name):
    action = ACTIONS[name]()
    anchors = _pure_dx_anchors(action)
    assert anchors
    for beta in anchors:
        stab = [h for h in action.group.elements if beta not in action.reps[h].end_moves]
        want = ball_nielsen_ray(action, beta, radius=8, stabilizer=stab)
        assert nz.nielsen_ray(action, beta, stabilizer=stab) == want
        assert nz.nielsen_ray(action, beta) == want
