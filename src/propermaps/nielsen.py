"""Finite-symmetry realization pipelines.

Three cases, mirroring the structure of the ambient graph: core graphs (via
interval covers, invariant free factor systems and trees of groups), trees
(via invariant metrics and mapping telescopes), and the general case
(equivariant re-attachment of telescopes at fixed points of the core).
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from . import words as W
from .words import Word
from . import stallings as st
from . import end_space as es
from . import mapclass as mc
from .graph_model import (
    Path,
    UnfoldingAutomaton,
    _once_per_automaton,
    core,
    core_vertices,
    cylinders,
    live_states,
    loop_reaching_states,
    path_str,
    unfold,
)


class NotCoreGraphError(ValueError):
    pass


class InvarianceFailedError(ValueError):
    pass


class StructureViolationError(ValueError):
    pass


class IllegalMoveError(ValueError):
    pass


class NoScriptFoundError(ValueError):
    pass


class NotFoundWithinBoundError(ValueError):
    pass


class FinalCheckFailedError(ValueError):
    pass


class NoGoodLevelError(ValueError):
    pass


# -- finite groups of certified representatives ---------------------------------


@dataclass(frozen=True)
class FiniteGroup:
    """Element names with a multiplication table mult[(g, h)] = g∘h."""

    elements: tuple[str, ...]
    identity: str
    mult: Mapping[tuple[str, str], str]

    @classmethod
    def make(cls, elements: Sequence[str], mult: Mapping[tuple[str, str], str]) -> "FiniteGroup":
        elems = tuple(elements)
        for g in elems:
            for h in elems:
                if (g, h) not in mult:
                    raise ValueError(f"missing product {g}*{h}")
                if mult[(g, h)] not in elems:
                    raise ValueError(f"product {g}*{h} = {mult[(g, h)]} is not an element")
        ident = None
        for e in elems:
            if all(mult[(e, g)] == g and mult[(g, e)] == g for g in elems):
                ident = e
                break
        if ident is None:
            raise ValueError("multiplication table has no identity")
        for g in elems:
            for h in elems:
                for k in elems:
                    if mult[(mult[(g, h)], k)] != mult[(g, mult[(h, k)])]:
                        raise ValueError("multiplication table is not associative")
        for g in elems:
            if not any(mult[(g, h)] == ident for h in elems):
                raise ValueError(f"{g} has no inverse")
        return cls(elems, ident, dict(mult))

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        elems = [f"g{i}" if i else "e" for i in range(n)]
        mult = {(elems[i], elems[j]): elems[(i + j) % n] for i in range(n) for j in range(n)}
        return cls.make(elems, mult)

    @classmethod
    def trivial(cls) -> "FiniteGroup":
        return cls.cyclic(1)

    def inverse(self, g: str) -> str:
        for h in self.elements:
            if self.mult[(g, h)] == self.identity:
                return h
        raise KeyError(g)


@dataclass(frozen=True, eq=False)
class FiniteGroupAction:
    """Certified action on an ambient graph by proper-map representatives."""

    group: FiniteGroup
    automaton: UnfoldingAutomaton
    depth: int
    reps: Mapping[str, mc.ProperMapRep]

    @classmethod
    def make(cls, group: FiniteGroup, reps: Mapping[str, mc.ProperMapRep], certify: bool = True) -> "FiniteGroupAction":
        some = reps[group.identity]
        action = cls(group, some.automaton, some.depth, dict(reps))
        if set(reps) != set(group.elements):
            raise ValueError("need one representative per group element")
        if certify:
            action.certify()
        return action

    def certify(self):
        """Check every relation g∘h = k at the level of proper homotopy classes.

        Generator rows suffice: from rep(e) ≃ id and rep(s)∘rep(h) ≃ rep(sh),
        induction on word length gives rep(g)∘rep(h) ≃ rep(gh) for all g.
        """
        ident = self.reps[self.group.identity]
        if not mc.is_properly_homotopic_to_identity(ident):
            raise ValueError("identity element representative is not certified trivial")
        for g in self.group.elements:
            if not mc.has_rigid_inverse(self.reps[g]):
                raise ValueError(f"representative of {g} has no rigid inverse")
        for g in _generating_subset(self.group):
            for h in self.group.elements:
                k = self.group.mult[(g, h)]
                if not mc.composes_to(self.reps[h], self.reps[g], self.reps[k]):  # h first, then g
                    raise ValueError(f"relation {g}*{h}={k} fails certification")

    def outer(self, g: str) -> st.FreeGroupAutomorphism:
        return self.reps[g].substitution()

    def end_group(self) -> es.FiniteCylinderGroup:
        perms = {g: dict(self.reps[g].end_action) for g in self.group.elements}
        return es.FiniteCylinderGroup(self.automaton, self.depth, perms)


# -- interval covers and factor systems ------------------------------------------


@dataclass(frozen=True)
class IntervalCover:
    """Control radii with a chain of overlapping integer intervals.

    ``r`` rescales: the interval [a, b] (in rescaled units) names the
    annulus of depths [r_a, r_b].
    """

    r: tuple[int, ...]
    intervals: tuple[tuple[int, int], ...]

    @classmethod
    def make(cls, r: Sequence[int], intervals: Sequence[tuple[int, int]], min_overlap: int = 22) -> "IntervalCover":
        r = tuple(r)
        if not r or r[0] != 0 or any(r[i] >= r[i + 1] for i in range(len(r) - 1)):
            raise ValueError("radii must be strictly increasing from 0")
        m = len(r) - 1
        ivs = tuple((int(a), int(b)) for a, b in intervals)
        for a, b in ivs:
            if not (0 <= a < b <= m):
                raise ValueError(f"interval [{a},{b}] out of range")
        if ivs[0][0] != 0 or ivs[-1][1] != m:
            raise ValueError("intervals must cover the whole range")
        for i in range(len(ivs) - 1):
            lo = max(ivs[i][0], ivs[i + 1][0])
            hi = min(ivs[i][1], ivs[i + 1][1])
            if hi - lo < min_overlap:
                raise ValueError(f"overlap of intervals {i},{i + 1} is {hi - lo} < {min_overlap}")
        for i in range(len(ivs)):
            for j in range(i + 2, len(ivs)):
                if min(ivs[i][1], ivs[j][1]) >= max(ivs[i][0], ivs[j][0]):
                    raise ValueError(f"non-adjacent intervals {i},{j} meet")
        return cls(r, ivs)

    @classmethod
    def default(cls, depth: int) -> "IntervalCover":
        """Chain [0,24], [14,38], [28,52], ..., the last cut at depth.

        Adjacent intervals overlap by 10, the ``min_overlap`` asked of them.
        An interval is longer than twice that, so it ends before the
        next-but-one starts, and non-adjacent intervals are disjoint at every
        depth.  Every interval after the first is longer than 10, which
        gives ``minus`` and ``plus`` the |J| >= 4 they need.
        """
        length, overlap = 24, 10
        ivs = [(0, min(length, depth))]
        while ivs[-1][1] < depth:
            a = ivs[-1][1] - overlap
            ivs.append((a, min(a + length, depth)))
        return cls.make(range(depth + 1), ivs, min_overlap=overlap)

    def overlap(self, i: int) -> tuple[int, int]:
        a = max(self.intervals[i][0], self.intervals[i + 1][0])
        b = min(self.intervals[i][1], self.intervals[i + 1][1])
        return (a, b)

    def depth_range(self, J: tuple[int, int]) -> tuple[int, int]:
        return (self.r[J[0]], self.r[J[1]])

    def minus(self, J: tuple[int, int]) -> tuple[int, int]:
        a, b = J
        if b - a < 4:
            raise ValueError("J- needs |J| >= 4")
        return (0 if a == 0 else a + 2, b - 2)

    def plus(self, J: tuple[int, int]) -> tuple[int, int]:
        a, b = J
        m = len(self.r) - 1
        return (max(a - 2, 0), min(b + 2, m))


def verify_displacement_bound(action: FiniteGroupAction, r: Sequence[int], n: int) -> bool:
    """Check (*): every representative maps each annulus into its neighbors.

    Annulus i is the depth band [r_{i-1}, r_i] (the last one reaches the
    support depth); images of vertices, loop letters and wrap letters must
    stay within one band of their source.
    """
    r = list(r)
    if r[-1] < action.depth:
        r = r + [action.depth]

    def band(d: int) -> int:
        for i in range(1, min(n + 1, len(r))):
            if r[i - 1] <= d <= r[i]:
                return i
        return min(n + 1, len(r))

    def allowed(d_src: int, d_img: int) -> bool:
        return abs(band(d_src) - band(d_img)) <= 1

    for g in action.group.elements:
        f = action.reps[g]
        for v, img in f.vmap.items():
            if not allowed(len(v), len(img)):
                return False
        for lid in f.loop_ids():
            d = len(mc.loop_id_vertex(lid))
            for name, _ in f.loop_word(lid):
                if not allowed(d, len(mc.loop_id_vertex(name))):
                    return False
        for child, word in f.edge_wraps.items():
            for name, _ in word:
                if not allowed(len(child), len(mc.loop_id_vertex(name))):
                    return False
    return True


def is_core_automaton(a: UnfoldingAutomaton) -> bool:
    return core(a) == a


@_once_per_automaton
def ffs_of_interval(a: UnfoldingAutomaton, cover: IntervalCover, J: tuple[int, int] | int, depth: int) -> st.FreeFactorSystem:
    """Free factor system carried by the annulus D^-1(J) of a core graph.

    Computed once per automaton and (cover, J, depth), so T and T* share
    F(J), F(J-) and F(J+).
    """
    if not is_core_automaton(a):
        raise NotCoreGraphError("interval factors require a core ambient graph")
    if isinstance(J, int):
        lo = hi = cover.r[J]
    else:
        lo, hi = cover.depth_range(J)
    if hi > depth:
        raise ValueError("interval exceeds the truncation depth")
    # in the rooted tree, the band's components are the classes of v[:lo]
    comps: dict[Path, list[str]] = {}
    for v, k in unfold(a, depth).loop_edges:
        if lo <= len(v) <= hi:
            comps.setdefault(v[:lo], []).append(mc.loop_id(v, k))
    graphs = [st.LabeledGraph.rose(sorted(lids)) for _, lids in sorted(comps.items())]
    return st.FreeFactorSystem.from_graphs(graphs)


def f_prime(ffs_J: st.FreeFactorSystem, action: FiniteGroupAction) -> st.FreeFactorSystem:
    """Intersection of all pushforwards h_*(F(J)); a finite intersection."""
    out = ffs_J
    for g in action.group.elements:
        if g == action.group.identity:
            continue
        out = st.intersect_ffs(out, st.apply_automorphism(action.outer(g), ffs_J))
    return out


def f_star(
    a: UnfoldingAutomaton,
    cover: IntervalCover,
    J: tuple[int, int],
    action: FiniteGroupAction,
    depth: int,
) -> st.FreeFactorSystem:
    """Factors of F'(J) that contain a factor of F(J-); H-invariant for |J| >= 8.

    When J spans every depth up to ``depth``, F(J) is the ambient free
    group, so F*(J) = F(J) at any |J|.
    """
    result = ffs_of_interval(a, cover, J, depth)
    if cover.depth_range(J) != (0, depth):
        fminus = ffs_of_interval(a, cover, cover.minus(J), depth)
        fplus = ffs_of_interval(a, cover, cover.plus(J), depth)
        fp = f_prime(result, action)
        keep = []
        for comp in fp.components:
            target = st.FreeFactorSystem((comp,))
            if any(st.contained_in(st.FreeFactorSystem((b,)), target) for b in fminus.components):
                keep.append(comp)
        result = st.FreeFactorSystem(tuple(keep))
        if not st.contained_in(fminus, result) or not st.contained_in(result, fplus):
            raise InvarianceFailedError("sandwich F(J-) < F*(J) < F(J+) fails")
        if J[1] - J[0] < 8:
            raise ValueError("invariance guarantee needs |J| >= 8")
    keys = result.keys()
    for g in action.group.elements:
        if st.apply_automorphism(action.outer(g), result).keys() != keys:
            raise InvarianceFailedError(f"F*({J}) moved by {g}")
    return result


# -- trees of groups ------------------------------------------------------------------


@dataclass
class TreeOfGroups:
    """Vertices at integer heights, edges between consecutive heights.

    Vertex and edge groups are basepoint-free core graphs over the ambient
    loop alphabet (conjugacy classes of free factors).
    """

    kind: str
    vertex_groups: dict[str, st.LabeledGraph]
    vertex_heights: dict[str, int]
    edge_groups: dict[str, st.LabeledGraph]
    edge_ends: dict[str, tuple[str, str]]  # (low vertex, high vertex)

    def copy(self) -> "TreeOfGroups":
        return TreeOfGroups(
            self.kind,
            dict(self.vertex_groups),
            dict(self.vertex_heights),
            dict(self.edge_groups),
            dict(self.edge_ends),
        )

    def rank(self) -> int:
        """Rank of the fundamental group: sum over vertices minus edges."""
        return sum(g.rank() for g in self.vertex_groups.values()) - sum(g.rank() for g in self.edge_groups.values())

    def check_tree_axioms(self):
        vs = set(self.vertex_groups)
        if len([v for v in vs if self.vertex_heights[v] == 0]) != 1:
            raise StructureViolationError("unique height-0 vertex fails")
        adj: dict[str, set[str]] = {v: set() for v in vs}
        for e, (lo, hi) in self.edge_ends.items():
            if self.vertex_heights[hi] != self.vertex_heights[lo] + 1:
                raise StructureViolationError("edges must join consecutive heights (no same-height adjacency)")
            adj[lo].add(e)
            adj[hi].add(e)
        if len(self.edge_ends) != len(vs) - 1:
            raise StructureViolationError("edge count does not match a tree")
        # connectivity
        seen = set()
        stack = [next(iter(vs))] if vs else []
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            for e in adj[v]:
                lo, hi = self.edge_ends[e]
                stack.extend(x for x in (lo, hi) if x not in seen)
        if seen != vs:
            raise StructureViolationError("tree of groups is not connected")
        for v in vs:
            h = self.vertex_heights[v]
            if h > 0:
                down = [e for e in adj[v] if self.edge_ends[e][1] == v]
                if len(down) != 1:
                    raise StructureViolationError(
                        "every height-(n+1) vertex must meet exactly one height-n vertex"
                    )

    def keys(self):
        vk = {v: g.canonical_key() for v, g in self.vertex_groups.items()}
        ek = {e: g.canonical_key() for e, g in self.edge_groups.items()}
        return vk, ek


def _single(comp: st.LabeledGraph) -> st.FreeFactorSystem:
    return st.FreeFactorSystem((comp,))


def build_tree_of_groups(
    a: UnfoldingAutomaton,
    cover: IntervalCover,
    action: FiniteGroupAction,
    kind: str,
    depth: int,
) -> TreeOfGroups:
    """T (plain interval factors) or T_STAR (invariant refined factors)."""
    if kind not in ("T", "T_STAR"):
        raise ValueError("kind must be T or T_STAR")

    def system(J):
        if kind == "T":
            return ffs_of_interval(a, cover, J, depth)
        return f_star(a, cover, J, action, depth)

    vg: dict[str, st.LabeledGraph] = {}
    vh: dict[str, int] = {}
    by_height: list[list[str]] = []
    for n, J in enumerate(cover.intervals):
        sysn = system(J)
        names = []
        for i, comp in enumerate(sysn.components):
            name = f"v{n}_{i}"
            vg[name] = comp
            vh[name] = n
            names.append(name)
        by_height.append(names)
    eg: dict[str, st.LabeledGraph] = {}
    ee: dict[str, tuple[str, str]] = {}
    for n in range(len(cover.intervals) - 1):
        sysedge = system(cover.overlap(n))
        for i, comp in enumerate(sysedge.components):
            lows = [v for v in by_height[n] if st.contained_in(_single(comp), _single(vg[v]))]
            highs = [v for v in by_height[n + 1] if st.contained_in(_single(comp), _single(vg[v]))]
            if len(lows) != 1 or len(highs) != 1:
                raise StructureViolationError(
                    f"edge factor at overlap {n} lies in {len(lows)}/{len(highs)} vertex factors (unique containment fails)"
                )
            name = f"e{n}_{i}"
            eg[name] = comp
            ee[name] = (lows[0], highs[0])
    t = TreeOfGroups(kind, vg, vh, eg, ee)
    t.check_tree_axioms()
    return t


def _join(*graphs: st.LabeledGraph) -> st.LabeledGraph:
    """Subgroup join of conjugacy-class components inside the ambient group."""
    ws: list[Word] = []
    for g in graphs:
        base = min(g.vertices)
        _, petals = g.petals(base)
        ws.extend(word for _, _, word in petals)
    sys = st.FreeFactorSystem.from_graphs([st.LabeledGraph.from_words(ws)])
    if len(sys.components) != 1:
        raise IllegalMoveError("join of groups is not a single factor")
    return sys.components[0]


def fold_ia(t: TreeOfGroups, e1: str, e2: str) -> TreeOfGroups:
    """Move IA: fold two edges sharing their low vertex; first Betti preserved."""
    if e1 == e2 or e1 not in t.edge_ends or e2 not in t.edge_ends:
        raise IllegalMoveError("need two distinct edges")
    lo1, hi1 = t.edge_ends[e1]
    lo2, hi2 = t.edge_ends[e2]
    if lo1 != lo2:
        raise IllegalMoveError("edges must share their initial vertex")
    before = t.rank()
    out = t.copy()
    new_edge_group = _join(t.edge_groups[e1], t.edge_groups[e2])
    if hi1 != hi2:
        new_vertex_group = _join(t.vertex_groups[hi1], t.vertex_groups[hi2])
        out.vertex_groups[hi1] = new_vertex_group
        del out.vertex_groups[hi2]
        del out.vertex_heights[hi2]
        for e, (lo, hi) in list(out.edge_ends.items()):
            out.edge_ends[e] = (lo1 if lo == hi2 else lo, hi1 if hi == hi2 else hi)
    out.edge_groups[e1] = new_edge_group
    del out.edge_groups[e2]
    del out.edge_ends[e2]
    if out.rank() != before:
        raise IllegalMoveError("Move IA changed the first Betti number")
    return out


def pull_iia(t: TreeOfGroups, vertex: str, edge: str, subgroup: st.FreeFactorSystem) -> TreeOfGroups:
    """Move IIA: pull a subgroup of a vertex group across an incident edge."""
    if edge not in t.edge_ends or vertex not in t.edge_ends[edge]:
        raise IllegalMoveError("edge must be incident to the vertex")
    if not st.contained_in(subgroup, _single(t.vertex_groups[vertex])):
        raise IllegalMoveError("subgroup must lie in the vertex group")
    lo, hi = t.edge_ends[edge]
    far = hi if vertex == lo else lo
    before = t.rank()
    out = t.copy()
    out.edge_groups[edge] = _join(t.edge_groups[edge], *subgroup.components)
    out.vertex_groups[far] = _join(t.vertex_groups[far], *subgroup.components)
    if out.rank() != before:
        raise IllegalMoveError("Move IIA changed the first Betti number")
    return out


def apply_script(t: TreeOfGroups, script: Sequence[tuple]) -> TreeOfGroups:
    cur = t
    for move in script:
        if move[0] == "IA":
            cur = fold_ia(cur, move[1], move[2])
        elif move[0] == "IIA":
            cur = pull_iia(cur, move[1], move[2], move[3])
        else:
            raise IllegalMoveError(f"unknown move {move[0]}")
    return cur


def _tog_shape(t: TreeOfGroups) -> tuple[list, list]:
    """The tree up to renaming: the sorted (height, key) of its vertices and
    (low height, edge key, low key, high key) of its edges."""
    vk, ek = t.keys()
    return (
        sorted((t.vertex_heights[v], k) for v, k in vk.items()),
        sorted((t.vertex_heights[lo], ek[e], vk[lo], vk[hi]) for e, (lo, hi) in t.edge_ends.items()),
    )


def fold_to_t(tstar: TreeOfGroups, t: TreeOfGroups, max_rounds: int = 8) -> list[tuple]:
    """Script of IA folds then IIA promotions carrying T* to T; replay-validated."""
    script: list[tuple] = []
    cur = tstar.copy()
    _, t_edge_keys = t.keys()

    # match T* edges to T edges by height and containment
    def t_edge_of(comp: st.LabeledGraph, lo_height: int) -> str:
        hits = []
        for e, (lo, hi) in t.edge_ends.items():
            if t.vertex_heights[lo] == lo_height and st.contained_in(_single(comp), _single(t.edge_groups[e])):
                hits.append(e)
        if len(hits) != 1:
            raise NoScriptFoundError("T* edge has no unique T image")
        return hits[0]

    # phase 1: IA folds of edges with a common image
    changed = True
    rounds = 0
    while changed:
        changed = False
        rounds += 1
        if rounds > max_rounds + len(cur.edge_ends):
            raise NoScriptFoundError("IA folding failed to stabilize")
        groups: dict[tuple[str, str], list[str]] = {}
        for e, (lo, hi) in cur.edge_ends.items():
            img = t_edge_of(cur.edge_groups[e], cur.vertex_heights[lo])
            groups.setdefault((img, lo), []).append(e)
        for (_, _), es_ in sorted(groups.items()):
            if len(es_) > 1:
                e1, e2 = sorted(es_)[:2]
                script.append(("IA", e1, e2))
                cur = fold_ia(cur, e1, e2)
                changed = True
                break

    # phase 2: IIA promotion of edge groups by pulls from both endpoints
    for _ in range(max_rounds):
        pending = []
        for e, (lo, hi) in sorted(cur.edge_ends.items()):
            img = t_edge_of(cur.edge_groups[e], cur.vertex_heights[lo])
            target_group = t.edge_groups[img]
            if cur.edge_groups[e].canonical_key() == t_edge_keys[img]:
                continue
            for w in (lo, hi):
                inter = st.intersect_ffs(_single(cur.vertex_groups[w]), _single(target_group))
                if not inter.is_empty():
                    pending.append(("IIA", w, e, inter))
        if not pending:
            break
        for move in pending:
            try:
                cur = pull_iia(cur, move[1], move[2], move[3])
                script.append(move)
            except IllegalMoveError:
                continue
    # phase 3: promote vertex groups by pulling edge groups across
    for _ in range(max_rounds):
        pending = []
        vertex_keys, _ = cur.keys()
        for e, (lo, hi) in sorted(cur.edge_ends.items()):
            for w, far in ((lo, hi), (hi, lo)):
                sub = st.FreeFactorSystem((cur.edge_groups[e],))
                joined = _join(cur.vertex_groups[far], *sub.components)
                if joined.canonical_key() != vertex_keys[far]:
                    pending.append(("IIA", w, e, sub))
        if not pending:
            break
        for move in pending:
            try:
                cur = pull_iia(cur, move[1], move[2], move[3])
                script.append(move)
            except IllegalMoveError:
                continue

    t_shape = _tog_shape(t)
    if _tog_shape(cur) != t_shape:
        raise NoScriptFoundError("move script does not reach T")
    replay = apply_script(tstar, script)
    if _tog_shape(replay) != t_shape:
        raise NoScriptFoundError("script replay validation failed")
    return script


# -- symmetric finite graphs -----------------------------------------------------------


@dataclass(frozen=True)
class SymGraph:
    """Finite multigraph with loops; automorphisms act on darts."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]

    @functools.cached_property
    def _incidence(self) -> dict[int, list[tuple[int, int, int]]]:
        """Per vertex, its (far end, edge, side) in edge order; an edge (a, b)
        leaves a (side 1) before it leaves b (side 0), so a loop appears twice."""
        incident: dict[int, list[tuple[int, int, int]]] = {v: [] for v in range(self.n_vertices)}
        for e, (a, b) in enumerate(self.edges):
            incident[a].append((b, e, 1))
            incident[b].append((a, e, 0))
        return incident

    def degree(self, v: int) -> int:
        return len(self._incidence[v])

    def rank(self) -> int:
        return len(self.edges) - self.n_vertices + 1

    def components(self) -> list[frozenset[int]]:
        """Vertex sets of the connected components, ordered by least vertex."""
        seen: set[int] = set()
        out = []
        for v in range(self.n_vertices):
            if v in seen:
                continue
            comp, stack = {v}, [v]
            while stack:
                for dst, _, _ in self._incidence[stack.pop()]:
                    if dst not in comp:
                        comp.add(dst)
                        stack.append(dst)
            seen |= comp
            out.append(frozenset(comp))
        return out

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    def spanning_tree(self) -> dict[int, tuple[int, int, int]]:
        """{vertex: (parent, edge, side_in)} reaching each vertex from 0."""
        return dict(self._tree)

    @functools.cached_property
    def _tree(self) -> dict[int, tuple[int, int, int]]:
        # breadth first from 0, each vertex scanning its incidences in order
        tree = {0: (0, -1, 0)}
        queue = deque([0])
        while queue:
            v = queue.popleft()
            for dst, e, side in self._incidence.get(v, ()):
                if dst not in tree:
                    tree[dst] = (v, e, side)
                    queue.append(dst)
        return tree

    def tree_path_darts(self, tree, src: int, dst: int) -> list[tuple[int, int]]:
        """Edge path src->dst inside the tree as (edge, direction) pairs."""

        def up(x):
            out = []
            while tree[x][1] != -1:
                p, e, side = tree[x]
                out.append((e, -1 if side == 1 else 1))  # traverse toward parent
                x = p
            return out, x

        u1, _ = up(src)
        u2, _ = up(dst)
        # cancel common tail toward the root
        while u1 and u2 and u1[-1][0] == u2[-1][0]:
            u1.pop()
            u2.pop()
        down = [(e, -d) for e, d in reversed(u2)]
        return u1 + down

    def petal_edges(self) -> list[int]:
        return list(self._petal_index)

    @functools.cached_property
    def _petal_index(self) -> dict[int, int]:
        """Petal edge -> its place among the edges off the spanning tree."""
        tree_e = {e for (_, e, _) in self._tree.values() if e != -1}
        return {e: i for i, e in enumerate(e for e in range(len(self.edges)) if e not in tree_e)}

    @functools.cached_property
    def _petal_loops(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per petal, the loop 0 -> a -> b -> 0 through the tree as (edge, direction) pairs."""
        loops = []
        for e in self._petal_index:
            a, b = self.edges[e]
            loops.append(tuple(self.tree_path_darts(self._tree, 0, a) + [(e, 1)] + self.tree_path_darts(self._tree, b, 0)))
        return tuple(loops)


@dataclass(frozen=True)
class GraphAutomorphism:
    """Vertex permutation + edge permutation with orientation flips."""

    vperm: tuple[int, ...]
    emap: tuple[tuple[int, int], ...]  # edge -> (image edge, flip 0/1)

    def apply_vertex(self, v: int) -> int:
        return self.vperm[v]

    def apply_edge_dir(self, e: int, direction: int) -> tuple[int, int]:
        img, flip = self.emap[e]
        return (img, -direction if flip else direction)

    def compose(self, other: "GraphAutomorphism") -> "GraphAutomorphism":
        """self after other."""
        vp = tuple(self.vperm[other.vperm[v]] for v in range(len(self.vperm)))
        em = []
        for e in range(len(self.emap)):
            mid, flip1 = other.emap[e]
            img, flip2 = self.emap[mid]
            em.append((img, flip1 ^ flip2))
        return GraphAutomorphism(vp, tuple(em))


def identity_automorphism(g: SymGraph) -> GraphAutomorphism:
    return GraphAutomorphism(tuple(range(g.n_vertices)), tuple((e, 0) for e in range(len(g.edges))))


def automorphisms(g: SymGraph) -> list[GraphAutomorphism]:
    """All simplicial automorphisms (loops may reverse); brute force."""
    out = []
    classes: dict[frozenset, list[int]] = {}
    for e, (a, b) in enumerate(g.edges):
        classes.setdefault(frozenset((a, b)), []).append(e)
    for vperm in itertools.permutations(range(g.n_vertices)):
        img_classes = {}
        ok = True
        for pair, es_ in classes.items():
            img_pair = frozenset(vperm[v] for v in pair)
            if img_pair not in classes or len(classes[img_pair]) != len(es_):
                ok = False
                break
            img_classes[pair] = classes[img_pair]
        if not ok:
            continue
        per_class = []
        for pair, es_ in sorted(classes.items(), key=lambda kv: sorted(kv[1])):
            targets = img_classes[pair]
            is_loop = len(pair) == 1
            options = []
            for assignment in itertools.permutations(targets):
                if is_loop:
                    for flips in itertools.product((0, 1), repeat=len(es_)):
                        options.append(list(zip(assignment, flips)))
                else:
                    opt = []
                    for e_src, e_img in zip(es_, assignment):
                        a, b = g.edges[e_src]
                        ia, ib = g.edges[e_img]
                        if (vperm[a], vperm[b]) == (ia, ib):
                            opt.append((e_img, 0))
                        elif (vperm[a], vperm[b]) == (ib, ia):
                            opt.append((e_img, 1))
                        else:
                            opt = None
                            break
                    if opt is not None:
                        options.append(opt)
            per_class.append((es_, options))
        for combo in itertools.product(*(opts for _, opts in per_class)):
            emap = [None] * len(g.edges)
            for (es_, _), assignment in zip(per_class, combo):
                for e_src, img in zip(es_, assignment):
                    emap[e_src] = img
            out.append(GraphAutomorphism(tuple(vperm), tuple(emap)))
    return out


def induced_outer(g: SymGraph, alpha: GraphAutomorphism, basis: Sequence[str]) -> st.FreeGroupAutomorphism:
    """Outer action of a graph automorphism in the petal marking.

    The marking sends petal i (in canonical order) to basis[i].  The image of
    petal i is alpha applied to its tree loop; the tree path joining the base
    vertex to its image carries no petal, so it adds no letters.
    """
    petal_index = g._petal_index
    if len(petal_index) != len(basis):
        raise ValueError("marking size mismatch")
    images = {}
    for x, loop in zip(basis, g._petal_loops):
        word = []
        for e, direction in loop:
            img, flip = alpha.emap[e]
            i = petal_index.get(img)
            if i is not None:
                word.append((basis[i], -direction if flip else direction))
        images[x] = W.reduce_word(word)
    return st.FreeGroupAutomorphism(tuple(basis), images)


def _generating_subset(group: FiniteGroup) -> list[str]:
    elems = [e for e in group.elements if e != group.identity]
    for size in range(0 if not elems else 1, len(elems) + 1):
        for combo in itertools.combinations(elems, size):
            seen = {group.identity}
            frontier = list(combo)
            while frontier:
                x = frontier.pop()
                if x in seen:
                    continue
                seen.add(x)
                for y in list(seen):
                    frontier.append(group.mult[(x, y)])
                    frontier.append(group.mult[(y, x)])
            if seen == set(group.elements):
                return list(combo)
    return []


def _element_expressions(group: FiniteGroup, gens: Sequence[str]) -> dict[str, list[str]]:
    """Each element as a product of generators (BFS over the Cayley graph)."""
    expr = {group.identity: []}
    queue = [group.identity]
    while queue:
        x = queue.pop(0)
        for s in gens:
            y = group.mult[(s, x)]
            if y not in expr:
                expr[y] = [s] + expr[x]
                queue.append(y)
    if set(expr) != set(group.elements):
        raise ValueError("generators do not generate")
    return expr


def _broken_relation(
    group: FiniteGroup, gens: Iterable[str], g: SymGraph, act: Mapping[str, GraphAutomorphism]
) -> str | None:
    """The first relation the action table breaks, as "s*h", or None for a homomorphism.

    With act[e] the identity, act[s*h] == act[s]∘act[h] for the generators s
    and every h gives the whole multiplication table, by induction on the
    length of an element as a product of generators.
    """
    if act[group.identity] != identity_automorphism(g):
        return f"{group.identity}*{group.identity}"
    for s in gens:
        for h in group.elements:
            if act[group.mult[(s, h)]] != act[s].compose(act[h]):
                return f"{s}*{h}"
    return None


def _check_action(group: FiniteGroup, g: SymGraph, act: Mapping[str, GraphAutomorphism]):
    broken = _broken_relation(group, _generating_subset(group), g, act)
    if broken is not None:
        raise FinalCheckFailedError(f"action table fails at {broken}")


def _extend_to_action(
    group: FiniteGroup, expr: Mapping[str, list[str]], g: SymGraph, gen_img: Mapping[str, GraphAutomorphism]
) -> dict[str, GraphAutomorphism] | None:
    """The action extending the generator images, or None if they violate a relation.

    Each element acts by the composite along its expression, so act[e] is
    the identity and ``_broken_relation`` checks the generator rows.
    """
    along: dict[tuple[str, ...], GraphAutomorphism] = {(): identity_automorphism(g)}
    act = {}
    for elem, word in expr.items():  # breadth-first: word[1:] is composed already
        if word:
            along[tuple(word)] = gen_img[word[0]].compose(along[tuple(word[1:])])
        act[elem] = along[tuple(word)]
    return None if _broken_relation(group, gen_img, g, act) is not None else act


def _small_graph_actions(group: FiniteGroup, n: int, e_max: int):
    """(graph, action) over the small graphs of rank n and their automorphisms
    as generator images, in canonical enumeration order."""
    gens = _generating_subset(group)
    expr = _element_expressions(group, gens)
    for g in _enumerate_graphs(n, e_max):
        auts = automorphisms(g)
        for images in itertools.product(auts, repeat=len(gens)):
            act = _extend_to_action(group, expr, g, dict(zip(gens, images)))
            if act is not None:
                yield g, act


def _enumerate_graphs(n: int, e_max: int):
    """Connected multigraphs of rank n, minimum valence 2, at most e_max edges."""
    for E in range(max(n, 1), e_max + 1):
        V = E - n + 1
        if V < 1:
            continue
        pairs = [(i, j) for i in range(V) for j in range(i, V)]
        for combo in itertools.combinations_with_replacement(pairs, E):
            g = SymGraph(V, tuple(combo))
            if not g.is_connected():
                continue
            if any(g.degree(v) < 2 for v in range(V)):
                continue
            yield g


# -- relative realization ------------------------------------------------------------


@dataclass(frozen=True)
class RelativePiece:
    """Disjoint realized subgraphs with an action, to be extended.

    ``factor_words``: for each component (in component order), the subgroup
    words of its cycle basis expressed over the ambient target basis.
    """

    graph: SymGraph
    action: Mapping[str, GraphAutomorphism]
    factor_words: tuple[tuple[Word, ...], ...]


@dataclass(frozen=True)
class Embedding:
    vmap: Mapping[int, int]
    emap: Mapping[int, tuple[int, int]]  # edge -> (image edge, flip)


@dataclass(frozen=True)
class RelativeRealization:
    graph: SymGraph
    action: Mapping[str, GraphAutomorphism]
    basis: tuple[str, ...]
    embedding: Embedding | None
    petal_words: tuple[Word, ...] = ()
    """Marking: petal j corresponds to petal_words[j], a word over `basis`."""


def _subgraph_class_words(g: SymGraph, petal_words: Sequence[Word], vertex_set: set[int], edge_set: set[int]) -> list[Word]:
    """Cycle-basis words (through the marking) of an embedded subgraph."""
    tree = g.spanning_tree()
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
        conn = g.tree_path_darts(tree, 0, base)
        full = conn + cycle + [(ed, -d) for ed, d in reversed(conn)]
        words.append(expand(full))
    return words


def _apply_embedding_action_check(piece: RelativePiece, g: SymGraph, act, emb: Embedding, elements) -> bool:
    for h in elements:
        ap = piece.action[h]
        ag = act[h]
        for v in range(piece.graph.n_vertices):
            if ag.apply_vertex(emb.vmap[v]) != emb.vmap[ap.apply_vertex(v)]:
                return False
        for e in range(len(piece.graph.edges)):
            img_e, f1 = ap.emap[e]
            via_piece = (emb.emap[img_e][0], f1 ^ emb.emap[img_e][1])
            src_img, f2 = emb.emap[e]
            via_graph = ag.emap[src_img]
            if (via_graph[0], via_graph[1] ^ f2) != via_piece:
                return False
    return True


def _embedded_classes_match(piece: RelativePiece, g: SymGraph, petal_words: Sequence[Word], emb: Embedding) -> bool:
    comps = piece.graph.components()
    for comp, words in zip(comps, piece.factor_words):
        edge_set = {emb.emap[e][0] for e in range(len(piece.graph.edges)) if set(piece.graph.edges[e]) <= comp}
        vset = {emb.vmap[v] for v in comp}
        got = _subgraph_class_words(g, petal_words, vset, edge_set)
        lhs = st.FreeFactorSystem.from_graphs([st.LabeledGraph.from_words(got)])
        rhs = st.FreeFactorSystem.from_graphs([st.LabeledGraph.from_words(list(words))])
        if lhs != rhs:
            return False
    return True


def _structured_wedge(group: FiniteGroup, piece: RelativePiece, n: int):
    """Wedge extra petals at an action-fixed vertex (single piece), or wedge
    the pieces at a fresh base vertex (no piece: the rose of rank n).
    Returns the wedge graph, the piece's embedding and each generator's
    fixed part of the action (vertex permutation, edge map of the old edges;
    the fresh petals are the edges after those), or None when no such wedge
    carries the action."""
    g0 = piece.graph
    comps = piece.graph.components()
    gens = _generating_subset(group)
    k = n - g0.rank() if len(comps) == 1 else n - sum(
        len({e for e in range(len(g0.edges)) if set(g0.edges[e]) <= comp}) - len(comp) + 1 for comp in comps
    )
    if k < 0:
        return None
    if len(comps) == 1:
        fixed = [v for v in range(g0.n_vertices) if all(piece.action[h].apply_vertex(v) == v for h in group.elements)]
        if not fixed:
            return None
        g = SymGraph(g0.n_vertices, tuple(g0.edges) + ((fixed[0], fixed[0]),) * k)
        bases = {s: (tuple(piece.action[s].vperm), tuple(piece.action[s].emap)) for s in gens}
    else:
        base = g0.n_vertices
        attach = [min(comp) for comp in comps]
        g = SymGraph(g0.n_vertices + 1, tuple(g0.edges) + tuple((base, v) for v in attach) + ((base, base),) * k)
        bases = {}
        for s in gens:
            a0 = piece.action[s]
            # connecting edges follow the component permutation
            comp_img = []
            for v in attach:
                img = a0.apply_vertex(v)
                j = next(jj for jj, c2 in enumerate(comps) if img in c2)
                if img != attach[j]:
                    return None
                comp_img.append(j)
            bases[s] = (tuple(a0.vperm) + (base,), tuple(a0.emap) + tuple((len(g0.edges) + j, 0) for j in comp_img))
    emb = Embedding({v: v for v in range(g0.n_vertices)}, {e: (e, 0) for e in range(len(g0.edges))})
    return g, emb, bases


def _aligned_marking(piece: RelativePiece, g: SymGraph, emb: Embedding, basis) -> tuple[Word, ...] | None:
    """Marking handing embedded petals their prescribed factor letters."""
    comps = piece.graph.components()
    piece_petals = piece.graph.petal_edges()
    assign: dict[int, tuple[str, int]] = {}
    used: set[str] = set()
    for comp, words in zip(comps, piece.factor_words):
        comp_petals = [e for e in piece_petals if set(piece.graph.edges[e]) <= comp]
        if len(comp_petals) != len(words):
            return None
        for e_p, wd in zip(comp_petals, words):
            if len(wd) != 1 or wd[0][0] in used:
                return None
            img_edge, flip = emb.emap[e_p]
            assign[img_edge] = (wd[0][0], -wd[0][1] if flip else wd[0][1])
            used.add(wd[0][0])
    remaining = [x for x in basis if x not in used]
    out = []
    for e in g.petal_edges():
        if e in assign:
            out.append((assign[e],))
        elif remaining:
            out.append(W.gen(remaining.pop(0)))
        else:
            return None
    return tuple(out) if len(out) == len(basis) and remaining == [] else None


@dataclass(frozen=True)
class _Marking:
    """A petal marking, petal j -> words[j], with its change of basis ν and ν⁻¹."""

    words: tuple[Word, ...]
    nu: st.FreeGroupAutomorphism
    nu_inv: st.FreeGroupAutomorphism

    @classmethod
    def make(cls, words: Sequence[Word], basis: Sequence[str]) -> "_Marking":
        """Raises NotAnAutomorphismError when the words are not a basis."""
        nu = st.FreeGroupAutomorphism(tuple(basis), dict(zip(basis, words)))
        return cls(tuple(words), nu, nu.inverse())

    def outer(self, g: SymGraph, alpha: GraphAutomorphism) -> st.FreeGroupAutomorphism:
        """Outer action of alpha under this marking: ν ∘ ρ ∘ ν⁻¹."""
        return self.nu.compose(induced_outer(g, alpha, self.nu.basis)).compose(self.nu_inv)


def _read_off_images(
    g: SymGraph, base: tuple, basis: Sequence[str], marks: Sequence[_Marking], target: st.FreeGroupAutomorphism
) -> list[GraphAutomorphism]:
    """The images on the wedge g of a generator that acts by ``base`` (vertex
    permutation, edge map of the old edges) and by a signed permutation of
    the fresh petals after them, and that induce ``target`` under one of
    ``marks``.

    Such an image sends fresh petal letter x_j to a conjugate of x_π(j)^±1 in
    the petal basis, and it induces the target under a marking ν only if
    ν⁻¹∘T∘ν does the same up to an inner automorphism.  So the cyclic
    reduction of ν⁻¹(T(ν(x_j))) names π(j) and the flip, and each marking
    gives at most one image; each is then screened in full.  The images come
    in signed-permutation order: permutations lexicographically, then flips
    read as a binary number, first petal most significant.
    """
    vperm, base_emap = base
    fresh = range(len(base_emap), len(g.edges))
    letters = [basis[g._petal_index[e]] for e in fresh]
    slot = {x: j for j, x in enumerate(letters)}
    read = set()
    for m in marks:
        perm, flips = [], []
        for x in letters:
            cyc, _ = W.cyclic_reduce(m.nu_inv(target(m.nu.images[x])))
            if len(cyc) != 1 or cyc[0][0] not in slot:
                break
            perm.append(slot[cyc[0][0]])
            flips.append(int(cyc[0][1] < 0))
        else:
            if len(set(perm)) == len(fresh):
                read.add((tuple(perm), tuple(flips)))
    images = (
        GraphAutomorphism(vperm, base_emap + tuple((fresh[p], f) for p, f in zip(perm, flips))) for perm, flips in sorted(read)
    )
    return [img for img in images if any(st.outer_equal(m.outer(g, img), target) for m in marks)]


def realize_relative(
    group: FiniteGroup,
    targets: Mapping[str, st.FreeGroupAutomorphism],
    piece: RelativePiece | None,
    e_max: int = 6,
    rank_bound: int = 3,
) -> RelativeRealization:
    """Finite graph with a simplicial action that induces the target outer
    action and extends the realized piece (Culler's realization of finite
    subgroups of Out(F_n), relative to the piece).

    Candidates are structured wedges first, then the exhaustive stream of
    small graphs with equivariant embeddings of the piece; every candidate
    is verified by outer equality and embedded-class comparison, under the
    factor-aligned petal marking when one exists and the positional one
    otherwise.  With no piece the piece is empty: the wedge is the rose of
    rank n, the positional marking is the only one, a candidate must act
    faithfully, and the result has no embedding.
    """
    basis = list(targets[group.identity].basis)
    n = len(basis)
    absolute = piece is None or piece.graph.n_vertices == 0
    if absolute:
        empty = SymGraph(0, ())
        piece = RelativePiece(empty, dict.fromkeys(group.elements, identity_automorphism(empty)), ())
    positional = tuple(W.gen(x) for x in basis)

    def markings(g, emb) -> list[_Marking]:
        """The factor-aligned marking, the positional one and, at rank <= 3
        with a piece, every signed permutation, in that order and each once;
        markings that are no basis are left out."""
        words = [positional]
        aligned = _aligned_marking(piece, g, emb, basis)
        if aligned is not None and aligned != positional:
            words.insert(0, aligned)
        if n <= 3 and not absolute:
            for perm in itertools.permutations(basis):
                for signs in itertools.product((1, -1), repeat=n):
                    cand = tuple(W.gen(x, s) for x, s in zip(perm, signs))
                    if cand not in words:
                        words.append(cand)
        out = []
        for pw in words:
            try:
                out.append(_Marking.make(pw, basis))
            except st.NotAnAutomorphismError:
                continue
        return out

    def verify(g, act, emb, marks=None):
        """The first marking under which act induces every target and the
        piece's factors embed as prescribed, or None."""
        if absolute and len({(a.vperm, a.emap) for a in act.values()}) != len(group.elements):
            return None  # not faithful
        if not _apply_embedding_action_check(piece, g, act, emb, group.elements):
            return None
        for m in markings(g, emb) if marks is None else marks:
            if all(st.outer_equal(m.outer(g, act[h]), targets[h]) for h in group.elements):
                if _embedded_classes_match(piece, g, m.words, emb):
                    return m.words
        return None

    def realized(g, act, emb, pw) -> RelativeRealization:
        return RelativeRealization(g, act, tuple(basis), None if absolute else emb, pw)

    wedge = _structured_wedge(group, piece, n)
    if wedge is not None:
        g, emb, bases = wedge
        # g and emb are fixed for the whole wedge search: mark once
        marks = markings(g, emb)
        expr = _element_expressions(group, list(bases))
        per_gen = [_read_off_images(g, bases[s], basis, marks, targets[s]) for s in bases]
        for images in itertools.product(*per_gen):
            act = _extend_to_action(group, expr, g, dict(zip(bases, images)))
            if act is None:
                continue
            pw = verify(g, act, emb, marks)
            if pw is not None:
                return realized(g, act, emb, pw)

    if n > rank_bound:
        raise NotFoundWithinBoundError(f"rank {n} exceeds the search bound rank_bound = {rank_bound}")
    graphs = actions = 0
    last = None
    for g, act in _small_graph_actions(group, n, e_max):
        graphs += g is not last  # a graph's actions come together, its trivial one among them
        last = g
        actions += 1
        for emb in _enumerate_embeddings(piece.graph, g):
            pw = verify(g, act, emb)
            if pw is not None:
                return realized(g, act, emb, pw)
    raise NotFoundWithinBoundError(
        f"no realization within e_max = {e_max} edges; examined {graphs} graphs and {actions} actions"
    )


def _enumerate_embeddings(small: SymGraph, big: SymGraph):
    """Injective simplicial embeddings small -> big (vertices and edges)."""
    small_edges = list(enumerate(small.edges))

    def backtrack(vmap: dict, emap: dict, idx: int):
        if idx == len(small_edges):
            yield Embedding(dict(vmap), dict(emap))
            return
        e, (a, b) = small_edges[idx]
        used = set(em[0] for em in emap.values())
        for e2, (c, d) in enumerate(big.edges):
            if e2 in used:
                continue
            for (ia, ib, flip) in ((c, d, 0), (d, c, 1)):
                if a in vmap and vmap[a] != ia:
                    continue
                if b in vmap and vmap[b] != ib:
                    continue
                if a not in vmap and ia in vmap.values():
                    continue
                nv = dict(vmap)
                nv[a] = ia
                if b not in nv:
                    if ib in nv.values():
                        continue
                    nv[b] = ib
                elif nv[b] != ib:
                    continue
                ne = dict(emap)
                ne[e] = (e2, flip)
                yield from backtrack(nv, ne, idx + 1)

    isolated = [v for v in range(small.n_vertices) if small.degree(v) == 0]
    if isolated:
        return
    yield from backtrack({}, {}, 0)


# -- helpers for the pipelines --------------------------------------------------------


def sub_group(group: FiniteGroup, members: Iterable[str]) -> FiniteGroup:
    members = tuple(sorted(set(members) | {group.identity}))
    for g in members:
        for h in members:
            if group.mult[(g, h)] not in members:
                raise ValueError("subset is not closed under multiplication")
    mult = {(g, h): group.mult[(g, h)] for g in members for h in members}
    return FiniteGroup.make(members, mult)


def _offset_graph(g: SymGraph, v_off: int, base_edges: list) -> tuple[int, int]:
    e_off = len(base_edges)
    for a_, b_ in g.edges:
        base_edges.append((a_ + v_off, b_ + v_off))
    return v_off + g.n_vertices, e_off


class _FlipUnionFind:
    """Union-find with a Z/2 weight (orientation flip) on edges."""

    def __init__(self):
        self.parent: dict = {}
        self.flip: dict = {}

    def find(self, x):
        if x not in self.parent:
            self.parent[x] = x
            self.flip[x] = 0
            return x, 0
        path = []
        f = 0
        while self.parent[x] != x:
            path.append(x)
            f ^= self.flip[x]
            x = self.parent[x]
        acc = f
        for y in reversed(path):
            old = self.flip[y]
            self.flip[y] = acc
            self.parent[y] = x
            acc ^= old
        return x, f

    def union(self, x, y, rel_flip: int) -> bool:
        rx, fx = self.find(x)
        ry, fy = self.find(y)
        if rx == ry:
            return (fx ^ fy) == rel_flip
        self.parent[ry] = rx
        self.flip[ry] = fx ^ fy ^ rel_flip
        return True


@dataclass
class CoreRealization:
    cover: IntervalCover | None
    depth: int
    t_star: TreeOfGroups | None
    t: TreeOfGroups | None
    script: list
    graph: SymGraph
    action: dict[str, GraphAutomorphism]
    labels: dict[int, Word]
    verdicts: dict[str, mc.IdentityVerdict]
    report: dict


def _tog_action(ts: TreeOfGroups, action: FiniteGroupAction) -> dict[str, dict[str, str]]:
    """Permutation of T* vertices and edges induced by each group element."""
    out: dict[str, dict[str, str]] = {}
    vkeys, ekeys = ts.keys()
    for h in action.group.elements:
        phi = action.outer(h)
        m: dict[str, str] = {}
        for v, g in ts.vertex_groups.items():
            pushed = st.apply_automorphism(phi, _single(g)).keys()
            key = pushed[0] if len(pushed) == 1 else None
            hits = [v2 for v2 in ts.vertex_groups if ts.vertex_heights[v2] == ts.vertex_heights[v] and vkeys[v2] == key]
            if len(hits) != 1:
                raise InvarianceFailedError(f"element {h} does not permute the T* vertices")
            m[v] = hits[0]
        for e, g in ts.edge_groups.items():
            pushed = st.apply_automorphism(phi, _single(g)).keys()
            key = pushed[0] if len(pushed) == 1 else None
            lo = ts.edge_ends[e][0]
            hits = [
                e2
                for e2 in ts.edge_groups
                if ts.vertex_heights[ts.edge_ends[e2][0]] == ts.vertex_heights[lo] and ekeys[e2] == key
                and ts.edge_ends[e2][0] == m[lo]
            ]
            if len(hits) != 1:
                raise InvarianceFailedError(f"element {h} does not permute the T* edges")
            m[e] = hits[0]
        out[h] = m
    return out


def _orbits(names: Iterable[str], taus: dict[str, dict[str, str]], group: FiniteGroup):
    """Orbit reps with transporters: {rep: {name: transporter}}."""
    names = sorted(names)
    seen: set[str] = set()
    out: dict[str, dict[str, str]] = {}
    for n in names:
        if n in seen:
            continue
        transporters = {n: group.identity}
        queue = [n]
        while queue:
            x = queue.pop(0)
            for h in group.elements:
                y = taus[h][x]
                if y not in transporters:
                    transporters[y] = group.mult[(h, transporters[x])]
                    queue.append(y)
        seen |= set(transporters)
        out[n] = transporters
    return out


def realize_core_case(
    action: FiniteGroupAction,
    cover: IntervalCover | None = None,
    e_max: int = 6,
    rank_bound: int = 3,
) -> CoreRealization:
    """The core-graph pipeline: covers, invariant factors, trees of groups,
    finite realizations, gluing, and the final outer-action certification."""
    a = action.automaton
    depth = action.depth
    if not is_core_automaton(a):
        raise NotCoreGraphError("core pipeline needs a core ambient graph")
    if not live_states(a):
        return _realize_compact_core(action, e_max, rank_bound)
    if cover is None:
        if depth == 0:  # the default cover needs radius 1; extending keeps every class
            reps = {g: mc.extend(f, max(f.depth, 1)) for g, f in action.reps.items()}
            action, depth = FiniteGroupAction.make(action.group, reps, certify=False), 1
        cover = IntervalCover.default(depth)
    if cover.r[-1] > depth:
        raise ValueError("cover exceeds the support depth")
    if not verify_displacement_bound(action, cover.r, len(cover.intervals)):
        raise ValueError("displacement bound (*) fails for the supplied radii")

    t_star = build_tree_of_groups(a, cover, action, "T_STAR", depth)
    t = build_tree_of_groups(a, cover, action, "T", depth)
    script = fold_to_t(t_star, t)

    taus = _tog_action(t_star, action)
    group = action.group
    vertex_orbits = _orbits(t_star.vertex_groups, taus, group)
    edge_orbits = _orbits(t_star.edge_groups, taus, group)
    edge_orbit_of = {e: rep for rep, tr in edge_orbits.items() for e in tr}
    vertex_orbit_of = {v: rep for rep, tr in vertex_orbits.items() for v in tr}

    # realize edge graphs on orbit representatives
    edge_real: dict[str, RelativeRealization] = {}
    for e0 in edge_orbits:
        stab = [h for h in group.elements if taus[h][e0] == e0]
        sgroup = sub_group(group, stab)
        comp = t_star.edge_groups[e0]
        targets = {h: st.restriction_outer(comp, action.outer(h)) for h in sgroup.elements}
        edge_real[e0] = realize_relative(sgroup, targets, None, e_max=e_max, rank_bound=max(rank_bound, 1))

    # realize vertex graphs relative to their incident edge graphs
    @dataclass
    class _Piece:
        real: RelativeRealization
        stab_group: FiniteGroup
        marking: dict[str, Word]
        slots: list[tuple[str, int, int]]  # (incident edge name at rep, v_off, e_off)

    vertex_real: dict[str, _Piece] = {}
    for w0 in vertex_orbits:
        stab = [h for h in group.elements if taus[h][w0] == w0]
        sgroup = sub_group(group, stab)
        comp = t_star.vertex_groups[w0]
        base = min(comp.vertices)
        _, petals = comp.petals(base)
        marking = {name: word for _, name, word in petals}
        targets = {h: st.restriction_outer(comp, action.outer(h)) for h in sgroup.elements}
        incident = sorted(e for e, (lo, hi) in t_star.edge_ends.items() if w0 in (lo, hi))
        if not incident:
            rr = realize_relative(sgroup, targets, None, e_max=e_max, rank_bound=max(rank_bound, 1))
            vertex_real[w0] = _Piece(rr, sgroup, marking, [])
            continue
        base_edges: list = []
        v_off = 0
        slots: list[tuple[str, int, int]] = []
        factor_words: list[tuple[Word, ...]] = []
        for e in incident:
            er = edge_real[edge_orbit_of[e]]
            v0, e0 = _offset_graph(er.graph, v_off, base_edges)
            slots.append((e, v_off, e0))
            v_off = v0
            # ambient words of this edge factor in the rep marking, pushed by the transporter
            tr = edge_orbits[edge_orbit_of[e]][e]
            ecomp0 = t_star.edge_groups[edge_orbit_of[e]]
            eb = min(ecomp0.vertices)
            _, epetals = ecomp0.petals(eb)
            amb = [action.outer(tr)(word) for _, _, word in epetals]
            factor_words.append(st.rewrite_in_component(comp, amb))
        gamma0 = SymGraph(v_off, tuple(base_edges))
        g0_action: dict[str, GraphAutomorphism] = {}
        for h in sgroup.elements:
            vperm = [0] * gamma0.n_vertices
            emap: list = [None] * len(gamma0.edges)
            for (e, voff, eoff) in slots:
                e_img = taus[h][e]
                slot_img = next(s for s in slots if s[0] == e_img)
                rep = edge_orbit_of[e]
                s_in, s_out = edge_orbits[rep][e], edge_orbits[rep][e_img]
                conn = group.mult[(group.inverse(s_out), group.mult[(h, s_in)])]
                alpha = edge_real[rep].action[conn]
                er = edge_real[rep]
                for v in range(er.graph.n_vertices):
                    vperm[voff + v] = slot_img[1] + alpha.apply_vertex(v)
                for ei in range(len(er.graph.edges)):
                    ie, fl = alpha.emap[ei]
                    emap[eoff + ei] = (slot_img[2] + ie, fl)
            g0_action[h] = GraphAutomorphism(tuple(vperm), tuple(emap))
        piece = RelativePiece(gamma0, g0_action, tuple(factor_words))
        rr = realize_relative(sgroup, targets, piece, e_max=e_max, rank_bound=rank_bound)
        vertex_real[w0] = _Piece(rr, sgroup, marking, slots)

    # instantiate pieces per T* vertex and glue along edge copies
    piece_v_index: dict[tuple[str, int], int] = {}
    piece_e_index: dict[tuple[str, int], int] = {}
    uf_v = _FlipUnionFind()
    uf_e = _FlipUnionFind()
    for w in t_star.vertex_groups:
        pr = vertex_real[vertex_orbit_of[w]]
        for v in range(pr.real.graph.n_vertices):
            uf_v.find(("v", w, v))
        for e in range(len(pr.real.graph.edges)):
            uf_e.find(("e", w, e))

    def edge_slot(w: str, e: str) -> tuple[_Piece, tuple[str, int, int], str]:
        """Locate edge e's gamma0 slot inside the piece at vertex w."""
        w0 = vertex_orbit_of[w]
        pr = vertex_real[w0]
        tw = vertex_orbits[w0][w]
        e_at_rep = taus[group.inverse(tw)][e]
        slot = next(s for s in pr.slots if s[0] == e_at_rep)
        return pr, slot, e_at_rep

    for e, (lo, hi) in t_star.edge_ends.items():
        rep = edge_orbit_of[e]
        er = edge_real[rep]
        sides = []
        for w in (lo, hi):
            pr, slot, e_at_rep = edge_slot(w, e)
            emb = pr.real.embedding
            tw = vertex_orbits[vertex_orbit_of[w]][w]
            # net transporter carrying the orbit-rep edge graph onto this copy
            s_e = edge_orbits[rep][e_at_rep]
            sides.append((w, slot, emb, group.mult[(tw, s_e)]))
        (w1, slot1, emb1, tr1), (w2, slot2, emb2, tr2) = sides
        # align the two copies through the edge-orbit action of tr2^-1 * tr1
        alignment = er.action[group.mult[(group.inverse(tr2), tr1)]]
        for v in range(er.graph.n_vertices):
            x1 = emb1.vmap[slot1[1] + v]
            x2 = emb2.vmap[slot2[1] + alignment.apply_vertex(v)]
            uf_v.union(("v", w1, x1), ("v", w2, x2), 0)
        for ei in range(len(er.graph.edges)):
            e1, f1 = emb1.emap[slot1[2] + ei]
            ai, af = alignment.emap[ei]
            e2, f2 = emb2.emap[slot2[2] + ai]
            if not uf_e.union(("e", w1, e1), ("e", w2, e2), f1 ^ af ^ f2):
                raise FinalCheckFailedError("edge gluing produced inconsistent orientations")

    # also identify glued endpoints of identified edges implicitly via vertices above
    v_class: dict = {}
    for w in t_star.vertex_groups:
        pr = vertex_real[vertex_orbit_of[w]]
        for v in range(pr.real.graph.n_vertices):
            root, _ = uf_v.find(("v", w, v))
            v_class.setdefault(root, len(v_class))
    edges_out: list[tuple[int, int]] = []
    e_class: dict = {}
    labels: dict[int, Word] = {}
    for w in sorted(t_star.vertex_groups):
        pr = vertex_real[vertex_orbit_of[w]]
        tw = vertex_orbits[vertex_orbit_of[w]][w]
        g = pr.real.graph
        tree = g.spanning_tree()
        petals = g.petal_edges()
        petal_index = {e: i for i, e in enumerate(petals)}
        for e in range(len(g.edges)):
            root, f = uf_e.find(("e", w, e))
            if root in e_class:
                continue
            a_, b_ = g.edges[e]
            ra, _ = uf_v.find(("v", w, a_))
            rb, _ = uf_v.find(("v", w, b_))
            if f:
                ra, rb = rb, ra
            e_class[root] = len(edges_out)
            edges_out.append((v_class[ra], v_class[rb]))
            if e in petal_index:
                pword = pr.real.petal_words[petal_index[e]]
                word = W.reduce_word([
                    letter
                    for name, sign in pword
                    for letter in (pr.marking[name] if sign > 0 else W.inv(pr.marking[name]))
                ])
                word = action.outer(tw)(word)
            else:
                word = W.EMPTY
            labels[e_class[root]] = W.inv(word) if f else word
    y = SymGraph(len(v_class), tuple(edges_out))

    def y_vertex(w: str, v: int) -> int:
        root, _ = uf_v.find(("v", w, v))
        return v_class[root]

    def y_edge(w: str, e: int) -> tuple[int, int]:
        root, f = uf_e.find(("e", w, e))
        return e_class[root], f

    y_action: dict[str, GraphAutomorphism] = {}
    for h in group.elements:
        vperm = [None] * y.n_vertices
        emap: list = [None] * len(y.edges)
        for w in t_star.vertex_groups:
            w2 = taus[h][w]
            w0 = vertex_orbit_of[w]
            pr = vertex_real[w0]
            s = group.mult[(group.inverse(vertex_orbits[w0][w2]), group.mult[(h, vertex_orbits[w0][w])])]
            alpha = pr.real.action[s]
            for v in range(pr.real.graph.n_vertices):
                tgt = y_vertex(w2, alpha.apply_vertex(v))
                src = y_vertex(w, v)
                if vperm[src] is not None and vperm[src] != tgt:
                    raise FinalCheckFailedError(f"action of {h} is not well defined on the glued graph")
                vperm[src] = tgt
            for e in range(len(pr.real.graph.edges)):
                ie, fl = alpha.emap[e]
                src, f1 = y_edge(w, e)
                tgt, f2 = y_edge(w2, ie)
                val = (tgt, f1 ^ fl ^ f2)
                if emap[src] is not None and emap[src] != val:
                    raise FinalCheckFailedError(f"action of {h} is not edge-consistent on the glued graph")
                emap[src] = val
        y_action[h] = GraphAutomorphism(tuple(vperm), tuple(emap))

    _check_action(group, y, y_action)

    verdicts = _certify_against_ambient(action, y, y_action, labels)
    interval_ranks = {
        str(J): list(ffs_of_interval(a, cover, J, depth).ranks()) for J in cover.intervals
    }
    tree_shape = sorted((t_star.vertex_heights[v], g.rank()) for v, g in t_star.vertex_groups.items())
    report = {
        "intervals": list(cover.intervals),
        "interval_ranks": interval_ranks,
        "t_star_shape": tree_shape,
        "vertex_count": y.n_vertices,
        "edge_count": len(y.edges),
        "rank": y.rank(),
        "script_moves": [m[0] for m in script],
        "verdicts": {h: v.kind for h, v in verdicts.items()},
    }
    if not all(bool(v) for v in verdicts.values()):
        raise FinalCheckFailedError("final equivariance check failed")
    return CoreRealization(cover, depth, t_star, t, script, y, y_action, labels, verdicts, report)


def _realize_compact_core(action: FiniteGroupAction, e_max: int, rank_bound: int) -> CoreRealization:
    """Compact ambient graph: the absolute realization, no covers needed."""
    a = action.automaton
    lids = mc.ProperMapRep.identity(a, action.depth).loop_ids()
    targets = {h: action.outer(h) for h in action.group.elements}
    out = realize_relative(action.group, targets, None, e_max=e_max, rank_bound=rank_bound)
    labels: dict[int, Word] = {}
    for j, e in enumerate(out.graph.petal_edges()):
        labels[e] = W.gen(lids[j])
    verdicts = _certify_against_ambient(action, out.graph, dict(out.action), labels)
    if not all(bool(v) for v in verdicts.values()):
        raise FinalCheckFailedError("final equivariance check failed")
    report = {
        "intervals": [],
        "vertex_count": out.graph.n_vertices,
        "edge_count": len(out.graph.edges),
        "rank": out.graph.rank(),
        "script_moves": [],
        "verdicts": {h: v.kind for h, v in verdicts.items()},
    }
    return CoreRealization(None, action.depth, None, None, [], out.graph, dict(out.action), labels, verdicts, report)


def _certify_against_ambient(
    action: FiniteGroupAction,
    y: SymGraph,
    y_action: Mapping[str, GraphAutomorphism],
    labels: Mapping[int, Word],
) -> dict[str, mc.IdentityVerdict]:
    """Certify g∘h∘f∘h^-1 trivial for every h, through the label marking.

    The labels of the petal loops must form a basis of the ambient free
    group, and under that marking each realized automorphism must induce the
    ambient outer action.  The truncation is finite, with neither a live nor
    a genus frontier, so the identity criterion for the difference reduces
    to its being inner.
    """
    depth = action.depth
    loop_alphabet = mc.ProperMapRep.identity(action.automaton, depth).loop_ids()
    if len(y.petal_edges()) != len(loop_alphabet):
        raise FinalCheckFailedError("realized graph has the wrong rank")

    def label_of_path(path) -> Word:
        out: Word = W.EMPTY
        for e, direction in path:
            w_ = labels.get(e, W.EMPTY)
            out = W.mul(out, w_ if direction > 0 else W.inv(w_))
        return out

    try:
        marking = _Marking.make([label_of_path(loop) for loop in y._petal_loops], loop_alphabet)
    except st.NotAnAutomorphismError:
        raise FinalCheckFailedError("label marking is not an isomorphism onto the ambient group") from None
    verdicts = {}
    for h in action.group.elements:
        inner = st.outer_equal(marking.outer(y, y_action[h]), action.outer(h))
        verdicts[h] = mc.IdentityVerdict("certified_yes" if inner else "no", depth)
    return verdicts


# -- fixed points in finite trees -------------------------------------------------------


def fixed_point_in_finite_tree(
    vertices: Sequence,
    edges: Sequence[tuple],
    elements: Sequence[Mapping],
) -> tuple[str, object]:
    """Center of a finite tree by iterated leaf pruning; fixed by the action.

    Returns ("vertex", v) or ("edge", (u, v)); every given automorphism is
    checked to fix the result (an edge possibly by swapping its ends).
    """
    vs = set(vertices)
    es = [tuple(e) for e in edges]
    if len(es) != len(vs) - 1:
        raise ValueError("not a tree: edge count")
    edge_set = {frozenset(e) for e in es}
    for sigma in elements:
        for e in es:
            if frozenset((sigma[e[0]], sigma[e[1]])) not in edge_set:
                raise ValueError("an element is not a tree automorphism")
    cur_v = set(vs)
    cur_e = list(es)
    while len(cur_v) > 2:
        deg: dict = {v: 0 for v in cur_v}
        for u, w_ in cur_e:
            deg[u] += 1
            deg[w_] += 1
        leaves = {v for v in cur_v if deg[v] <= 1}
        cur_v -= leaves
        cur_e = [e for e in cur_e if e[0] in cur_v and e[1] in cur_v]
    if len(cur_v) == 1:
        center = ("vertex", next(iter(cur_v)))
    else:
        u, w_ = sorted(cur_v, key=repr)
        center = ("edge", (u, w_))
    for sigma in elements:
        if center[0] == "vertex":
            if sigma[center[1]] != center[1]:
                raise AssertionError("center vertex moved by the action")
        else:
            u, w_ = center[1]
            if {sigma[u], sigma[w_]} != {u, w_}:
                raise AssertionError("center edge moved by the action")
    return center


# -- Nielsen rays ---------------------------------------------------------------------


@dataclass(frozen=True)
class NielsenRay:
    beta: Path
    attachment: Path
    rho: tuple  # ("vertex", cover vertex) or ("edge", pair); cover vertex = (word, path)
    stabilizer: tuple[str, ...]

    def core_point(self):
        """Projection to the core: ("vertex", path) or ("edge", (p1, p2))."""
        if self.rho[0] == "vertex":
            return ("vertex", self.rho[1][1])
        (g1, v1), (g2, v2) = self.rho[1]
        return ("edge", tuple(sorted((v1, v2))))


def _beta_anchored_lift(action: FiniteGroupAction, h: str, anchor: Path):
    """The lift of h to the core universal cover fixing the anchored end."""
    f = action.reps[h]
    a_beta = f.accumulated_wrap(anchor)
    sub = f.substitution()

    def lift(point):
        g, v = point
        word = W.mul(W.inv(a_beta), sub(g), f.accumulated_wrap(v))
        return (word, f.vmap[v])

    return lift


def nielsen_ray(action: FiniteGroupAction, beta: Path, stabilizer: Iterable[str] | None = None) -> NielsenRay:
    """Fixed point of the end stabilizer, computed in the core universal cover.

    Lifts the stabilizer to the cover by anchoring at the given end and
    prunes the convex hull of the orbit of the attachment point to its
    center, which a finite group acting on a tree fixes (Serre, *Trees*).
    A cover point is (g, v), g a reduced word in the loop letters and v a
    core vertex.  The hull is the union of the geodesics from the
    attachment point to its orbit, so it is built exactly.
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
        stabilizer = [h for h in action.group.elements if action.reps[h].end_action[beta] == beta]
    stab = tuple(sorted(set(stabilizer)))
    loop_vertex = {mc.loop_id(v, k): v for v, k in unfold(a, depth).loop_edges}

    def tree_path(u: Path, w_: Path) -> list[Path]:
        """Core vertices from u to w_ (both included), through their common prefix."""
        k = es.common_prefix_len(u, w_)
        return [u[:i] for i in range(len(u), k, -1)] + [w_[:i] for i in range(k, len(w_) + 1)]

    z0 = (W.EMPTY, attach)
    lifts = {h: _beta_anchored_lift(action, h, beta) for h in stab}
    parent: dict = {}  # hull point -> its neighbour towards z0
    for h in stab:
        g, v = lifts[h](z0)
        # the geodesic to (g, v) walks to the vertex of each letter of g in
        # turn, crosses that loop, and ends with the walk to v
        path = [z0]
        for i in range(len(g) + 1):
            stop = loop_vertex[g[i][0]] if i < len(g) else v
            path += [(g[:i], x) for x in tree_path(path[-1][1], stop)[1:]]
            if i < len(g):
                path.append((g[: i + 1], stop))
        parent.update(zip(path[1:], path))
    hull_v = {z0, *parent}

    sigmas = []
    for h in stab:
        sigma = {x: lifts[h](x) for x in hull_v}
        if not hull_v.issuperset(sigma.values()):
            raise InvarianceFailedError(f"the lift of {h} does not map the orbit hull into itself")
        sigmas.append(sigma)
    hull_e = [(p, x) for x, p in parent.items()]
    center = fixed_point_in_finite_tree(sorted(hull_v, key=repr), hull_e, sigmas)
    return NielsenRay(beta, attach, center, stab)


# -- good partition elements and the general case -----------------------------------------


@dataclass(frozen=True)
class GoodCover:
    """Selected good orbits with equivariant attachment points."""

    blocks: tuple[tuple[int, es.ClopenSet], ...]  # (level, block)
    rho: Mapping[tuple[int, frozenset], Path]

    def block_count(self) -> int:
        return len(self.blocks)


def _block_stabilizer(action: FiniteGroupAction, block_cyls: frozenset) -> list[str]:
    out = []
    for h in action.group.elements:
        img = frozenset(action.reps[h].end_action[c] for c in block_cyls)
        if img == block_cyls:
            out.append(h)
    return out


def good_filter(
    partitions: Sequence[es.Partition],
    action: FiniteGroupAction,
    exhaustion_depths: Sequence[int] | None = None,
) -> GoodCover:
    """Select good orbits of partition elements, with attachment points.

    An element is good when it sits in DX over a single attachment point,
    its stabilizer drags all its ends by the same word (so Nielsen rays are
    permuted), and the stabilizer fixes a core point in the right component
    of the exhaustion complement.
    """
    a = action.automaton
    depth = action.depth
    reach = loop_reaching_states(a)
    live = live_states(a)
    corev = core_vertices(a, depth)
    if exhaustion_depths is None:
        exhaustion_depths = list(range(depth + 1))

    def attach_of(c: Path) -> Path:
        out = ()
        for i in range(len(c) + 1):
            if c[:i] in corev:
                out = c[:i]
        return out

    def expand(block: es.ClopenSet) -> frozenset:
        return es.expand_to_depth(a, block.cylinders, depth)

    good_orbits_per_level: list[list[frozenset]] = [[]]
    selected: list[tuple[int, es.ClopenSet]] = []
    rho: dict[tuple[int, frozenset], Path] = {}

    end_perms = {h: action.reps[h].end_action for h in action.group.elements}

    for n in range(1, len(partitions)):
        level_good: list[frozenset] = []
        seen: set[frozenset] = set()
        for block in partitions[n].blocks:
            cyls = expand(block)
            if cyls in seen:
                continue
            orbit = {frozenset(end_perms[h][c] for c in cyls) for h in action.group.elements}
            seen |= orbit
            # goodness of the orbit (checked on all members)
            def is_good(bc: frozenset) -> bool:
                for c in bc:
                    s = a.state_of(c)
                    if s in reach or s not in live:
                        return False
                attaches = {attach_of(c) for c in bc}
                if len(attaches) != 1:
                    return False
                att = next(iter(attaches))
                stab = _block_stabilizer(action, bc)
                for h in stab:
                    accs = {action.reps[h].accumulated_wrap(c) for c in bc}
                    if len(accs) != 1:
                        return False
                anchor = min(bc)
                try:
                    ray = nielsen_ray(action, anchor, stabilizer=stab)
                except InvarianceFailedError:
                    return False
                pt = ray.core_point()
                if pt[0] != "vertex":
                    return False
                fixed = pt[1]
                # exhaustion locality: attachment outside K_{i+1} forces the
                # fixed point into the same component of core minus K_i
                for i in range(len(exhaustion_depths) - 1):
                    ki1 = exhaustion_depths[i + 1]
                    ki = exhaustion_depths[i]
                    if len(att) > ki1:
                        if len(fixed) <= ki:
                            return False
                        if fixed[: ki + 1] != att[: ki + 1]:
                            return False
                rho[(n, bc)] = fixed
                return True

            if all(is_good(bc) for bc in orbit):
                level_good.extend(sorted(orbit, key=sorted))
        good_orbits_per_level.append(level_good)
        for bc in level_good:
            prev_goods = good_orbits_per_level[n - 1]
            if any(bc <= prev for prev in prev_goods):
                continue
            block = es.ClopenSet.make(bc, depth)
            selected.append((n, block))

    covered: set[Path] = set()
    for n, block in selected:
        cyls = expand(block)
        if cyls & covered:
            raise StructureViolationError("selected good orbits overlap")
        covered |= cyls
    dx_wanted = {
        c
        for c in cylinders(a, depth)
        if a.state_of(c) not in reach and a.state_of(c) in live
    }
    if not dx_wanted <= covered:
        raise NoGoodLevelError("some DX end is never covered by a good element")
    # equivariant rho on the selection
    rho_out: dict[tuple[int, frozenset], Path] = {}
    for n, block in selected:
        bc = es.expand_to_depth(a, block.cylinders, depth)
        rho_out[(n, bc)] = rho[(n, bc)]
    return GoodCover(tuple(selected), rho_out)


# -- tree pipeline --------------------------------------------------------------------


@dataclass
class TreeRealization:
    telescope: es.TelescopeTree
    action: es.TelescopeAction
    boundary: es.BoundaryCorrespondence
    report: dict


def realize_tree_case(
    a: UnfoldingAutomaton,
    action: es.FiniteCylinderGroup,
    levels: int = 4,
    eps_base=None,
) -> TreeRealization:
    """Invariant metric, refining partitions, mapping telescope, action."""
    from fractions import Fraction

    from .graph_model import genus

    if genus(a) != 0:
        raise ValueError("tree pipeline needs a loop-free ambient graph")
    depth = action.depth
    base = es.EndMetric.base(a, depth)
    avg = es.average_metric(base, action)
    eps0 = Fraction(2) if eps_base is None else Fraction(eps_base)
    if eps0 <= 0:
        raise ValueError(f"eps base must be positive, got {eps0}")
    seq = [es.Partition.trivial(a, depth, level=0)]
    for n in range(1, levels + 1):
        seq.append(es.epsilon_partition(avg, eps0 ** (1 - n), depth, level=n))
    tele = es.telescope(seq)
    tact = es.induced_telescope_action(tele, action)
    bnd = es.boundary_map(tele)
    bnd.check_equivariant(action, tact)
    report = {
        "levels": levels,
        "vertices": len(tele.vertices()),
        "edges": len(tele.edges),
        "block_counts": [len(p.blocks) for p in tele.partitions],
        "elements": list(action.names()),
    }
    return TreeRealization(tele, tact, bnd, report)


# -- general pipeline -------------------------------------------------------------------


@dataclass
class GeneralRealization:
    graph: SymGraph
    action: dict[str, GraphAutomorphism]
    core_vertex_index: Mapping[Path, int]
    telescope_vertex_index: Mapping[tuple, int]
    cover: GoodCover
    report: dict


def _check_core_simplicial(action: FiniteGroupAction):
    a = action.automaton
    corev = core_vertices(a, action.depth)
    for h in action.group.elements:
        f = action.reps[h]
        img = {f.vmap[v] for v in corev}
        if img != set(corev):
            raise ValueError(f"element {h} does not act simplicially on the core (vertices move off it)")
        for child in f.edge_wraps:
            if child in corev:
                raise ValueError(f"element {h} drags a core edge")
        for lid in f.loop_ids():
            v = mc.loop_id_vertex(lid)
            if v not in corev:
                continue
            w_ = f.loop_word(lid)
            if len(w_) != 1 or mc.loop_id_vertex(w_[0][0]) != f.vmap[v]:
                raise ValueError(f"element {h} is not simplicial on the loops")


def realize_general_case(
    action: FiniteGroupAction,
    levels: int = 3,
    e_max: int = 6,
    rank_bound: int = 3,
):
    """Dispatch to the tree or core pipeline, or re-attach telescopes.

    For a graph with both genus and free ends, the core action must already
    be simplicial; the attached trees are replaced by mapping telescopes of
    good partition elements hung at equivariant fixed points.
    """
    from fractions import Fraction

    from .graph_model import genus

    a = action.automaton
    if genus(a) == 0:
        return realize_tree_case(a, action.end_group(), levels=levels)
    if is_core_automaton(a):
        return realize_core_case(action, e_max=e_max, rank_bound=rank_bound)
    _check_core_simplicial(action)
    depth = action.depth
    base = es.EndMetric.base(a, depth)
    avg = es.average_metric(base, action.end_group())
    seq = [es.Partition.trivial(a, depth, level=0)]
    for n in range(1, levels + 1):
        seq.append(es.epsilon_partition(avg, Fraction(2) ** (1 - n), depth, level=n))
    cover = good_filter(seq, action)

    corev = sorted(core_vertices(a, depth))
    vindex = {v: i for i, v in enumerate(corev)}
    edges: list[tuple[int, int]] = []
    edge_key: dict = {}
    t = unfold(a, depth)
    for u, v in t.tree_edges:
        if u in vindex and v in vindex:
            edge_key[("tree", v)] = len(edges)
            edges.append((vindex[u], vindex[v]))
    for v, k in t.loop_edges:
        if v in vindex:
            edge_key[("loop", v, k)] = len(edges)
            edges.append((vindex[v], vindex[v]))

    # telescope vertices: (level, block-cylinder-set) below each good block
    # (a level-n block); the good block itself attaches at rho
    expanded = [[es.expand_to_depth(a, blk.cylinders, depth) for blk in p.blocks] for p in seq]
    tindex: dict[tuple, int] = {}
    for n, block in cover.blocks:
        bc = es.expand_to_depth(a, block.cylinders, depth)
        for lev in range(n + 1, levels + 1):
            for cyl in expanded[lev]:
                if not cyl <= bc:
                    continue
                tindex[(lev, cyl)] = len(corev) + len(tindex)
                parent = (lev - 1, expanded[lev - 1][seq[lev - 1].block_of(min(cyl))])
                lo = vindex[cover.rho[(n, bc)]] if parent == (n, bc) else tindex[parent]
                edge_key[("tele", lev, cyl)] = len(edges)
                edges.append((lo, tindex[(lev, cyl)]))
    nvert = len(corev) + len(tindex)

    y = SymGraph(nvert, tuple(edges))

    y_action: dict[str, GraphAutomorphism] = {}
    for h in action.group.elements:
        f = action.reps[h]
        vperm = [None] * nvert
        for v in corev:
            vperm[vindex[v]] = vindex[f.vmap[v]]
        for (lev, cyl), idx in tindex.items():
            img = frozenset(f.end_action[c] for c in cyl)
            vperm[idx] = tindex[(lev, img)]
        emap: list = [None] * len(edges)
        for key, ei in edge_key.items():
            if key[0] == "tree":
                child = key[1]
                img_child = f.vmap[child]
                emap[ei] = (edge_key[("tree", img_child)], 0)
            elif key[0] == "loop":
                _, v, k = key
                w_ = f.loop_word(mc.loop_id(v, k))
                name, sign = w_[0]
                iv = mc.loop_id_vertex(name)
                ik = int(name.rsplit(":", 1)[1])
                emap[ei] = (edge_key[("loop", iv, ik)], 0 if sign > 0 else 1)
            else:
                _, lev, cyl = key
                img = frozenset(f.end_action[c] for c in cyl)
                emap[ei] = (edge_key[("tele", lev, img)], 0)
        y_action[h] = GraphAutomorphism(tuple(vperm), tuple(emap))

    _check_action(action.group, y, y_action)
    # simplicial sanity: every edge maps onto an edge with matching endpoints
    for h, alpha in y_action.items():
        for e, (u, v) in enumerate(y.edges):
            ie, fl = alpha.emap[e]
            iu, iv = y.edges[ie]
            pair = (alpha.vperm[u], alpha.vperm[v])
            if pair != ((iu, iv) if not fl else (iv, iu)):
                raise FinalCheckFailedError(f"element {h} is not simplicial on the realized graph")

    # boundary equivariance: the leaf blocks correspond to end cylinders
    for h in action.group.elements:
        f = action.reps[h]
        for (lev, cyl), idx in tindex.items():
            img_idx = y_action[h].apply_vertex(idx)
            expect = tindex[(lev, frozenset(f.end_action[c] for c in cyl))]
            if img_idx != expect:
                raise FinalCheckFailedError("boundary correspondence is not equivariant")

    report = {
        "core_vertices": len(corev),
        "telescope_vertices": len(tindex),
        "good_blocks": [(n, sorted(path_str(c) for c in b.cylinders)) for n, b in cover.blocks],
        "rho": {str(k[0]) + ":" + "|".join(sorted(path_str(c) for c in k[1])): path_str(v) for k, v in cover.rho.items()},
        "elements": list(action.group.elements),
    }
    return GeneralRealization(y, y_action, vindex, tindex, cover, report)


# -- action files -------------------------------------------------------------------------


def parse_action_file(a: UnfoldingAutomaton, text: str, read_map_file) -> FiniteGroupAction:
    """`group <name> order <k>`, `elem <g>: mapfile=<path>`, `mult <g> <h> = <k>`."""
    elems: list[str] = []
    files: dict[str, str] = {}
    mult: dict[tuple[str, str], str] = {}
    order = None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("group"):
            parts = line.split()
            if len(parts) != 4 or parts[2] != "order" or not parts[3].isdigit():
                raise ValueError(f"line {lineno}: expected group <name> order <k>")
            order = int(parts[3])
            continue
        if line.startswith("elem"):
            rest = line[len("elem") :].strip()
            name, _, kv = rest.partition(":")
            key, _, val = kv.strip().partition("=")
            if key.strip() != "mapfile":
                raise ValueError(f"line {lineno}: expected mapfile=")
            elems.append(name.strip())
            files[name.strip()] = val.strip()
        elif line.startswith("mult"):
            rest = line[len("mult") :].strip()
            lhs, _, rhs = rest.partition("=")
            g, h = lhs.split()
            mult[(g.strip(), h.strip())] = rhs.strip()
        else:
            raise ValueError(f"line {lineno}: unknown record")
    if order is not None and order != len(elems):
        raise ValueError(f"group order {order} does not match the {len(elems)} elem lines")
    group = FiniteGroup.make(elems, mult)
    reps = {name: mc.parse_map_file(a, read_map_file(files[name])) for name in elems}
    return FiniteGroupAction.make(group, reps)
