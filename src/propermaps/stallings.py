"""Stallings graphs and free factor system arithmetic.

Subgroups of a free group are carried around as folded labeled graphs:
directed edges labeled by ambient generators, with based graphs describing
subgroups and basepoint-free core graphs describing conjugacy classes.
Free factor systems are finite lists of such core graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from . import words as W
from .words import Word


class NotAnAutomorphismError(ValueError):
    pass


Edge = tuple[int, str, int]  # (origin, label, terminus)


class _Index(NamedTuple):
    labels: tuple[str, ...]  # sorted
    out: dict[tuple[int, str], int]  # (v, label) -> terminus of a label-edge leaving v
    inn: dict[tuple[int, str], int]  # (v, label) -> origin of a label-edge entering v
    incident: dict[int, list[tuple[int, str, int]]]  # v -> (neighbour, label, sign) in sorted(edges) order


def _first_row(v: int, slots: list[int | None]) -> tuple[int, ...]:
    """Row 0 of the key encoding from v: its slot row renumbered, v first."""
    order = {v: 0}
    return tuple([-1 if t is None else order.setdefault(t, len(order)) for t in slots])


@dataclass(frozen=True)
class LabeledGraph:
    vertices: frozenset[int]
    edges: frozenset[Edge]
    basepoint: int | None = None

    @classmethod
    def make(cls, vertices: Iterable[int], edges: Iterable[Edge], basepoint: int | None = None) -> "LabeledGraph":
        vs = set(vertices)
        es = set(edges)
        for u, _, v in es:
            vs.add(u)
            vs.add(v)
        if basepoint is not None:
            vs.add(basepoint)
        return cls(frozenset(vs), frozenset(es), basepoint)

    @classmethod
    def empty(cls) -> "LabeledGraph":
        return cls(frozenset(), frozenset(), None)

    @classmethod
    def rose(cls, labels: Iterable[str], basepoint: int = 0) -> "LabeledGraph":
        return cls.make([basepoint], [(basepoint, lab, basepoint) for lab in labels], basepoint)

    @classmethod
    def from_words(cls, ws: Iterable[Sequence[tuple[str, int]]]) -> "LabeledGraph":
        """Wedge of subdivided loops spelling the given words, based at 0."""
        edges: list[Edge] = []
        nxt = 1
        for w in ws:
            w = W.reduce_word(w)
            if not w:
                continue
            prev = 0
            for i, (g, s) in enumerate(w):
                cur = 0 if i == len(w) - 1 else nxt
                if cur != 0:
                    nxt += 1
                if s > 0:
                    edges.append((prev, g, cur))
                else:
                    edges.append((cur, g, prev))
                prev = cur
        return cls.make([0], edges, 0)

    # -- basic structure ------------------------------------------------

    @cached_property
    def _index(self) -> _Index:
        """Adjacency index, built on first use.

        Cached in the instance ``__dict__``: not a field, so it stays out
        of ``__eq__`` and ``__hash__``.  ``out``/``inn`` keep the first
        edge met in ``self.edges`` for each (vertex, label); on unfolded
        graphs that fixes which edge ``step`` and the key encoding follow.
        """
        out: dict[tuple[int, str], int] = {}
        inn: dict[tuple[int, str], int] = {}
        for u, l, t in self.edges:
            out.setdefault((u, l), t)
            inn.setdefault((t, l), u)
        incident: dict[int, list[tuple[int, str, int]]] = {v: [] for v in self.vertices}
        for u, l, t in sorted(self.edges):
            incident[u].append((t, l, 1))
            incident[t].append((u, l, -1))
        labels = tuple(sorted({l for _, l, _ in self.edges}))
        return _Index(labels, out, inn, incident)

    def is_empty(self) -> bool:
        return not self.vertices

    def rank(self) -> int:
        """First Betti number of a connected graph."""
        if not self.vertices:
            return 0
        return len(self.edges) - len(self.vertices) + 1

    def component_vertex_sets(self) -> list[frozenset[int]]:
        incident = self._index.incident
        seen: set[int] = set()
        comps = []
        for v in sorted(self.vertices):
            if v in seen:
                continue
            stack, comp = [v], {v}
            while stack:
                for t, _, _ in incident[stack.pop()]:
                    if t not in comp:
                        comp.add(t)
                        stack.append(t)
            seen |= comp
            comps.append(frozenset(comp))
        return comps

    def components(self) -> list["LabeledGraph"]:
        """Connected components in order of least vertex; a connected graph is its own."""
        comps = self.component_vertex_sets()
        if len(comps) == 1:
            return [self]
        out = []
        for comp in comps:
            es = frozenset(e for e in self.edges if e[0] in comp)
            bp = self.basepoint if self.basepoint in comp else None
            out.append(LabeledGraph(comp, es, bp))
        return out

    # -- folding ---------------------------------------------------------

    def fold(self) -> "LabeledGraph":
        """Identify same-label edges at shared endpoints until folded.

        A worklist union-find.  Every merge is forced, and each class is
        named by its least vertex, so the result does not depend on the
        merge order (confluence).  A folded graph is returned as it is.
        """
        # (class root, label) -> one terminus (out) / one origin (inn) of
        # such an edge; `pending` holds the vertex pairs still to be merged
        out: dict[tuple[int, str], int] = {}
        inn: dict[tuple[int, str], int] = {}
        pending: list[tuple[int, int]] = []
        for u, l, t in self.edges:
            prev = out.setdefault((u, l), t)
            if prev != t:
                pending.append((prev, t))
            prev = inn.setdefault((t, l), u)
            if prev != u:
                pending.append((prev, u))
        if not pending:
            return self
        parent = {v: v for v in self.vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        labels = {l for _, l, _ in self.edges}
        while pending:
            a, b = pending.pop()
            ra, rb = find(a), find(b)
            if ra == rb:
                continue
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra
            for adj in (out, inn):
                for l in labels:
                    x = adj.pop((rb, l), None)
                    if x is not None:
                        prev = adj.setdefault((ra, l), x)
                        if prev != x:
                            pending.append((prev, x))
        vs = frozenset(find(v) for v in self.vertices)
        es = frozenset((find(u), l, find(v)) for u, l, v in self.edges)
        bp = find(self.basepoint) if self.basepoint is not None else None
        return LabeledGraph(vs, es, bp)

    def core(self) -> "LabeledGraph":
        """Iteratively delete valence-1 (and isolated) vertices.

        The basepoint, when present, is kept; a tree collapses to the empty
        marker (or to the bare basepoint for based graphs).
        """
        # live degree and XOR of live neighbours (a loop adds 2 and 0), so
        # a vertex left with one edge names its last neighbour
        deg = dict.fromkeys(self.vertices, 0)
        nbr_xor = dict.fromkeys(self.vertices, 0)
        for u, _, t in self.edges:
            deg[u] += 1
            deg[t] += 1
            nbr_xor[u] ^= t
            nbr_xor[t] ^= u
        stack = [v for v, d in deg.items() if d <= 1 and v != self.basepoint]
        gone: set[int] = set()
        while stack:
            v = stack.pop()
            if v in gone:
                continue
            gone.add(v)
            if deg[v] == 1:
                t = nbr_xor[v]
                deg[t] -= 1
                nbr_xor[t] ^= v
                if deg[t] <= 1 and t != self.basepoint:
                    stack.append(t)
        if not gone:
            return self
        es = frozenset(e for e in self.edges if e[0] not in gone and e[2] not in gone)
        if not es and self.basepoint is None:
            return LabeledGraph.empty()
        if not es and self.basepoint is not None:
            return LabeledGraph(frozenset([self.basepoint]), frozenset(), self.basepoint)
        return LabeledGraph(self.vertices - gone, es, self.basepoint)

    # -- canonical form ---------------------------------------------------

    def _slot_table(self) -> tuple[dict[int, list[int | None]], dict[int, int]]:
        """Each vertex's neighbour in every (label, direction) slot of a key
        row, and the index of its first filled slot (the row length if none).

        Slots run over the sorted labels, "+" (out) before "-" (in) for
        each; None marks an empty slot.  One pass over ``self.edges``: the
        first edge met fills a slot, as in ``_index``.
        """
        labels = self._index.labels
        slot = {lab: 2 * i for i, lab in enumerate(labels)}
        table = {v: [None] * (2 * len(labels)) for v in self.vertices}
        first = dict.fromkeys(self.vertices, 2 * len(labels))
        for u, l, t in self.edges:
            i = slot[l]
            row = table[u]
            if row[i] is None:
                row[i] = t
                if i < first[u]:
                    first[u] = i
            row = table[t]
            if row[i + 1] is None:
                row[i + 1] = u
                if i + 1 < first[t]:
                    first[t] = i + 1
        return table, first

    def _encode_from(self, start: int, table: dict[int, list[int | None]], best: tuple | None = None) -> tuple | None:
        """BFS encoding from a start vertex; deterministic on folded graphs.

        One row per vertex in BFS order: the BFS number of the neighbour in
        each slot of `table`, or -1.  Returns None when the walk misses a
        vertex (disconnected), and, given the least encoding `best` found
        so far, as soon as a row compares greater than the row of `best`
        at the same position.
        """
        order = {start: 0}
        queue = [start]
        rows = []
        for v in queue:  # the queue grows while it is walked
            row = []
            for t in table[v]:
                if t is None:
                    row.append(-1)
                    continue
                i = order.get(t)
                if i is None:
                    i = order[t] = len(order)
                    queue.append(t)
                row.append(i)
            row = tuple(row)
            if best is not None:
                if row > best[len(rows)]:
                    return None
                if row < best[len(rows)]:
                    best = None
            rows.append(row)
        if len(order) != len(self.vertices):
            return None  # disconnected
        return tuple(rows)

    def canonical_key(self) -> tuple:
        """Canonical encoding of a connected folded graph.

        Based graphs are encoded from the basepoint; otherwise the least
        encoding over all start vertices is taken.  Equal keys mean equal
        subgroups (based) or conjugate subgroups (basepoint-free).  The key
        spells each row entry as (label, direction, number).

        Row 0 of the encoding from v is v's own slot row renumbered (v is
        0, its other neighbours 1, 2, ... in order of first occurrence); it
        is -1 up to v's first filled slot, so the least one belongs to a
        start whose first filled slot comes latest.  Those starts are tried
        in order of first row.  Connected encodings all have one row per
        vertex: an encoding is abandoned at its first row above the least
        one so far, and the search stops at the first start whose first row
        is above that of the least connected encoding.  On an unfolded graph
        a walk can miss vertices; if no latest-filled start reaches them
        all, the other starts are tried in order of first row until one does.
        """
        if not self.vertices:
            return ()
        table, first = self._slot_table()
        if self.basepoint is not None:
            rows = self._encode_from(self.basepoint, table)
        else:
            rows = None
            latest = max(first.values())
            for starts in ((v for v in table if first[v] == latest), (v for v in table if first[v] != latest)):
                for row0, v in sorted((_first_row(v, table[v]), v) for v in starts):
                    if rows is not None and row0 > rows[0]:
                        break
                    enc = self._encode_from(v, table, rows)
                    if enc is not None:
                        rows = enc
                if rows is not None:
                    break
        if rows is None:
            raise ValueError("canonical_key requires a connected graph")
        labels = self._index.labels
        heads = tuple(lab for lab in labels for _ in "+-")
        directions = "+-" * len(labels)
        return tuple(tuple(zip(heads, directions, row)) for row in rows)

    # -- paths and membership ----------------------------------------------

    def step(self, v: int, gen: str, sign: int) -> int | None:
        idx = self._index
        return (idx.out if sign > 0 else idx.inn).get((v, gen))

    def trace(self, word: Sequence[tuple[str, int]], start: int) -> int | None:
        idx = self._index
        v = start
        for g, s in word:
            v = (idx.out if s > 0 else idx.inn).get((v, g))
            if v is None:
                return None
        return v

    def reads(self, word: Sequence[tuple[str, int]]) -> bool:
        """Membership of a word in the subgroup of a based folded graph."""
        if self.basepoint is None:
            raise ValueError("reads() needs a basepoint")
        return self.trace(W.reduce_word(word), self.basepoint) == self.basepoint

    def spanning_tree(self, base: int) -> dict[int, tuple[int, str, int, int]]:
        """BFS tree as {vertex: (parent, label, sign, depth)}; base maps to itself."""
        incident = self._index.incident
        tree: dict[int, tuple[int, str, int, int]] = {base: (base, "", 0, 0)}
        queue = [base]
        for v in queue:  # the queue grows while it is walked
            for t, l, s in incident[v]:
                if t not in tree:
                    tree[t] = (v, l, s, tree[v][3] + 1)
                    queue.append(t)
        return tree

    def tree_path_word(self, tree, src: int, dst: int) -> Word:
        """Word read along the spanning-tree path from src to dst."""

        def to_base(x):
            out = []
            while tree[x][0] != x:
                p, l, s, _ = tree[x]
                out.append((l, -s))
                x = p
            return out  # word from x up to base

        up = to_base(src)
        down = to_base(dst)
        return W.reduce_word(up + [(g, -s) for g, s in reversed(down)])

    @cached_property
    def petals(self):
        """Non-tree edges with their ambient petal words, based at min(vertices).

        (tree, [(edge, name, ambient_word), ...]) with deterministic petal
        names p0, p1, ...  Computed once and kept in the instance ``__dict__``
        (as ``_index`` is); callers must not mutate it.
        """
        base = min(self.vertices)
        tree = self.spanning_tree(base)
        tree_edges = set()
        for v, (p, l, s, _) in tree.items():
            if p == v:
                continue
            tree_edges.add((p, l, v) if s > 0 else (v, l, p))
        out = []
        for e in sorted(self.edges - frozenset(tree_edges)):
            u, l, v = e
            word = W.mul(self.tree_path_word(tree, base, u), ((l, 1),), self.tree_path_word(tree, v, base))
            out.append((e, f"p{len(out)}", word))
        return tree, out

    # -- morphisms ----------------------------------------------------------

    def immersions_into(self, other: "LabeledGraph"):
        """All label-preserving morphisms into a folded target.

        Folded targets make propagation deterministic, so a morphism is
        determined by the image of one vertex.  Yields {vertex: image} maps.
        """
        if self.is_empty():
            yield {}
            return
        incident = self._index.incident
        _, out, inn, _ = other._index
        v0 = min(self.vertices)
        for w0 in sorted(other.vertices):
            fmap = {v0: w0}
            queue = [v0]
            ok = True
            for v in queue:  # the queue grows while it is walked
                for nbr, lab, sgn in incident[v]:
                    img = (out if sgn > 0 else inn).get((fmap[v], lab))
                    if img is None or fmap.get(nbr, img) != img:
                        ok = False
                        break
                    if nbr not in fmap:
                        fmap[nbr] = img
                        queue.append(nbr)
                if not ok:
                    break
            if ok and len(fmap) == len(self.vertices):
                # every edge must be consistent, re-check globally
                if all(out.get((fmap[u], l)) == fmap[t] for u, l, t in self.edges):
                    yield dict(fmap)

    def immerses_into(self, other: "LabeledGraph") -> bool:
        for _ in self.immersions_into(other):
            return True
        return False


def _arc(incident, feedback, l: str, s: int, t: int) -> list[tuple[str, int, int]] | None:
    """The (label, sign, vertex) steps from a feedback vertex out along slot
    (l, s) to t and on through the degree-2 vertices to the next feedback
    vertex; None at a dead end."""
    steps = [(l, s, t)]
    while t not in feedback:
        for t2, l2, s2 in incident[t]:
            if l2 != l or s2 != -s:
                break
        else:
            return None
        t, l, s = t2, l2, s2
        steps.append((l, s, t))
    return steps


def _first_use(pair: tuple[int, int], incident1, out2, inn2) -> tuple:
    """Least (g2 edge, g1 edge, 0 at the origin or 1 at the terminus) over
    the product edges at a pair."""
    x1, x2 = pair
    best = None
    for t1, l, s in incident1[x1]:
        t2 = (out2 if s > 0 else inn2).get((x2, l))
        if t2 is not None:
            key = ((x2, l, t2), (x1, l, t1), 0) if s > 0 else ((t2, l, x2), (t1, l, x1), 1)
            if best is None or key < best:
                best = key
    return best


def pullback(g1: LabeledGraph, g2: LabeledGraph) -> LabeledGraph:
    """Core of the fiber product over the rose of two folded graphs.

    g1 must be connected; basepoints are ignored and the result is
    basepoint-free.  Only the core is built, never the product's hair.
    Every reduced cycle of the product projects to a reduced cycle of
    g1, and that meets the feedback set F1: the vertices of degree >= 3,
    or the least vertex when g1 is a circle.  Off F1, g1 has degree 2,
    so from a seed -- a pair (b, v2), b in F1, sharing at least two
    (label, direction) slots -- each shared slot starts a forced walk
    along the arc of g1 it leaves by.  A walk is live when it ends at a
    seed.  Seeds with at most one live walk are peeled on a worklist;
    the core is the surviving seeds and the live walks between them.

    The pairs are numbered in the order in which the full product, read
    off sorted(g2.edges) against the same-label edges of sorted(g1.edges),
    first uses them: by the least (g2 edge, g1 edge, 0 at the origin or 1
    at the terminus) over the pair's product edges.  Edge tuples compare
    as their sorted positions do, so nothing is sorted for this.  The
    core's numbers keep the relative order of the full product's.
    """
    incident1 = g1._index.incident
    _, out2, inn2, _ = g2._index
    # F1; a circle has no vertex of degree >= 3 and takes its least vertex
    feedback = {v for v, inc in incident1.items() if len(inc) >= 3} or set(sorted(g1.vertices)[:1])

    # g2 vertices filling each (label, sign) slot, then the seeds
    filled: dict[tuple[str, int], set[int]] = {}
    for v, l in out2:
        filled.setdefault((l, 1), set()).add(v)
    for v, l in inn2:
        filled.setdefault((l, -1), set()).add(v)
    degree = {}  # seed -> live walks at it
    for b in feedback:
        once, twice = set(), set()
        for _, l, s in incident1[b]:
            there = filled.get((l, s))
            if there:
                twice |= once & there
                once |= there
        for v2 in twice:
            degree[(b, v2)] = 0

    # walk each shared slot of each seed; a live walk is found from one
    # end and filed under both
    walks = []  # (seed, far seed, steps, g2 vertices along the steps)
    ends: dict[tuple[int, int], list[tuple[int, int]]] = {}  # seed -> far seed of each live walk
    walked = set()  # (seed, label, sign) of live walks already found from the far end
    arcs = {}
    for seed in degree:
        b, v2 = seed
        for t, l, s in incident1[b]:
            if (v2, l) not in (out2 if s > 0 else inn2) or (seed, l, s) in walked:
                continue
            if (b, l, s) not in arcs:
                arcs[(b, l, s)] = _arc(incident1, feedback, l, s, t)
            steps = arcs[(b, l, s)]
            if steps is None:
                continue
            v = v2
            trail = []
            for l2, s2, _ in steps:
                v = (out2 if s2 > 0 else inn2).get((v, l2))
                if v is None:
                    break
                trail.append(v)
            else:
                l2, s2, x1 = steps[-1]
                far = (x1, v)
                if far in degree:
                    walked.add((far, l2, -s2))
                    walks.append((seed, far, steps, trail))
                    for x, y in ((seed, far), (far, seed)):
                        ends.setdefault(x, []).append(y)
                        degree[x] += 1

    # peel the seeds left with at most one live walk
    gone = set()
    stack = [seed for seed, d in degree.items() if d <= 1]
    while stack:
        seed = stack.pop()
        if seed not in gone:
            gone.add(seed)
            for far in ends.get(seed, ()):
                if far not in gone:
                    degree[far] -= 1
                    if degree[far] <= 1:
                        stack.append(far)

    pairs = [seed for seed in degree if seed not in gone]
    edges = []
    for seed, far, steps, trail in walks:
        if seed in gone or far in gone:
            continue
        prev = seed
        for (l, s, x1), x2 in zip(steps, trail):
            cur = (x1, x2)
            edges.append((prev, l, cur) if s > 0 else (cur, l, prev))
            prev = cur
        pairs.extend(zip([x1 for _, _, x1 in steps[:-1]], trail))
    pairs.sort(key=lambda pair: _first_use(pair, incident1, out2, inn2))
    number = {pair: i for i, pair in enumerate(pairs)}
    return LabeledGraph(frozenset(number.values()), frozenset((number[u], l, number[t]) for u, l, t in edges), None)


def subgroup_graph(generators: Iterable[Word]) -> LabeledGraph:
    """Based folded core graph (Stallings graph) of the generated subgroup."""
    return LabeledGraph.from_words(generators).fold().core()


# -- free factor systems ----------------------------------------------------


@dataclass(frozen=True)
class FreeFactorSystem:
    """Conjugacy classes of free factors as canonical basepoint-free cores."""

    components: tuple[LabeledGraph, ...]

    @classmethod
    def from_graphs(cls, graphs: Iterable[LabeledGraph]) -> "FreeFactorSystem":
        comps = [c for g in graphs for c in _core_pieces(g)]
        comps.sort(key=lambda c: c.canonical_key())
        return cls(tuple(comps))

    @classmethod
    def _keyed(cls, pieces: list[tuple[tuple, LabeledGraph]]) -> "FreeFactorSystem":
        """The system of (key, component) pairs sorted by key; it keeps the keys."""
        f = cls(tuple(c for _, c in pieces))
        f.__dict__["_keys"] = tuple(k for k, _ in pieces)
        return f

    @classmethod
    def from_generator_lists(cls, lists: Iterable[Iterable[Word]]) -> "FreeFactorSystem":
        return cls.from_graphs(LabeledGraph.from_words(ws) for ws in lists)

    def ranks(self) -> tuple[int, ...]:
        return tuple(c.rank() for c in self.components)

    def keys(self) -> tuple[tuple, ...]:
        keys = self.__dict__.get("_keys")
        return keys if keys is not None else tuple(c.canonical_key() for c in self.components)

    def __eq__(self, other) -> bool:
        return isinstance(other, FreeFactorSystem) and self.keys() == other.keys()

    def __hash__(self):
        return hash(self.keys())

    def is_empty(self) -> bool:
        return not self.components


def _core_pieces(g: LabeledGraph) -> list[LabeledGraph]:
    """Components of the basepoint-free folded core of g; none for a tree."""
    g = g.fold()
    if g.basepoint is not None:
        g = LabeledGraph(g.vertices, g.edges, None)
    g = g.core()
    return [] if g.is_empty() else g.components()


def intersect_ffs(f1: FreeFactorSystem, f2: FreeFactorSystem) -> FreeFactorSystem:
    """The system of the pullback cores of each pair of components.

    Each ``pullback`` is already a folded core, seeded from the feedback
    set of the f1 component, so it is only split into its components,
    which are sorted by key as ``from_graphs`` sorts them.  Contractible
    pieces come back empty and have no components.
    """
    comps = [c for c1 in f1.components for c2 in f2.components for c in pullback(c1, c2).components()]
    comps.sort(key=LabeledGraph.canonical_key)
    return FreeFactorSystem(tuple(comps))


def contained_in(f: FreeFactorSystem, fprime: FreeFactorSystem) -> bool:
    """Whether each component conjugates into some component of fprime."""
    for c in f.components:
        if not any(c.immerses_into(d) for d in fprime.components):
            return False
    return True


# -- automorphisms ------------------------------------------------------------


@dataclass(frozen=True)
class FreeGroupAutomorphism:
    basis: tuple[str, ...]
    images: dict[str, Word]

    @classmethod
    def from_images(cls, basis: Sequence[str], images: dict[str, Word]) -> "FreeGroupAutomorphism":
        imgs = {x: W.reduce_word(images.get(x, W.gen(x))) for x in basis}
        return cls(tuple(basis), imgs)

    @classmethod
    def identity(cls, basis: Sequence[str]) -> "FreeGroupAutomorphism":
        return cls(tuple(basis), {x: W.gen(x) for x in basis})

    @classmethod
    def inner(cls, basis: Sequence[str], w: Word) -> "FreeGroupAutomorphism":
        return cls(tuple(basis), {x: W.conjugate(W.gen(x), w) for x in basis})

    def __call__(self, word: Sequence[tuple[str, int]]) -> Word:
        return W.substitute(word, self.images)

    def compose(self, other: "FreeGroupAutomorphism") -> "FreeGroupAutomorphism":
        """self after other (self ∘ other)."""
        return FreeGroupAutomorphism(self.basis, {x: self(other.images[x]) for x in self.basis})

    def tuple_images(self) -> tuple[Word, ...]:
        return tuple(self.images[x] for x in self.basis)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FreeGroupAutomorphism):
            return NotImplemented
        return self.basis == other.basis and self.tuple_images() == other.tuple_images()

    def __hash__(self) -> int:
        return hash((self.basis, self.tuple_images()))

    def is_identity(self) -> bool:
        return all(self.images[x] == W.gen(x) for x in self.basis)

    def is_automorphism(self) -> bool:
        """Whether the images form a basis; folded once per instance
        (``_inverse_images``)."""
        return self._inverse_images is not None

    @cached_property
    def _inverse_images(self) -> tuple[Word, ...] | None:
        return _fold_inverse(self.basis, self.tuple_images())

    def inverse(self) -> "FreeGroupAutomorphism":
        """The inverse read off the tracked fold of the images (``_fold_inverse``)."""
        inv_images = self._inverse_images
        if inv_images is None:
            raise NotAnAutomorphismError(f"{self.images} is not an automorphism")
        cand = FreeGroupAutomorphism(self.basis, dict(zip(self.basis, inv_images)))
        check = self.compose(cand)
        if not check.is_identity():
            raise NotAnAutomorphismError(f"inversion failed for {self.images}")
        return cand


def _fold_inverse(basis: Sequence[str], images: Sequence[Word]) -> tuple[Word, ...] | None:
    """phi^-1 on the basis, for phi: basis[i] -> images[i], or None when the
    images are no basis.

    Folds the wedge of the images based at 0, each edge carrying a word over
    the basis such that every loop at 0 spells the phi-image of its word:
    the closing edge of image i carries basis[i], every other edge nothing.
    Two edges at u with one label and direction fold into the first; its far
    end is kept and the other far end d is dropped, re-gauged by
    c = a_keep^-1 a_drop (a: the word read from u): edges leaving d get c on
    the left and edges entering d get c^-1 on the right, so every loop at 0
    keeps its word.  0 is never dropped.  A fold whose far ends coincide
    lowers the rank, which no basis allows.  The images are a basis exactly
    when the folded graph is the rose on the basis, and its loop x then
    carries phi^-1(x) (Stallings 1983; Kapovich-Myasnikov 2002).
    """
    edges: dict[int, list] = {}  # edge -> [origin, label, terminus, word]
    incident: dict[int, set[int]] = {0: set()}
    for x, image in zip(basis, images):
        image = W.reduce_word(image)
        if not image:
            return None
        prev = 0
        for k, (label, sign) in enumerate(image):
            nxt, word = (0, W.gen(x)) if k == len(image) - 1 else (len(incident), W.EMPTY)
            incident.setdefault(nxt, set())
            e = len(edges)
            edges[e] = [prev, label, nxt, word] if sign > 0 else [nxt, label, prev, W.inv(word)]
            incident[prev].add(e)
            incident[nxt].add(e)
            prev = nxt

    def twin_darts(u):
        """Two edges leaving u by one label and direction, as (edge, far end, word read from u)."""
        first = {}
        for e in incident[u]:
            origin, label, terminus, word = edges[e]
            darts = ((origin, (label, 1), terminus, word), (terminus, (label, -1), origin, W.inv(word)))
            for start, key, far, a in darts:
                if start != u:
                    continue
                if key in first:
                    return first[key], (e, far, a)
                first[key] = (e, far, a)
        return None

    todo = list(incident)
    while todo:
        u = todo[-1]
        twins = twin_darts(u) if u in incident else None
        if twins is None:
            todo.pop()
            continue
        if twins[1][1] == 0:
            twins = twins[::-1]
        (_, keep, a_keep), (e_drop, drop, a_drop) = twins
        if keep == drop:
            return None
        c = W.mul(W.inv(a_keep), a_drop)
        c_inv = W.inv(c)
        del edges[e_drop]
        incident[u].discard(e_drop)
        incident[drop].discard(e_drop)
        for e in incident.pop(drop):
            edge = edges[e]
            if edge[0] == drop:
                edge[0], edge[3] = keep, W.mul(c, edge[3])
            if edge[2] == drop:
                edge[2], edge[3] = keep, W.mul(edge[3], c_inv)
            incident[keep].add(e)
        todo.append(keep)
    loops = {label: word for _, label, _, word in edges.values()}
    if len(incident) != 1 or len(edges) != len(basis) or set(loops) != set(basis):
        return None
    return tuple(loops[x] for x in basis)


def outer_conjugator(phi: FreeGroupAutomorphism, psi: FreeGroupAutomorphism) -> Word | None:
    """Witness w with phi(x) = w psi(x) w^-1 for all basis x, or None.

    psi must be an automorphism: in rank >= 2 its images then have trivial
    centralizer, so the witness is unique and the order of the scan does not
    matter.  Equal images give the empty word.  Otherwise the candidates form
    the coset u C(psi(x1)) = u <c>, c the root of psi(x1) (no proper power as
    an automorphism image), so they hold at x1; the exponent is bounded
    because excess c-powers only lengthen the other images, and k runs
    0, 1, -1, 2, -2, ... .
    """
    basis = phi.basis
    if set(basis) != set(psi.basis):
        raise ValueError("automorphisms over different bases")
    if all(phi.images[x] == psi.images[x] for x in basis):
        return W.EMPTY
    if len(basis) == 1:
        return None
    x1, rest = basis[0], basis[1:]
    u = W.conjugator(phi.images[x1], psi.images[x1])
    if u is None:
        return None
    c1, p = W.cyclic_reduce(psi.images[x1])
    c = W.conjugate(W.root_of(c1)[0], p)
    c_inv = W.inv(c)
    maxlen = max(max(len(phi.images[x]), len(psi.images[x])) for x in basis)
    bound = len(u) + maxlen + 2
    up = down = u  # u c^k and u c^-k
    for k in range(bound + 1):
        for w in (up, down) if k else (u,):
            w_inv = W.inv(w)
            if all(phi.images[x] == W.mul(w, psi.images[x], w_inv) for x in rest):
                return w
        up, down = W.mul(up, c), W.mul(down, c_inv)
    return None


def is_inner(rho: FreeGroupAutomorphism) -> Word | None:
    """Witness w with rho(x) = w x w^-1 for all basis x, or None."""
    return outer_conjugator(rho, FreeGroupAutomorphism.identity(rho.basis))


def outer_equal(phi: FreeGroupAutomorphism, psi: FreeGroupAutomorphism) -> bool:
    """Whether phi and psi agree in Out, i.e. is_inner(phi ∘ psi^-1)."""
    return outer_conjugator(phi, psi) is not None


def apply_automorphism(phi: FreeGroupAutomorphism, f: FreeFactorSystem) -> FreeFactorSystem:
    """Pushforward of a free factor system: map generators, refold, re-core.

    Each component is pushed and keyed once per automorphism instance: its
    (key, piece) pairs are kept in ``phi.__dict__``, and the pushed system
    carries the keys into ``keys()`` and ``==``.
    """
    if not phi.is_automorphism():
        raise NotAnAutomorphismError(f"{phi.images} is not an automorphism")
    pushed = phi.__dict__.setdefault("_pushed", {})
    pieces = []
    for comp in f.components:
        if comp not in pushed:
            pushed[comp] = _push_component(phi, comp)
        pieces.extend(pushed[comp])
    pieces.sort(key=lambda piece: piece[0])  # stable, as in from_graphs
    return FreeFactorSystem._keyed(pieces)


def _push_component(phi: FreeGroupAutomorphism, comp: LabeledGraph) -> tuple[tuple[tuple, LabeledGraph], ...]:
    """(key, piece) for each core piece of phi_*(comp), in ``from_graphs`` order."""
    _, petals = comp.petals
    image = LabeledGraph.from_words([phi(word) for _, _, word in petals])
    return tuple((c.canonical_key(), c) for c in _core_pieces(image))


def rewrite_in_component(comp: LabeledGraph, words: Sequence[Word], onto: bool = False) -> tuple[Word, ...]:
    """Rewrite generators of a subgroup conjugate into `comp` over its petal basis.

    The walk from the basepoint of the subgroup's Stallings graph takes the
    first unvisited neighbour until it reaches the core; the core is mapped
    into `comp` by its first immersion (with `onto`, the first one that
    reaches every vertex of `comp`).  Each word, conjugated along the walk
    and the tree path to the image of its end, is read as a loop at
    min(comp.vertices) and spelled in the petals p0, p1, ... there.
    """
    k = subgroup_graph(words)
    c0 = LabeledGraph(k.vertices, k.edges, None).core()
    incident = k._index.incident
    v = k.basepoint
    tail: list[tuple[str, int]] = []
    visited = {v}
    while v not in c0.vertices:
        nxt = next(((t, l, s) for t, l, s in incident[v] if t not in visited), None)
        if nxt is None:
            raise ValueError("no route from the basepoint into the core")
        v, lab, sgn = nxt
        tail.append((lab, sgn))
        visited.add(v)
    uw = tuple(tail)
    immersions = c0.immersions_into(comp)
    if onto:
        immersions = (m for m in immersions if len(set(m.values())) == len(comp.vertices))
    morph = next(immersions, None)
    if morph is None:
        raise ValueError("the subgroup core does not " + ("map onto" if onto else "immerse into") + " the component")
    base = min(comp.vertices)
    tree, petals = comp.petals
    petal_of = {e: name for e, name, _ in petals}
    q = comp.tree_path_word(tree, base, morph[v])
    _, out, inn, _ = comp._index

    def spell(loop: Word) -> Word | None:
        v = base
        spelled: list[tuple[str, int]] = []
        for g, s in loop:
            nxt = (out if s > 0 else inn).get((v, g))
            if nxt is None:
                return None
            e = (v, g, nxt) if s > 0 else (nxt, g, v)
            if e in petal_of:
                spelled.append((petal_of[e], s))
            v = nxt
        return W.reduce_word(spelled) if v == base else None

    rewritten = []
    for word in words:
        spelled = spell(W.mul(q, W.inv(uw), word, uw, W.inv(q)))
        if spelled is None:
            raise ValueError("word does not read inside the component")
        rewritten.append(spelled)
    return tuple(rewritten)


def restriction_outer(comp: LabeledGraph, phi: FreeGroupAutomorphism) -> FreeGroupAutomorphism:
    """Outer action induced by phi on an invariant component.

    Requires phi to carry the component's conjugacy class to itself; the
    result is an automorphism of the free group on the component's petal
    basis p0, p1, ..., well defined up to inner.
    """
    _, petals = comp.petals
    names = tuple(name for _, name, _ in petals)
    images = rewrite_in_component(comp, [phi(word) for _, _, word in petals], onto=True)
    return FreeGroupAutomorphism(names, dict(zip(names, images)))


# -- file formats ---------------------------------------------------------------


def _word_on_line(lineno: int, line: str) -> Word:
    """The word on a file line; a bad word's error names the line."""
    try:
        return W.word_from_str(line)
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None


def parse_ffs_file(text: str) -> FreeFactorSystem:
    """Components separated by `---` lines, one generator word per line."""
    chunks: list[list[Word]] = [[]]
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("---"):
            chunks.append([])
            continue
        chunks[-1].append(_word_on_line(lineno, line))
    return FreeFactorSystem.from_generator_lists([c for c in chunks if c])


def format_ffs(f: FreeFactorSystem) -> str:
    parts = []
    for comp in f.components:
        _, petals = comp.petals
        parts.append("\n".join(W.word_to_str(word) for _, _, word in petals))
    return "\n---\n".join(parts) + ("\n" if parts else "")
