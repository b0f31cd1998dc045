"""Finite descriptions of locally finite tree-with-loops graphs.

An UnfoldingAutomaton generates a rooted tree with one-edge loops attached
at vertices: vertices of the graph are the finite child-index paths of the
automaton, and a vertex instantiated from state ``s`` carries ``loops(s)``
loops.  All classification data (core, genus, end spaces, characteristic
pairs) is computed from the finite automaton.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from dataclasses import dataclass
from typing import Collection, Iterable, Mapping

INFINITY = float("inf")

Path = tuple[int, ...]


class UnsupportedPairError(ValueError):
    pass


@dataclass(frozen=True)
class UnfoldingAutomaton:
    root: str
    children: Mapping[str, tuple[str, ...]]
    loops: Mapping[str, int]

    @classmethod
    def make(cls, root: str, children: Mapping[str, Iterable[str]], loops: Mapping[str, int] | None = None) -> "UnfoldingAutomaton":
        ch = {s: tuple(cs) for s, cs in children.items()}
        lp = dict(loops or {})
        for s in ch:
            lp.setdefault(s, 0)
        for s, cs in ch.items():
            for c in cs:
                if c not in ch:
                    raise ValueError(f"unknown child state {c!r} of {s!r}")
        if root not in ch:
            raise ValueError(f"unknown root state {root!r}")
        for s, n in lp.items():
            if n < 0:
                raise ValueError(f"negative loop count at {s!r}")
        a = cls(root, ch, lp)
        reach = a.reachable_states()
        if reach != set(ch):
            extra = set(ch) - reach
            raise ValueError(f"states not reachable from root: {sorted(extra)}")
        return a

    @property
    def states(self) -> tuple[str, ...]:
        return tuple(sorted(self.children))

    def reachable_states(self) -> set[str]:
        return set(_reachable_from(self.children, [self.root]))

    def state_of(self, path: Path) -> str:
        s = self.root
        for i in path:
            s = self.children[s][i]
        return s

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, UnfoldingAutomaton)
            and self.root == other.root
            and dict(self.children) == dict(other.children)
            and {s: self.loops[s] for s in self.children} == {s: other.loops[s] for s in other.children}
        )

    def __hash__(self):
        return hash((self.root, tuple(sorted((s, cs) for s, cs in self.children.items()))))


def path_str(path: Path) -> str:
    return "." if not path else "/".join(str(i) for i in path)


def parse_path(text: str) -> Path:
    text = text.strip()
    if text in (".", ""):
        return ()
    return tuple(int(p) for p in text.split("/"))


def _once_per_automaton(fn):
    """Compute ``fn(a, *args)`` once per automaton instance.

    The result is kept in the frozen instance's ``__dict__`` (as
    ``LabeledGraph._index`` is), so it lives exactly as long as the automaton.
    Every caller gets the same object, so callers must not mutate it.
    """

    @functools.wraps(fn)
    def once(a, *args):
        memo = a.__dict__.setdefault("_memo", {})
        key = (fn.__name__, *args)
        if key not in memo:
            memo[key] = fn(a, *args)
        return memo[key]

    return once


@_once_per_automaton
def bisimulation_classes(a: UnfoldingAutomaton) -> dict[str, int]:
    """Partition of states by unfolding behavior (loops and child structure).

    Two states in the same class generate identical rooted subtrees, so a
    map may carry one onto the other canonically.
    """
    cls = {s: 0 for s in a.children}
    while True:
        sig = {s: (a.loops[s], cls[s], tuple(cls[c] for c in a.children[s])) for s in a.children}
        order = {v: i for i, v in enumerate(sorted(set(sig.values())))}
        new_cls = {s: order[sig[s]] for s in a.children}
        if new_cls == cls:
            return cls
        cls = new_cls


# -- truncations -------------------------------------------------------------


@dataclass(frozen=True)
class GraphTruncation:
    """A depth-``depth`` truncation, made by ``unfold`` and kept in its automaton's memo.

    It is the one index of the whole rooted tree: ``state`` names every
    vertex's state, and ``frontier`` is its depth-``depth`` part.  Both list
    their vertices level by level, each level in path order.  Readers of a
    few named vertices walk the automaton instead (``NameIndex``).
    """

    depth: int
    vertices: tuple[Path, ...]
    tree_edges: tuple[tuple[Path, Path], ...]
    loop_edges: tuple[tuple[Path, int], ...]
    state: Mapping[Path, str]
    frontier: Mapping[Path, str]
    loop_ids: tuple[str, ...]  # "<path>:<k>" per loop edge, in sorted loop-edge order
    loop_at: Mapping[str, tuple[Path, int]]  # loop id -> (vertex, k)
    loop_name: Mapping[tuple[Path, int], str]  # (vertex, k) -> loop id


@_once_per_automaton
def unfold(a: UnfoldingAutomaton, depth: int) -> GraphTruncation:
    """Materialize the generated graph down to the given depth."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    state: dict[Path, str] = {}
    tree_edges: list[tuple[Path, Path]] = []
    loop_edges: list[tuple[Path, int]] = []
    lids: list[str] = []  # the id of each loop edge, in loop_edges order
    frontier: dict[Path, str] = {}
    level: list[tuple[Path, str, str]] = [((), a.root, ".")]
    for d in range(depth + 1):
        nxt: list[tuple[Path, str, str]] = []
        for v, s, name in level:
            state[v] = s
            for k in range(a.loops[s]):
                loop_edges.append((v, k))
                lids.append(f"{name}:{k}")
            if d == depth:
                frontier[v] = s
            else:
                prefix = name + "/" if v else ""
                for i, c in enumerate(a.children[s]):
                    w, wname = v + (i,), f"{prefix}{i}"
                    tree_edges.append((v, w))
                    nxt.append((w, c, wname))
        level = nxt
    loop_name = dict(sorted(zip(loop_edges, lids)))
    loop_at = {lid: vk for vk, lid in loop_name.items()}
    return GraphTruncation(
        depth, tuple(state), tuple(tree_edges), tuple(loop_edges), state, frontier, tuple(loop_at), loop_at, loop_name
    )


# -- walks: the named vertices and loops of a truncation, without building it -------------


def _index(text: str) -> int | None:
    """The n >= 0 that ``str(n)`` spells exactly: no sign, space or leading zero."""
    return int(text) if text.isascii() and text.isdigit() and (text == "0" or text[0] != "0") else None


class NameIndex:
    """The vertices of an automaton's unfolding that readers have named so far.

    ``names(a)`` keeps one per automaton instance.  A vertex name is found from its
    parent's name by one step of the automaton, and every name found is kept (``paths``
    by name, ``states`` by vertex), so the files read on one instance walk each name once
    and no truncation is built.  A name is valid only as ``path_str`` spells it, and a
    loop id only as ``<path_str(v)>:<k>``.
    """

    def __init__(self, a: UnfoldingAutomaton):
        self.root, self.children, self.loop_counts = a.root, a.children, a.loops  # not a: no cycle through its memo
        self.paths: dict[str, Path] = {".": ()}
        self.states: dict[Path, str] = {(): a.root}
        # per state, each child's index as path_str writes it -> (index, child state)
        self.steps = {s: {str(i): (i, c) for i, c in enumerate(kids)} for s, kids in a.children.items()}

    def state(self, v: Path, depth: int) -> str | None:
        """The state of vertex v, or None if v is no vertex of depth <= ``depth``."""
        s = self.states.get(v)
        if s is None:
            s = self.root
            for i in v:
                kids = self.children[s]
                if not 0 <= i < len(kids):
                    return None
                s = kids[i]
            self.states[v] = s
        return s if len(v) <= depth else None

    def known(self, vs: Collection[Path], depth: int) -> bool:
        """Whether every one of ``vs`` is a vertex of depth <= ``depth``; if so, each is in ``states``."""
        if all(map(self.states.__contains__, vs)) and max(map(len, vs), default=0) <= depth:  # found before
            return True
        return all(self.state(v, depth) is not None for v in vs)

    def find(self, names: Iterable[str], depth: int) -> None:
        """Find each of ``names`` that spells a vertex, walking at most ``depth`` steps below a
        name found before; one step below one is the usual case, done inline."""
        paths, steps, states = self.paths, self.steps, self.states
        for name in names:
            if name not in paths:
                parent, slash, last = name.rpartition("/")
                up = paths.get(parent) if slash and parent != "." else None if slash else ()
                step = None if up is None else steps[states[up]].get(last)
                if step is None:
                    self._climb(name, depth)
                else:
                    v = paths[name] = up + (step[0],)
                    states[v] = step[1]

    def _climb(self, name: str, depth: int) -> None:
        """Find ``name`` from the nearest name found before, at most ``depth`` steps above it."""
        climb, up = [], None  # (name, its last part), up to that name
        while up is None:
            parent, slash, last = name.rpartition("/")
            climb.append((name, last))
            if len(climb) > depth or parent == ".":
                return
            name, up = parent, self.paths.get(parent) if slash else ()
        s = self.states[up]
        for name, last in reversed(climb):
            step = self.steps[s].get(last)
            if step is None:
                return
            up, s = up + (step[0],), step[1]
            self.paths[name], self.states[up] = up, s

    def vertex(self, name: str, depth: int) -> tuple[Path, str] | None:
        """(v, state) for the vertex v of depth <= ``depth`` with ``path_str(v) == name``, or None."""
        self.find((name,), depth)
        v = self.paths.get(name)
        return None if v is None or len(v) > depth else (v, self.states[v])

    def loop(self, lid: str, depth: int) -> tuple[Path, int] | None:
        """(v, k) for the loop id ``f"{path_str(v)}:{k}"`` of the depth-``depth`` truncation, or None."""
        name, colon, k = lid.rpartition(":")
        found, k = self.vertex(name, depth) if colon else None, _index(k)
        return None if found is None or k is None or k >= self.loop_counts[found[1]] else (found[0], k)


@_once_per_automaton
def names(a: UnfoldingAutomaton) -> NameIndex:
    return NameIndex(a)


def loop_basis(a: UnfoldingAutomaton, depth: int, cap: int | None = None) -> tuple[str, ...] | None:
    """The loop ids of the depth-``depth`` truncation in (vertex, k) order: a walk in path
    order through the loop-reaching states that names each vertex from its parent.  With
    ``cap``, None instead if the walk would name more than ``cap`` ids.  A complete basis is
    kept per automaton and returned at once, and so is the largest ``cap`` found too small."""
    memo = a.__dict__.setdefault("_memo", {})
    basis = memo.get(("loop_basis", depth))
    if basis is None:
        if cap is not None and cap <= memo.get(("loop_basis_exceeds", depth), -1):
            return None
        reach = loop_reaching_states(a)
        ks = {s: [f":{k}" for k in range(a.loops[s])] for s in reach}
        kids = {s: [(str(i), c) for i, c in reversed(list(enumerate(a.children[s]))) if c in reach] for s in reach}
        out: list[str] = []
        stack = [(".", a.root, 0)] if a.root in reach else []
        while stack:
            name, s, d = stack.pop()
            out += map(name.__add__, ks[s])
            if cap is not None and len(out) > cap:
                memo["loop_basis_exceeds", depth] = cap
                return None
            if d < depth:
                prefix = name + "/" if d else ""
                for i, c in kids[s]:
                    stack.append((prefix + i, c, d + 1))
        basis = memo["loop_basis", depth] = tuple(out)
    return basis


@_once_per_automaton
def _loop_set(a: UnfoldingAutomaton, depth: int) -> frozenset[str]:
    return frozenset(loop_basis(a, depth))


def unknown_loop(a: UnfoldingAutomaton, lids: Collection[str], depth: int) -> str | None:
    """The first of ``lids`` that is no loop id of the depth-``depth`` truncation, or None.

    Ids that make up at least half of its loops, or any ids once ``loop_basis`` is kept, are
    looked up among all of them; fewer are each walked from the root by name (``NameIndex``).
    Either way the cost is bounded by the ids asked about."""
    if loop_basis(a, depth, 2 * len(lids)) is None:
        ix = names(a)
        return next((lid for lid in lids if ix.loop(lid, depth) is None), None)
    known = _loop_set(a, depth)
    return None if known.issuperset(lids) else next(lid for lid in lids if lid not in known)


# -- state analysis -----------------------------------------------------------


@_once_per_automaton
def loop_reaching_states(a: UnfoldingAutomaton) -> frozenset[str]:
    """States from which some loop-bearing state is reachable."""
    return _reaching(a.children, [s for s in a.children if a.loops[s] > 0])


def _cycle_states(children: Mapping[str, tuple[str, ...]]) -> frozenset[str]:
    """States lying on a directed cycle of the (restricted) children relation."""
    return frozenset(s for s in children if s in _reachable_from(children, children[s]))


def _reachable_from(children: Mapping[str, Iterable[str]], sources: Iterable[str]) -> frozenset[str]:
    seen = set(sources)
    stack = list(seen)
    while stack:
        s = stack.pop()
        for c in children.get(s, ()):
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return frozenset(seen)


def _reaching(children: Mapping[str, tuple[str, ...]], targets: Iterable[str]) -> frozenset[str]:
    """States with a path to one of the targets: ``_reachable_from`` over reversed edges."""
    parents: dict[str, list[str]] = {}
    for s, cs in children.items():
        for c in cs:
            parents.setdefault(c, []).append(s)
    return _reachable_from(parents, targets)


def _instance_counts(children: Mapping[str, tuple[str, ...]], root: str) -> dict[str, int]:
    """Instances of each state in the unfolding of an acyclic children relation
    (its root-to-state paths), by counting along a topological order."""
    reach = _reachable_from(children, [root])
    waiting = dict.fromkeys(reach, 0)  # child-index entries not yet counted
    for s in reach:
        for c in children[s]:
            waiting[c] += 1
    inst = dict.fromkeys(children, 0)
    inst[root] = 1
    ready = [root]
    while ready:
        s = ready.pop()
        for c in children[s]:
            inst[c] += inst[s]
            waiting[c] -= 1
            if not waiting[c]:
                ready.append(c)
    return inst


def _restricted(a: UnfoldingAutomaton, keep: frozenset[str]) -> dict[str, tuple[str, ...]]:
    """The children relation restricted to a state set."""
    return {s: tuple(c for c in cs if c in keep) for s, cs in a.children.items() if s in keep}


@_once_per_automaton
def genus_front_states(a: UnfoldingAutomaton) -> frozenset[str]:
    """States with a loop-reaching child: a vertex in one has loops strictly below it."""
    reach = loop_reaching_states(a)
    return frozenset(s for s, kids in a.children.items() if any(c in reach for c in kids))


@_once_per_automaton
def live_states(a: UnfoldingAutomaton) -> frozenset[str]:
    """States admitting an infinite path (they reach a directed cycle)."""
    return _reaching(a.children, _cycle_states(a.children))


def restrict(a: UnfoldingAutomaton, keep: frozenset[str]) -> UnfoldingAutomaton | None:
    """Sub-automaton on a child-closed-along-paths state set containing root."""
    if a.root not in keep:
        return None
    ch = _restricted(a, keep)
    # drop states that became unreachable after restriction
    seen = _reachable_from(ch, [a.root])
    ch = {s: cs for s, cs in ch.items() if s in seen}
    return UnfoldingAutomaton(a.root, ch, {s: a.loops[s] for s in ch})


# -- core, genus, genus ends ---------------------------------------------------


@_once_per_automaton
def _core_top(a: UnfoldingAutomaton) -> tuple[Path, str] | None:
    """The core's top vertex and its state (None if a tree).

    A vertex lies in the core iff it carries a loop or has at least two
    loop-bearing directions.  The walk from the root to the first such
    vertex follows the one loop-bearing direction of each loop-free vertex,
    so it meets each state at most once; the core is then the set of
    loop-reaching vertices at or below the top vertex.
    """
    reach = loop_reaching_states(a)
    if a.root not in reach:
        return None
    path, s = (), a.root
    while True:
        loopy = [i for i, c in enumerate(a.children[s]) if c in reach]
        if a.loops[s] > 0 or len(loopy) >= 2:
            return path, s
        path, s = path + (loopy[0],), a.children[s][loopy[0]]


def core(a: UnfoldingAutomaton) -> UnfoldingAutomaton | None:
    """Generator of the smallest subgraph containing all loops (None if a tree):
    the loop-reaching restriction rooted at the core's top vertex."""
    top = _core_top(a)
    if top is None:
        return None
    s = top[1]
    sub = _restricted(a, loop_reaching_states(a))
    below = _reachable_from(sub, [s])
    ch = {t: cs for t, cs in sub.items() if t in below}
    return UnfoldingAutomaton(s, ch, {t: a.loops[t] for t in ch})


@_once_per_automaton
def genus(a: UnfoldingAutomaton) -> int | float:
    """Total number of loop instances in the unfolding (or INFINITY)."""
    reach = loop_reaching_states(a)
    if a.root not in reach:
        return 0
    if genus_end_states(a):
        return INFINITY
    inst = _instance_counts(_restricted(a, reach), a.root)
    return sum(a.loops[s] * inst[s] for s in reach)


def genus_ends(a: UnfoldingAutomaton) -> UnfoldingAutomaton | None:
    """Restriction to loop-reaching states; its infinite paths are the genus ends."""
    reach = loop_reaching_states(a)
    return restrict(a, reach)


# -- end space classification ---------------------------------------------------


@dataclass(frozen=True)
class EndFamily:
    kind: str  # "empty" | "finite" | "cantor" | "cantor_plus" | "other"
    count: int | None = None

    def decidable(self) -> bool:
        return self.kind != "other"

    def __str__(self):
        if self.kind == "finite":
            return f"finite({self.count})"
        if self.kind == "cantor_plus":
            return f"cantor+{self.count}"
        return self.kind


def classify_end_space(a: UnfoldingAutomaton | None) -> EndFamily:
    """Homeomorphism type of the space of infinite paths, when decidable.

    Decides membership in {empty, finite n, Cantor, Cantor plus finitely many
    isolated points}; anything else (e.g. infinitely many isolated points)
    comes back as "other".
    """
    return EndFamily("empty") if a is None else _end_family(a)


@_once_per_automaton
def _end_family(a: UnfoldingAutomaton) -> EndFamily:
    live = live_states(a)
    if a.root not in live:
        return EndFamily("empty")
    sub = restrict(a, live)
    assert sub is not None
    ch = sub.children
    after_cycle = _reachable_from(ch, _cycle_states(ch))
    branch = {s for s in ch if len(ch[s]) >= 2}
    can_reach_branch = _reaching(ch, branch)

    if not (branch & after_cycle):
        # finitely many branch instances (no state reaching a branch lies on
        # a cycle): each end leaves the branch-reaching states by one entry
        # edge, counted once per instance of its source
        if sub.root not in can_reach_branch:
            return EndFamily("finite", 1)
        above = {s: tuple(c for c in ch[s] if c in can_reach_branch) for s in ch if s in can_reach_branch}
        inst = _instance_counts(above, sub.root)
        return EndFamily("finite", sum(inst[s] * (len(ch[s]) - len(above[s])) for s in above))

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
    inst = _instance_counts(na, sub.root) if sub.root in na else {}
    k = sum(inst.get(s, 0) for s in entries)
    if k == 0:
        # the only ray entries are unreachable; no isolated points after all
        return EndFamily("cantor")
    return EndFamily("cantor_plus", k)


# -- characteristic pairs --------------------------------------------------------


@dataclass(frozen=True)
class CharacteristicData:
    end_space: UnfoldingAutomaton | None
    genus: int | float
    genus_end_space: UnfoldingAutomaton | None

    @property
    def kind(self) -> str:
        return "FINITE_GENUS" if self.genus != INFINITY else "INFINITE_GENUS"

    def end_family(self) -> EndFamily:
        return classify_end_space(self.end_space)

    def genus_end_family(self) -> EndFamily:
        return classify_end_space(self.genus_end_space)


@_once_per_automaton
def characteristic_pair(a: UnfoldingAutomaton) -> CharacteristicData:
    ends = restrict(a, live_states(a))
    g = genus(a)
    gends = genus_ends(a)
    data = CharacteristicData(ends, g, gends)
    nonempty_gends = classify_end_space(gends).kind != "empty"
    assert (g == INFINITY) == nonempty_gends, "genus/genus-ends invariant violated"
    return data


def classify_equivalent(x: UnfoldingAutomaton, y: UnfoldingAutomaton) -> str:
    """YES/NO/UNKNOWN for proper homotopy equivalence of the generated graphs.

    Characteristic pairs are compared componentwise inside the decidable
    family of end spaces; anything outside it answers UNKNOWN.
    """
    cx, cy = characteristic_pair(x), characteristic_pair(y)
    ex, ey = cx.end_family(), cy.end_family()
    gx, gy = cx.genus_end_family(), cy.genus_end_family()
    if not all(f.decidable() for f in (ex, ey, gx, gy)):
        return "UNKNOWN"
    if cx.kind != cy.kind:
        return "NO"
    if cx.kind == "FINITE_GENUS":
        return "YES" if (ex == ey and cx.genus == cy.genus) else "NO"
    return "YES" if (ex == ey and gx == gy) else "NO"


# -- standard models ---------------------------------------------------------------


def _tree_part(kind: str, count: int | None) -> tuple[dict[str, tuple[str, ...]], dict[str, int], str]:
    """Children/loops/root for the loop-free tree realizing an end family."""
    if kind == "empty":
        return {"root": ()}, {"root": 0}, "root"
    if kind == "finite":
        if count == 1:
            return {"ray": ("ray",)}, {"ray": 0}, "ray"
        ch = {"root": tuple("ray" for _ in range(count)), "ray": ("ray",)}
        return ch, {"root": 0, "ray": 0}, "root"
    if kind == "cantor":
        return {"b": ("b", "b")}, {"b": 0}, "b"
    if kind == "cantor_plus":
        ch = {"root": ("b",) + tuple("ray" for _ in range(count)), "b": ("b", "b"), "ray": ("ray",)}
        return ch, {"root": 0, "b": 0, "ray": 0}, "root"
    raise UnsupportedPairError(f"end family {kind} outside the decidable family")


def standard_model(c: CharacteristicData) -> UnfoldingAutomaton:
    """Canonical automaton with the same characteristic pair (decidable family)."""
    ef = c.end_family()
    if not ef.decidable():
        raise UnsupportedPairError("end space outside the decidable family")
    if c.kind == "FINITE_GENUS":
        g = int(c.genus)
        ch, lp, root = _tree_part(ef.kind, ef.count)
        if g > 0:
            if root in ("ray", "b"):
                # give the loops their own root state
                ch = {"root": (root,) * len(ch[root]) if root == "b" else (root,), **ch}
                if root == "b":
                    ch["root"] = ("b", "b")
                lp = {"root": g, **lp}
                root = "root"
            else:
                lp[root] = g
        return UnfoldingAutomaton.make(root, ch, lp)

    gf = c.genus_end_family()
    if not gf.decidable():
        raise UnsupportedPairError("genus end space outside the decidable family")
    if gf.kind == "empty":
        raise UnsupportedPairError("infinite genus with empty genus end space")
    if ef == gf:
        ch, lp, root = _core_part(gf)
        return UnfoldingAutomaton.make(root, ch, lp)
    if ef.kind == "cantor":
        ch, lp, root = _core_part(gf)
        ch = {s: cs + ("b",) for s, cs in ch.items()}
        ch["b"] = ("b", "b")
        lp["b"] = 0
        return UnfoldingAutomaton.make(root, ch, lp)
    if ef.kind == "cantor_plus":
        k = ef.count
        ch, lp, croot = _core_part(gf)
        ch = {s: cs + ("b",) for s, cs in ch.items()}
        ch["b"] = ("b", "b")
        lp["b"] = 0
        ch["top"] = (croot,) + tuple("xray" for _ in range(k))
        ch["xray"] = ("xray",)
        lp["top"] = 0
        lp["xray"] = 0
        return UnfoldingAutomaton.make("top", ch, lp)
    if ef.kind == "finite":
        if gf.kind != "finite" or gf.count > ef.count:
            raise UnsupportedPairError(f"cannot embed {gf} in {ef}")
        extra = ef.count - gf.count
        ch, lp, croot = _core_part(gf)
        ch["top"] = (croot,) + tuple("xray" for _ in range(extra))
        ch["xray"] = ("xray",)
        lp["top"] = 0
        lp["xray"] = 0
        return UnfoldingAutomaton.make("top", ch, lp)
    raise UnsupportedPairError(f"cannot embed {gf} in {ef}")


def _core_part(gf: EndFamily) -> tuple[dict[str, tuple[str, ...]], dict[str, int], str]:
    """Core graph automaton (one loop at every vertex) realizing an end family."""
    if gf.kind == "finite":
        if gf.count == 1:
            return {"cray": ("cray",)}, {"cray": 1}, "cray"
        return (
            {"croot": tuple("cray" for _ in range(gf.count)), "cray": ("cray",)},
            {"croot": 1, "cray": 1},
            "croot",
        )
    if gf.kind == "cantor":
        return {"cb": ("cb", "cb")}, {"cb": 1}, "cb"
    if gf.kind == "cantor_plus":
        ch = {"croot": ("cb",) + tuple("cray" for _ in range(gf.count)), "cb": ("cb", "cb"), "cray": ("cray",)}
        return ch, {"croot": 1, "cb": 1, "cray": 1}, "croot"
    raise UnsupportedPairError(f"genus end family {gf} outside the decidable family")


# -- DX geometry helpers (used by mapclass) ---------------------------------------


@_once_per_automaton
def dx_states(a: UnfoldingAutomaton) -> frozenset[str]:
    """States with a non-genus end somewhere below them."""
    return _reaching(a.children, live_states(a) - loop_reaching_states(a))


@_once_per_automaton
def genus_end_states(a: UnfoldingAutomaton) -> frozenset[str]:
    """States with a genus end below (an infinite path inside the loop-reaching set)."""
    sub = _restricted(a, loop_reaching_states(a))
    return _reaching(sub, _cycle_states(sub))


def mixed_states(a: UnfoldingAutomaton) -> frozenset[str]:
    """States with both genus ends and DX ends below."""
    return genus_end_states(a) & dx_states(a)


@_once_per_automaton
def deep_mixed_states(a: UnfoldingAutomaton) -> frozenset[str]:
    """States below which DX ends accumulate onto genus ends.

    These are the states that can reach a mixed state with unboundedly many
    instances (a mixed state reachable from a live cycle).
    """
    after = _reachable_from(a.children, _cycle_states(a.children))
    return _reaching(a.children, mixed_states(a) & after)


def dx_compact(a: UnfoldingAutomaton) -> bool:
    """Whether DX is clopen: no DX ends accumulate onto genus ends."""
    return not deep_mixed_states(a)


@_once_per_automaton
def core_vertices(a: UnfoldingAutomaton, depth: int) -> frozenset[Path]:
    """Truncation vertices lying in the core (hull of all loops): the
    loop-reaching vertices at or below the core's top vertex."""
    top = _core_top(a)
    if top is None:
        return frozenset()
    path, n = top[0], len(top[0])
    reach = loop_reaching_states(a)
    return frozenset(v for v, s in unfold(a, depth).state.items() if s in reach and v[:n] == path)


@_once_per_automaton
def cylinders(a: UnfoldingAutomaton, depth: int) -> tuple[Path, ...]:
    """Live depth-D vertices, sorted; their shadows partition the end space."""
    live = live_states(a)
    return tuple(sorted(v for v, s in unfold(a, depth).frontier.items() if s in live))


def cylinders_below(a: UnfoldingAutomaton, depth: int, v: Path) -> tuple[Path, ...]:
    """The depth-D cylinders at or below v: one run of the sorted ``cylinders``."""
    cyls = cylinders(a, depth)
    hi = bisect_left(cyls, v[:-1] + (v[-1] + 1,)) if v else len(cyls)
    return cyls[bisect_left(cyls, v) : hi]


# -- text format and DOT export -----------------------------------------------------


def parse_automaton(text: str) -> UnfoldingAutomaton:
    """One record per line: `state <id> loops=<n> children=<id>,...` plus `root <id>`."""
    children: dict[str, tuple[str, ...]] = {}
    loops: dict[str, int] = {}
    root = None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "root":
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: bad root line")
            root = parts[1]
        elif parts[0] == "state":
            if len(parts) != 4 or not parts[2].startswith("loops=") or not parts[3].startswith("children="):
                raise ValueError(f"line {lineno}: bad state line {line!r}")
            sid = parts[1]
            if sid in loops:
                raise ValueError(f"line {lineno}: duplicate state {sid!r}")
            loops[sid] = int(parts[2][len("loops=") :])
            kids = parts[3][len("children=") :]
            children[sid] = tuple(k for k in kids.split(",") if k)
        else:
            raise ValueError(f"line {lineno}: unknown record {parts[0]!r}")
    if root is None:
        raise ValueError("missing root line")
    return UnfoldingAutomaton.make(root, children, loops)


def truncation_to_dot(t: GraphTruncation) -> str:
    lines = ["digraph truncation {"]
    for v in t.vertices:
        label = path_str(v)
        shape = "doublecircle" if v in t.frontier else "circle"
        lines.append(f'  "{label}" [shape={shape}];')
    for u, v in t.tree_edges:
        lines.append(f'  "{path_str(u)}" -> "{path_str(v)}";')
    for v, k in t.loop_edges:
        lines.append(f'  "{path_str(v)}" -> "{path_str(v)}" [label="loop{k}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
