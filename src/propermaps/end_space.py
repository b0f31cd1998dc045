"""Clopen-set algebra on end spaces: partitions, telescopes.

Ends of an automaton-generated graph are infinite child-index paths; a
depth-D cylinder is a live depth-D vertex, standing for the clopen set of
ends through it.  The metric is the 2^-prefix ultrametric, and epsilon is an
exact rational (ties against it matter, the joining relation is strictly
`< eps`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .graph_model import Path, UnfoldingAutomaton, cylinders, cylinders_below, live_states, path_str, unfold


class DepthTooShallowError(ValueError):
    pass


class NotAnActionError(ValueError):
    pass


class NotInvariantError(ValueError):
    pass


class NotRefiningError(ValueError):
    pass


def common_prefix_len(u: Path, v: Path) -> int:
    n = 0
    for a, b in zip(u, v):
        if a != b:
            break
        n += 1
    return n


def is_ancestor(u: Path, v: Path) -> bool:
    """u an ancestor of (or equal to) v."""
    return len(u) <= len(v) and v[: len(u)] == u


@dataclass(frozen=True)
class ClopenSet:
    """Union of shadows Sh(v) over an antichain of truncation vertices."""

    cylinders: frozenset[Path]
    reference_depth: int

    @classmethod
    def make(cls, cyls: Iterable[Path], reference_depth: int) -> "ClopenSet":
        cs = set(cyls)
        # normalize: drop any vertex with a strict ancestor present
        keep = {v for v in cs if not any(v[:n] in cs for n in range(len(v)))}
        return cls(frozenset(keep), reference_depth)

    def min_cylinder(self) -> Path:
        return min(self.cylinders)


def expand_to_depth(a: UnfoldingAutomaton, cyls: Iterable[Path], depth: int) -> frozenset[Path]:
    """Live descendants at exactly `depth` of each (shallower) cylinder."""
    vertices = unfold(a, depth).state
    out: set[Path] = set()
    for v in cyls:
        if len(v) > depth:
            raise DepthTooShallowError(f"cylinder {path_str(v)} deeper than {depth}")
        if v not in vertices:
            raise KeyError(f"{path_str(v)} is not a vertex of the tree")
        out.update(cylinders_below(a, depth, v))
    return frozenset(out)


def clopen_subset(a: UnfoldingAutomaton, c1: ClopenSet, c2: ClopenSet) -> bool:
    d = max(c1.reference_depth, c2.reference_depth, max((len(v) for v in c1.cylinders | c2.cylinders), default=0))
    return expand_to_depth(a, c1.cylinders, d) <= expand_to_depth(a, c2.cylinders, d)


@dataclass(frozen=True)
class Partition:
    """Blocks covering the live depth-D cylinders once each.

    A block lists truncation vertices (an epsilon block, its one prefix).  ``make`` computes
    ``cells[i]``, block i's live depth-D cylinders, ``index`` (cylinder -> block), ``listed``
    (listed vertex -> lowest block listing it) and ``meeting`` (``blocks_meeting``'s answers).
    """

    automaton: UnfoldingAutomaton
    depth: int
    blocks: tuple[ClopenSet, ...]
    cells: tuple[frozenset[Path], ...] = field(kw_only=True, compare=False, repr=False)
    index: Mapping[Path, int] = field(kw_only=True, compare=False, repr=False)
    listed: Mapping[Path, int] = field(kw_only=True, compare=False, repr=False)
    meeting: dict[Path, frozenset[int]] = field(kw_only=True, compare=False, repr=False)

    @classmethod
    def make(cls, a: UnfoldingAutomaton, depth: int, blocks: Iterable[ClopenSet]) -> "Partition":
        blocks = tuple(sorted(blocks, key=lambda b: b.min_cylinder()))
        cells = tuple(expand_to_depth(a, b.cylinders, depth) for b in blocks)
        index = {c: i for i, cell in enumerate(cells) for c in cell}
        if sum(map(len, cells)) != len(index):
            raise ValueError("partition blocks overlap")
        if len(index) != len(cylinders(a, depth)):
            raise ValueError("partition blocks do not cover the end space")
        listed = {u: i for i, b in reversed(tuple(enumerate(blocks))) for u in b.cylinders}
        state, live = unfold(a, depth).state, live_states(a)
        meeting = {u: frozenset((i,)) for u, i in listed.items() if state[u] in live}
        return cls(a, depth, blocks, cells=cells, index=index, listed=listed, meeting=meeting)

    @classmethod
    def trivial(cls, a: UnfoldingAutomaton, depth: int) -> "Partition":
        return cls.make(a, depth, [ClopenSet.make([()], 0)])

    def block_of(self, cyl: Path) -> int:
        """The lowest-index block listing cyl or one of its ancestors."""
        hits = [self.listed[cyl[:n]] for n in range(len(cyl) + 1) if cyl[:n] in self.listed]
        if not hits:
            raise KeyError(f"cylinder {path_str(cyl)} not covered")
        return min(hits)

    def blocks_meeting(self, vs: Iterable[Path]) -> set[int]:
        """The blocks whose cells meet the shadow of some live truncation vertex in vs.

        ``make`` seeds ``meeting`` with the live listed vertices.  A vertex below one of those
        lies in its block alone; one above them meets its live children's blocks, which are
        kept with it, so the deepest kept ancestor of a vertex is always of the first kind.
        """
        memo, out = self.meeting, set()
        for v in vs:
            if v not in memo:
                up = next((v[:n] for n in reversed(range(len(v))) if v[:n] in memo), None)
                if up is None:
                    a, state = self.automaton, unfold(self.automaton, self.depth).state
                    kids = (v + (k,) for k in range(len(a.children[state[v]])))
                    memo[v] = frozenset(self.blocks_meeting(w for w in kids if state[w] in live_states(a)))
                else:
                    memo[v] = memo[up]
            out |= memo[v]
        return out

    def image_blocks(self, levels: Sequence[Mapping[Path, Path]] | None, into: "Partition") -> list[set[int]]:
        """For each block, the blocks of ``into`` meeting its cell's image under
        an element with these level maps (None: the identity)."""
        memo, out = into.meeting, [set() for _ in self.blocks]
        for u, i in self.listed.items():
            if u in self.meeting:  # u is live
                x = u if levels is None else levels[len(u)][u]
                out[i] |= memo.get(x) or into.blocks_meeting((x,))
        return out


# -- group actions ---------------------------------------------------------------


class FiniteCylinderGroup:
    """Finite group acting by tree-compatible bijections of depth-D cylinders."""

    def __init__(self, automaton: UnfoldingAutomaton, depth: int, elements: Mapping[str, Mapping[Path, Path]]):
        self.automaton = automaton
        self.depth = depth
        self.elements = {name: dict(perm) for name, perm in elements.items()}
        self.level_maps = self._validate()  # name -> k -> {live depth-k prefix: its image}, k = 0..D

    @classmethod
    def trivial(cls, a: UnfoldingAutomaton, depth: int) -> "FiniteCylinderGroup":
        cyls = cylinders(a, depth)
        return cls(a, depth, {"e": {c: c for c in cyls}})

    def _validate(self) -> dict[str, tuple[dict[Path, Path], ...]]:
        """Check the group and return each element's level maps.

        Once these checks pass every level map is a bijection of the live depth-k prefixes:
        closure and the identity make the elements a finite group, so each element's inverse
        is an element whose level maps are maps, and the two compose to the identity level by
        level.  So each element keeps common prefixes, an isometry of the 2^-prefix metric,
        which is therefore its own average over the group.
        """
        cyls = cylinders(self.automaton, self.depth)
        live = set(cyls)
        level_maps = {}
        for name, perm in self.elements.items():
            if perm.keys() != live or set(perm.values()) != live:
                raise NotAnActionError(f"element {name} is not a bijection of the depth-{self.depth} cylinders")
            # tree compatibility: each depth's (prefix, image prefix) pairs, made from the next one's, form a map
            pairs, levels, bad = perm.items(), [perm], None
            for k in reversed(range(self.depth)):
                pairs = {(c[:k], d[:k]) for c, d in pairs}
                levels.append(dict(pairs))
                if len(levels[-1]) != len(pairs):
                    bad = k
            if bad is not None:
                raise NotAnActionError(f"element {name} is incompatible with the cylinder tree at depth {bad}")
            level_maps[name] = tuple(reversed(levels))
        # closure under composition (finite closed sets of bijections are groups)
        keyed = {tuple(map(p.__getitem__, cyls)) for p in self.elements.values()}
        for n1, p1 in self.elements.items():
            for n2, p2 in self.elements.items():
                if tuple(map(p2.__getitem__, map(p1.__getitem__, cyls))) not in keyed:
                    raise NotAnActionError(f"composition {n2}*{n1} escapes the element set")
        if cyls not in keyed:
            raise NotAnActionError("identity element missing")
        return level_maps

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self.elements))

    def apply(self, name: str, cyl: Path) -> Path:
        return self.elements[name][cyl]


# -- epsilon partitions -------------------------------------------------------


def epsilon_partition(a: UnfoldingAutomaton, eps: Fraction | int, depth: int) -> Partition:
    """Blocks are the eps-path-connected components (strict `< eps` joins) of the
    depth-D cylinders under the 2^-prefix ultrametric d(u, v) = 2^-|common prefix|.

    d(u, v) < eps iff u[:j] == v[:j], j the least integer with 2^-j < eps;
    that relation is transitive, so the components are the classes of c[:j],
    and each block lists its one prefix c[:j].
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    j = next((k for k in range(depth) if Fraction(1, 2**k) < eps), depth)
    blocks = [ClopenSet(frozenset((v,)), depth) for v in dict.fromkeys(c[:j] for c in cylinders(a, depth))]
    return Partition.make(a, depth, blocks)


def _parents(fine: Partition, coarse: Partition) -> list[list[int]]:
    """For each block of fine, the indices of the blocks of coarse containing it.

    Coarse blocks are disjoint: a nonempty block lies in the one block that
    holds the shadows of all of its listed vertices, or in none.
    """
    if fine.automaton != coarse.automaton:
        raise ValueError("partitions of different end spaces")
    if fine.depth != coarse.depth:
        raise ValueError(f"partitions of different depths ({fine.depth} and {coarse.depth})")
    # a block of dead cylinders is empty and lies in every block
    everywhere = range(len(coarse.blocks))
    return [list(js) if len(js) == 1 else [] if js else list(everywhere) for js in fine.image_blocks(None, coarse)]


def refines(p: Partition, q: Partition) -> bool:
    """Whether every block of p lies inside some block of q."""
    return all(_parents(p, q))


# -- telescopes ----------------------------------------------------------------


Vertex = tuple[int, int]  # (level, block index)


@dataclass(frozen=True)
class TelescopeTree:
    """Mapping telescope of a refining partition sequence."""

    partitions: tuple[Partition, ...]
    edges: tuple[tuple[Vertex, Vertex], ...]  # ((n+1, i), (n, j))

    @property
    def automaton(self) -> UnfoldingAutomaton:
        return self.partitions[0].automaton

    def vertices(self) -> tuple[Vertex, ...]:
        return tuple((n, i) for n, p in enumerate(self.partitions) for i in range(len(p.blocks)))

    def block_of(self, v: Vertex) -> ClopenSet:
        n, i = v
        return self.partitions[n].blocks[i]

    def check_tree(self):
        vs = self.vertices()
        if len(self.edges) != len(vs) - 1:
            raise AssertionError("telescope is not a tree: wrong edge count")
        parents_of: dict[Vertex, list[Vertex]] = {}
        for child, parent in self.edges:
            parents_of.setdefault(child, []).append(parent)
        for n, p in enumerate(self.partitions):
            if n == 0:
                continue
            for i in range(len(p.blocks)):
                parents = parents_of.get((n, i), [])
                if len(parents) != 1 or parents[0][0] != n - 1:
                    raise AssertionError(f"vertex {(n, i)} does not have exactly one parent one level down")


def telescope(seq: Sequence[Partition]) -> TelescopeTree:
    """Tree with an edge (P, n+1) -- (Q, n) whenever P is contained in Q."""
    if not seq:
        raise ValueError("empty partition sequence")
    if len(seq[0].blocks) != 1:
        raise NotRefiningError("sequence must start with the trivial partition")
    parts = tuple(seq)
    edges: list[tuple[Vertex, Vertex]] = []
    for n in range(1, len(parts)):
        parents = _parents(parts[n], parts[n - 1])
        if not all(parents):
            raise NotRefiningError(f"partition {n} does not refine partition {n - 1}")
        for i, js in enumerate(parents):
            if len(js) != 1:
                raise NotRefiningError(f"block {i} of level {n} has {len(js)} parents")
            edges.append(((n, i), (n - 1, js[0])))
    t = TelescopeTree(parts, tuple(edges))
    t.check_tree()
    return t


@dataclass(frozen=True)
class BoundaryCorrespondence:
    """Level-wise bijection between telescope vertices and partition blocks.

    A branch (P_n) of the telescope corresponds to the end in the nested
    intersection of its blocks.
    """

    tree: TelescopeTree

    def block_of(self, v: Vertex) -> ClopenSet:
        return self.tree.block_of(v)

    def vertex_of(self, level: int, cyl: Path) -> Vertex:
        p = self.tree.partitions[level]
        return (level, p.block_of(cyl))

    def check_bijective(self):
        for n, p in enumerate(self.tree.partitions):
            if not all(p.cells):
                raise AssertionError(f"level {n} correspondence is not onto")

    def check_equivariant(self, action: FiniteCylinderGroup, tele_action: "TelescopeAction"):
        """Each element carries cell i into the cell that ``tele_action`` assigns to i."""
        for h in action.names():
            levels = action.level_maps[h]
            for n, p in enumerate(self.tree.partitions):
                for i, js in enumerate(p.image_blocks(levels, p)):
                    if js and (len(js) > 1 or tele_action.apply(h, (n, i)) != (n, *js)):
                        raise AssertionError(f"boundary correspondence not equivariant at {h}, level {n}")


def boundary_map(t: TelescopeTree) -> BoundaryCorrespondence:
    bc = BoundaryCorrespondence(t)
    bc.check_bijective()
    return bc


@dataclass(frozen=True)
class TelescopeAction:
    tree: TelescopeTree
    vertex_maps: Mapping[str, Mapping[Vertex, Vertex]]

    def apply(self, name: str, v: Vertex) -> Vertex:
        return self.vertex_maps[name][v]

    def names(self):
        return tuple(sorted(self.vertex_maps))


def induced_telescope_action(t: TelescopeTree, action: FiniteCylinderGroup) -> TelescopeAction:
    """Permute level-n vertices by permuting blocks; verified simplicial.

    A nonempty cell goes to the one block its image meets (so, the element being a
    bijection, onto that block's cell), and an empty cell to the first empty cell.
    """
    if any(p.depth != action.depth for p in t.partitions):
        raise ValueError(f"telescope and action at different depths (the action is at depth {action.depth})")
    maps: dict[str, dict[Vertex, Vertex]] = {}
    for h in action.names():
        levels = action.level_maps[h]
        vmap: dict[Vertex, Vertex] = {}
        for n, p in enumerate(t.partitions):
            for i, js in enumerate(p.image_blocks(levels, p)):
                if len(js) > 1:
                    raise NotInvariantError(f"element {h} does not preserve partition level {n}")
                vmap[(n, i)] = (n, min(js) if js else p.cells.index(frozenset()))
        maps[h] = vmap
    out = TelescopeAction(t, maps)
    # simplicial check: levels preserved by construction, edges must map to edges
    edge_set = set(t.edges)
    for h, vmap in maps.items():
        for child, parent in t.edges:
            if (vmap[child], vmap[parent]) not in edge_set:
                raise AssertionError(f"element {h} does not act simplicially")
    return out


# -- file format / DOT ----------------------------------------------------------


def parse_partition_file(a: UnfoldingAutomaton, depth: int, text: str) -> Partition:
    """`block <name>: <path>,<path>,...` with slash-separated child indices."""
    from .graph_model import parse_path

    blocks = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if not line.startswith("block"):
            raise ValueError(f"bad partition line {line!r}")
        _, rest = line.split(None, 1)
        _, paths = rest.split(":", 1)
        cyls = [parse_path(p) for p in paths.split(",") if p.strip()]
        blocks.append(ClopenSet.make(cyls, depth))
    return Partition.make(a, depth, blocks)


def _shown(a: UnfoldingAutomaton, b: ClopenSet) -> list[Path]:
    """A block's listed vertices, sorted, each live one above its reference depth
    expanded there (a dead one, which expands to nothing, is shown as itself)."""
    d = b.reference_depth
    return sorted(c for v in b.cylinders for c in (len(v) < d and cylinders_below(a, d, v) or (v,)))


def format_partition(p: Partition) -> str:
    lines = []
    for i, b in enumerate(p.blocks):
        paths = ",".join(path_str(c) for c in _shown(p.automaton, b))
        lines.append(f"block b{i}: {paths}")
    return "\n".join(lines) + "\n"


def telescope_to_dot(t: TelescopeTree) -> str:
    lines = ["graph telescope {"]
    for n, p in enumerate(t.partitions):
        for i, b in enumerate(p.blocks):
            label = "|".join(path_str(c) for c in _shown(p.automaton, b))
            lines.append(f'  "v{n}_{i}" [label="{n}:{label}"];')
    for (n1, i1), (n0, i0) in t.edges:
        lines.append(f'  "v{n1}_{i1}" -- "v{n0}_{i0}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
