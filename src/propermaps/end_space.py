"""Clopen-set algebra on end spaces: metrics, partitions, telescopes.

Ends of an automaton-generated graph are infinite child-index paths; a
depth-D cylinder is a live depth-D vertex, standing for the clopen set of
ends through it.  All distances are exact rationals (ties against epsilon
matter, the joining relation is strictly `< eps`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .graph_model import Path, UnfoldingAutomaton, cylinders, cylinders_below, path_str, unfold


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

    ``cells[i]`` is block i's set of live depth-D cylinders, and ``index``
    names the block of each live depth-D cylinder; ``make`` computes both.
    """

    automaton: UnfoldingAutomaton
    depth: int
    blocks: tuple[ClopenSet, ...]
    level: int | None = None
    cells: tuple[frozenset[Path], ...] = field(kw_only=True, compare=False, repr=False)
    index: Mapping[Path, int] = field(kw_only=True, compare=False, repr=False)

    @classmethod
    def make(cls, a: UnfoldingAutomaton, depth: int, blocks: Iterable[ClopenSet], level: int | None = None) -> "Partition":
        blocks = tuple(sorted(blocks, key=lambda b: b.min_cylinder()))
        cells = []
        index: dict[Path, int] = {}
        for i, b in enumerate(blocks):
            cell = expand_to_depth(a, b.cylinders, depth)
            if not index.keys().isdisjoint(cell):
                raise ValueError("partition blocks overlap")
            index.update(dict.fromkeys(cell, i))
            cells.append(cell)
        if len(index) != len(cylinders(a, depth)):
            raise ValueError("partition blocks do not cover the end space")
        return cls(a, depth, blocks, level, cells=tuple(cells), index=index)

    @classmethod
    def trivial(cls, a: UnfoldingAutomaton, depth: int, level: int | None = 0) -> "Partition":
        return cls.make(a, depth, [ClopenSet.make([()], 0)], level)

    def with_level(self, n: int) -> "Partition":
        return self if self.level == n else replace(self, level=n)

    def block_of(self, cyl: Path) -> int:
        """The lowest-index block listing cyl or one of its ancestors.

        Each answer is kept, so a repeated query is one lookup.
        """
        block = self._block_of.get(cyl)
        if block is None:
            index = self._block_index
            hits = [index[cyl[:n]] for n in range(len(cyl) + 1) if cyl[:n] in index]
            if not hits:
                raise KeyError(f"cylinder {path_str(cyl)} not covered")
            block = self._block_of[cyl] = min(hits)
        return block

    @cached_property
    def _block_of(self) -> dict[Path, int]:
        """The answers of ``block_of`` so far."""
        return {}

    @cached_property
    def _block_index(self) -> dict[Path, int]:
        """Cylinder -> the lowest index of a block listing it."""
        index: dict[Path, int] = {}
        for i, b in enumerate(self.blocks):
            for u in b.cylinders:
                index.setdefault(u, i)
        return index


# -- metrics -----------------------------------------------------------------


class EndMetric:
    """The 2^-prefix ultrametric on depth-D cylinders, exact."""

    def __init__(self, automaton: UnfoldingAutomaton, depth: int):
        self.automaton = automaton
        self.depth = depth

    @classmethod
    def base(cls, a: UnfoldingAutomaton, depth: int) -> "EndMetric":
        return cls(a, depth)

    def distance(self, u: Path, v: Path) -> Fraction:
        if u == v:
            return Fraction(0)
        return Fraction(1, 2 ** common_prefix_len(u, v))


class FiniteCylinderGroup:
    """Finite group acting by tree-compatible bijections of depth-D cylinders."""

    def __init__(self, automaton: UnfoldingAutomaton, depth: int, elements: Mapping[str, Mapping[Path, Path]]):
        self.automaton = automaton
        self.depth = depth
        self.elements = {name: dict(perm) for name, perm in elements.items()}
        self._validate()

    @classmethod
    def trivial(cls, a: UnfoldingAutomaton, depth: int) -> "FiniteCylinderGroup":
        cyls = cylinders(a, depth)
        return cls(a, depth, {"e": {c: c for c in cyls}})

    def _validate(self):
        cyls = set(cylinders(self.automaton, self.depth))
        perms = list(self.elements.items())
        for name, perm in perms:
            if set(perm) != cyls or set(perm.values()) != cyls:
                raise NotAnActionError(f"element {name} is not a bijection of the depth-{self.depth} cylinders")
            # tree compatibility: same prefix at depth k maps to same prefix
            for k in range(self.depth):
                images: dict[Path, Path] = {}
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

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self.elements))

    def apply(self, name: str, cyl: Path) -> Path:
        return self.elements[name][cyl]


def average_metric(d: EndMetric, action: FiniteCylinderGroup) -> EndMetric:
    """Group-average d over the finite action, which is d itself.

    Each element maps the depth-k prefixes well-definedly and injectively for
    k = 0..D (checked), so it keeps common prefixes and is an isometry of d.
    """
    if action.automaton != d.automaton or action.depth != d.depth:
        raise NotAnActionError("action and metric live on different cylinder sets")
    for h in action.names():
        perm = action.elements[h]
        for k in range(d.depth + 1):
            pairs = {(c[:k], x[:k]) for c, x in perm.items()}
            if not len(pairs) == len({u for u, _ in pairs}) == len({x for _, x in pairs}):
                raise NotInvariantError(f"element {h} is not an isometry of the prefix metric at depth {k}")
    return d


# -- epsilon partitions -------------------------------------------------------


def epsilon_partition(m: EndMetric, eps: Fraction | int, depth: int, level: int | None = None) -> Partition:
    """Blocks are the eps-path-connected components (strict `< eps` joins).

    d(u, v) < eps iff u[:j] == v[:j], j the least integer with 2^-j < eps;
    that relation is transitive, so the components are the classes of c[:j].
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if depth != m.depth:
        raise DepthTooShallowError("averaged metrics evaluate only at their construction depth")
    j = 0
    while j < depth and Fraction(1, 2**j) >= eps:
        j += 1
    groups: dict[Path, set[Path]] = {}
    for c in cylinders(m.automaton, depth):
        groups.setdefault(c[:j], set()).add(c)
    blocks = [ClopenSet.make(g, depth) for g in groups.values()]
    return Partition.make(m.automaton, depth, blocks, level)


def _parents(fine: Partition, coarse: Partition) -> list[list[int]]:
    """For each block of fine, the indices of the blocks of coarse containing it.

    Coarse blocks are disjoint: a nonempty block lies in the one block that
    the index names for all of its cylinders, or in none.
    """
    if fine.automaton != coarse.automaton:
        raise ValueError("partitions of different end spaces")
    if fine.depth != coarse.depth:
        raise ValueError(f"partitions of different depths ({fine.depth} and {coarse.depth})")
    out = []
    for cell in fine.cells:
        js = {coarse.index[c] for c in cell}
        # a block of dead cylinders is empty and lies in every block
        out.append(list(js) if len(js) == 1 else [] if js else list(range(len(coarse.blocks))))
    return out


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
    parts = tuple(p.with_level(n) for n, p in enumerate(seq))
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
            if set(p.index.values()) != set(range(len(p.blocks))):
                raise AssertionError(f"level {n} correspondence is not onto")

    def check_equivariant(self, action: FiniteCylinderGroup, tele_action: "TelescopeAction"):
        for h in action.names():
            for n, p in enumerate(self.tree.partitions):
                for c, i in p.index.items():
                    lhs = tele_action.apply(h, (n, i))
                    rhs = (n, p.index[action.apply(h, c)])
                    if lhs != rhs:
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
    """Permute level-n vertices by permuting blocks; verified simplicial."""
    if any(p.depth != action.depth for p in t.partitions):
        raise ValueError(f"telescope and action at different depths (the action is at depth {action.depth})")
    first = [{cell: j for j, cell in reversed(list(enumerate(p.cells)))} for p in t.partitions]  # cell -> its first block
    maps: dict[str, dict[Vertex, Vertex]] = {}
    for h in action.names():
        perm = action.elements[h]
        vmap: dict[Vertex, Vertex] = {}
        for n, p in enumerate(t.partitions):
            for i, cell in enumerate(p.cells):
                j = first[n].get(frozenset(perm[c] for c in cell))
                if j is None:
                    raise NotInvariantError(f"element {h} does not preserve partition level {n}")
                vmap[(n, i)] = (n, j)
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


def format_partition(p: Partition) -> str:
    lines = []
    for i, b in enumerate(p.blocks):
        paths = ",".join(path_str(c) for c in sorted(b.cylinders))
        lines.append(f"block b{i}: {paths}")
    return "\n".join(lines) + "\n"


def telescope_to_dot(t: TelescopeTree) -> str:
    lines = ["graph telescope {"]
    for n, p in enumerate(t.partitions):
        for i, b in enumerate(p.blocks):
            label = "|".join(path_str(c) for c in sorted(b.cylinders))
            lines.append(f'  "v{n}_{i}" [label="{n}:{label}"];')
    for (n1, i1), (n0, i0) in t.edges:
        lines.append(f'  "v{n1}_{i1}" -- "v{n0}_{i0}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
