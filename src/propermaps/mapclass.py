"""Finitely supported representatives of proper maps and their invariants.

A representative stores, on a depth-D truncation of the ambient graph, only
what the map moves:

* ``moves``       -- the vertices v with vmap[v] != v (the root is fixed,
                     a frontier vertex goes to a same-state frontier vertex),
* ``loop_images`` -- the induced root-based class of every moved loop generator
                     (a loop that is absent is fixed),
* ``edge_wraps``  -- for each wrapped tree edge (keyed by the child endpoint) the
                     root-based class ``geod(root->f(u)) f(e) geod(f(v)->root)``
                     (an edge that is absent is unwrapped),
* ``end_moves``   -- the live depth-D cylinders c with end_action[c] != c:
                     ``moves`` there for IDENTITY_OUTSIDE maps, given only for
                     BANDED ones,
* ``outside``     -- IDENTITY_OUTSIDE or BANDED(b).

``vmap`` and ``end_action`` are views, filled in with the identity over the
truncation and the live cylinders on first read; the identity criterion
reads neither.

For IDENTITY_OUTSIDE maps everything beyond the support is carried
canonically, so a loop generator g below a frontier cylinder c has induced
class A(c) g' A(c)^-1, where g' is the transported loop and A the
accumulated wrap along the root-to-c path.  The function A drives all
line invariants: the value of the proper-homotopy cocycle at a cylinder b
relative to the base end is A(b)^-1 A(a0).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from . import words as W
from .words import Word
from . import stallings as st
from .end_space import ClopenSet, expand_to_depth, is_ancestor
from .graph_model import (
    Path,
    UnfoldingAutomaton,
    bisimulation_classes,
    core_vertices,
    cylinders,
    cylinders_below,
    deep_mixed_states,
    dx_compact,
    dx_states,
    genus,
    live_states,
    loop_reaching_states,
    parse_path,
    path_str,
    unfold,
)

IDENTITY_OUTSIDE = "identity"


def banded(b: int) -> tuple[str, int]:
    return ("banded", b)


class PreconditionFailedError(ValueError):
    pass


class InconsistentFrontierError(ValueError):
    pass


class R2ViolationError(ValueError):
    pass


def loop_id(path: Path, k: int) -> str:
    """The name of loop k at ``path``; a truncation names its own loops in ``loop_ids``."""
    return f"{path_str(path)}:{k}"


@dataclass(frozen=True, eq=False)
class ProperMapRep:
    automaton: UnfoldingAutomaton
    depth: int
    moves: Mapping[Path, Path]  # only vertices v with vmap[v] != v
    loop_images: Mapping[str, Word]
    edge_wraps: Mapping[Path, Word]
    end_moves: Mapping[Path, Path]  # only live cylinders c with end_action[c] != c
    outside: object = IDENTITY_OUTSIDE

    # -- construction -----------------------------------------------------

    @classmethod
    def make(
        cls,
        automaton: UnfoldingAutomaton,
        depth: int,
        vmap: Mapping[Path, Path] | None = None,
        loop_images: Mapping[str, Iterable[tuple[str, int]]] | None = None,
        edge_wraps: Mapping[Path, Iterable[tuple[str, int]]] | None = None,
        end_action: Mapping[Path, Path] | None = None,
        outside: object = IDENTITY_OUTSIDE,
    ) -> "ProperMapRep":
        """Check the given entries and keep only what moves; an absent vertex, loop or
        edge is fixed (unwrapped).  Every unmoved entry passes every check."""
        t = unfold(automaton, depth)
        verts = t.state
        moves = {}
        for v, w in (vmap or {}).items():
            if v not in verts or w not in verts:
                raise ValueError("vmap must map truncation vertices to truncation vertices")
            if v != w:
                moves[v] = w
        if () in moves:
            raise ValueError("representatives fix the root")
        frontier = t.frontier
        moved_front = sorted(v for v in moves if v in frontier)
        if moved_front:
            bis = bisimulation_classes(automaton)
            for v in moved_front:  # in path order, as the frontier lists them
                w = moves[v]
                if w not in frontier or bis[frontier[w]] != bis[frontier[v]]:
                    raise ValueError(f"frontier vertex {path_str(v)} must map to an equivalent frontier vertex")
        lids = t.loop_at
        li = {}  # only moved loops: loop_word reads the rest as their generators
        for lid, word in (loop_images or {}).items():
            if lid not in lids:
                raise ValueError(f"unknown loop {lid}")
            word = W.reduce_word(word)
            if word != W.gen(lid):
                li[lid] = word
        ew = {}
        for child, word in (edge_wraps or {}).items():
            if child not in verts or not child:
                raise ValueError(f"unknown edge target {path_str(child)}")
            word = W.reduce_word(word)
            if word:
                ew[child] = word
        for word in list(li.values()) + list(ew.values()):
            for g, _ in word:
                if g not in lids:
                    raise ValueError(f"word uses unknown loop generator {g}")
        live = live_states(automaton)
        # the subtree below a live frontier vertex is carried onto the subtree below its image
        em = {c: moves[c] for c in moved_front if frontier[c] in live}
        if outside == IDENTITY_OUTSIDE:
            if end_action is not None:
                ea = {c: em.get(c, c) for c in cylinders(automaton, depth)}
                if dict(end_action) != ea:
                    bad = min(c for c in ea.keys() | end_action.keys() if ea.get(c) != end_action.get(c))
                    raise InconsistentFrontierError(f"end action disagrees with vmap at {path_str(bad)}")
        elif not (isinstance(outside, tuple) and outside[0] == "banded"):
            raise ValueError(f"bad outside flag {outside!r}")
        elif end_action is not None:
            cyls = frozenset(cylinders(automaton, depth))
            if end_action.keys() != cyls or set(end_action.values()) != cyls:
                raise ValueError("end action must be a bijection of the live frontier cylinders")
            em = {c: d for c, d in end_action.items() if c != d}
        if set(em.values()) != set(em):  # with the unmoved cylinders fixed, a bijection permutes the moved ones
            raise ValueError("end action must be a bijection of the live frontier cylinders")
        if outside != IDENTITY_OUTSIDE:
            reach = loop_reaching_states(automaton)
            if any((frontier[c] in reach) != (frontier[d] in reach) for c, d in em.items()):
                raise ValueError("end action must preserve the genus end set")
        return cls(automaton, depth, moves, li, ew, em, outside)

    @classmethod
    def identity(cls, automaton: UnfoldingAutomaton, depth: int) -> "ProperMapRep":
        return cls.make(automaton, depth)

    # -- basic accessors -----------------------------------------------------

    @cached_property
    def vmap(self) -> dict[Path, Path]:
        """The image of every truncation vertex: ``moves`` filled in with the identity."""
        vm = {v: v for v in self.truncation().state}
        vm.update(self.moves)
        return vm

    @cached_property
    def end_action(self) -> dict[Path, Path]:
        """The image of every live depth-D cylinder: ``end_moves`` filled in with the identity."""
        moves = self.end_moves
        return {c: moves.get(c, c) for c in cylinders(self.automaton, self.depth)}

    def truncation(self):
        return unfold(self.automaton, self.depth)

    def loop_ids(self) -> tuple[str, ...]:
        return self.truncation().loop_ids

    def loop_word(self, lid: str) -> Word:
        return self.loop_images.get(lid, W.gen(lid))

    def wrap(self, child: Path) -> Word:
        return self.edge_wraps.get(child, W.EMPTY)

    @cached_property
    def _accumulated_wraps(self) -> dict[Path, Word]:
        acc: dict[Path, Word] = {(): W.EMPTY}
        wraps = self.edge_wraps  # make keeps only nonempty wraps
        for parent, child in self.truncation().tree_edges:
            acc[child] = W.mul(acc[parent], wraps[child]) if child in wraps else acc[parent]
        return acc

    def accumulated_wrap(self, v: Path) -> Word:
        """A(v): product of the edge wraps along the root-to-v path."""
        acc = self._accumulated_wraps
        while v not in acc:  # no edge beyond the support is wrapped
            v = v[:-1]
        return acc[v]

    def substitution(self) -> st.FreeGroupAutomorphism:
        return self._substitution

    @cached_property
    def _substitution(self) -> st.FreeGroupAutomorphism:
        basis = self.loop_ids()  # make has reduced every loop image
        return st.FreeGroupAutomorphism(basis, {lid: self.loop_word(lid) for lid in basis})

    def dx_frontier(self) -> tuple[Path, ...]:
        return _dx_cylinders(self.automaton, self.depth)

    def genus_frontier(self) -> tuple[Path, ...]:
        """Frontier vertices with loops strictly beyond the support, in path order."""
        t = self.truncation()
        reach = loop_reaching_states(self.automaton)
        out = []
        for v, s in t.frontier.items():  # unfold lists the frontier in path order
            if any(c in reach for c in self.automaton.children[s]):
                out.append(v)
        return tuple(out)

    def is_identity_outside(self) -> bool:
        return self.outside == IDENTITY_OUTSIDE


# -- composition, extension, inversion ------------------------------------------


def extend(f: ProperMapRep, depth: int) -> ProperMapRep:
    """Extend an IDENTITY_OUTSIDE representative to a deeper support.

    Beyond the old support the map carries subtrees canonically, so new
    vertices transport along vmap of their old-frontier ancestor and new
    loops pick up the conjugation by the accumulated wrap A.
    """
    if depth < f.depth:
        raise ValueError("cannot shrink the support")
    if depth == f.depth:
        return f
    if not f.is_identity_outside():
        raise PreconditionFailedError("only IDENTITY_OUTSIDE maps extend canonically")
    a = f.automaton
    t_new = unfold(a, depth)
    vm: dict[Path, Path] = {}
    for v in t_new.vertices:
        if len(v) <= f.depth:
            vm[v] = f.vmap[v]
        else:
            anc, suffix = v[: f.depth], v[f.depth :]
            vm[v] = f.vmap[anc] + suffix
    li: dict[str, Word] = dict(f.loop_images)
    for lid, (v, k) in t_new.loop_at.items():
        if len(v) <= f.depth:
            continue
        anc, suffix = v[: f.depth], v[f.depth :]
        acc = f.accumulated_wrap(anc)
        transported = t_new.loop_name[f.vmap[anc] + suffix, k]
        img = W.mul(acc, W.gen(transported), W.inv(acc))
        if img != W.gen(lid):
            li[lid] = img
    return ProperMapRep.make(a, depth, vm, li, f.edge_wraps)


def compose(f: ProperMapRep, g: ProperMapRep) -> ProperMapRep:
    """The composite g after f (apply f first)."""
    if f.automaton != g.automaton:
        raise ValueError("maps on different ambient graphs")
    depth = max(f.depth, g.depth)
    if f.depth < depth:
        f = extend(f, depth)
    if g.depth < depth:
        g = extend(g, depth)
    gs = g.substitution()
    vm = {v: g.vmap[f.vmap[v]] for v in f.vmap}
    li = {}
    for lid in f.loop_ids():
        img = gs(f.loop_word(lid))
        if img != W.gen(lid):
            li[lid] = img
    ew = {}
    t = unfold(f.automaton, depth)
    for parent, child in t.tree_edges:
        acc_u = g.accumulated_wrap(f.vmap[parent])
        acc_v = g.accumulated_wrap(f.vmap[child])
        delta = W.mul(W.inv(acc_u), gs(f.wrap(child)), acc_v)
        if delta:
            ew[child] = delta
    if f.is_identity_outside() and g.is_identity_outside():
        return ProperMapRep.make(f.automaton, depth, vm, li, ew)
    bf = 0 if f.is_identity_outside() else f.outside[1]
    bg = 0 if g.is_identity_outside() else g.outside[1]
    ea = {c: g.end_action[f.end_action[c]] for c in f.end_action}
    return ProperMapRep.make(f.automaton, depth, vm, li, ew, ea, banded(bf + bg))


def _rigid_inverse_substitution(f: ProperMapRep) -> st.FreeGroupAutomorphism | None:
    """sigma^-1 when f is IDENTITY_OUTSIDE, vmap is bijective and sigma inverts."""
    if not f.is_identity_outside() or set(f.moves.values()) != set(f.moves):  # vmap permutes the moved vertices
        return None
    try:
        return f.substitution().inverse()
    except st.NotAnAutomorphismError:
        return None


def has_rigid_inverse(f: ProperMapRep) -> bool:
    """Whether ``rigid_inverse(f)`` exists, without building it."""
    return _rigid_inverse_substitution(f) is not None


def rigid_inverse(f: ProperMapRep) -> ProperMapRep | None:
    """Inverse representative when vmap is bijective and the substitution inverts."""
    sigma_inv = _rigid_inverse_substitution(f)
    if sigma_inv is None:
        return None
    inv_vmap = {w: v for v, w in f.moves.items()}
    li = {}
    for lid in f.loop_ids():
        img = sigma_inv.images[lid]
        if img != W.gen(lid):
            li[lid] = img
    # solve 1 = A_inv(f(u))^-1 sigma_inv(delta_e) A_inv(f(v)) along tree edges
    acc: dict[Path, Word] = {(): W.EMPTY}
    t = f.truncation()
    for parent, child in t.tree_edges:
        acc[f.vmap[child]] = W.mul(W.inv(sigma_inv(f.wrap(child))), acc[f.vmap[parent]])
    ew = {}
    for parent, child in t.tree_edges:
        delta = W.mul(W.inv(acc[parent]), acc[child])
        if delta:
            ew[child] = delta
    return ProperMapRep.make(f.automaton, f.depth, inv_vmap, li, ew)


def composes_to(f: ProperMapRep, g: ProperMapRep, k: ProperMapRep) -> bool:
    """Whether g∘f ≃ k, for IDENTITY_OUTSIDE maps with rigid inverses.

    Decides ``is_properly_homotopic_to_identity(compose(compose(f, g),
    rigid_inverse(k)))`` from the data the criterion reads, without building
    either composite.  With F = g∘f, sigma(F) = sigma_g∘sigma_f and, by the
    telescoped edge deltas of ``compose``, A_F(c) = sigma_g(A_f(c)) A_g(f(c));
    ``rigid_inverse`` gives A of k^-1 at k(c) as sigma_k^-1(A_k(c))^-1.  Where
    F(c) = k(c) the difference map wraps c by sigma_k^-1(D(c)), with D(c) =
    A_F(c) A_k(c)^-1, and its substitution is sigma_k^-1∘sigma_F.  Genus 0
    asks ea_F = ea_k only; genus 1 also sigma_F = sigma_k and D constant on
    the DX frontier; higher genus asks F = k on the genus frontier too, and u
    with sigma_F(x) = u sigma_k(x) u^-1 on every loop and D = u on the genus
    and DX frontier.
    """
    if not f.automaton == g.automaton == k.automaton:
        raise ValueError("maps on different ambient graphs")
    depth = max(f.depth, g.depth, k.depth)
    f, g, k = extend(f, depth), extend(g, depth), extend(k, depth)
    if any(g.end_action[f.end_action[c]] != k.end_action[c] for c in f.end_action):
        return False
    rank = genus(f.automaton)
    if rank == 0:
        return True
    gs = g.substitution()
    sigma = {lid: gs(f.loop_word(lid)) for lid in f.loop_ids()}

    def d(c: Path) -> Word:
        a_f = W.mul(gs(f.accumulated_wrap(c)), g.accumulated_wrap(f.vmap[c]))
        return W.mul(a_f, W.inv(k.accumulated_wrap(c)))

    if rank == 1:
        if any(sigma[lid] != k.loop_word(lid) for lid in sigma):
            return False
        return len({d(c) for c in f.dx_frontier()}) <= 1
    genus_front = f.genus_frontier()
    if any(g.vmap[f.vmap[c]] != k.vmap[c] for c in genus_front):
        return False
    u = st.outer_conjugator(st.FreeGroupAutomorphism(f.loop_ids(), sigma), k.substitution())
    return u is not None and all(d(c) == u for c in genus_front + f.dx_frontier())


# -- outer actions -----------------------------------------------------------------


@dataclass(frozen=True)
class OuterAction:
    automorphism: st.FreeGroupAutomorphism
    outside: object = IDENTITY_OUTSIDE


def outer_action_of(f: ProperMapRep) -> OuterAction:
    return OuterAction(f.substitution(), f.outside)


# -- the identity criterion ----------------------------------------------------------


@dataclass(frozen=True)
class LineRep:
    """A proper line normalized as ray-tail, core word, ray-tail.

    Both ends lie in DX; the core path is a reduced root-based word (empty
    for the straight tree line between the two ends).
    """

    from_end: Path
    core_path: Word
    to_end: Path

    def __post_init__(self):
        object.__setattr__(self, "core_path", W.reduce_word(self.core_path))


@dataclass(frozen=True)
class IdentityVerdict:
    kind: str  # "certified_yes" | "no" | "unknown"
    depth: int | None = None
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.kind == "certified_yes"


def _moved_class_witness(f: ProperMapRep) -> tuple | None:
    """A short curve whose free homotopy class moves, if one is found.

    Scans the loops, then the curves x^sx y for ids x < y with sx = 1, -1,
    skipping those through no moved loop: they are fixed on the nose.
    """
    lids = f.loop_ids()
    moved = f.loop_images  # make keeps only moved loops
    moved_ids = [lid for lid in lids if lid in moved]
    for lid in moved_ids:
        if not W.is_conjugate(moved[lid], W.gen(lid)):
            return ("loop", lid)
    for x in lids:
        image_x = f.loop_word(x)
        for y in lids if x in moved else moved_ids:
            if x >= y:
                continue
            for sx in (1, -1):
                wd = ((x, sx), (y, 1))
                if not W.is_conjugate(W.mul(image_x if sx > 0 else W.inv(image_x), f.loop_word(y)), wd):
                    return ("curve", wd)
    return None


def _suspects(f: ProperMapRep, front: tuple[Path, ...]) -> list[Path]:
    """The vertices of ``front`` (path-ordered, one depth) that f moves or that lie below a
    wrapped edge, in ``front`` order: f fixes every other one, and A is 1 there."""
    hits = set()
    for v in f.edge_wraps:  # the vertices below v are one run of front
        hits.update(range(bisect_left(front, v), bisect_left(front, v[:-1] + (v[-1] + 1,))))
    for v in f.moves:
        i = bisect_left(front, v)
        if i < len(front) and front[i] == v:
            hits.add(i)
    return [front[i] for i in sorted(hits)]


def is_properly_homotopic_to_identity(f: ProperMapRep) -> IdentityVerdict:
    """Decide the identity criterion at support depth.

    Checks, in order: the end action, the conjugacy classes of closed
    curves (inner-ness of the induced substitution, pinned by any loops
    beyond the support), and the proper lines into DX via the accumulated
    wrap A.  Complete for IDENTITY_OUTSIDE maps; BANDED maps that pass all
    checks stay UNKNOWN.  Reads only what f moves: with w = 1 a frontier
    vertex f fixes and no wrapped edge lies above passes every check.
    """
    if f.end_moves:
        return IdentityVerdict("no", f.depth, ("end", min(f.end_moves)))

    rank = genus(f.automaton)
    if rank == 1:
        if f.loop_images:  # make keeps only moved loops
            lid = next(lid for lid in f.loop_ids() if lid in f.loop_images)
            return IdentityVerdict("no", f.depth, ("loop", lid))
        dx_front = f.dx_frontier()
        if dx_front:
            first = f.accumulated_wrap(dx_front[0])
            for c in dx_front if first else _suspects(f, dx_front):
                if f.accumulated_wrap(c) != first:
                    return IdentityVerdict("no", f.depth, ("line", LineRep(dx_front[0], W.EMPTY, c)))
    elif rank != 0:
        w = W.EMPTY  # no moved loop: the substitution is the identity
        if f.loop_images:
            # two fixed letters x, y pin w: it centralizes both, so w = 1, yet a loop moves
            fixes_two = len(f.loop_ids()) - len(f.loop_images) >= 2
            w = None if fixes_two else st.is_inner(f.substitution())
            if w is None:
                witness = _moved_class_witness(f)
                return IdentityVerdict("no", f.depth, witness or ("curve", None))
        genus_front = f.genus_frontier()
        for c in genus_front if w else _suspects(f, genus_front):  # a moved piece of genus beyond c moves its curves too
            if c in f.moves or f.accumulated_wrap(c) != w:
                return IdentityVerdict("no", f.depth, ("curve", c))
        dx_front = f.dx_frontier()
        for c in dx_front if w else _suspects(f, dx_front):
            if f.accumulated_wrap(c) != w:
                return IdentityVerdict("no", f.depth, ("line", LineRep(dx_front[0], W.EMPTY, c)))

    if f.is_identity_outside():
        return IdentityVerdict("certified_yes", f.depth)
    return IdentityVerdict("unknown", f.depth)


def verify_proper_pair(f: ProperMapRep, g: ProperMapRep) -> bool:
    """True iff g∘f and f∘g are both certified properly homotopic to the identity."""
    return bool(is_properly_homotopic_to_identity(compose(f, g))) and bool(
        is_properly_homotopic_to_identity(compose(g, f))
    )


# -- the R group and Phi_T -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RFunction:
    """Locally constant function from DX to root-based curve classes.

    Values are stored in root coordinates; the value at the base end's block
    is the empty word (R0).  The depth-D certificate for (R2): any block
    meeting a deep-mixed cylinder (where DX accumulates onto genus ends)
    carries the trivial value.
    """

    automaton: UnfoldingAutomaton
    depth: int
    alpha0: Path
    assignments: tuple[tuple[ClopenSet, Word], ...]

    @classmethod
    def make(cls, automaton, depth, alpha0, assignments) -> "RFunction":
        dx = dx_states(automaton)
        state = unfold(automaton, depth).state
        blocks = tuple(sorted(((b, W.reduce_word(w)) for b, w in assignments), key=lambda p: p[0].min_cylinder()))
        covered: set[Path] = set()
        for b, _ in blocks:
            ex = expand_to_depth(automaton, b.cylinders, depth)  # refuses cylinders deeper than depth
            for cyl in b.cylinders:
                if state[cyl] not in dx:
                    raise ValueError(f"block cylinder {path_str(cyl)} carries no DX ends")
            ex = {c for c in ex if state[c] in dx}
            if ex & covered:
                raise ValueError("assignment blocks overlap")
            covered |= ex
        if covered != set(_dx_cylinders(automaton, depth)):
            raise ValueError("assignments do not cover DX")
        h = cls(automaton, depth, alpha0, blocks)
        if h.value_at(alpha0):
            raise ValueError("(R0) violated: value at the base end must be trivial")
        return h

    def value_at(self, cyl: Path) -> Word:
        for b, w in self.assignments:
            if any(is_ancestor(u, cyl) for u in b.cylinders):
                return w
        raise KeyError(f"cylinder {path_str(cyl)} not covered")

    def dx_cylinders(self, depth: int | None = None) -> tuple[Path, ...]:
        return _dx_cylinders(self.automaton, self.depth if depth is None else depth)

    def r2_certified(self) -> bool:
        deep = deep_mixed_states(self.automaton)
        frontier = unfold(self.automaton, self.depth).frontier
        for b, w in self.assignments:
            if not w:
                continue
            ex = expand_to_depth(self.automaton, b.cylinders, self.depth)
            if any(frontier[c] in deep for c in ex):
                return False
        return True

    def __eq__(self, other) -> bool:
        if not isinstance(other, RFunction):
            return NotImplemented
        if self.automaton != other.automaton:
            return False
        if not (is_ancestor(self.alpha0, other.alpha0) or is_ancestor(other.alpha0, self.alpha0)):
            return False
        d = max(self.depth, other.depth)
        return all(self.value_at(c) == other.value_at(c) for c in self.dx_cylinders(d))

    def __hash__(self):
        return hash((self.automaton, self.alpha0))


def _dx_cylinders(a: UnfoldingAutomaton, depth: int) -> tuple[Path, ...]:
    """The depth-D cylinders with DX ends below them."""
    dx = dx_states(a)
    frontier = unfold(a, depth).frontier
    return tuple(c for c in cylinders(a, depth) if frontier[c] in dx)


def default_base_end(a: UnfoldingAutomaton, depth: int) -> Path:
    """Lexicographically least pure-DX cylinder (live, no loops below)."""
    reach = loop_reaching_states(a)
    for c in cylinders(a, depth):
        if unfold(a, depth).frontier[c] not in reach:  # memoized; only reached when depth >= 0
            return c
    raise PreconditionFailedError("no pure DX cylinder at this depth")


def phi_T(f: ProperMapRep, alpha0: Path | None = None) -> RFunction:
    """The cocycle value function: W(b) = A(b)^-1 A(alpha0) per DX cylinder.

    Preconditions mirror the definition: the end action must be the
    identity, and either DX is compact or f acts as the identity on the
    fundamental group based at the chosen end.
    """
    a = f.automaton
    if alpha0 is None:
        alpha0 = default_base_end(a, f.depth)
    dx = dx_states(a)
    if a.state_of(alpha0) not in dx:
        raise PreconditionFailedError("base end cylinder carries no DX ends")
    if f.end_moves:
        raise PreconditionFailedError("end action is not the identity")
    a0 = f.accumulated_wrap(alpha0)
    based_identity = all(f.loop_word(lid) == W.conjugate(W.gen(lid), a0) for lid in f.loop_ids()) and all(
        f.accumulated_wrap(c) == a0 for c in f.genus_frontier()
    )
    if not (dx_compact(a) or based_identity):
        raise PreconditionFailedError("need compact DX or trivial action on the based fundamental group")
    by_value: dict[Word, set[Path]] = {}
    for b in f.dx_frontier():
        val = W.mul(W.inv(f.accumulated_wrap(b)), a0)
        by_value.setdefault(val, set()).add(b)
    assignments = [(ClopenSet.make(cyls, f.depth), val) for val, cyls in by_value.items()]
    h = RFunction.make(a, f.depth, alpha0, assignments)
    if not h.r2_certified():
        raise R2ViolationError("computed values violate the (R2) certificate")
    return h


def r_compose(h1: RFunction, h2: RFunction) -> RFunction:
    """Pointwise product on the common refinement of the two block structures."""
    if h1.automaton != h2.automaton:
        raise ValueError("R functions on different graphs")
    d = max(h1.depth, h2.depth)
    by_value: dict[Word, set[Path]] = {}
    for c in h1.dx_cylinders(d):
        val = W.mul(h1.value_at(c), h2.value_at(c))
        by_value.setdefault(val, set()).add(c)
    assignments = [(ClopenSet.make(cyls, d), val) for val, cyls in by_value.items()]
    return RFunction.make(h1.automaton, d, h1.alpha0 if len(h1.alpha0) >= len(h2.alpha0) else h2.alpha0, assignments)


def r_inverse(h: RFunction) -> RFunction:
    assignments = [(b, W.inv(w)) for b, w in h.assignments]
    return RFunction.make(h.automaton, h.depth, h.alpha0, assignments)


def _gstar_at_base(g: ProperMapRep, alpha0: Path, word: Word) -> Word:
    """Action of g on a root-coordinate value of pi_1 based at the end alpha0."""
    acc = g.accumulated_wrap(alpha0)
    return W.mul(W.inv(acc), g.substitution()(word), acc)


def r_cocycle_check(f: ProperMapRep, g: ProperMapRep, alpha0: Path | None = None) -> bool:
    """Verify Phi(g∘f) = Phi(g) * g_*(Phi(f)) blockwise."""
    if alpha0 is None:
        alpha0 = default_base_end(f.automaton, min(f.depth, g.depth))
    hf = phi_T(f, alpha0)
    hg = phi_T(g, alpha0)
    hgf = phi_T(compose(f, g), alpha0)
    d = max(hf.depth, hg.depth, hgf.depth)
    for c in hgf.dx_cylinders(d):
        expect = W.mul(hg.value_at(c), _gstar_at_base(g, alpha0, hf.value_at(c)))
        if hgf.value_at(c) != expect:
            return False
    return True


def realize_r_function(h: RFunction) -> ProperMapRep:
    """Build a representative with phi_T equal to h.

    The map is the identity except on the entry edges of the pure-DX
    branches named by each block: the entry edge of a branch with block
    value Wv is wrapped by Wv^-1.  Blocks meeting (shallowly) mixed
    cylinders are pushed down to the pure-DX branches below them.
    """
    if not h.r2_certified():
        raise R2ViolationError("block values near accumulating genus ends must be trivial")
    a = h.automaton
    live = live_states(a)
    reach = loop_reaching_states(a)
    dx = dx_states(a)
    guard = h.depth + len(a.states) + 2
    state = unfold(a, h.depth).state

    wraps: dict[Path, Word] = {}
    support = h.depth
    for b, val in h.assignments:
        if not val:
            continue
        # descend from each block cylinder through the mixed states to the
        # entries of the pure-DX branches, in path order
        stack = [(cyl, state[cyl]) for cyl in sorted(b.cylinders, reverse=True)]
        while stack:
            c, s = stack.pop()
            if s not in live or s not in dx:
                continue
            if s in reach:
                if len(c) > guard:
                    raise AssertionError("descent through mixed cylinders failed to terminate")
                stack.extend((c + (i,), cs) for i, cs in reversed(list(enumerate(a.children[s]))))
                continue
            if not c:
                raise R2ViolationError("cannot realize a nontrivial value on the whole end space")
            wraps[c] = W.inv(val)
            support = max(support, len(c))
    return ProperMapRep.make(a, support, edge_wraps=wraps)


# -- the single-ray marking homomorphism -------------------------------------------------


def c_of(f: ProperMapRep) -> Word:
    """Class of rho0^-1 f(rho0) for a core-plus-one-ray ambient graph.

    Requires the representative to be the identity on the core (literal
    loop images, trivial wraps toward genus) and on the end space.
    """
    dxf = f.dx_frontier()
    if len(dxf) != 1:
        raise PreconditionFailedError("ambient graph must have exactly one DX ray")
    if f.end_moves:
        raise PreconditionFailedError("end action is not the identity")
    if f.loop_images:  # make keeps only moved loops
        raise PreconditionFailedError("representative is not the identity on the core")
    for c in f.genus_frontier():
        if f.accumulated_wrap(c) != W.EMPTY:
            raise PreconditionFailedError("representative drags the genus part")
    return f.accumulated_wrap(dxf[0])


# -- clopen subgroups U_K ------------------------------------------------------------------


def _component_of(k_vertices: frozenset[Path], v: Path) -> Path:
    """Root vertex of the complementary component containing v."""
    for i in range(len(v) + 1):
        if v[:i] not in k_vertices:
            return v[:i]
    raise ValueError(f"{path_str(v)} lies in K")


def uk_membership(f: ProperMapRep, k_vertices: frozenset[Path]) -> bool:
    """Membership in U_K: identity on K and preservation of its complement.

    Decided through the class invariants at support depth: the end action
    must respect complementary components, loops in K must be literally
    fixed, loop images and accumulated wraps in a component must be
    supported inside that component, and a rigid inverse must satisfy the
    same conditions.
    """
    if () not in k_vertices:
        raise ValueError("K must contain the root")
    for v in k_vertices:
        if v and v[:-1] not in k_vertices:
            raise ValueError("K must be a connected subtree")
        if len(v) >= f.depth:
            raise ValueError("K must sit strictly inside the support")

    def conditions(g: ProperMapRep) -> bool:
        for c, d in g.end_moves.items():
            if _component_of(k_vertices, c) != _component_of(k_vertices, d):
                return False
        t = g.truncation()
        for lid, (v, _) in t.loop_at.items():
            img = g.loop_word(lid)
            if v in k_vertices:
                if img != W.gen(lid):
                    return False
            else:
                comp = _component_of(k_vertices, v)
                for gname, _ in img:
                    gv = t.loop_at[gname][0]
                    if gv in k_vertices or _component_of(k_vertices, gv) != comp:
                        return False
        checkpoints = set(t.frontier) | {v for v, _ in t.loop_edges}
        for c in checkpoints:
            acc = g.accumulated_wrap(c)
            if c in k_vertices:
                if acc != W.EMPTY:
                    return False
            else:
                comp = _component_of(k_vertices, c)
                for gname, _ in acc:
                    gv = t.loop_at[gname][0]
                    if gv in k_vertices or _component_of(k_vertices, gv) != comp:
                        return False
        return True

    if not conditions(f):
        return False
    inv = rigid_inverse(f)
    if inv is None:
        return False
    return conditions(inv)


# -- extension over trees --------------------------------------------------------------------


def extend_over_trees(
    a: UnfoldingAutomaton,
    depth: int,
    core_vmap: Mapping[Path, Path],
    core_loop_images: Mapping[str, Word],
    core_wraps: Mapping[Path, Word],
    end_extension: Mapping[Path, Path],
) -> ProperMapRep:
    """Extend a core map over the attached trees by the sup-of-shadows rule.

    Vertices outside the core map to the deepest common ancestor of the
    images of their shadow, clipped at their own depth.  The end extension
    must be a state-preserving bijection of the live depth-D cylinders
    extending the core map's boundary behavior, and every state must be
    live (no finite blobs hang off the graph).
    """
    live = live_states(a)
    if set(a.children) - set(live):
        raise PreconditionFailedError("extension requires every state to be live")
    cyls = cylinders(a, depth)
    if set(end_extension) != set(cyls) or set(end_extension.values()) != set(cyls):
        raise ValueError("end extension must be a bijection of the depth-D cylinders")
    bis = bisimulation_classes(a)
    t = unfold(a, depth)
    for c, d in end_extension.items():
        if bis[t.frontier[c]] != bis[t.frontier[d]]:
            raise PreconditionFailedError(f"end extension must preserve state classes at depth {depth}")
    corev = core_vertices(a, depth)
    for v in core_vmap:
        if v not in corev:
            raise ValueError(f"{path_str(v)} is not a core vertex")
    vm: dict[Path, Path] = {}
    for v in t.vertices:
        if v in corev:
            vm[v] = core_vmap.get(v, v)
            continue
        shadow = [end_extension[c] for c in cylinders_below(a, depth, v)]
        sup = shadow[0]
        for s in shadow[1:]:
            n = 0
            for x, y in zip(sup, s):
                if x != y:
                    break
                n += 1
            sup = sup[:n]
        vm[v] = sup if len(sup) <= len(v) else sup[: len(v)]
    return ProperMapRep.make(a, depth, vm, dict(core_loop_images), dict(core_wraps), dict(end_extension))


# -- map files ----------------------------------------------------------------------------------


def _add_path_records(records: dict[str, dict], lines: Iterable[tuple[int, str, str, str]], paths: Mapping[str, Path]):
    """Add (lineno, kind, source, target) vmap, wrap and endmap records to ``records[kind]`` as
    source -> (lineno, target), in line order.  A path is looked up in ``paths`` (vertex names);
    other spellings, and the root (a falsy path), go through ``parse_path``."""
    for lineno, kind, src, dst in lines:
        key = paths.get(src.strip()) or _path_on_line(lineno, src)
        if key in records[kind]:
            raise ValueError(f"line {lineno}: repeated {kind} source {src.strip()}")
        records[kind][key] = (lineno, st._word_on_line(lineno, dst) if kind == "wrap" else paths.get(dst.strip()) or _path_on_line(lineno, dst))


def _path_on_line(lineno: int, text: str) -> Path:
    try:
        return parse_path(text)
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None


def _known_letters(lineno: int, word: Word, lids: Mapping[str, object]) -> Word:
    """The word of the record on ``lineno``, refused if a letter is not a loop in ``lids``."""
    for g, _ in word:
        if g not in lids:
            raise ValueError(f"line {lineno}: word uses unknown loop generator {g}")
    return word


def parse_map_file(a: UnfoldingAutomaton, text: str) -> ProperMapRep:
    """`support <D>` then vmap/loop/wrap/endmap/outside records: one support line,
    at most one outside line, and each record source once, as ``source -> target``.

    A vmap source and target lie in the truncation, an endmap source is a live
    frontier cylinder, and loop and wrap records name its loops and edges; ``make``
    refuses endmap records that disagree with an IDENTITY_OUTSIDE vmap.  Loop records
    are read as they come, and one whose target is its own generator (``loop X -> [X]``)
    is only checked, not kept; path records once the whole file is checked, through the
    truncation's vertex names, and other spellings (``01``, `` 0/ 1``) through ``parse_path``.
    The outside line is ``outside identity`` or ``outside banded <n>``, with nothing after it.
    """
    depth = None
    records: dict[str, dict] = {"vmap": {}, "loop": {}, "wrap": {}, "endmap": {}}  # source -> (lineno, target)
    pending: list[tuple[int, str, str, str]] = []  # (lineno, kind, source, target) of each path record
    outside: object = IDENTITY_OUTSIDE
    seen: set[str] = set()
    try:
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            kind = line.split(None, 1)[0]
            if kind in records:
                src, arrow, dst = line[len(kind) :].partition("->")
                if not arrow:
                    raise ValueError(f"line {lineno}: {kind} record needs ->")
                if kind != "loop":
                    pending.append((lineno, kind, src, dst))
                    continue
                src, dst = src.strip(), dst.strip()
                if src in records[kind]:
                    raise ValueError(f"line {lineno}: repeated {kind} source {src}")
                fixed = src and "]" not in src and dst == f"[{src}]"
                records[kind][src] = (lineno, None if fixed else st._word_on_line(lineno, dst))
            elif kind in ("support", "outside"):
                if kind in seen:
                    raise ValueError(f"line {lineno}: repeated {kind}")
                seen.add(kind)
                parts = line.split()
                if kind == "support":
                    if len(parts) != 2 or not parts[1].isdecimal():
                        raise ValueError(f"line {lineno}: support needs one depth")
                    depth = int(parts[1])
                elif parts[1:] == ["identity"]:
                    outside = IDENTITY_OUTSIDE
                elif parts[1:2] == ["banded"] and len(parts) == 3 and parts[2].isdecimal():
                    outside = banded(int(parts[2]))
                else:
                    raise ValueError(f"line {lineno}: bad outside flag")
            else:
                raise ValueError(f"line {lineno}: unknown record {kind!r}")
        if depth is None:
            raise ValueError("missing support line")
    except Exception:
        _add_path_records(records, pending, {})  # a path record's own error on an earlier line comes first
        raise
    t = unfold(a, depth)
    _add_path_records(records, pending, t.paths)
    vmap = {v: w for v, (_, w) in records["vmap"].items()}
    endmap = {c: d for c, (_, d) in records["endmap"].items()}
    stray = min(set(vmap).difference(t.state), default=None)
    if stray is not None:
        raise ValueError(f"vmap source {path_str(stray)} lies outside the support-{depth} truncation")
    for lineno, w in records["vmap"].values():
        if w not in t.state:
            raise ValueError(f"line {lineno}: vmap target {path_str(w)} lies outside the support-{depth} truncation")
    ea = None
    if endmap:
        live = cylinders(a, depth)
        stray = min(set(endmap).difference(live), default=None)
        if stray is not None:
            raise ValueError(f"endmap source {path_str(stray)} is not a live frontier cylinder")
        ea = {c: endmap.get(c, vmap.get(c, c)) for c in live}
    lids = t.loop_at
    loops = {}
    for lid, (lineno, word) in records["loop"].items():
        if lid not in lids:
            raise ValueError(f"line {lineno}: unknown loop {lid!r}")
        if word is not None:
            loops[lid] = _known_letters(lineno, word, lids)
    wraps = {}
    for child, (lineno, word) in records["wrap"].items():
        if not child or child not in t.state:
            raise ValueError(f"line {lineno}: unknown edge target {path_str(child)}")
        wraps[child] = _known_letters(lineno, word, lids)
    return ProperMapRep.make(a, depth, vmap, loops, wraps, ea, outside)


def format_map_file(f: ProperMapRep) -> str:
    lines = [f"support {f.depth}"]
    for v in sorted(f.moves):
        lines.append(f"vmap {path_str(v)} -> {path_str(f.moves[v])}")
    for lid in f.loop_ids():
        w = f.loop_word(lid)
        if w != W.gen(lid):
            lines.append(f"loop {lid} -> {W.word_to_str(w)}")
    for child in sorted(f.edge_wraps):
        lines.append(f"wrap {path_str(child)} -> {W.word_to_str(f.edge_wraps[child])}")
    for c in sorted(f.end_moves):
        lines.append(f"endmap {path_str(c)} -> {path_str(f.end_moves[c])}")
    if f.is_identity_outside():
        lines.append("outside identity")
    else:
        lines.append(f"outside banded {f.outside[1]}")
    return "\n".join(lines) + "\n"
