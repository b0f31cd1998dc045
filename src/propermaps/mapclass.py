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

The image of a vertex v is ``moves.get(v, v)``, of a live cylinder c
``end_moves.get(c, c)``.

For IDENTITY_OUTSIDE maps everything beyond the support is carried
canonically, so a loop generator g below a frontier cylinder c has induced
class A(c) g' A(c)^-1, where g' is the transported loop and A the
accumulated wrap along the root-to-c path.  The function A drives all
line invariants: the value of the proper-homotopy cocycle at a cylinder b
relative to the base end is A(b)^-1 A(a0).

No composite or inverse is built.  What the checks read of one comes from
its factors by one derivation: sigma_{g∘f} = sigma_g∘sigma_f and
A_{g∘f}(c) = sigma_g(A_f(c)) A_g(f(c)), and for a rigid inverse
sigma_{f^-1} = sigma_f^-1 and A_{f^-1}(f(c)) = sigma_f^-1(A_f(c))^-1.
"""

from __future__ import annotations

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
    genus_front_states,
    live_states,
    loop_basis,
    loop_reaching_states,
    names,
    parse_path,
    path_str,
    unfold,
    unknown_loop,
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
        edge is fixed (unwrapped), and a live frontier cylinder absent from ``end_action``
        goes where vmap sends it.  Every unmoved entry passes every check.  Each entry is
        checked by a walk from the root (``NameIndex``), not in a truncation."""
        a, ix = automaton, names(automaton)
        vmap = vmap or {}
        if not ix.known([*vmap, *vmap.values()], depth):
            raise ValueError("vmap must map truncation vertices to truncation vertices")
        state = ix.states  # now holds every vertex of vmap
        moves = {v: w for v, w in vmap.items() if v != w}
        if () in moves:
            raise ValueError("representatives fix the root")
        moved_front = sorted(v for v in moves if len(v) == depth)
        if moved_front:
            bis = bisimulation_classes(a)
            for v in moved_front:  # in path order
                w = moves[v]
                if len(w) != depth or bis[state[w]] != bis[state[v]]:
                    raise ValueError(f"frontier vertex {path_str(v)} must map to an equivalent frontier vertex")
        bad = unknown_loop(a, loop_images or (), depth)
        if bad is not None:
            raise ValueError(f"unknown loop {bad}")
        li = {}  # only moved loops: loop_word reads the rest as their generators
        for lid, word in (loop_images or {}).items():
            word = W.reduce_word(word)
            if word != W.gen(lid):
                li[lid] = word
        ew = {}
        for child, word in (edge_wraps or {}).items():
            if not child or ix.state(child, depth) is None:
                raise ValueError(f"unknown edge target {path_str(child)}")
            word = W.reduce_word(word)
            if word:
                ew[child] = word
        bad = unknown_loop(a, dict.fromkeys(g for word in [*li.values(), *ew.values()] for g, _ in word), depth)
        if bad is not None:
            raise ValueError(f"word uses unknown loop generator {bad}")
        live = live_states(a)

        def live_cylinder(c: Path) -> bool:
            return len(c) == depth and ix.state(c, depth) in live

        # the subtree below a live frontier vertex is carried onto the subtree below its image
        em = {c: moves[c] for c in moved_front if state[c] in live}
        if outside == IDENTITY_OUTSIDE:
            bad = min((c for c, d in (end_action or {}).items() if not live_cylinder(c) or em.get(c, c) != d), default=None)
            if bad is not None:
                raise InconsistentFrontierError(f"end action disagrees with vmap at {path_str(bad)}")
        elif not (isinstance(outside, tuple) and outside[0] == "banded"):
            raise ValueError(f"bad outside flag {outside!r}")
        elif end_action is not None:
            if not all(map(live_cylinder, end_action)):
                raise ValueError("end action must be a bijection of the live frontier cylinders")
            em = {c: d for c, d in {**em, **end_action}.items() if c != d}
        if set(em.values()) != set(em):  # with the unmoved cylinders fixed, a bijection permutes the moved ones
            raise ValueError("end action must be a bijection of the live frontier cylinders")
        if outside != IDENTITY_OUTSIDE:
            reach = loop_reaching_states(a)
            if any((ix.state(c, depth) in reach) != (ix.state(d, depth) in reach) for c, d in em.items()):
                raise ValueError("end action must preserve the genus end set")
        return cls(a, depth, moves, li, ew, em, outside)

    @classmethod
    def identity(cls, automaton: UnfoldingAutomaton, depth: int) -> "ProperMapRep":
        return cls.make(automaton, depth)

    # -- basic accessors -----------------------------------------------------

    def truncation(self):
        return unfold(self.automaton, self.depth)

    def loop_ids(self) -> tuple[str, ...]:
        return loop_basis(self.automaton, self.depth)

    def loop_word(self, lid: str) -> Word:
        return self.loop_images.get(lid, W.gen(lid))

    def wrap(self, child: Path) -> Word:
        return self.edge_wraps.get(child, W.EMPTY)

    def accumulated_wrap(self, v: Path) -> Word:
        """A(v): product of the edge wraps along the root-to-v path (none beyond the support)."""
        acc, wraps = W.EMPTY, self.edge_wraps  # make keeps only nonempty wraps
        for i in range(1, min(len(v), self.depth) + 1) if wraps else ():
            word = wraps.get(v[:i])
            if word:
                acc = W.mul(acc, word)
        return acc

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
        front = genus_front_states(self.automaton)
        return tuple(v for v, s in self.truncation().frontier.items() if s in front)  # unfold lists it in path order

    def is_identity_outside(self) -> bool:
        return self.outside == IDENTITY_OUTSIDE


# -- extension, composites and inverses ------------------------------------------


def extend(f: ProperMapRep, depth: int) -> ProperMapRep:
    """Extend an IDENTITY_OUTSIDE representative to a deeper support.

    Beyond the old support the map carries subtrees canonically, so new
    vertices transport along the image of their old-frontier ancestor and new
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
    moves = f.moves
    # a vertex of the old truncation is its own ancestor at the old support
    vm = {v: moves[v[: f.depth]] + v[f.depth :] for v in t_new.vertices if v[: f.depth] in moves}
    li: dict[str, Word] = dict(f.loop_images)
    for lid, (v, k) in t_new.loop_at.items():
        if len(v) <= f.depth:
            continue
        anc, suffix = v[: f.depth], v[f.depth :]
        acc = f.accumulated_wrap(anc)
        transported = t_new.loop_name[moves.get(anc, anc) + suffix, k]
        img = W.mul(acc, W.gen(transported), W.inv(acc))
        if img != W.gen(lid):
            li[lid] = img
    return ProperMapRep.make(a, depth, vm, li, f.edge_wraps)


def _at_common_depth(*maps: ProperMapRep) -> list[ProperMapRep]:
    """The maps, all on one ambient graph, extended to the deepest support among them."""
    if any(m.automaton != maps[0].automaton for m in maps):
        raise ValueError("maps on different ambient graphs")
    depth = max(m.depth for m in maps)
    return [extend(m, depth) for m in maps]


def _after(first: Mapping[Path, Path], then: Mapping[Path, Path], v: Path) -> Path:
    """The image of v under ``first`` and then ``then``, each given by its moved entries."""
    v = first.get(v, v)
    return then.get(v, v)


def _composite_wrap(f: ProperMapRep, g: ProperMapRep, gs: st.FreeGroupAutomorphism, c: Path) -> Word:
    """A_{g∘f}(c) = sigma_g(A_f(c)) A_g(f(c)) at a vertex c of the common truncation, gs = sigma_g.

    The wrap of g∘f on an edge (u, v) is A_g(f(u))^-1 sigma_g(wrap_f(v)) A_g(f(v)), and
    these telescope along the root path since f fixes the root."""
    return W.mul(gs(f.accumulated_wrap(c)), g.accumulated_wrap(f.moves.get(c, c)))


def _rigid_inverse_substitution(f: ProperMapRep) -> st.FreeGroupAutomorphism | None:
    """sigma^-1 when f is IDENTITY_OUTSIDE, permutes the truncation's vertices and sigma inverts."""
    if not f.is_identity_outside() or set(f.moves.values()) != set(f.moves):  # a permutation of the moved vertices
        return None
    try:
        return f.substitution().inverse()
    except st.NotAnAutomorphismError:
        return None


def has_rigid_inverse(f: ProperMapRep) -> bool:
    """Whether f has a rigid inverse f^-1: f^-1 permutes the vertices back, its substitution
    is sigma_f^-1 and A_{f^-1}(f(c)) = sigma_f^-1(A_f(c))^-1."""
    return _rigid_inverse_substitution(f) is not None


def composes_to(f: ProperMapRep, g: ProperMapRep, k: ProperMapRep) -> bool:
    """Whether g∘f ≃ k, for IDENTITY_OUTSIDE maps with rigid inverses.

    Decides the identity criterion on k^-1∘g∘f from what it would read, by
    the one derivation of composites and inverses (module docstring): with
    F = g∘f, sigma_F = sigma_g∘sigma_f and A_F(c) = sigma_g(A_f(c)) A_g(f(c)),
    and A of k^-1 at k(c) is sigma_k^-1(A_k(c))^-1.  Where F(c) = k(c) the
    difference map wraps c by sigma_k^-1(D(c)), with D(c) = A_F(c) A_k(c)^-1,
    and its substitution is sigma_k^-1∘sigma_F.  Genus 0 asks F = k on the
    ends only; genus 1 also sigma_F = sigma_k and D constant on the DX
    frontier; higher genus asks F = k on the genus frontier too, and u with
    sigma_F(x) = u sigma_k(x) u^-1 on every loop and D = u on the genus and
    DX frontier.
    """
    f, g, k = _at_common_depth(f, g, k)
    fe, ge, ke = f.end_moves, g.end_moves, k.end_moves
    for c in fe.keys() | ge.keys() | ke.keys():  # all three fix every other end
        fc = fe.get(c, c)
        if ge.get(fc, fc) != ke.get(c, c):
            return False
    rank = genus(f.automaton)
    if rank == 0:
        return True
    gs = g.substitution()
    sigma = {lid: gs(f.loop_word(lid)) for lid in f.loop_ids()}

    def d(c: Path) -> Word:
        return W.mul(_composite_wrap(f, g, gs, c), W.inv(k.accumulated_wrap(c)))

    if rank == 1:
        if any(sigma[lid] != k.loop_word(lid) for lid in sigma):
            return False
        return len({d(c) for c in f.dx_frontier()}) <= 1
    genus_front = f.genus_frontier()
    if any(_after(f.moves, g.moves, c) != k.moves.get(c, c) for c in genus_front):
        return False
    u = st.outer_conjugator(st.FreeGroupAutomorphism(f.loop_ids(), sigma), k.substitution())
    return u is not None and all(d(c) == u for c in genus_front + f.dx_frontier())


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

    Scans the moved loops in basis order, then the curves x^sx y for ids x < y with
    sx = 1, -1, skipping those through no moved loop: they are fixed on the nose.
    Only the curves need the whole loop basis, unless it is kept or at most twice the moved loops.
    """
    moved = f.loop_images  # make keeps only moved loops
    lids = loop_basis(f.automaton, f.depth, 2 * len(moved))
    if lids is None:
        moved_ids = sorted(moved, key=lambda lid: names(f.automaton).loop(lid, f.depth))
    else:
        moved_ids = [lid for lid in lids if lid in moved]
    for lid in moved_ids:
        if not W.is_conjugate(moved[lid], W.gen(lid)):
            return ("loop", lid)
    lids = lids or f.loop_ids()
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


def _first_off(f: ProperMapRep, through: frozenset[str], take: frozenset[str], w: Word, moved: bool) -> Path | None:
    """The first depth-D vertex c in path order with a state in ``take`` and A(c) != w (or, if
    ``moved``, c moved), or None: a walk through the states in ``through`` that skips each
    subtree in which nothing is wrapped or moved and A(v) = w at its top v."""
    a, depth, wraps = f.automaton, f.depth, f.edge_wraps
    busy = set()  # the vertices with a wrapped edge or a moved depth-D vertex strictly below
    for u in [*wraps, *(v for v in f.moves if len(v) == depth and moved)]:
        busy.update(u[:i] for i in range(len(u)))
    stack = [((), a.root, W.EMPTY)]
    while stack:
        v, s, acc = stack.pop()
        if s not in through:
            continue
        if len(v) == depth:
            if s in take and (acc != w or moved and v in f.moves):
                return v
        elif v in busy or acc != w:  # below any other vertex every A is A(v) = w, and nothing moves
            kids = a.children[s]
            for i in reversed(range(len(kids))):
                word = wraps.get(v + (i,))
                stack.append((v + (i,), kids[i], W.mul(acc, word) if word else acc))
    return None


def _first_dx(f: ProperMapRep) -> Path | None:
    """The first depth-D vertex in path order with DX ends below: each DX vertex has a DX child."""
    a, dx = f.automaton, dx_states(f.automaton)
    v, s = (), a.root
    while s in dx and len(v) < f.depth:
        i = next(i for i, c in enumerate(a.children[s]) if c in dx)
        v, s = v + (i,), a.children[s][i]
    return v if s in dx else None


def is_properly_homotopic_to_identity(f: ProperMapRep) -> IdentityVerdict:
    """Decide the identity criterion at support depth.

    Checks, in order: the end action, the conjugacy classes of closed
    curves (inner-ness of the induced substitution, pinned by any loops
    beyond the support), and the proper lines into DX via the accumulated
    wrap A.  Complete for IDENTITY_OUTSIDE maps; BANDED maps that pass all
    checks stay UNKNOWN.  Reads only what f moves: the frontier checks walk
    the tree in path order (``_first_off``) into the subtrees below a moved
    vertex or a wrapped edge, and build no truncation.
    """
    if f.end_moves:
        return IdentityVerdict("no", f.depth, ("end", min(f.end_moves)))

    a = f.automaton
    rank, dx = genus(a), dx_states(a)
    w = W.EMPTY  # no moved loop: the substitution is the identity
    if rank == 1:
        if f.loop_images:  # make keeps only moved loops
            return IdentityVerdict("no", f.depth, ("loop", min(f.loop_images, key=lambda x: names(a).loop(x, f.depth))))
        c0 = _first_dx(f)
        w = f.accumulated_wrap(c0) if c0 is not None else w
    elif rank != 0:
        if f.loop_images:
            # two fixed letters x, y pin w: it centralizes both, so w = 1, yet a loop moves
            basis = loop_basis(a, f.depth, len(f.loop_images) + 1)
            fixes_two = basis is None or len(basis) - len(f.loop_images) >= 2
            w = None if fixes_two else st.is_inner(f.substitution())
            if w is None:
                witness = _moved_class_witness(f)
                return IdentityVerdict("no", f.depth, witness or ("curve", None))
        # a moved piece of genus beyond c moves its curves too
        c = _first_off(f, loop_reaching_states(a), genus_front_states(a), w, True)
        if c is not None:
            return IdentityVerdict("no", f.depth, ("curve", c))
    if rank != 0:
        c = _first_off(f, dx, dx, w, False)
        if c is not None:
            return IdentityVerdict("no", f.depth, ("line", LineRep(_first_dx(f), W.EMPTY, c)))

    if f.is_identity_outside():
        return IdentityVerdict("certified_yes", f.depth)
    return IdentityVerdict("unknown", f.depth)


def verify_proper_pair(f: ProperMapRep, g: ProperMapRep) -> bool:
    """True iff g∘f and f∘g are both certified properly homotopic to the identity.

    Both are decided by ``composes_to`` at the common depth.  A banded map is
    never certified, and one at the shallower depth does not extend
    (PreconditionFailedError).
    """
    f, g = _at_common_depth(f, g)
    if not (f.is_identity_outside() and g.is_identity_outside()):
        return False
    ident = ProperMapRep.identity(f.automaton, f.depth)
    return composes_to(f, g, ident) and composes_to(g, f, ident)


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

    Preconditions mirror the definition: the base end is a DX cylinder at or
    below the support, the end action must be the identity, and either DX is
    compact or f acts as the identity on the fundamental group based at the
    chosen end.
    """
    return _phi_T(f, bool(f.end_moves), f.loop_word, f.accumulated_wrap, alpha0)


def _phi_T(f: ProperMapRep, moves_an_end: bool, loop_word, acc, alpha0: Path | None) -> RFunction:
    """``phi_T`` of the map on f's truncation with the given end flag, loop images and A."""
    a = f.automaton
    if alpha0 is None:
        alpha0 = default_base_end(a, f.depth)
    dx = dx_states(a)
    if a.state_of(alpha0) not in dx:
        raise PreconditionFailedError("base end cylinder carries no DX ends")
    if len(alpha0) < f.depth:
        raise PreconditionFailedError(f"base end cylinder lies above the support depth {f.depth}")
    if moves_an_end:
        raise PreconditionFailedError("end action is not the identity")
    a0 = acc(alpha0)
    based_identity = all(loop_word(lid) == W.conjugate(W.gen(lid), a0) for lid in f.loop_ids()) and all(
        acc(c) == a0 for c in f.genus_frontier()
    )
    if not (dx_compact(a) or based_identity):
        raise PreconditionFailedError("need compact DX or trivial action on the based fundamental group")
    by_value: dict[Word, set[Path]] = {}
    for b in f.dx_frontier():
        val = W.mul(W.inv(acc(b)), a0)
        by_value.setdefault(val, set()).add(b)
    assignments = [(ClopenSet.make(cyls, f.depth), val) for val, cyls in by_value.items()]
    h = RFunction.make(a, f.depth, alpha0, assignments)
    if not h.r2_certified():
        raise R2ViolationError("computed values violate the (R2) certificate")
    return h


def _gstar_at_base(g: ProperMapRep, alpha0: Path, word: Word) -> Word:
    """Action of g on a root-coordinate value of pi_1 based at the end alpha0."""
    acc = g.accumulated_wrap(alpha0)
    return W.mul(W.inv(acc), g.substitution()(word), acc)


def r_cocycle_check(f: ProperMapRep, g: ProperMapRep, alpha0: Path | None = None) -> bool:
    """Verify Phi(g∘f) = Phi(g) * g_*(Phi(f)) blockwise, at the common support depth.

    Phi(g∘f) is read off f and g by the one derivation (module docstring).
    The base end defaults to the least pure-DX cylinder at the common depth.
    """
    f, g = _at_common_depth(f, g)
    depth = f.depth
    if alpha0 is None:
        alpha0 = default_base_end(f.automaton, depth)
    hf = phi_T(f, alpha0)
    hg = phi_T(g, alpha0)
    gs = g.substitution()
    moves_an_end = any(_after(f.end_moves, g.end_moves, c) != c for c in f.end_moves.keys() | g.end_moves.keys())
    hgf = _phi_T(
        f, moves_an_end, lambda lid: gs(f.loop_word(lid)), lambda c: _composite_wrap(f, g, gs, c[:depth]), alpha0
    )
    for c in hgf.dx_cylinders():
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
    supported inside that component, and f must have a rigid inverse that
    meets the same conditions.  The inverse is read off f, with
    sigma_f^-1 and A_{f^-1}(x) = sigma_f^-1(A_f(f^-1(x)))^-1.
    """
    if () not in k_vertices:
        raise ValueError("K must contain the root")
    for v in k_vertices:
        if v and v[:-1] not in k_vertices:
            raise ValueError("K must be a connected subtree")
        if len(v) >= f.depth:
            raise ValueError("K must sit strictly inside the support")

    t = f.truncation()

    def supported(v: Path, word: Word, fixed: Word) -> bool:
        """Whether a word at v is ``fixed`` (v in K) or spelt in the loops of v's component."""
        if v in k_vertices:
            return word == fixed
        comp = _component_of(k_vertices, v)
        for x, _ in word:
            xv = t.loop_at[x][0]
            if xv in k_vertices or _component_of(k_vertices, xv) != comp:
                return False
        return True

    checkpoints = set(t.frontier) | {v for v, _ in t.loop_edges}

    def conditions(loop_word, acc) -> bool:
        return all(supported(v, loop_word(lid), W.gen(lid)) for lid, (v, _) in t.loop_at.items()) and all(
            supported(c, acc(c), W.EMPTY) for c in checkpoints
        )

    # f^-1 moves ends between the same components as f does
    if any(_component_of(k_vertices, c) != _component_of(k_vertices, d) for c, d in f.end_moves.items()):
        return False
    if not conditions(f.loop_word, f.accumulated_wrap):
        return False
    sigma_inv = _rigid_inverse_substitution(f)
    if sigma_inv is None:
        return False
    back = {w: v for v, w in f.moves.items()}  # f^-1 on the moved vertices
    return conditions(sigma_inv.images.__getitem__, lambda x: W.inv(sigma_inv(f.accumulated_wrap(back.get(x, x)))))


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


def _known_letters(lineno: int, word: Word, a: UnfoldingAutomaton, depth: int) -> None:
    """Refuse the word of the record on ``lineno`` if a letter is not a loop of the truncation."""
    bad = unknown_loop(a, [g for g, _ in word], depth)
    if bad is not None:
        raise ValueError(f"line {lineno}: word uses unknown loop generator {bad}")


def parse_map_file(a: UnfoldingAutomaton, text: str) -> ProperMapRep:
    """`support <D>` then vmap/loop/wrap/endmap/outside records: one support line,
    at most one outside line, and each record source once, as ``source -> target``.

    A vmap source and target lie in the truncation, an endmap source is a live
    frontier cylinder, and loop and wrap records name its loops and edges; ``make``
    refuses endmap records that disagree with an IDENTITY_OUTSIDE vmap.  Loop records
    are read as they come, and one whose target is its own generator (``loop X -> [X]``)
    is only checked, not kept; path records once the whole file is checked.  Each name
    is checked by walking the automaton (``NameIndex``), so a file
    costs the records it names; other path spellings (``01``, `` 0/ 1``) go through
    ``parse_path``.  The outside line is ``outside identity`` or ``outside banded <n>``,
    with nothing after it.
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
            kind = "loop" if line.startswith("loop ") else line.split(None, 1)[0]  # loop lines are most
            if kind in records:
                src, arrow, dst = line[len(kind) :].partition("->")
                if not arrow:
                    raise ValueError(f"line {lineno}: {kind} record needs ->")
                src, dst = src.strip(), dst.strip()
                if kind != "loop":
                    pending.append((lineno, kind, src, dst))
                    continue
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
    ix = names(a)
    ix.find([src for _, _, src, _ in pending] + [dst for _, kind, _, dst in pending if kind != "wrap"], depth)
    _add_path_records(records, pending, ix.paths)  # a name found at any depth is the path parse_path reads
    vmap = {v: w for v, (_, w) in records["vmap"].items()}
    endmap = {c: d for c, (_, d) in records["endmap"].items()}
    if not ix.known([*vmap, *vmap.values()], depth):
        stray = min((v for v in vmap if ix.state(v, depth) is None), default=None)
        if stray is not None:
            raise ValueError(f"vmap source {path_str(stray)} lies outside the support-{depth} truncation")
        for lineno, w in records["vmap"].values():
            if ix.state(w, depth) is None:
                raise ValueError(f"line {lineno}: vmap target {path_str(w)} lies outside the support-{depth} truncation")
    live = live_states(a)
    stray = min((c for c in endmap if len(c) != depth or ix.state(c, depth) not in live), default=None)
    if stray is not None:
        raise ValueError(f"endmap source {path_str(stray)} is not a live frontier cylinder")
    loops = {lid: word for lid, (_, word) in records["loop"].items() if word is not None}
    wraps = {child: word for child, (_, word) in records["wrap"].items()}
    error = None
    if unknown_loop(a, records["loop"], depth) is None:  # make checks the moved loops, letters and edges
        try:
            return ProperMapRep.make(a, depth, vmap, loops, wraps, endmap, outside)
        except ValueError as exc:
            error = exc
    for lid, (lineno, word) in records["loop"].items():  # a record's own error comes first, in line order
        if unknown_loop(a, [lid], depth) is not None:
            raise ValueError(f"line {lineno}: unknown loop {lid!r}")
        _known_letters(lineno, word or (), a, depth)
    for child, (lineno, word) in records["wrap"].items():
        if not child or ix.state(child, depth) is None:
            raise ValueError(f"line {lineno}: unknown edge target {path_str(child)}")
        _known_letters(lineno, word, a, depth)
    raise error


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
