"""Finitely supported representatives of proper maps and their invariants.

A representative stores, on a depth-D truncation of the ambient graph:

* ``vmap``        -- vertex images (root fixed, frontier to same-state frontier),
* ``loop_images`` -- the induced root-based class of every loop generator,
* ``edge_wraps``  -- for each tree edge (keyed by the child endpoint) the
                     root-based class ``geod(root->f(u)) f(e) geod(f(v)->root)``,
* ``end_action``  -- a bijection of the live depth-D cylinders: vmap there
                     for IDENTITY_OUTSIDE maps, given only for BANDED ones,
* ``outside``     -- IDENTITY_OUTSIDE or BANDED(b).

For IDENTITY_OUTSIDE maps everything beyond the support is carried
canonically, so a loop generator g below a frontier cylinder c has induced
class A(c) g' A(c)^-1, where g' is the transported loop and A the
accumulated wrap along the root-to-c path.  The function A drives all
line invariants: the value of the proper-homotopy cocycle at a cylinder b
relative to the base end is A(b)^-1 A(a0).
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
    return f"{path_str(path)}:{k}"


def loop_id_vertex(lid: str) -> Path:
    return parse_path(lid.rsplit(":", 1)[0])


@dataclass(frozen=True, eq=False)
class ProperMapRep:
    automaton: UnfoldingAutomaton
    depth: int
    vmap: Mapping[Path, Path]
    loop_images: Mapping[str, Word]
    edge_wraps: Mapping[Path, Word]
    end_action: Mapping[Path, Path]
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
        t = unfold(automaton, depth)
        verts = set(t.vertices)
        vm = {v: v for v in verts}
        vm.update(vmap or {})
        if set(vm) != verts or not set(vm.values()) <= verts:
            raise ValueError("vmap must map truncation vertices to truncation vertices")
        if vm[()] != ():
            raise ValueError("representatives fix the root")
        bis = bisimulation_classes(automaton)
        for v, s in t.frontier.items():
            w = vm[v]
            if w not in t.frontier or bis[t.frontier[w]] != bis[s]:
                raise ValueError(f"frontier vertex {path_str(v)} must map to an equivalent frontier vertex")
        lids = {loop_id(v, k) for v, k in t.loop_edges}
        li = {}
        for lid, word in (loop_images or {}).items():
            if lid not in lids:
                raise ValueError(f"unknown loop {lid}")
            li[lid] = W.reduce_word(word)
        ew = {}
        for child, word in (edge_wraps or {}).items():
            if child not in verts or not child:
                raise ValueError(f"unknown edge target {child}")
            word = W.reduce_word(word)
            if word:
                ew[child] = word
        for word in list(li.values()) + list(ew.values()):
            for g, _ in word:
                if g not in lids:
                    raise ValueError(f"word uses unknown loop generator {g}")
        live = frozenset(cylinders(automaton, depth))
        ea = {c: vm[c] for c in live}  # the subtree below c is carried onto the subtree below vmap[c]
        if outside == IDENTITY_OUTSIDE:
            if end_action is not None and dict(end_action) != ea:
                bad = min(c for c in set(ea) | set(end_action) if ea.get(c) != end_action.get(c))
                raise InconsistentFrontierError(f"end action disagrees with vmap at {path_str(bad)}")
        elif not (isinstance(outside, tuple) and outside[0] == "banded"):
            raise ValueError(f"bad outside flag {outside!r}")
        elif end_action is not None:
            ea = dict(end_action)
        if set(ea) != live or set(ea.values()) != live:
            raise ValueError("end action must be a bijection of the live frontier cylinders")
        reach = loop_reaching_states(automaton)
        if outside != IDENTITY_OUTSIDE and any((t.frontier[c] in reach) != (t.frontier[d] in reach) for c, d in ea.items()):
            raise ValueError("end action must preserve the genus end set")
        return cls(automaton, depth, vm, li, ew, ea, outside)

    @classmethod
    def identity(cls, automaton: UnfoldingAutomaton, depth: int) -> "ProperMapRep":
        return cls.make(automaton, depth)

    # -- basic accessors -----------------------------------------------------

    def truncation(self):
        return unfold(self.automaton, self.depth)

    def loop_ids(self) -> tuple[str, ...]:
        return self._loop_ids

    @cached_property
    def _loop_ids(self) -> tuple[str, ...]:
        return tuple(loop_id(v, k) for v, k in sorted(self.truncation().loop_edges))

    def loop_word(self, lid: str) -> Word:
        return self.loop_images.get(lid, W.gen(lid))

    def wrap(self, child: Path) -> Word:
        return self.edge_wraps.get(child, W.EMPTY)

    @cached_property
    def _accumulated_wraps(self) -> dict[Path, Word]:
        acc: dict[Path, Word] = {(): W.EMPTY}
        for parent, child in self.truncation().tree_edges:
            acc[child] = W.mul(acc[parent], self.wrap(child))
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
        basis = self.loop_ids()
        return st.FreeGroupAutomorphism.from_images(basis, {lid: self.loop_word(lid) for lid in basis})

    def live_frontier(self) -> tuple[Path, ...]:
        return cylinders(self.automaton, self.depth)

    def dx_frontier(self) -> tuple[Path, ...]:
        dx = dx_states(self.automaton)
        frontier = self.truncation().frontier
        return tuple(c for c in self.live_frontier() if frontier[c] in dx)

    def genus_frontier(self) -> tuple[Path, ...]:
        """Frontier vertices with loops strictly beyond the support."""
        t = self.truncation()
        reach = loop_reaching_states(self.automaton)
        out = []
        for v, s in sorted(t.frontier.items()):
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
    for v, k in t_new.loop_edges:
        if len(v) <= f.depth:
            continue
        anc, suffix = v[: f.depth], v[f.depth :]
        acc = f.accumulated_wrap(anc)
        transported = loop_id(f.vmap[anc] + suffix, k)
        img = W.mul(acc, W.gen(transported), W.inv(acc))
        if img != W.gen(loop_id(v, k)):
            li[loop_id(v, k)] = img
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
    if not f.is_identity_outside() or set(f.vmap.values()) != set(f.vmap):
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
    inv_vmap = {w: v for v, w in f.vmap.items()}
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
    """A short curve whose free homotopy class moves, if one is found."""
    for lid in f.loop_ids():
        if not W.is_conjugate(f.loop_word(lid), W.gen(lid)):
            return ("loop", lid)
    sub = f.substitution()
    lids = f.loop_ids()
    for x in lids:
        for y in lids:
            if x >= y:
                continue
            for sx in (1, -1):
                wd = W.mul(W.gen(x, sx), W.gen(y))
                if not W.is_conjugate(sub(wd), wd):
                    return ("curve", wd)
    return None


def is_properly_homotopic_to_identity(f: ProperMapRep) -> IdentityVerdict:
    """Decide the identity criterion at support depth.

    Checks, in order: the end action, the conjugacy classes of closed
    curves (inner-ness of the induced substitution, pinned by any loops
    beyond the support), and the proper lines into DX via the accumulated
    wrap A.  Complete for IDENTITY_OUTSIDE maps; BANDED maps that pass all
    checks stay UNKNOWN.
    """
    for c in sorted(f.end_action):
        if f.end_action[c] != c:
            return IdentityVerdict("no", f.depth, ("end", c))

    rank = genus(f.automaton)
    lids = f.loop_ids()
    genus_front = f.genus_frontier()
    dx_front = f.dx_frontier()

    w = W.EMPTY
    if rank != 0:
        if rank == 1:
            for lid in lids:
                if f.loop_word(lid) != W.gen(lid):
                    return IdentityVerdict("no", f.depth, ("loop", lid))
            values = [f.accumulated_wrap(c) for c in dx_front]
            for c, val in zip(dx_front, values):
                if val != values[0]:
                    return IdentityVerdict("no", f.depth, ("line", LineRep(dx_front[0], W.EMPTY, c)))
        else:
            if lids:
                w = st.is_inner(f.substitution())
                if w is None:
                    witness = _moved_class_witness(f)
                    return IdentityVerdict("no", f.depth, witness or ("curve", None))
            for c in genus_front:  # a moved piece of genus beyond c moves its curves too
                if f.vmap[c] != c or f.accumulated_wrap(c) != w:
                    return IdentityVerdict("no", f.depth, ("curve", c))
            for c in dx_front:
                if f.accumulated_wrap(c) != w:
                    anchor = dx_front[0]
                    return IdentityVerdict("no", f.depth, ("line", LineRep(anchor, W.EMPTY, c)))

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
        blocks = tuple(sorted(((b, W.reduce_word(w)) for b, w in assignments), key=lambda p: p[0].min_cylinder()))
        covered: set[Path] = set()
        for b, _ in blocks:
            for cyl in b.cylinders:
                if automaton.state_of(cyl) not in dx:
                    raise ValueError(f"block cylinder {path_str(cyl)} carries no DX ends")
            ex = expand_to_depth(automaton, b.cylinders, depth)
            ex = {c for c in ex if automaton.state_of(c) in dx}
            if ex & covered:
                raise ValueError("assignment blocks overlap")
            covered |= ex
        want = {c for c in cylinders(automaton, depth) if automaton.state_of(c) in dx}
        if covered != want:
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
        depth = self.depth if depth is None else depth
        dx = dx_states(self.automaton)
        return tuple(c for c in cylinders(self.automaton, depth) if self.automaton.state_of(c) in dx)

    def r2_certified(self) -> bool:
        deep = deep_mixed_states(self.automaton)
        for b, w in self.assignments:
            if not w:
                continue
            ex = expand_to_depth(self.automaton, b.cylinders, self.depth)
            if any(self.automaton.state_of(c) in deep for c in ex):
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
    for c in f.end_action:
        if f.end_action[c] != c:
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

    def pure_entries(c: Path) -> list[Path]:
        s = a.state_of(c)
        if s not in live or s not in dx:
            return []
        if s not in reach:
            return [c]
        if len(c) > guard:
            raise AssertionError("descent through mixed cylinders failed to terminate")
        out = []
        for i in range(len(a.children[s])):
            out.extend(pure_entries(c + (i,)))
        return out

    wraps: dict[Path, Word] = {}
    support = h.depth
    for b, val in h.assignments:
        if not val:
            continue
        for cyl in sorted(b.cylinders):
            for entry in pure_entries(cyl):
                if not entry:
                    raise R2ViolationError("cannot realize a nontrivial value on the whole end space")
                wraps[entry] = W.inv(val)
                support = max(support, len(entry))
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
    for c in f.end_action:
        if f.end_action[c] != c:
            raise PreconditionFailedError("end action is not the identity")
    for lid in f.loop_ids():
        if f.loop_word(lid) != W.gen(lid):
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
        for c, d in g.end_action.items():
            if _component_of(k_vertices, c) != _component_of(k_vertices, d):
                return False
        for lid in g.loop_ids():
            v = loop_id_vertex(lid)
            img = g.loop_word(lid)
            if v in k_vertices:
                if img != W.gen(lid):
                    return False
            else:
                comp = _component_of(k_vertices, v)
                for gname, _ in img:
                    gv = loop_id_vertex(gname)
                    if gv in k_vertices or _component_of(k_vertices, gv) != comp:
                        return False
        t = g.truncation()
        checkpoints = set(t.frontier) | {v for v, _ in t.loop_edges}
        for c in checkpoints:
            acc = g.accumulated_wrap(c)
            if c in k_vertices:
                if acc != W.EMPTY:
                    return False
            else:
                comp = _component_of(k_vertices, c)
                for gname, _ in acc:
                    gv = loop_id_vertex(gname)
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
    for c, d in end_extension.items():
        if bis[a.state_of(c)] != bis[a.state_of(d)]:
            raise PreconditionFailedError(f"end extension must preserve state classes at depth {depth}")
    corev = core_vertices(a, depth)
    for v in core_vmap:
        if v not in corev:
            raise ValueError(f"{path_str(v)} is not a core vertex")
    t = unfold(a, depth)
    vm: dict[Path, Path] = {}
    for v in t.vertices:
        if v in corev:
            vm[v] = core_vmap.get(v, v)
            continue
        shadow = [end_extension[c] for c in cyls if is_ancestor(v, c)]
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


def parse_map_file(a: UnfoldingAutomaton, text: str) -> ProperMapRep:
    """`support <D>` then vmap/loop/wrap/endmap/outside records, each source once.

    A vmap source lies in the truncation and an endmap source is a live frontier
    cylinder; ``make`` refuses endmap records that disagree with an IDENTITY_OUTSIDE vmap.
    """
    depth = None
    records: dict[str, dict] = {"vmap": {}, "loop": {}, "wrap": {}, "endmap": {}}
    outside: object = IDENTITY_OUTSIDE
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "support":
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: support needs one depth")
            depth = int(parts[1])
        elif kind in records:
            src, _, dst = line[len(kind) :].partition("->")
            key = src.strip() if kind == "loop" else parse_path(src)
            if key in records[kind]:
                raise ValueError(f"line {lineno}: repeated {kind} source {src.strip()}")
            records[kind][key] = W.word_from_str(dst) if kind in ("loop", "wrap") else parse_path(dst)
        elif kind == "outside":
            flag = parts[1:2]
            if flag == ["identity"]:
                outside = IDENTITY_OUTSIDE
            elif flag == ["banded"] and len(parts) > 2:
                outside = banded(int(parts[2]))
            else:
                raise ValueError(f"line {lineno}: bad outside flag")
        else:
            raise ValueError(f"line {lineno}: unknown record {kind!r}")
    if depth is None:
        raise ValueError("missing support line")
    vmap, endmap = records["vmap"], records["endmap"]
    stray = min(set(vmap).difference(unfold(a, depth).vertices), default=None)
    if stray is not None:
        raise ValueError(f"vmap source {path_str(stray)} lies outside the support-{depth} truncation")
    live = cylinders(a, depth)
    stray = min(set(endmap).difference(live), default=None)
    if stray is not None:
        raise ValueError(f"endmap source {path_str(stray)} is not a live frontier cylinder")
    ea = {c: endmap.get(c, vmap.get(c, c)) for c in live} if endmap else None
    return ProperMapRep.make(a, depth, vmap, records["loop"], records["wrap"], ea, outside)


def format_map_file(f: ProperMapRep) -> str:
    lines = [f"support {f.depth}"]
    for v in sorted(f.vmap):
        if f.vmap[v] != v:
            lines.append(f"vmap {path_str(v)} -> {path_str(f.vmap[v])}")
    for lid in f.loop_ids():
        w = f.loop_word(lid)
        if w != W.gen(lid):
            lines.append(f"loop {lid} -> {W.word_to_str(w)}")
    for child in sorted(f.edge_wraps):
        lines.append(f"wrap {path_str(child)} -> {W.word_to_str(f.edge_wraps[child])}")
    for c in sorted(f.end_action):
        if f.end_action[c] != c:
            lines.append(f"endmap {path_str(c)} -> {path_str(f.end_action[c])}")
    if f.is_identity_outside():
        lines.append("outside identity")
    else:
        lines.append(f"outside banded {f.outside[1]}")
    return "\n".join(lines) + "\n"
