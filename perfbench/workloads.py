"""Seeded input generators for the three benchmark workloads.

Every workload is a fixed list of *slots* (the size profile).  A slot has a
small pool of variants; the seed picks one variant per slot, so two seeds
give different inputs with the same size profile, and every input the
benchmark can produce has an output hash pinned in ``expected.json``.

Inputs are written as text in the program's file formats by this module
alone; the program only ever sees the files.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

VARIANTS = 6


@dataclass
class Op:
    """One operation: a CLI call, or the in-process core pipeline."""

    key: str  # "<workload>/<slot>/v<variant>", the key of its pinned hash
    kind: str  # "cli" or "core"
    args: list[str]  # CLI argv, or [graph, action] for "core"; paths relative to the work dir
    exit_code: int | None = None  # exit code fixed by the construction, if any
    fields: dict = field(default_factory=dict)  # report fields fixed by the construction
    cover: list | None = None  # explicit interval cover of a "core" op: [r_max, intervals, min_overlap]

    @property
    def command(self):
        """"intersect", "check-id", "classify", "realize tree", "realize general" or "core"."""
        if self.kind == "core":
            return "core"
        return " ".join(self.args[:2]) if self.args[0] == "realize" else self.args[0]


@dataclass
class Inputs:
    files: dict[str, str] = field(default_factory=dict)
    ops: list[Op] = field(default_factory=list)


# -- words and file text ----------------------------------------------------------------


def inv(word):
    return tuple((g, -s) for g, s in reversed(word))


def reduce(word):
    out = []
    for g, s in word:
        if out and out[-1] == (g, -s):
            out.pop()
        else:
            out.append((g, s))
    return tuple(out)


def random_word(rng, letters, length):
    out = []
    while len(out) < length:
        letter = (rng.choice(letters), rng.choice((1, -1)))
        if not out or out[-1] != (letter[0], -letter[1]):
            out.append(letter)
    return tuple(out)


def word_text(word):
    """Bracketed word syntax, kept unreduced on purpose where the caller wants it."""
    if not word:
        return "1"
    if all(len(g) == 1 and g.islower() for g, _ in word):
        return "".join(g if s > 0 else g.upper() for g, s in word)
    return "".join(f"[{g}]" if s > 0 else f"[{g}]^-1" for g, s in word)


def path_text(path):
    return "/".join(map(str, path)) if path else "."


def lid(path, k):
    return f"{path_text(path)}:{k}"


def automaton_text(root, states):
    """``states``: {name: (loops, children)}."""
    lines = [f"root {root}"]
    lines += [f"state {s} loops={n} children={','.join(kids)}" for s, (n, kids) in states.items()]
    return "\n".join(lines) + "\n"


def unfold(root, states, depth):
    """Vertices (path, state) of the depth-``depth`` truncation, root first."""
    out, frontier = [((), root)], [((), root)]
    for _ in range(depth):
        nxt = []
        for path, s in frontier:
            nxt += [(path + (i,), c) for i, c in enumerate(states[s][1])]
        out += nxt
        frontier = nxt
    return out


def map_text(depth, vmap=(), loops=(), wraps=(), outside="identity"):
    lines = [f"support {depth}"]
    lines += [f"vmap {path_text(v)} -> {path_text(w)}" for v, w in vmap if v != w]
    lines += [f"loop {x} -> {word_text(w)}" for x, w in loops]
    lines += [f"wrap {path_text(v)} -> {word_text(w)}" for v, w in wraps]
    lines.append(f"outside {outside}")
    return "\n".join(lines) + "\n"


def action_text(mult_table, files):
    """``mult_table``: {(g, h): gh}; ``files``: {g: map file name}, identity first."""
    lines = [f"group g order {len(files)}"]
    lines += [f"elem {g}: mapfile={f}" for g, f in files.items()]
    lines += [f"mult {g} {h} = {gh}" for (g, h), gh in mult_table.items()]
    return "\n".join(lines) + "\n"


def cyclic_table(n):
    names = ["e"] + [f"g{i}" for i in range(1, n)]
    return {(names[i], names[j]): names[(i + j) % n] for i in range(n) for j in range(n)}


# -- ffs: free factor system intersections ------------------------------------------------------

# (word length, alphabet size, copies).  Cost grows about as length^3, and
# at equal length four letters cost about a quarter more than three.  The
# ladder's blocks of six ops of one length and alphabet hold the median
# (length 16, four letters) and the 75th percentile (length 24, three
# letters), so these order statistics fall among ops of one size and not on
# a step between sizes.
FFS_LADDER = [(8, 3, 2), (8, 4, 2), (12, 3, 2), (12, 4, 2), (16, 4, 6),
              (24, 3, 6), (36, 3, 1), (48, 3, 1)]


def ffs_variant(rng, length, nletters):
    """A multi-component system and a partner built from its own words.

    The partner uses products, short conjugates and subsets of the first
    system's words, so the pullbacks keep nontrivial cores; independent
    random systems intersect trivially and never reach ``canonical_key``.
    """
    letters = "abcd"[:nletters]
    first = [[random_word(rng, letters, length) for _ in range(2)] for _ in range(2)]
    words = [w for comp in first for w in comp]
    partner = []
    for a, b in first:
        by = random_word(rng, letters, 3)
        partner.append([reduce(a + b), reduce(by + a + inv(by)), b])
    partner.append([rng.choice(words)])

    def text(system):
        return "\n---\n".join("\n".join(word_text(w) for w in comp) for comp in system) + "\n"

    return text(first), text(partner)


def ffs_inputs(choice):
    inp = Inputs()
    for length, nletters, copies in FFS_LADDER:
        for copy in range(copies):
            slot = f"len{length}-k{nletters}-{copy}"
            v = choice(slot)
            f1, f2 = ffs_variant(random.Random(f"ffs/{slot}/{v}"), length, nletters)
            inp.files[f"{slot}.f1.ffs"] = f1
            inp.files[f"{slot}.f2.ffs"] = f2
            inp.ops.append(Op(f"ffs/{slot}/v{v}", "cli", ["intersect", f"{slot}.f1.ffs", f"{slot}.f2.ffs"], 0))
    return inp


# -- maps: identity criterion and classification -------------------------------------------------


def k_loop_ray(k):
    return "s", {"s": (k, ["s"])}


LOOP_TREE = ("b", {"b": (1, ["b", "b"])})  # binary tree, one loop per vertex
CORE_WITH_RAYS = ("s", {"s": (1, ["s", "d"]), "d": (0, ["d"])})  # loop-ray core, a free ray at each vertex


def _loops_of(root, states, depth):
    return [(v, k) for v, s in unfold(root, states, depth) for k in range(states[s][0])]


def _substitute(images, word):
    """Apply a loop substitution letterwise, without reducing the result."""
    out = []
    for g, s in word:
        img = images.get(g, ((g, 1),))
        out += img if s > 0 else inv(img)
    return tuple(out)


def _vertex_automorphism(rng, xs):
    """A random product of Nielsen moves on the loops ``xs`` at one vertex,
    and its explicit inverse, as substitution dicts."""
    moves = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("invert", "swap", "transvect")) if len(xs) > 1 else "invert"
        if kind == "invert":
            moves.append(("invert", rng.choice(xs), None))
        else:
            x, y = rng.sample(xs, 2)
            moves.append((kind, x, y))

    def apply(move, inverse):
        kind, x, y = move
        if kind == "invert":
            return {x: ((x, -1),)}
        if kind == "swap":
            return {x: ((y, 1),), y: ((x, 1),)}
        return {x: ((x, 1), (y, -1 if inverse else 1))}  # x -> x y, inverse x -> x y^-1

    def compose(maps):
        total = {x: ((x, 1),) for x in xs}
        for m in maps:  # apply the later substitution to the earlier images
            total = {x: _substitute(m, _substitute(total, ((x, 1),))) for x in xs}
        return total

    f = compose([apply(m, False) for m in moves])
    g = compose([apply(m, True) for m in reversed(moves)])
    return f, g


def _maps_for(rng, root, states, depth, kind):
    """Map file text and the construction-fixed CLI outcome for one map kind."""
    loops = _loops_of(root, states, depth)
    names = [lid(v, k) for v, k in loops]
    by_vertex = {}
    for v, k in loops:
        by_vertex.setdefault(v, []).append(lid(v, k))
    if kind in ("composite", "banded-composite"):
        # f composed with an explicitly built inverse g, written unreduced: the identity class
        images = {}
        for xs in by_vertex.values():
            f, g = _vertex_automorphism(rng, xs)
            images.update({x: _substitute(g, f[x]) for x in xs})
        if kind == "composite":
            return map_text(depth, loops=sorted(images.items())), 0, {"verdict": "certified_yes"}
        return map_text(depth, loops=sorted(images.items()), outside=f"banded {rng.randint(1, 3)}"), 0, {"verdict": "unknown"}
    if kind in ("drag", "drag-nowrap"):
        # loops beyond an edge conjugated by a word in the loops behind it;
        # with the matching wrap this is a drag, without it the map is not the identity class
        j = rng.randint(1, min(depth, 8))
        behind = [lid(v, k) for v, k in loops if len(v) < j]
        w = random_word(rng, behind, rng.randint(1, 3))
        edge = min(v for v, _ in loops if len(v) == j)
        moved = sorted((lid(v, k), w + ((lid(v, k), 1),) + inv(w)) for v, k in loops if v[:j] == edge)
        if kind == "drag":
            return map_text(depth, loops=moved, wraps=[(edge, w)]), None, {}
        return map_text(depth, loops=moved), 2, {"verdict": "no"}
    if kind == "flip":
        chosen = sorted(rng.sample(names, max(1, len(names) // rng.randint(1, 4))))
        return map_text(depth, loops=[(x, ((x, -1),)) for x in chosen]), 2, {"verdict": "no"}
    if kind == "permute":
        images = {}
        for xs in by_vertex.values():
            perm = list(xs)
            while perm == xs:
                rng.shuffle(perm)
            images.update({x: ((y, 1),) for x, y in zip(xs, perm)})
        return map_text(depth, loops=sorted(images.items())), 2, {"verdict": "no"}
    if kind == "shift":
        # banded transvection shift x_n -> x_n x_{n-1} (the paper's example map)
        images = {}
        for v, k in loops:
            if v:
                images[lid(v, k)] = ((lid(v, k), 1), (lid(v[:-1], k), 1))
        return map_text(depth, loops=sorted(images.items()), outside=f"banded {rng.randint(1, 2)}"), 2, {"verdict": "no"}
    raise ValueError(kind)


# (automaton name, automaton, support ladder, map kinds)
MAP_FAMILIES = [
    ("ray1", k_loop_ray(1), (10, 30, 60), ("drag-nowrap", "drag", "flip", "shift", "composite")),
    ("ray2", k_loop_ray(2), (10, 30, 60), ("composite", "banded-composite", "drag-nowrap", "drag", "flip", "permute")),
    ("ray3", k_loop_ray(3), (12, 24, 40), ("composite", "drag", "permute", "shift")),
    ("rays", CORE_WITH_RAYS, (6, 8), ("drag-nowrap", "drag", "flip", "composite")),
    ("tree", LOOP_TREE, (6, 7), ("drag-nowrap", "flip", "composite", "drag")),
]


def _loop_pattern_ray(rng, period):
    """A ray whose loop counts repeat with the given period, not all zero."""
    counts = [rng.randint(0, 3) for _ in range(period)]
    if not any(counts):
        counts[0] = 1
    names = [f"q{i}" for i in range(period)]
    return names[0], {n: (c, [names[(i + 1) % period]]) for i, (n, c) in enumerate(zip(names, counts))}


def _shape(rng, shape):
    """Automaton of a named shape, with a random presentation, and its
    (genus kind, end family, genus-end family) computed from the construction."""
    if shape == "genus-ray":
        root, states = _loop_pattern_ray(rng, rng.randint(1, 4))
        return root, states, ("INFINITE_GENUS", "finite(1)", "finite(1)")
    if shape == "finite-genus-ray":
        n = rng.randint(1, 4)
        states = {f"p{i}": (rng.randint(0, 2), [f"p{i + 1}"]) for i in range(n)}
        states["p0"] = (states["p0"][0] + 1, states["p0"][1])
        states[f"p{n}"] = (0, [f"p{n}"])
        return "p0", states, (sum(c for c, _ in states.values()), "finite(1)", "empty")
    if shape == "loop-tree":
        loops = rng.randint(1, 2)
        return "b", {"b": (loops, ["b", "b"])}, ("INFINITE_GENUS", "cantor", "cantor")
    if shape == "cantor":
        arity = rng.randint(2, 3)
        return "t", {"t": (0, ["t"] * arity)}, (0, "cantor", "empty")
    if shape == "cantor-plus":
        k = rng.randint(1, 3)
        states = {"r": (0, ["b"] + ["y"] * k), "b": (0, ["b", "b"]), "y": (0, ["y"])}
        return "r", states, (0, f"cantor+{k}", "empty")
    if shape == "two-ended":
        k = rng.randint(1, 3)
        states = {"r": (k, ["u", "w"]), "u": (0, ["u"]), "w": (0, ["w"])}
        return "r", states, (k, "finite(2)", "empty")
    raise ValueError(shape)


SHAPES = ["genus-ray", "finite-genus-ray", "loop-tree", "cantor", "cantor-plus", "two-ended"]


def _expected_verdict(cx, cy):
    genus_x, ends_x, gends_x = cx
    genus_y, ends_y, gends_y = cy
    if (genus_x == "INFINITE_GENUS") != (genus_y == "INFINITE_GENUS"):
        return "NO"
    if genus_x != "INFINITE_GENUS":
        return "YES" if (ends_x, genus_x) == (ends_y, genus_y) else "NO"
    return "YES" if (ends_x, gends_x) == (ends_y, gends_y) else "NO"


def maps_inputs(choice):
    inp = Inputs()
    families = {name: automaton for name, automaton, _, _ in MAP_FAMILIES}

    def check_id(name, depth, kind, suffix=""):
        root, states = families[name]
        slot = f"{name}-d{depth}-{kind}{suffix}"
        v = choice(slot)
        text, code, fields = _maps_for(random.Random(f"maps/{slot}/{v}"), root, states, depth, kind)
        inp.files[f"{slot}.map"] = text
        inp.ops.append(Op(f"maps/{slot}/v{v}", "cli", ["check-id", f"{name}.aut", f"{slot}.map"], code, fields))

    for name, (root, states), supports, kinds in MAP_FAMILIES:
        inp.files[f"{name}.aut"] = automaton_text(root, states)
        for depth in supports:
            for kind in kinds:
                check_id(name, depth, kind)
    # the heaviest ops, all of one size, hold the 95th percentile of the op costs
    for copy in range(6):
        check_id("tree", 8, "composite", f"-{copy}")
    for sx, sy in itertools.combinations_with_replacement(SHAPES, 2):
        slot = f"classify-{sx}-{sy}"
        v = choice(slot)
        rng = random.Random(f"maps/{slot}/{v}")
        rx, stx, cx = _shape(rng, sx)
        ry, sty, cy = _shape(rng, sy)
        inp.files[f"{slot}.x.aut"] = automaton_text(rx, stx)
        inp.files[f"{slot}.y.aut"] = automaton_text(ry, sty)
        verdict = _expected_verdict(cx, cy)
        inp.ops.append(Op(f"maps/{slot}/v{v}", "cli", ["classify", f"{slot}.x.aut", f"{slot}.y.aut"], 0, {"verdict": verdict}))
    return inp


# -- realize: the three Nielsen pipelines --------------------------------------------------------


def _prefix_twist(rng, arity, depth):
    """A random tree automorphism rotating the next digit below a random set
    of prefixes, and its inverse, as functions on paths."""
    prefixes = set()
    for _ in range(rng.randint(0, 3)):
        n = rng.randint(0, max(0, depth - 2))
        prefixes.add(tuple(rng.randrange(arity) for _ in range(n)))

    def apply(path, sign):
        out = []
        for i, d in enumerate(path):
            key = tuple(out) if sign < 0 else path[:i]
            out.append((d + sign) % arity if key in prefixes else d)
        return tuple(out)

    return (lambda p: apply(p, 1)), (lambda p: apply(p, -1))


def _tree_action(rng, arity, depth):
    """Z/arity rotating the root's children, twisted below by an automorphism
    pi and its inverse so that the generator still has order ``arity``."""
    pi, pi_inv = _prefix_twist(rng, arity, depth)
    twists = [pi, pi_inv] + [lambda p: p] * (arity - 2)

    def gen(path):
        if not path:
            return path
        return ((path[0] + 1) % arity,) + twists[path[0]](path[1:])

    root, states = "t", {"t": (0, ["t"] * arity)}
    verts = [v for v, _ in unfold(root, states, depth)]
    table = cyclic_table(arity)
    files, maps = {}, {}
    power = {v: v for v in verts}
    for i, name in enumerate(["e"] + [f"g{i}" for i in range(1, arity)]):
        files[name] = f"{name}.map"
        maps[name] = map_text(depth, vmap=sorted(power.items()))
        power = {v: gen(power[v]) for v in verts}
    return automaton_text(root, states), maps, action_text(table, files)


def _loop_ray_flip(rng, depth, subset):
    """Z/2 inverting every loop of the loop ray (or a random nonempty subset)."""
    root, states = k_loop_ray(1)
    names = [lid(v, 0) for v, _ in unfold(root, states, depth)]
    if subset:
        names = sorted(rng.sample(names, rng.randint(1, len(names))))
    maps = {"e": map_text(depth), "g1": map_text(depth, loops=[(x, ((x, -1),)) for x in names])}
    return automaton_text(root, states), maps, action_text(cyclic_table(2), {"e": "e.map", "g1": "g1.map"})


def _branch_permutation(rng, branches, depth):
    """Z/n permuting n loop-ray branches cyclically; for n = 2 optionally
    combined with the inversion of every loop."""
    states = {"r": (1, [f"p{i}" for i in range(branches)])}
    states.update({f"p{i}": (1, [f"p{i}"]) for i in range(branches)})
    verts = [v for v, _ in unfold("r", states, depth)]
    flip = branches == 2 and rng.random() < 0.5
    table = cyclic_table(branches)
    names = ["e"] + [f"g{i}" for i in range(1, branches)]
    maps = {}
    for shift, name in enumerate(names):
        def move(v):
            return ((v[0] + shift) % branches,) + v[1:] if v else v

        loops = []
        for v in verts:
            x, y = lid(v, 0), lid(move(v), 0)
            img = ((y, -1),) if flip and shift else ((y, 1),)
            if img != ((x, 1),):
                loops.append((x, img))
        maps[name] = map_text(depth, vmap=[(v, move(v)) for v in verts], loops=loops)
    return automaton_text("r", states), maps, action_text(table, {n: f"{n}.map" for n in names})


def _order8(depth):
    """Signed permutations of the two loops at every vertex of the two-loop ray."""
    elements = {}
    for perm in ((0, 1), (1, 0)):
        for signs in itertools.product((1, -1), repeat=2):
            elements[f"p{perm[0]}{perm[1]}s{''.join('p' if s > 0 else 'm' for s in signs)}"] = (perm, signs)

    def compose(a, b):
        (pa, sa), (pb, sb) = elements[a], elements[b]
        value = (tuple(pa[pb[k]] for k in range(2)), tuple(sa[pb[k]] * sb[k] for k in range(2)))
        return next(n for n, e in elements.items() if e == value)

    names = sorted(elements)
    identity = "p01spp"
    names.remove(identity)
    names.insert(0, identity)
    root, states = k_loop_ray(2)
    verts = [v for v, _ in unfold(root, states, depth)]
    maps = {}
    for name, (perm, signs) in elements.items():
        loops = []
        for v in verts:
            for k in range(2):
                img = ((lid(v, perm[k]), signs[k]),)
                if img != ((lid(v, k), 1),):
                    loops.append((lid(v, k), img))
        maps[name] = map_text(depth, loops=loops)
    table = {(a, b): compose(a, b) for a in names for b in names}
    return automaton_text(root, states), maps, action_text(table, {n: f"{n}.map" for n in names})


def _swap_branch_mixed(rng, depth):
    """The mixed model of a loop ray and a Cantor tree under the root,
    with Z/2 swapping (and twisting) the Cantor subtree."""
    states = {"r": (1, ["c", "b"]), "c": (1, ["c"]), "b": (0, ["b", "b"])}
    pi, pi_inv = _prefix_twist(rng, 2, depth - 1)
    twists = [pi, pi_inv]

    def move(v):
        if len(v) >= 2 and v[0] == 1:
            return (1, 1 - v[1]) + twists[v[1]](v[2:])
        return v

    verts = [v for v, _ in unfold("r", states, depth)]
    maps = {"e": map_text(depth), "g1": map_text(depth, vmap=[(v, move(v)) for v in verts])}
    return automaton_text("r", states), maps, action_text(cyclic_table(2), {"e": "e.map", "g1": "g1.map"})


def _swap_core_with_rays(depth):
    """Z/2 swapping two loop-ray cores that each carry a free ray at every vertex."""
    states = {"r": (1, ["p", "q"]), "p": (1, ["pc", "d"]), "q": (1, ["qc", "d"]),
              "pc": (1, ["pc"]), "qc": (1, ["qc"]), "d": (0, ["d"])}

    def move(v):
        return ((1 - v[0],) + v[1:]) if v else v

    loops = []
    for v, s in unfold("r", states, depth):
        if states[s][0] and move(v) != v:
            loops.append((lid(v, 0), ((lid(move(v), 0), 1),)))
    verts = [v for v, _ in unfold("r", states, depth)]
    maps = {"e": map_text(depth), "g1": map_text(depth, vmap=[(v, move(v)) for v in verts], loops=loops)}
    return automaton_text("r", states), maps, action_text(cyclic_table(2), {"e": "e.map", "g1": "g1.map"})


def _two_intervals(depth):
    """The explicit cover [0, d-2], [2, d] of the tests, as [r_max, intervals, min_overlap]."""
    return [depth, [(0, depth - 2), (2, depth)], depth - 4]


def _realize_slots():
    """(slot, kind, build(rng) -> (graph, maps, action), extra CLI args or explicit cover)."""
    two = _two_intervals
    slots = []
    # (arity, support, levels, copies); the copies at support 6 put ops of one
    # size around the 75th percentile, so it does not sit on a step between sizes
    trees = [(2, 4, 3, 1), (2, 4, 5, 1), (2, 5, 4, 1), (2, 5, 5, 1), (2, 5, 6, 1), (2, 6, 4, 1), (2, 6, 5, 1),
             (2, 6, 6, 3), (2, 7, 5, 1), (2, 8, 4, 1), (3, 3, 3, 1), (3, 3, 4, 1), (3, 4, 4, 1)]
    for arity, depth, levels, copies in trees:
        name = "cantor" if arity == 2 else "ternary"
        for copy in range(copies):
            slots.append((f"tree-{name}-d{depth}-l{levels}" + (f"-{copy}" if copies > 1 else ""), "cli-tree",
                          lambda rng, a=arity, d=depth: _tree_action(rng, a, d), ["--depth", str(levels)]))
    for depth in (3, 4, 5):
        slots.append((f"general-swap-branch-d{depth}", "cli-general", lambda rng, d=depth: _swap_branch_mixed(rng, d), ["--depth", "3"]))
    slots.append(("general-swap-core-d4", "cli-general", lambda rng: _swap_core_with_rays(4), ["--depth", "3"]))
    for depth in range(14, 27, 2):
        slots.append((f"core-flip-d{depth}", "core", lambda rng, d=depth: _loop_ray_flip(rng, d, rng.random() < 0.5), two(depth)))
    for copy in range(3):  # ops of one size around the median
        slots.append((f"core-branch2-d14-{copy}", "core", lambda rng: _branch_permutation(rng, 2, 14), two(14)))
    slots.append(("core-branch3-d14", "core", lambda rng: _branch_permutation(rng, 3, 14), two(14)))
    slots.append(("core-order8-d14", "core", lambda rng: _order8(14), two(14)))
    return slots


REALIZE_SLOTS = _realize_slots()

# CLI `realize core` with the default interval cover, on the loop-ray flip.
# IntervalCover.default is broken on both sides of supports 25-26; these
# probes keep that visible and are reported apart from the measured ops.
DEFECT_SUPPORTS = (14, 20, 26, 30)


def _write_case(inp, prefix, case):
    graph, maps, action = case
    inp.files[f"{prefix}/graph.aut"] = graph
    inp.files[f"{prefix}/action.act"] = action
    for name, text in maps.items():
        inp.files[f"{prefix}/{name}.map"] = text
    return f"{prefix}/graph.aut", f"{prefix}/action.act"


def realize_inputs(choice):
    inp = Inputs()
    for slot, kind, build, extra in REALIZE_SLOTS:
        v = choice(slot)
        graph, action = _write_case(inp, slot, build(random.Random(f"realize/{slot}/{v}")))
        key = f"realize/{slot}/v{v}"
        if kind == "core":
            inp.ops.append(Op(key, "core", [graph, action], fields={"verdicts": "certified_yes"}, cover=extra))
        else:
            inp.ops.append(Op(key, "cli", ["realize", kind[4:], graph, action, *extra], 0))
    return inp


def defect_inputs():
    inp = Inputs()
    for depth in DEFECT_SUPPORTS:
        graph, action = _write_case(inp, f"defect-d{depth}", _loop_ray_flip(None, depth, False))
        inp.ops.append(Op(f"defect/core-default-d{depth}", "cli", ["realize", "core", graph, action]))
    return inp


WORKLOADS = {"ffs": ffs_inputs, "maps": maps_inputs, "realize": realize_inputs}


def make_inputs(workload, seed):
    """The inputs of ``workload`` for ``seed``: one variant per slot."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](lambda slot: rng.randrange(VARIANTS))
