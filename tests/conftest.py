import pytest

from propermaps import graph_model as gm
from propermaps import mapclass as mc
from propermaps import nielsen as nz
from propermaps import words as W


def loop_id(path, k):
    """The name of loop k at ``path``: ``<path_str(path)>:<k>``, as ``unfold`` and ``loop_basis`` spell it."""
    return f"{gm.path_str(path)}:{k}"


@pytest.fixture
def loop_ray():
    """Ray with one loop at every vertex."""
    return gm.UnfoldingAutomaton.make("s", {"s": ["s"]}, {"s": 1})


@pytest.fixture
def two_loop_ray():
    return gm.UnfoldingAutomaton.make("s", {"s": ["s"]}, {"s": 2})


@pytest.fixture
def cantor_tree():
    return gm.UnfoldingAutomaton.make("b", {"b": ["b", "b"]}, {"b": 0})


@pytest.fixture
def plain_ray():
    return gm.UnfoldingAutomaton.make("r", {"r": ["r"]}, {"r": 0})


@pytest.fixture
def core_with_rays():
    """Loop-ray core with a free ray hanging at every core vertex."""
    return gm.UnfoldingAutomaton.make("s", {"s": ["s", "d"], "d": ["d"]}, {"s": 1})


def make_flip_action(automaton, depth, order=2):
    """Z/2 inverting every loop, as a certified action."""
    t = gm.unfold(automaton, depth)
    li = {loop_id(v, k): W.gen(loop_id(v, k), -1) for v, k in t.loop_edges}
    flip = mc.ProperMapRep.make(automaton, depth, loop_images=li)
    ident = mc.ProperMapRep.identity(automaton, depth)
    grp = nz.FiniteGroup.cyclic(2)
    return nz.FiniteGroupAction.make(grp, {"e": ident, "g1": flip})


def full_vmap(f):
    """The image of every vertex of f's truncation: ``moves`` filled in with the identity."""
    return {v: f.moves.get(v, v) for v in f.truncation().state}


def full_end_action(f):
    """The image of every live depth-D cylinder: ``end_moves`` filled in with the identity."""
    return {c: f.end_moves.get(c, c) for c in gm.cylinders(f.automaton, f.depth)}


def cylinder_action(automaton, depth, perms):
    """The certified action of named permutations of the live depth-D cylinders.

    The table is their composition (a product that leaves the set is missing), and each
    representative moves the frontier vertices that its permutation moves."""
    cyls = gm.cylinders(automaton, depth)
    name_of = {tuple(p[c] for c in cyls): g for g, p in perms.items()}
    mult = {}
    for g, p in perms.items():
        for h, q in perms.items():
            gh = tuple(p[q[c]] for c in cyls)
            if gh in name_of:
                mult[(g, h)] = name_of[gh]
    moved = {g: {c: d for c, d in p.items() if c != d} for g, p in perms.items()}
    reps = {g: mc.ProperMapRep.make(automaton, depth, vmap=vmap) for g, vmap in moved.items()}
    return nz.FiniteGroupAction.make(nz.FiniteGroup.make(list(perms), mult), reps)
