import pytest

from propermaps import graph_model as gm
from propermaps import mapclass as mc
from propermaps import nielsen as nz
from propermaps import words as W


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
    li = {mc.loop_id(v, k): W.gen(mc.loop_id(v, k), -1) for v, k in t.loop_edges}
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
