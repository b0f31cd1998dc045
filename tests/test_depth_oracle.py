"""Metamorphic depth oracle: the identity criterion does not depend on the support.

An IDENTITY_OUTSIDE representative f and ``extend(f, D + 1)``,
``extend(f, D + 2)`` are the same proper map, so the criterion gives all three
the same kind of verdict.  The maps are every check-id map of the benchmark's
``maps`` workload that is the identity outside its support (one variant per
slot, chosen by seed 7 as the benchmark chooses them), and maps the tests
build on the fixture graphs.
"""

import pytest

from perfbench import workloads
from propermaps import graph_model as gm
from propermaps import mapclass as mc
from propermaps import words as W
from tests.conftest import make_flip_action
from tests.test_mapclass import drag_map, lid, shift_map


def _kinds(f):
    return [mc.is_properly_homotopic_to_identity(mc.extend(f, f.depth + more)).kind for more in (0, 1, 2)]


def _workload_maps():
    inputs = workloads.make_inputs("maps", 7)
    graphs = {}
    out = []
    for op in inputs.ops:
        if op.command != "check-id":
            continue
        graph, map_file = op.args[1:]
        a = graphs.setdefault(graph, gm.parse_automaton(inputs.files[graph]))
        f = mc.parse_map_file(a, inputs.files[map_file])
        if f.is_identity_outside():
            out.append((op.key, f))
    return out


WORKLOAD_MAPS = _workload_maps()


def test_workload_maps_cover_every_identity_outside_slot():
    banded = ("shift", "banded-composite")
    want = {f"{name}-d{depth}-{kind}" for name, _, supports, kinds in workloads.MAP_FAMILIES
            for depth in supports for kind in kinds if kind not in banded}
    want |= {f"tree-d8-composite-{copy}" for copy in range(6)}
    assert {key.split("/")[1] for key, _ in WORKLOAD_MAPS} == want


@pytest.mark.parametrize("key, f", WORKLOAD_MAPS, ids=[key for key, _ in WORKLOAD_MAPS])
def test_workload_verdict_does_not_depend_on_depth(key, f):
    kinds = _kinds(f)
    assert len(set(kinds)) == 1, kinds


def _root_swap(a, depth):
    t = gm.unfold(a, depth)
    return mc.ProperMapRep.make(a, depth, vmap={v: ((1 - v[0],) + v[1:] if v else ()) for v in t.vertices})


def test_fixture_verdicts_do_not_depend_on_depth(loop_ray, two_loop_ray, cantor_tree, plain_ray, core_with_rays):
    late_genus = gm.UnfoldingAutomaton.make("r", {"r": ["a"] * 4, "a": ["b"], "b": []}, {"r": 0, "a": 0, "b": 1})
    maps = [mc.ProperMapRep.identity(a, 3) for a in (loop_ray, two_loop_ray, cantor_tree, plain_ray, core_with_rays)]
    for a in (loop_ray, two_loop_ray, core_with_rays):
        maps += make_flip_action(a, 3).reps.values()
    maps += [
        drag_map(loop_ray, 3, (0,), W.gen(lid(()))),
        drag_map(core_with_rays, 3, (0, 1), W.gen(lid(()))),
        drag_map(core_with_rays, 3, (0, 0), W.gen(lid((0,)))),
        shift_map(loop_ray, 3, outside=mc.IDENTITY_OUTSIDE),
        _root_swap(cantor_tree, 3),
        _root_swap(cantor_tree, 1),
        mc.ProperMapRep.make(late_genus, 1, vmap={(i,): ((i + 2) % 4,) for i in range(4)}),
        mc.ProperMapRep.make(late_genus, 1, vmap={(0,): (1,), (1,): (0,)}),
    ]
    verdicts = [_kinds(f) for f in maps]
    assert [kinds for kinds in verdicts if len(set(kinds)) > 1] == []
    assert {kinds[0] for kinds in verdicts} == {"certified_yes", "no"}
