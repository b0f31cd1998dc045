"""Oracle for the per-truncation loop index and the moved-class witness scan.

``unfold`` names every loop once (``GraphTruncation.loop_ids``, ``loop_at``,
``loop_name``); the reference below is the per-call construction it replaced,
kept verbatim: format each id from the whole root path, sort by loop edge, and
parse the vertex and k back out of the string.  ``_moved_class_witness`` reads
the substitution's images once; the reference rebuilds ``sub(wd)`` and
compares cyclic normal forms for every pair, as the old scan did.  The maps
are every check-id map of the benchmark's ``maps`` workload, over all six
variants of every slot, and the composite of each with the next variant of
its slot (the workload's own composite slots are f∘g with g an inverse).
"""

import random

import pytest

from perfbench import workloads
from propermaps import graph_model as gm
from propermaps import mapclass as mc
from propermaps import stallings as st
from propermaps import words as W
from tests.conftest import loop_id
from tests.test_classification_fuzz import random_automaton
from tests.test_one_derivation_oracle import ref_compose


def ref_path_str(path):
    return "." if not path else "/".join(str(i) for i in path)


def ref_parse_path(text):
    text = text.strip()
    if text in (".", ""):
        return ()
    return tuple(int(p) for p in text.split("/"))


def ref_loop_id(path, k):
    return f"{ref_path_str(path)}:{k}"


def ref_loop_id_vertex(lid):
    return ref_parse_path(lid.rsplit(":", 1)[0])


def ref_loop_ids(t):
    return tuple(ref_loop_id(v, k) for v, k in sorted(t.loop_edges))


def ref_moved_class_witness(f):
    lids = ref_loop_ids(f.truncation())
    for lid in lids:
        if W.cyclic_normal_form(f.loop_word(lid)) != W.cyclic_normal_form(W.gen(lid)):
            return ("loop", lid)
    sub = st.FreeGroupAutomorphism.from_images(lids, {lid: f.loop_word(lid) for lid in lids})
    for x in lids:
        for y in lids:
            if x >= y:
                continue
            for sx in (1, -1):
                wd = W.mul(W.gen(x, sx), W.gen(y))
                if W.cyclic_normal_form(sub(wd)) != W.cyclic_normal_form(wd):
                    return ("curve", wd)
    return None


def assert_index_matches(t):
    want = ref_loop_ids(t)
    assert t.loop_ids == want
    assert tuple(t.loop_at) == want
    assert tuple(t.loop_name.values()) == want
    for lid, (v, k) in t.loop_at.items():
        assert v == ref_loop_id_vertex(lid)
        assert k == int(lid.rsplit(":", 1)[1])
        assert t.loop_name[v, k] == lid == ref_loop_id(v, k) == loop_id(v, k)
    assert sorted(t.loop_name) == sorted(t.loop_edges)


@pytest.mark.parametrize("seed", range(40))
def test_index_matches_reference_on_random_automata(seed):
    rng = random.Random(seed)
    a = random_automaton(rng)
    for depth in range(9):
        t = gm.unfold(a, depth)
        if len(t.vertices) > 20000:
            break
        assert_index_matches(t)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_index_matches_reference_on_k_loop_rays(k):
    a = gm.UnfoldingAutomaton.make("s", {"s": ["s"]}, {"s": k})
    for depth in range(61):
        assert_index_matches(gm.unfold(a, depth))


def test_index_orders_ids_by_loop_edge_not_by_string():
    """Past ten children the sorted loop edges and the sorted ids differ; the
    index keeps the loop-edge order."""
    a = gm.UnfoldingAutomaton.make("r", {"r": ["p"] * 12, "p": []}, {"r": 0, "p": 1})
    t = gm.unfold(a, 1)
    assert_index_matches(t)
    assert t.loop_ids[:3] == ("0:0", "1:0", "2:0") and t.loop_ids != tuple(sorted(t.loop_ids))


def _workload_maps():
    """(key, map) for every check-id map of every variant, grouped by slot."""
    by_slot = {}
    graphs = {}
    for v in range(workloads.VARIANTS):
        inputs = workloads.WORKLOADS["maps"](lambda slot: v)
        for op in inputs.ops:
            if op.command != "check-id":
                continue
            graph, map_file = op.args[1:]
            a = graphs.setdefault(graph, gm.parse_automaton(inputs.files[graph]))
            by_slot.setdefault(map_file, {})[op.key] = mc.parse_map_file(a, inputs.files[map_file])
    return by_slot


WORKLOAD_MAPS = _workload_maps()


def test_workload_maps_cover_every_variant_of_every_slot():
    assert all(len(maps) == workloads.VARIANTS for maps in WORKLOAD_MAPS.values())
    for maps in WORKLOAD_MAPS.values():
        for f in maps.values():
            assert_index_matches(f.truncation())


# Under an inner substitution no class moves, so both scans run over every pair
# and return None; the identity criterion never runs the scan then (it asks for
# a witness only when ``is_inner`` fails), and above this many loops the full
# scan takes seconds per map on either side.
FULL_SCAN_LOOPS = 64


def test_witness_matches_reference_on_workload_maps():
    kinds = set()
    for slot, by_key in sorted(WORKLOAD_MAPS.items()):
        maps = list(by_key.values())
        composites = [ref_compose(f, g) for f, g in zip(maps, maps[1:] + maps[:1])]
        for f in maps + composites:
            if st.is_inner(f.substitution()) is not None and len(f.loop_ids()) > FULL_SCAN_LOOPS:
                continue
            witness = mc._moved_class_witness(f)
            assert witness == ref_moved_class_witness(f), slot
            kinds.add(witness and witness[0])
    assert kinds == {"loop", "curve", None}
