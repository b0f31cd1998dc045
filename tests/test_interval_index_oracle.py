"""Oracle for the interval lookups of the core pipeline.

``verify_displacement_bound`` reads each depth's annulus from a table built
once per call, and ``ffs_of_interval`` reads an interval's loops as one slice
of the truncation's loops sorted by depth.  The scans they replaced are kept
here verbatim as references: the radius scan per vertex and loop letter, and
the scan over every loop of the truncation per interval.  Both are checked on
every interval cover of the tests and of the ``realize`` workload's core ops.
"""

import random

import pytest

from perfbench import workloads
from propermaps import graph_model as gm
from propermaps import nielsen as nz
from propermaps import stallings as st

# -- references ------------------------------------------------------------------------------


def ref_band(r, n, d):
    for i in range(1, min(n + 1, len(r))):
        if r[i - 1] <= d <= r[i]:
            return i
    return min(n + 1, len(r))


def ref_scan_ffs_of_interval(a, cover, J, depth):
    if isinstance(J, int):
        lo = hi = cover.r[J]
    else:
        lo, hi = cover.depth_range(J)
    comps = {}
    for lid, (v, _) in gm.unfold(a, depth).loop_at.items():
        if lo <= len(v) <= hi:
            comps.setdefault(v[:lo], []).append(lid)
    graphs = [st.LabeledGraph.rose(sorted(lids)) for _, lids in sorted(comps.items())]
    return st.FreeFactorSystem.from_graphs(graphs)


# -- covers ----------------------------------------------------------------------------------

# (r_max, intervals, min_overlap) of every explicit cover in the tests
TEST_COVERS = [
    (26, [(0, 24), (2, 26)], 22),
    (10, [(0, 8), (2, 10)], 6),
    (6, [(0, 6)], 0),
    (4, [(0, 4)], 0),
    (14, [(0, 12), (2, 14)], 10),
    (36, [(0, 12), (4, 24), (16, 36)], 8),
    (30, [(0, 12), (4, 22), (14, 30)], 8),
    (40, [(0, 16), (4, 30), (18, 40)], 10),
]
DEFAULT_DEPTHS = (8, 14, 25, 26, 40, 100)
CORE_SLOTS = [(slot, build, cover) for slot, kind, build, cover in workloads.REALIZE_SLOTS if kind == "core"]


def _covers():
    out = [nz.IntervalCover.make(range(m + 1), ivs, min_overlap=k) for m, ivs, k in TEST_COVERS]
    out += [nz.IntervalCover.default(d) for d in DEFAULT_DEPTHS]
    out += [nz.IntervalCover.make(range(m + 1), [tuple(iv) for iv in ivs], min_overlap=k) for _, _, (m, ivs, k) in CORE_SLOTS]
    return out


def _intervals(cover):
    """Every interval the core pipeline reads: each J, J- and J+, each overlap, and each radius."""
    out = []
    for J in cover.intervals:
        out += [J, cover.plus(J)] + ([cover.minus(J)] if J[1] - J[0] >= 4 else [])
    out += [cover.overlap(i) for i in range(len(cover.intervals) - 1)]
    return out + list(range(len(cover.r)))


def _core_automata():
    """(slot, automaton, cover) of each distinct graph of each core slot of the realize workload."""
    out = []
    for slot, build, (m, ivs, k) in CORE_SLOTS:
        cover = nz.IntervalCover.make(range(m + 1), [tuple(iv) for iv in ivs], min_overlap=k)
        graphs = {build(random.Random(f"realize/{slot}/{v}"))[0] for v in range(workloads.VARIANTS)}
        out += [(slot, gm.parse_automaton(g), cover) for g in sorted(graphs)]
    return out


def _same_system(got, want):
    return got.keys() == want.keys() and [c.edges for c in got.components] == [c.edges for c in want.components]


# -- tests -----------------------------------------------------------------------------------


@pytest.mark.parametrize("cover", _covers(), ids=lambda c: f"{len(c.r) - 1}:{c.intervals}")
def test_band_table_matches_the_radius_scan(cover):
    for extra in (0, 3):  # verify_displacement_bound appends the support depth past the last radius
        r = list(cover.r) + ([cover.r[-1] + extra] if extra else [])
        for n in {len(cover.intervals), 1, len(r) - 1, len(r) + 1}:
            assert nz._band_table(r, n, r[-1]) == [ref_band(r, n, d) for d in range(r[-1] + 1)]


def test_band_table_matches_the_radius_scan_on_random_radii():
    rng = random.Random(5)
    for _ in range(300):
        r = sorted(rng.sample(range(-3, 30), rng.randint(1, 8)))
        depth, n = rng.randint(0, 32), rng.randint(0, 10)
        assert nz._band_table(r, n, depth) == [ref_band(r, n, d) for d in range(depth + 1)], (r, n, depth)


@pytest.mark.parametrize("slot, a, cover", _core_automata(), ids=lambda x: x if isinstance(x, str) else "")
def test_ffs_of_interval_matches_the_scan_on_realize_covers(slot, a, cover):
    depth = cover.r[-1]
    for J in _intervals(cover):
        assert _same_system(nz.ffs_of_interval(a, cover, J, depth), ref_scan_ffs_of_interval(a, cover, J, depth)), J


def test_ffs_of_interval_matches_the_scan_on_test_covers(loop_ray, two_loop_ray):
    branching = gm.UnfoldingAutomaton.make("s", {"s": ["s", "s"]}, {"s": 1})
    checked = 0
    for cover in _covers():
        depth = cover.r[-1]
        for a in (loop_ray, two_loop_ray) + ((branching,) if depth <= 10 else ()):
            for J in _intervals(cover):
                assert _same_system(nz.ffs_of_interval(a, cover, J, depth), ref_scan_ffs_of_interval(a, cover, J, depth))
                checked += 1
    assert checked > 500
