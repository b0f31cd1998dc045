import json

import pytest

from propermaps import cli
from propermaps import end_space as es
from propermaps import graph_model as gm
from propermaps import mapclass as mc
from propermaps import words as W

TWO_LOOP_RAY = "root s\nstate s loops=2 children=s\n"
THREE_LOOP_RAY = "root s\nstate s loops=3 children=s\n"
CANTOR = "root b\nstate b loops=0 children=b,b\n"
RAY = "root r\nstate r loops=0 children=r\n"
LOOP_RAY = "root s\nstate s loops=1 children=s\n"

FFS_AB = "a\nb\n"
FFS_A_CBC = "a\ncbC\n"
FFS_C = "c\n"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_classify_yes(tmp_path, capsys):
    x = tmp_path / "x.aut"
    y = tmp_path / "y.aut"
    x.write_text(TWO_LOOP_RAY)
    y.write_text(THREE_LOOP_RAY)
    code, rep = run(capsys, "classify", str(x), str(y))
    assert code == 0
    assert rep["verdict"] == "YES"
    assert rep["schema"] == 1


def test_classify_identical_files(tmp_path, capsys):
    x = tmp_path / "x.aut"
    x.write_text(TWO_LOOP_RAY)
    code, rep = run(capsys, "classify", str(x), str(x))
    assert code == 0 and rep["verdict"] == "YES"


def test_classify_no(tmp_path, capsys):
    x = tmp_path / "x.aut"
    y = tmp_path / "y.aut"
    x.write_text(RAY)
    y.write_text(CANTOR)
    code, rep = run(capsys, "classify", str(x), str(y))
    assert code == 0 and rep["verdict"] == "NO"


def test_classify_parse_error(tmp_path, capsys):
    x = tmp_path / "x.aut"
    x.write_text("state s loops=2 children=s\n")  # missing root
    y = tmp_path / "y.aut"
    y.write_text(RAY)
    code, _ = run(capsys, "classify", str(x), str(y))
    assert code == 4


def test_intersect_paper_example(tmp_path, capsys):
    f1 = tmp_path / "f1.ffs"
    f2 = tmp_path / "f2.ffs"
    f1.write_text(FFS_AB)
    f2.write_text(FFS_A_CBC)
    code, rep = run(capsys, "intersect", str(f1), str(f2))
    assert code == 0
    assert rep["ranks"] == [1, 1]
    f3 = tmp_path / "f3.ffs"
    f3.write_text(FFS_C)
    code, rep = run(capsys, "intersect", str(f1), str(f3))
    assert code == 0 and rep["component_count"] == 0
    code, rep = run(capsys, "intersect", str(f1), str(f1))
    assert code == 0 and rep["ranks"] == [2]


@pytest.mark.parametrize(
    "text, error",
    [
        ("[]a\n", "line 1: empty generator name [] in word '[]a'"),
        ("a\n---\n# comment\n[]\n", "line 4: empty generator name [] in word '[]'"),
        ("ab\n[x\n", "line 2: unclosed [ in word '[x'"),
    ],
    ids=["empty-name-first", "empty-name-alone", "unclosed"],
)
def test_intersect_refuses_an_empty_or_unclosed_generator_name(tmp_path, capsys, text, error):
    f1, f2 = tmp_path / "f1.ffs", tmp_path / "f2.ffs"
    f1.write_text(text)
    f2.write_text("[]\n")
    for first, message in ((f1, error), (tmp_path / "ab.ffs", "line 1: empty generator name [] in word '[]'")):
        (tmp_path / "ab.ffs").write_text(FFS_AB)
        code = cli.main(["intersect", str(first), str(f2)])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err == f"parse error: {message}\n"


def test_check_id_identity(tmp_path, capsys):
    g = tmp_path / "g.aut"
    g.write_text(LOOP_RAY)
    m = tmp_path / "id.map"
    m.write_text("support 3\noutside identity\n")
    code, rep = run(capsys, "check-id", str(g), str(m))
    assert code == 0 and rep["verdict"] == "certified_yes"


def test_check_id_shift_map(tmp_path, capsys):
    g = tmp_path / "g.aut"
    g.write_text(LOOP_RAY)
    a = gm.parse_automaton(LOOP_RAY)
    li = {}
    for n in range(1, 7):
        xn = mc.loop_id((0,) * n, 0)
        xp = mc.loop_id((0,) * (n - 1), 0)
        li[xn] = W.mul(W.gen(xn), W.gen(xp))
    shift = mc.ProperMapRep.make(a, 6, loop_images=li, outside=mc.banded(1))
    m = tmp_path / "shift.map"
    m.write_text(mc.format_map_file(shift))
    code, rep = run(capsys, "check-id", str(g), str(m))
    assert code == 2
    assert rep["verdict"] == "no"
    assert "0:0" in rep["witness"]


def test_check_id_banded_unknown(tmp_path, capsys):
    g = tmp_path / "g.aut"
    g.write_text(LOOP_RAY)
    m = tmp_path / "banded.map"
    m.write_text("support 3\noutside banded 1\n")
    code, rep = run(capsys, "check-id", str(g), str(m))
    assert code == 0 and rep["verdict"] == "unknown"


def test_check_id_refuses_an_end_action_that_disagrees_with_vmap(tmp_path, capsys):
    """The root swap with every end fixed by endmap records: the ends follow vmap, so
    the file contradicts itself.  Without the endmap records the swap is not the identity."""
    g = tmp_path / "g.aut"
    g.write_text(CANTOR)
    a = gm.parse_automaton(CANTOR)
    swap = mc.ProperMapRep.make(a, 3, vmap={v: ((1 - v[0],) + v[1:] if v else ()) for v in gm.unfold(a, 3).vertices})
    vmap_lines = [line for line in mc.format_map_file(swap).splitlines() if line.startswith("vmap")]
    fixing = [f"endmap {gm.path_str(c)} -> {gm.path_str(c)}" for c in gm.cylinders(a, 3)]
    m = tmp_path / "swap.map"
    m.write_text("\n".join(["support 3", *vmap_lines, *fixing, "outside identity"]) + "\n")
    code, err = run_err(capsys, "check-id", str(g), str(m))
    assert code == 4
    assert "end action disagrees with vmap at 0/0/0" in err
    m.write_text(mc.format_map_file(swap))  # the endmap records it writes agree with vmap
    assert "endmap 0/0/0 -> 1/0/0" in m.read_text()
    code, rep = run(capsys, "check-id", str(g), str(m))
    assert code == 2 and rep["verdict"] == "no" and rep["witness"] == "('end', (0, 0, 0))"


def test_check_id_sees_finite_genus_turned_beyond_the_support(tmp_path, capsys):
    """Turning four finite branches, each with one loop below the support, permutes
    the loops: the verdict is no at support 1 as at support 2."""
    g = tmp_path / "g.aut"
    g.write_text("root r\nstate r loops=0 children=a,a,a,a\nstate a loops=0 children=b\nstate b loops=1 children=\n")
    m = tmp_path / "turn.map"
    m.write_text("support 1\nvmap 0 -> 2\nvmap 1 -> 3\nvmap 2 -> 0\nvmap 3 -> 1\n")
    code, rep = run(capsys, "check-id", str(g), str(m))
    assert code == 2 and rep["verdict"] == "no" and rep["witness"] == "('curve', (0,))"


@pytest.mark.parametrize(
    "graph, records, message",
    [
        (CANTOR, "vmap 0/0/0/0 -> 1/1/1/1", "vmap source 0/0/0/0 lies outside the support-2 truncation"),
        (CANTOR, "endmap 0/1/1/1 -> 0/0", "endmap source 0/1/1/1 is not a live frontier cylinder"),
        (CANTOR, "endmap 7/7 -> 0/0", "endmap source 7/7 is not a live frontier cylinder"),
        (CANTOR, "endmap 0 -> 0", "endmap source 0 is not a live frontier cylinder"),
        (CANTOR, "vmap 0 -> 1\nvmap 0 -> 0", "line 3: repeated vmap source 0"),
        (CANTOR, "endmap 0/0 -> 0/0\nendmap 0/0 -> 0/0", "line 3: repeated endmap source 0/0"),
        (LOOP_RAY, "wrap 0 -> [.:0]\nwrap 0 -> [0:0]", "line 3: repeated wrap source 0"),
        (LOOP_RAY, "loop 0:0 -> [0:0]^-1\nloop 0:0 -> [0:0]", "line 3: repeated loop source 0:0"),
        (TWO_LOOP_RAY, "support 3\noutside banded 1\noutside identity", "line 2: repeated support"),
        (TWO_LOOP_RAY, "outside banded 1\noutside identity", "line 3: repeated outside"),
    ],
    ids=["vmap-outside", "endmap-below-frontier", "endmap-off-tree", "endmap-above-frontier", "repeated-vmap",
         "repeated-endmap", "repeated-wrap", "repeated-loop", "repeated-support", "repeated-outside"],
)
def test_check_id_refuses_records_it_cannot_use(tmp_path, capsys, graph, records, message):
    g = tmp_path / "g.aut"
    g.write_text(graph)
    m = tmp_path / "bad.map"
    m.write_text(f"support 2\n{records}\n")
    code, err = run_err(capsys, "check-id", str(g), str(m))
    assert code == 4
    assert message in err


def _write_tree_action(tmp_path):
    g = tmp_path / "g.aut"
    g.write_text(CANTOR)
    a = gm.parse_automaton(CANTOR)
    t = gm.unfold(a, 3)
    vmap = {v: ((1 - v[0],) + v[1:] if v else ()) for v in t.vertices}
    swap = mc.ProperMapRep.make(a, 3, vmap=vmap)
    (tmp_path / "e.map").write_text(mc.format_map_file(mc.ProperMapRep.identity(a, 3)))
    (tmp_path / "s.map").write_text(mc.format_map_file(swap))
    act = tmp_path / "swap.act"
    act.write_text(
        "group z2 order 2\n"
        "elem e: mapfile=e.map\n"
        "elem s: mapfile=s.map\n"
        "mult e e = e\nmult e s = s\nmult s e = s\nmult s s = e\n"
    )
    return g, act


def test_realize_tree(tmp_path, capsys):
    g, act = _write_tree_action(tmp_path)
    out = tmp_path / "out"
    code, rep = run(capsys, "realize", "tree", str(g), str(act), "--out", str(out))
    assert code == 0
    assert rep["block_counts"][0] == 1
    assert (out / "telescope.dot").exists()
    assert (out / "realize.json").exists()


@pytest.mark.parametrize("base", ["0", "-2"])
def test_realize_tree_nonpositive_eps_base_is_input_error(tmp_path, capsys, base):
    g, act = _write_tree_action(tmp_path)
    code, rep = run(capsys, "realize", "tree", str(g), str(act), "--eps-base", base)
    assert code == 4
    assert rep["stage"] == "input" and rep["error"].startswith("eps base must be positive")


def test_eps_base_is_refused_outside_the_tree_pipeline(tmp_path, capsys):
    """``general`` hands a tree to the tree pipeline at base 2 and ``core`` has no epsilon
    schedule, so both refuse --eps-base, writing nothing but the report."""
    g, act = _write_tree_action(tmp_path)
    code, rep = run(capsys, "realize", "tree", str(g), str(act), "--eps-base", "3")
    assert code == 0 and rep["block_counts"] == [1, 2, 4, 8, 8]
    flip = tmp_path / "flip"
    flip.mkdir()
    for kind, (graph, action) in (("general", (g, act)), ("core", _write_flip_action(flip, 0))):
        out = tmp_path / kind
        code, rep = run(capsys, "realize", kind, str(graph), str(action), "--eps-base", "3", "--out", str(out))
        assert code == 4 and rep["command"] == f"realize-{kind}" and rep["stage"] == "input"
        assert rep["error"] == f"--eps-base applies to realize tree only, not {kind}"
        assert [p.name for p in out.iterdir()] == ["realize.json"]
        code, rep = run(capsys, "realize", kind, str(graph), str(action))
        assert code == 0 and rep["stage"] == ("tree-case" if kind == "general" else "done")
    assert rep["verdicts"] == {"e": "certified_yes", "f": "certified_yes"}


@pytest.mark.parametrize("flag, levels", [([], 4), (["--depth", "0"], 0), (["--depth", "2"], 2)])
def test_realize_tree_runs_the_levels_it_is_given(tmp_path, capsys, flag, levels):
    """--depth 0 is the trivial partition alone; only an absent flag means the default."""
    g, act = _write_tree_action(tmp_path)
    code, rep = run(capsys, "realize", "tree", str(g), str(act), *flag)
    assert code == 0
    assert rep["levels"] == levels and len(rep["block_counts"]) == levels + 1


@pytest.mark.parametrize("kind", ["tree", "general"])
def test_realize_negative_depth_is_input_error(tmp_path, capsys, kind):
    g, act = _write_tree_action(tmp_path)
    code, rep = run(capsys, "realize", kind, str(g), str(act), "--depth", "-1")
    assert code == 4
    assert rep["stage"] == "input" and rep["error"] == "levels must be nonnegative, got -1"


def _write_flip_action(tmp_path, depth):
    """The loop-ray flip at the given support, as graph and action files."""
    g = tmp_path / "g.aut"
    g.write_text(LOOP_RAY)
    a = gm.parse_automaton(LOOP_RAY)
    t = gm.unfold(a, depth)
    li = {mc.loop_id(v, k): W.gen(mc.loop_id(v, k), -1) for v, k in t.loop_edges}
    flip = mc.ProperMapRep.make(a, depth, loop_images=li)
    (tmp_path / "e.map").write_text(mc.format_map_file(mc.ProperMapRep.identity(a, depth)))
    (tmp_path / "f.map").write_text(mc.format_map_file(flip))
    act = tmp_path / "flip.act"
    act.write_text(
        "group z2 order 2\n"
        "elem e: mapfile=e.map\n"
        "elem f: mapfile=f.map\n"
        "mult e e = e\nmult e f = f\nmult f e = f\nmult f f = e\n"
    )
    return g, act


def test_realize_core(tmp_path, capsys):
    g, act = _write_flip_action(tmp_path, 26)
    code, rep = run(capsys, "realize", "core", str(g), str(act))
    assert code == 0
    assert rep["verdicts"] == {"e": "certified_yes", "f": "certified_yes"}


def test_realize_core_default_one_interval_cover(tmp_path, capsys):
    """At support 0 the cover is built for the action extended to support 1."""
    for depth, interval in ((14, [0, 14]), (0, [0, 1])):
        g, act = _write_flip_action(tmp_path, depth)
        code, rep = run(capsys, "realize", "core", str(g), str(act))
        assert code == 0, depth
        assert rep["intervals"] == [interval]
        assert rep["verdicts"] == {"e": "certified_yes", "f": "certified_yes"}


@pytest.mark.parametrize("depth, intervals", [(27, 2), (40, 3), (60, 4)])
def test_realize_core_default_cover_past_one_interval(tmp_path, capsys, depth, intervals):
    """Past support 24 the default chain keeps non-adjacent intervals disjoint."""
    g, act = _write_flip_action(tmp_path, depth)
    code, rep = run(capsys, "realize", "core", str(g), str(act))
    assert code == 0
    assert len(rep["intervals"]) == intervals
    assert rep["verdicts"] == {"e": "certified_yes", "f": "certified_yes"}


def test_realize_reports_bound_exhaustion(tmp_path, capsys):
    # Z/5 on the rose of rank 2 cannot be realized within small bounds
    g = tmp_path / "g.aut"
    g.write_text("root r\nstate r loops=2 children=\n")
    a = gm.parse_automaton("root r\nstate r loops=2 children=\n")
    ident = mc.ProperMapRep.identity(a, 0)
    names = ["e", "g1", "g2", "g3", "g4"]
    for n in names:
        (tmp_path / f"{n}.map").write_text(mc.format_map_file(ident))
    lines = ["group z5 order 5"]
    lines += [f"elem {n}: mapfile={n}.map" for n in names]
    for i in range(5):
        for j in range(5):
            lines.append(f"mult {names[i]} {names[j]} = {names[(i + j) % 5]}")
    act = tmp_path / "z5.act"
    act.write_text("\n".join(lines) + "\n")
    code, rep = run(capsys, "realize", "core", str(g), str(act), "--max-edges", "4")
    assert code == 3
    assert rep["stage"] == "search"
    assert rep["error"] == "no realization within e_max = 4 edges; examined 23 graphs and 23 actions"
    code, rep = run(capsys, "realize", "core", str(g), str(act), "--rank-bound", "1")
    assert code == 3
    assert rep["error"] == "rank 2 exceeds the search bound rank_bound = 1"


def test_realize_core_accepts_an_involution_with_a_long_inverse(tmp_path, capsys):
    # g1 is an automorphism of order 2 whose inverse (itself) Nielsen
    # reduction with Whitehead moves did not find; certification must accept
    # it, so the search runs and reports its bound
    rose = "root r\nstate r loops=3 children=\n"
    g = tmp_path / "g.aut"
    g.write_text(rose)
    a = gm.parse_automaton(rose)
    images = {
        ".:0": "[.:2]^-1[.:1][.:2][.:1][.:2]",
        ".:1": "[.:2]^-1[.:1][.:2][.:0][.:2]^-1[.:1]^-1[.:2][.:0]^-1[.:2]^-1[.:1]^-1[.:2]",
        ".:2": "[.:2]^-1[.:1][.:2][.:0][.:2]^-1[.:1][.:2]",
    }
    g1 = mc.ProperMapRep.make(a, 0, loop_images={x: W.word_from_str(w) for x, w in images.items()})
    (tmp_path / "e.map").write_text(mc.format_map_file(mc.ProperMapRep.identity(a, 0)))
    (tmp_path / "g1.map").write_text(mc.format_map_file(g1))
    act = tmp_path / "z2.act"
    act.write_text(
        "group z2 order 2\n"
        "elem e: mapfile=e.map\n"
        "elem g1: mapfile=g1.map\n"
        "mult e e = e\nmult e g1 = g1\nmult g1 e = g1\nmult g1 g1 = e\n"
    )
    code, rep = run(capsys, "realize", "core", str(g), str(act), "--max-edges", "3")
    assert code == 3
    assert rep["error"] == "no realization within e_max = 3 edges; examined 1 graphs and 20 actions"


def test_cli_deterministic(tmp_path, capsys):
    x = tmp_path / "x.aut"
    y = tmp_path / "y.aut"
    x.write_text(TWO_LOOP_RAY)
    y.write_text(THREE_LOOP_RAY)
    _, rep1 = run(capsys, "classify", str(x), str(y))
    _, rep2 = run(capsys, "classify", str(x), str(y))
    assert rep1 == rep2


def _write_mixed_action(tmp_path):
    """The swap of two Cantor branches on a graph with both genus and free ends."""
    model_text = (
        "root r\n"
        "state r loops=1 children=c,b\n"
        "state c loops=1 children=c\n"
        "state b loops=0 children=b,b\n"
    )
    g = tmp_path / "mix.aut"
    g.write_text(model_text)
    a = gm.parse_automaton(model_text)
    t = gm.unfold(a, 4)

    def swap_v(v):
        if len(v) >= 2 and v[0] == 1:
            return (1, 1 - v[1]) + v[2:]
        return v

    h = mc.ProperMapRep.make(a, 4, vmap={v: swap_v(v) for v in t.vertices})
    (tmp_path / "e.map").write_text(mc.format_map_file(mc.ProperMapRep.identity(a, 4)))
    (tmp_path / "h.map").write_text(mc.format_map_file(h))
    act = tmp_path / "swap.act"
    act.write_text(
        "group z2 order 2\n"
        "elem e: mapfile=e.map\n"
        "elem h: mapfile=h.map\n"
        "mult e e = e\nmult e h = h\nmult h e = h\nmult h h = e\n"
    )
    return g, act


def test_realize_general_via_cli(tmp_path, capsys):
    g, act = _write_mixed_action(tmp_path)
    out = tmp_path / "out"
    code, rep = run(capsys, "realize", "general", str(g), str(act), "--depth", "3", "--out", str(out))
    assert code == 0
    assert rep["stage"] == "general"
    assert (out / "realized.dot").exists()


def test_realize_general_depth_flag(tmp_path, capsys):
    """Absent, --depth means 3 levels; with 0 levels no good element covers the free ends."""
    g, act = _write_mixed_action(tmp_path)
    reps = {}
    for flag in ([], ["--depth", "3"], ["--depth", "0"], ["--depth", "-1"]):
        code, rep = run(capsys, "realize", "general", str(g), str(act), *flag)
        reps[tuple(flag)] = (code, rep)
    assert reps[()] == reps[("--depth", "3")] and reps[()][0] == 0
    code, rep = reps[("--depth", "0")]
    assert code == 2 and rep["stage"] == "verification"
    assert rep["error"] == "some DX end is never covered by a good element"
    code, rep = reps[("--depth", "-1")]
    assert code == 4 and rep["error"] == "levels must be nonnegative, got -1"


MIXED = "root r\nstate r loops=1 children=c,b\nstate c loops=1 children=c\nstate b loops=0 children=b,b\n"


def _write_end_swap(tmp_path, graph, depth, u, v):
    """Z/2 swapping the frontier vertices u and v at the given support, every other vertex
    fixed, as graph and action files: a certified action that is no automorphism of the tree."""
    g = tmp_path / "g.aut"
    g.write_text(graph)
    a = gm.parse_automaton(graph)
    swap = mc.ProperMapRep.make(a, depth, vmap={u: v, v: u})
    (tmp_path / "e.map").write_text(mc.format_map_file(mc.ProperMapRep.identity(a, depth)))
    (tmp_path / "s.map").write_text(mc.format_map_file(swap))
    act = tmp_path / "swap.act"
    act.write_text(
        "group z2 order 2\n"
        "elem e: mapfile=e.map\n"
        "elem s: mapfile=s.map\n"
        "mult e e = e\nmult e s = s\nmult s e = s\nmult s s = e\n"
    )
    return g, act


@pytest.mark.parametrize(
    "graph, depth, u, v, argv, at",
    [
        (CANTOR, 2, (0, 0), (1, 0), ["tree"], 1),
        (CANTOR, 2, (0, 0), (1, 0), ["general"], 1),
        (CANTOR, 2, (0, 0), (1, 0), ["tree", "--eps-base", "1/0"], 1),
        (MIXED, 3, (1, 0, 0), (1, 1, 0), ["tree"], 2),
        (MIXED, 3, (1, 0, 0), (1, 1, 0), ["general"], 2),
    ],
    ids=["cantor-tree", "cantor-general", "cantor-tree-bad-eps-base", "mixed-tree", "mixed-general"],
)
def test_realize_refuses_an_end_action_off_the_tree_first(tmp_path, capsys, graph, depth, u, v, argv, at):
    """The end action is refused before --eps-base is read and before the tree pipeline's
    genus check; ``general`` refuses it after the core check, before the epsilon schedule."""
    g, act = _write_end_swap(tmp_path, graph, depth, u, v)
    code, rep = run(capsys, "realize", argv[0], str(g), str(act), *argv[1:])
    assert code == 4 and rep["command"] == f"realize-{argv[0]}" and rep["stage"] == "input"
    assert rep["error"] == f"element s is incompatible with the cylinder tree at depth {at}"


def _stdout(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_out_writes_truncation_dot(tmp_path, capsys):
    """--out adds truncation.dot for check-id and realize; the report stays byte-identical."""
    g, act = _write_flip_action(tmp_path, 14)
    (tmp_path / "tree").mkdir()
    runs = {
        "check-id": ["check-id", str(g), str(tmp_path / "f.map")],
        "realize-core": ["realize", "core", str(g), str(act)],
        "realize-tree": ["realize", "tree", *map(str, _write_tree_action(tmp_path / "tree"))],
    }
    for name, argv in runs.items():
        plain = _stdout(capsys, *argv)
        out = tmp_path / "out" / name
        assert _stdout(capsys, *argv, "--out", str(out)) == plain
        dot = (out / "truncation.dot").read_text()
        assert dot.startswith("digraph truncation {") and dot.endswith("}\n")
        assert list(out.glob("*.json"))
    # the core action's truncation is the depth-14 loop ray: 15 vertices, 15 loops
    dot = (tmp_path / "out" / "realize-core" / "truncation.dot").read_text()
    assert dot.count("shape=") == 15 and dot.count("[label=\"loop0\"]") == 15


def run_err(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().err


@pytest.mark.parametrize(
    "map_text",
    ["support\noutside identity\n", "support 3\noutside banded\n"],
    ids=["support-without-depth", "banded-without-width"],
)
def test_check_id_truncated_record_is_parse_error(tmp_path, capsys, map_text):
    g = tmp_path / "g.aut"
    g.write_text(LOOP_RAY)
    m = tmp_path / "bad.map"
    m.write_text(map_text)
    code, err = run_err(capsys, "check-id", str(g), str(m))
    assert code == 4
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "last_product",
    ["", "mult s s = z\n"],
    ids=["missing-product", "product-outside-group"],
)
def test_realize_bad_mult_table_is_parse_error(tmp_path, capsys, last_product):
    g, act = _write_tree_action(tmp_path)
    act.write_text(
        "group z2 order 2\n"
        "elem e: mapfile=e.map\n"
        "elem s: mapfile=s.map\n"
        "mult e e = e\nmult e s = s\nmult s e = s\n" + last_product
    )
    code, err = run_err(capsys, "realize", "tree", str(g), str(act))
    assert code == 4
    assert "Traceback" not in err


def test_duplicate_state_is_parse_error(tmp_path, capsys):
    x = tmp_path / "x.aut"
    x.write_text(LOOP_RAY + "state s loops=2 children=s\n")
    y = tmp_path / "y.aut"
    y.write_text(RAY)
    code, err = run_err(capsys, "classify", str(x), str(y))
    assert code == 4
    assert "duplicate state" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "group_line",
    ["group z2 order 3", "group z2 order 1", "group z2 2"],
    ids=["order-too-large", "order-too-small", "order-missing"],
)
def test_realize_group_order_mismatch_is_parse_error(tmp_path, capsys, group_line):
    g, act = _write_tree_action(tmp_path)
    act.write_text(act.read_text().replace("group z2 order 2", group_line))
    code, err = run_err(capsys, "realize", "tree", str(g), str(act))
    assert code == 4
    assert "group" in err and "Traceback" not in err


Z2_SWAP_ELEMS = "group z2 order 2\nelem e: mapfile=e.map\nelem s: mapfile=s.map\n"
Z2_SWAP_MULT = "mult e e = e\nmult e s = s\nmult s e = s\nmult s s = e\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (Z2_SWAP_ELEMS.replace("order 2", "order 3") + "elem s: mapfile=s.map\n" + Z2_SWAP_MULT, "line 4: repeated elem s"),
        ("group z2 order 2\nelem e: mapfile=e.map\nelem e: mapfile=e.map\nmult e e = e\n", "line 3: repeated elem e"),
        (Z2_SWAP_ELEMS + "mult s s = s\n" + Z2_SWAP_MULT, "line 8: repeated mult s s"),
        (Z2_SWAP_ELEMS + Z2_SWAP_MULT + "mult x e = e\n", "line 8: unknown element x"),
        (Z2_SWAP_ELEMS + Z2_SWAP_MULT + "mult s = e\n", "line 8: expected mult <g> <h> = <k>"),
        (Z2_SWAP_ELEMS + Z2_SWAP_MULT + "mult s s\n", "line 8: expected mult <g> <h> = <k>"),
    ],
    ids=["repeated-elem-counted-in-order", "repeated-identity", "repeated-mult", "mult-of-undeclared-element",
         "mult-missing-factor", "mult-missing-product"],
)
def test_realize_malformed_action_records_are_parse_errors(tmp_path, capsys, text, message):
    g, act = _write_tree_action(tmp_path)
    act.write_text(text)
    code, err = run_err(capsys, "realize", "tree", str(g), str(act))
    assert code == 4
    assert message in err and "Traceback" not in err


def test_dot_text_is_built_only_for_out(tmp_path, capsys, monkeypatch):
    """Without --out no DOT text is built, and every exit code stays as it is."""
    g, act = _write_flip_action(tmp_path, 14)
    (tmp_path / "tree").mkdir()
    tg, tact = _write_tree_action(tmp_path / "tree")
    (tmp_path / "mixed").mkdir()
    mg, mact = _write_mixed_action(tmp_path / "mixed")
    runs = [
        (["check-id", str(g), str(tmp_path / "e.map")], 0),
        (["check-id", str(g), str(tmp_path / "f.map")], 2),
        (["realize", "core", str(g), str(act)], 0),
        (["realize", "tree", str(tg), str(tact)], 0),
        (["realize", "general", str(mg), str(mact)], 0),
        (["realize", "general", str(mg), str(mact), "--depth", "0"], 2),
    ]

    def refuse(*args):
        raise AssertionError("DOT text built without --out")

    monkeypatch.setattr(es, "telescope_to_dot", refuse)
    monkeypatch.setattr(cli, "_symgraph_dot", refuse)
    monkeypatch.setattr(gm, "truncation_to_dot", refuse)
    for argv, code in runs:
        assert cli.main(argv) == code, argv
        capsys.readouterr()


@pytest.mark.parametrize("flag", ["--depth", "--eps-base", "--max-edges", "--rank-bound"])
def test_realize_only_flags_rejected_elsewhere(tmp_path, capsys, flag):
    x = tmp_path / "x.aut"
    x.write_text(LOOP_RAY)
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify", str(x), str(x), flag, "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_parser_keeps_no_state_between_calls(tmp_path, capsys):
    """The one parser of the process gives each call its own options."""
    f1, f2 = tmp_path / "ab.ffs", tmp_path / "acbc.ffs"
    f1.write_text(FFS_AB)
    f2.write_text(FFS_A_CBC)
    out = tmp_path / "reports"
    code, first = run(capsys, "intersect", str(f1), str(f2), "--out", str(out))
    assert code == 0 and (out / "intersect.json").exists()
    (out / "intersect.json").unlink()
    code, second = run(capsys, "intersect", str(f1), str(f2))
    assert code == 0 and second == first
    assert not (out / "intersect.json").exists()
    with pytest.raises(SystemExit) as exc:
        cli.main(["intersect", str(f1)])
    assert exc.value.code == 2
    code, third = run(capsys, "intersect", str(f1), str(f2))
    assert code == 0 and third == first


@pytest.mark.parametrize(
    "text, error",
    [
        ("support 2\nloop :0 -> [0:0\n", "line 2: unclosed [ in word '[0:0'"),
        ("support 2\nwrap 0 -> [0:0\n", "line 2: unclosed [ in word '[0:0'"),
        ("support x\n", "line 1: support needs one depth"),
        ("support 2\noutside banded x\n", "line 2: bad outside flag"),
        ("support 2\nwrap . -> [.:0]\n", "line 2: unknown edge target ."),
        ("support 2\nvmap x -> 0\n", "line 2: invalid literal for int() with base 10: 'x'"),
        ("support 2\nloop :0 -> 中\n", "line 2: bad character '中' in word '中'"),
        ("support 2\nloop .:0\n", "line 2: loop record needs ->"),
        ("support 2\nvmap 0\n", "line 2: vmap record needs ->"),
        ("support 2\nloop .:0 -> b\n", "line 2: word uses unknown loop generator b"),
        ("support 2\nwrap 0 -> [zz:0]\n", "line 2: word uses unknown loop generator zz:0"),
        ("support 2\nloop bogus -> [bogus]\n", "line 2: unknown loop 'bogus'"),
        ("support 2\nloop -> [.:0]\n", "line 2: unknown loop ''"),
        ("support 2\nvmap 0 -> 5\n", "line 2: vmap target 5 lies outside the support-2 truncation"),
        ("support 2\noutside identity banded 3\n", "line 2: bad outside flag"),
        ("support 2\n\noutside banded 2 junk\n", "line 3: bad outside flag"),
        ("outside identity x\nsupport 2\n", "line 1: bad outside flag"),
        ("support 2\noutside\n", "line 2: bad outside flag"),
    ],
    ids=["loop-word", "wrap-word", "support", "outside", "root-wrap", "vmap-path", "caseless-letter", "loop-no-arrow",
         "vmap-no-arrow", "loop-unknown-generator", "wrap-unknown-generator", "unknown-loop", "empty-loop-name",
         "vmap-target", "outside-identity-trailing", "outside-banded-trailing", "outside-before-support", "outside-bare"],
)
def test_check_id_map_file_errors_say_where(tmp_path, capsys, text, error):
    g, m = tmp_path / "g.aut", tmp_path / "bad.map"
    g.write_text(LOOP_RAY)
    m.write_text(text)
    code = cli.main(["check-id", str(g), str(m)])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err == f"parse error: {error}\n"


def test_realize_names_the_map_file_of_a_bad_element(tmp_path, capsys):
    g, act = _write_flip_action(tmp_path, 4)
    (tmp_path / "f.map").write_text("support 4\nloop :0 -> [0:0\n")
    code = cli.main(["realize", "core", str(g), str(act)])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err == "parse error: f.map: line 2: unclosed [ in word '[0:0'\n"
