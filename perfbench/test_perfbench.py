"""Self-tests of the benchmark: python3 -m pytest perfbench/test_perfbench.py"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


@pytest.fixture(scope="module")
def package():
    return harness.import_program()


def _profile(inputs):
    """The size profile: the slots in order and the files they write."""
    slots = [op.key.rsplit("/", 1)[0] for op in inputs.ops]
    return slots, sorted(inputs.files)


def _hashes(package, inputs, workdir, monkeypatch):
    run.write_inputs(inputs, workdir)
    monkeypatch.chdir(workdir)
    out = []
    for op in inputs.ops:
        code, output = harness.execute(package, op)
        out.append((op.key, code, harness.digest(code, harness.canonical(output)[0])))
    return out


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_same_seed_same_inputs(workload):
    a, b = workloads.make_inputs(workload, 7), workloads.make_inputs(workload, 7)
    assert a.files == b.files
    assert [(op.key, op.args, op.cover) for op in a.ops] == [(op.key, op.args, op.cover) for op in b.ops]


def test_same_seed_same_output_hashes(package, tmp_path, monkeypatch):
    first = _hashes(package, workloads.make_inputs("maps", 3), tmp_path / "a", monkeypatch)
    second = _hashes(package, workloads.make_inputs("maps", 3), tmp_path / "b", monkeypatch)
    assert first == second
    expected = harness.load_expected()
    assert all(expected[key] == [code, digest] for key, code, digest in first)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_other_seed_other_inputs_same_profile(workload):
    a, b = workloads.make_inputs(workload, 1), workloads.make_inputs(workload, 2)
    assert a.files != b.files
    assert _profile(a) == _profile(b)


def test_ffs_word_lengths_follow_the_ladder():
    for seed in (1, 2):
        inputs = workloads.make_inputs("ffs", seed)
        for op in inputs.ops:
            length = int(op.key.split("/")[1].split("-")[0][3:])
            first = inputs.files[op.args[1]]
            assert all(len(line) == length for line in first.splitlines() if line != "---")


def test_program_sees_only_the_generated_files():
    # the seed reaches the inputs only through the variant picked per slot:
    # an op with the same key has the same arguments and files under any seed
    seen = {}
    for seed in range(1, 6):
        inputs = workloads.make_inputs("realize", seed)
        for op in inputs.ops:
            assert "--seed" not in op.args
            slot = op.key.split("/")[1]
            files = {f: text for f, text in inputs.files.items() if f.startswith(slot + "/")}
            assert files
            seen.setdefault(op.key, (op.args, files))
            assert seen[op.key] == (op.args, files)


def test_every_variant_is_pinned():
    expected = harness.load_expected()
    for workload, make in workloads.WORKLOADS.items():
        for v in range(workloads.VARIANTS):
            assert all(op.key in expected for op in make(lambda slot: v).ops)


def test_corrupted_expected_output_fails_the_op(package, tmp_path, monkeypatch):
    inputs = workloads.make_inputs("maps", 1)
    run.write_inputs(inputs, tmp_path)
    monkeypatch.chdir(tmp_path)
    expected = dict(harness.load_expected())
    ops = inputs.ops[:3]
    failures = []
    assert len(run.run_pass(package, ops, expected, failures)) == 3 and not failures
    code, digest = expected[ops[1].key]
    expected[ops[1].key] = [code, "0" * len(digest)]
    times = run.run_pass(package, ops, expected, failures)
    assert len(times) == 2
    assert failures == [(ops[1].key, f"output differs from the pinned one (exit {code})")]


def test_construction_check_does_not_trust_the_pin(package, tmp_path, monkeypatch):
    inputs = workloads.make_inputs("maps", 1)
    op = next(op for op in inputs.ops if op.fields.get("verdict") == "certified_yes")
    run.write_inputs(inputs, tmp_path)
    monkeypatch.chdir(tmp_path)
    code, output = harness.execute(package, op)
    wrong = output.replace('"certified_yes"', '"no"')
    pinned = {op.key: [code, harness.digest(code, harness.canonical(wrong)[0])]}
    assert harness.check(op, code, wrong, pinned) == "verdict 'no', construction says 'certified_yes'"


def test_escaping_errors_fail_the_op(package, monkeypatch):
    def explode(package, op):
        raise MemoryError

    monkeypatch.setattr(harness, "execute", explode)
    failures = []
    op = workloads.make_inputs("maps", 1).ops[0]
    assert run.run_pass(package, [op], {}, failures) == {}
    assert failures == [(op.key, "MemoryError")]


def test_tracer_patches_every_binding_and_restores(package, tmp_path, monkeypatch):
    gm, nz, mc = package.graph_model, package.nielsen, package.mapclass
    originals = (gm.unfold, nz.unfold, mc.unfold, mc.ProperMapRep.__dict__["make"])
    tracer = Tracer(package)
    tracer.install()
    try:
        assert gm.unfold is nz.unfold is mc.unfold
        assert gm.unfold is not originals[0]
        inputs = workloads.make_inputs("maps", 1)
        run.write_inputs(inputs, tmp_path)
        monkeypatch.chdir(tmp_path)
        op = next(op for op in inputs.ops if op.args[0] == "check-id")
        tracer.begin_op("0")
        harness.execute(package, op)
    finally:
        tracer.restore()
    assert (gm.unfold, nz.unfold, mc.unfold, mc.ProperMapRep.__dict__["make"]) == originals
    assert tracer.layer_calls["cli"] == 1 and tracer.calls["mapclass.parse_map_file"] == 1
    spans = [s for s in tracer.spans if s is not None]
    assert spans and all(end >= start for _, start, end, _, _ in spans)
    root = next(s for s in spans if s[3] is None)
    assert root[0] == "cli.main"
    metrics = tracer.metrics(1, root[2] - root[1])
    assert sum(metrics[f"{layer}.share"][0] for layer in LAYERS) == pytest.approx(1.0, abs=1e-6)


def test_tail_percentile_keeps_ten_samples_beyond():
    values = sorted(float(i) for i in range(1, 101))
    assert run.tail(values, 99.0) == (90.0, 90.0, 10)
    assert run.tail(values, 75.0) == (75.0, 75.0, 25)
    assert run.percentile(values, 50.0) == (50.0, 50)
    # per-op times standing for one sample per pass: three passes over 20 ops
    twenty = values[:20]
    assert run.tail(twenty, 95.0, 3) == (15.0, 75.0, 15)
    assert run.tail(twenty, 95.0, 10) == (19.0, 95.0, 10)


def test_op_cost_is_measured_against_the_reference(package, tmp_path, monkeypatch):
    inputs = workloads.make_inputs("maps", 1)
    run.write_inputs(inputs, tmp_path)
    monkeypatch.chdir(tmp_path)
    times = run.run_pass(package, inputs.ops[:5], harness.load_expected(), [], pace=run.Pace())
    assert len(times) == 5
    assert all(elapsed > 0 and ref > 0 for elapsed, ref in times.values())
    assert all(ref is None for _, ref in run.run_pass(package, inputs.ops[:2], harness.load_expected(), []).values())


def test_no_pass_starts_that_could_end_past_the_deadline():
    start = run.time.perf_counter()
    assert run.another_pass(start, [], 1.0)
    assert run.another_pass(start, [0.1, 0.3], 1.0)
    assert not run.another_pass(start, [0.1, 1.0], 1.0)
