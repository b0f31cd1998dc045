"""propermaps benchmark: seeded CLI workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload ffs --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one row each
    python3 perfbench/run.py --record            # re-pin the expected outputs

Each workload runs in a child process of its own, under an address-space
limit, as one closed-loop client.  The child generates the inputs from the
seed, then runs as many whole passes over the op list as fit in
``--seconds``.  With ``--trace 0`` the last line of output holds the end-to-end
metrics; with ``--trace 1`` every op runs once untraced and once traced and
the last line holds the per-layer metrics.

The host is shared: identical work runs up to half again slower while a
neighbour is busy, in stretches of seconds to minutes, which would swamp the
program's own changes.  So between ops the run times a fixed reference
computation that does not touch the program, and the end-to-end timings count
an op's wall time in units of the reference time measured around it ("ref").
Each op's cost is its median over the passes; the median, tail and throughput
are taken over the ops.  The wall times in seconds are printed beside them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

WORK = harness.ROOT / ".perfbench_work"
ADDRESS_SPACE = 1 << 30  # bytes; an op that needs more fails with MemoryError
CHILD_TIMEOUT = 170  # seconds
SETUP_REPEATS = 5
REFERENCE_EVERY = 0.25  # seconds between two timings of the reference computation
# Tail percentile of the per-op costs, per workload: fixed so that runs and
# commits compare the same order statistic; each leaves at least ten samples
# (ops beyond it times passes) beyond it in a 40-second run.  ``tail`` falls
# back to a lower one if not.
TAIL = {"ffs": 75.0, "maps": 95.0, "realize": 75.0}
UNITS = {"ops_per_kref": "1/kref", "op_ref.p50": "ref", "op_ref.tail": "ref", "peak_rss_mb": "MB", "setup_s": "s"}


def percentile(values, p):
    """Nearest-rank percentile of sorted ``values`` and the count beyond it."""
    rank = max(1, math.ceil(len(values) * p / 100))
    return values[rank - 1], len(values) - rank


def tail(values, preferred, samples_per_value=1):
    """(value, percentile, samples beyond): ``preferred`` unless fewer than ten lie beyond it.

    Each of ``values`` stands for ``samples_per_value`` samples.
    """
    for p in [preferred] + [q for q in (95.0, 90.0, 75.0) if q < preferred]:
        value, beyond = percentile(values, p)
        if beyond * samples_per_value >= 10:
            return value, p, beyond * samples_per_value
    value, beyond = percentile(values, 50.0)
    return value, 50.0, beyond * samples_per_value


def reference():
    """A fixed pure-Python computation of about 2 ms (tuples, dicts, sorting); the unit "ref"."""
    table = {}
    for i in range(1000):
        key = (i % 37, (i * 7) % 13, i % 5)
        table[key] = table.get(key, ()) + (i,)
    total = 0
    for _, row in sorted(table.items(), key=lambda kv: (len(kv[1]), kv[0])):
        total += sum(row[::2]) - len({x % 17 for x in row})
    return total


class Pace:
    """How fast the host runs now: the mean of three timings of ``reference``,
    taken again between ops once ``REFERENCE_EVERY`` seconds have passed."""

    def __init__(self):
        self.value, self.at = 0.0, -math.inf

    def now(self):
        if time.perf_counter() - self.at >= REFERENCE_EVERY:
            start = time.perf_counter()
            for _ in range(3):
                reference()
            self.at = time.perf_counter()
            self.value = (self.at - start) / 3
        return self.value


# -- the child: one workload in one process -----------------------------------------------------


def another_pass(start, durations, seconds):
    """Whole passes only: start one more if it should end within ``seconds``
    of ``start`` even if it is as slow as the slowest pass so far."""
    return not durations or time.perf_counter() - start + max(durations) <= seconds


def write_inputs(inputs, workdir):
    for rel, text in inputs.files.items():
        path = workdir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def set_up(workload, seed, workdir):
    """Import the program, generate and write the inputs, warm up; timed as a whole."""
    start = time.perf_counter()
    package = harness.import_program()
    inputs = workloads.make_inputs(workload, seed)
    write_inputs(inputs, workdir)
    seen = set()
    for op in inputs.ops:  # warm up: the first op of each command
        if op.command not in seen:
            seen.add(op.command)
            harness.execute(package, op)
    return package, inputs, time.perf_counter() - start


def run_pass(package, ops, expected, failures, tracer=None, pace=None):
    """One pass over ``ops``.

    Returns {index in ``ops``: (wall time, reference time)} of the successful
    ops; the reference time is the mean of ``pace`` before and after the op,
    or None without ``pace``.
    """
    times = {}
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(f"{i}:{op.key}")
        before = pace.now() if pace else None
        start = time.perf_counter()
        try:
            code, output = harness.execute(package, op)
            why = None
        except MemoryError:
            why = "MemoryError"
        except Exception as exc:  # an escaping exception is a failed op
            why = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        ref = (before + pace.now()) / 2 if pace else None
        if why is None:
            why = harness.check(op, code, output, expected)
        if why is None:
            times[i] = (elapsed, ref)
        else:
            failures.append((op.key, why))
    return times


def measure(workload, seed, seconds, trace):
    """Set up, run whole passes for ``seconds``, and report as the JSON result does."""
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(workdir)
    try:
        expected = harness.load_expected()
        setups = []

        def set_up_again():
            package, inputs, elapsed = set_up(workload, seed, workdir)
            setups.append(elapsed)
            return package, inputs

        package, inputs = set_up_again()
        failures: list = []
        if trace:
            attempted, metrics, notes = run_traced(workload, package, inputs.ops, expected, failures, seconds)
        else:
            attempted, metrics, notes = run_plain(workload, package, inputs.ops, expected, failures, seconds,
                                                  set_up_again)
            metrics["setup_s"] = {"value": statistics.median(setups), "unit": UNITS["setup_s"]}
        if workload == "realize":
            notes["defect_probes"] = defect_probes(package, workdir)
        notes["failures"] = sorted(set(failures))
        return {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics, "notes": notes}
    finally:
        os.chdir(harness.ROOT)
        shutil.rmtree(workdir, ignore_errors=True)


def run_plain(workload, package, ops, expected, failures, seconds, set_up_again):
    """The end-to-end metrics, tracing off: each op's median over the passes, in refs.

    The program was set up once before; ``set_up_again`` sets it up afresh
    (same seed, same ops) and returns (package, inputs).  The further set-ups,
    to ``SETUP_REPEATS`` in all, are spread over the run between passes, so
    that their median does not hang on the host's pace in one moment.
    """
    samples: list[list[tuple]] = [[] for _ in ops]
    pace = Pace()
    set_ups, durations = 1, []
    start = time.perf_counter()
    while another_pass(start, durations, seconds):
        if set_ups < SETUP_REPEATS and time.perf_counter() - start >= set_ups * seconds / SETUP_REPEATS:
            package, _ = set_up_again()
            set_ups += 1
        pass_start = time.perf_counter()
        for i, sample in run_pass(package, ops, expected, failures, pace=pace).items():
            samples[i].append(sample)
        durations.append(time.perf_counter() - pass_start)
    for _ in range(SETUP_REPEATS - set_ups):
        set_up_again()
    passes = len(durations)
    done = [ts for ts in samples if ts]
    cost = sorted(statistics.median(t / ref for t, ref in ts) for ts in done)
    wall = sorted(statistics.median(t for t, _ in ts) for ts in done)
    p50, _ = percentile(cost, 50.0) if cost else (0.0, 0)
    tail_value, tail_p, beyond = tail(cost, TAIL[workload], passes) if cost else (0.0, 0.0, 0)
    metrics = {
        "ops_per_kref": 1000 * len(cost) / sum(cost) if cost else 0.0,
        "op_ref.p50": p50,
        "op_ref.tail": tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {"passes": passes, "samples": sum(map(len, samples)), "tail_percentile": tail_p, "tail_beyond": beyond,
             "ref_s": statistics.median(ref for ts in done for _, ref in ts) if done else 0.0,
             "wall": {"ops_per_s": len(wall) / sum(wall) if wall else 0.0,
                      "op_s.p50": percentile(wall, 50.0)[0] if wall else 0.0,
                      f"op_s.p{tail_p:g}": percentile(wall, tail_p)[0] if wall else 0.0}}
    return passes * len(ops), {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}, notes


def run_traced(workload, package, ops, expected, failures, seconds):
    """The per-layer metrics: each pass runs untraced, then traced."""
    tracer = Tracer(package)
    plain, traced = [], []
    durations = []
    start = time.perf_counter()
    while another_pass(start, durations, seconds):
        pass_start = time.perf_counter()
        plain += [t for t, _ in run_pass(package, ops, expected, failures).values()]
        tracer.install()
        try:
            traced += [t for t, _ in run_pass(package, ops, expected, failures, tracer).values()]
        finally:
            tracer.restore()
        durations.append(time.perf_counter() - pass_start)
    passes = len(durations)
    per_layer = tracer.metrics(passes, sum(traced))
    overhead = 1 - (len(traced) / sum(traced)) / (len(plain) / sum(plain)) if traced and plain else 0.0
    per_layer["trace.overhead_ratio"] = (overhead, "ratio")
    tracer.dump(WORK / f"trace-{workload}.jsonl")
    notes = {"passes": passes, "spans": len(tracer.spans), "spans_dropped": tracer.dropped}
    return 2 * passes * len(ops), {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}, notes


def defect_probes(package, workdir):
    """CLI `realize core` with the default cover: the known defect, kept visible.

    These ops are not part of the measured loop; their outcome is reported.
    """
    inputs = workloads.defect_inputs()
    write_inputs(inputs, workdir)
    out = {}
    for op in inputs.ops:
        try:
            code, output = harness.execute(package, op)
            report = harness.canonical(output)[1] or {}
            out[op.key] = f"exit {code}" + (f" ({report.get('stage')}: {report.get('error', '')})" if code else "")
        except Exception as exc:  # the defect under observation raises
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            out[op.key] = f"{type(exc).__name__} at {Path(frame.filename).name}:{frame.lineno}: {exc}"
    return out


def child_main(args):
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    os.environ.pop("PROPERMAPS_THREADS", None)  # reported by the CLI: keep the outputs fixed
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))


# -- the parent ---------------------------------------------------------------------------------


def run_child(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--child", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=harness.ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload {workload}: child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def print_row(workload, result):
    notes = result["notes"]
    cells = [f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()]
    ratio = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    if "tail_percentile" in notes:
        cells[2] += f" (p{notes['tail_percentile']:g}, {notes['tail_beyond']} beyond, n={notes['samples']})"
        cells += [f"{k}={v:.6g}" for k, v in notes["wall"].items()] + [f"ref={notes['ref_s'] * 1000:.4g} ms"]
    print(f"{workload:8s} " + "  ".join(cells) + f"  failed_ratio={ratio:.3g} ({result['failed']}/{result['attempted']})")
    for key, why in notes["failures"]:
        print(f"{workload:8s}   failed {key}: {why}")
    for key, outcome in notes.get("defect_probes", {}).items():
        print(f"{workload:8s}   known defect {key}: {outcome}")


def record():
    """Pin the output of every variant of every slot at the current program."""
    package = harness.import_program()
    pins = {}
    for workload in workloads.WORKLOADS:
        workdir = WORK / f"record-{workload}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        os.chdir(workdir)
        for v in range(workloads.VARIANTS):
            inputs = workloads.WORKLOADS[workload](lambda slot: v)
            write_inputs(inputs, workdir)
            for op in inputs.ops:
                code, output = harness.execute(package, op)
                pins[op.key] = [code, harness.digest(code, harness.canonical(output)[0])]
        os.chdir(harness.ROOT)
        shutil.rmtree(workdir)
    lines = [f"{json.dumps(key)}: {json.dumps(pin)}" for key, pin in sorted(pins.items())]
    harness.EXPECTED.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"pinned {len(pins)} outputs in {harness.EXPECTED}")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true", help="re-pin the expected outputs and exit")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.record:
        return record()
    if args.child:
        return child_main(args)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_child(name, args.seed, args.seconds, args.trace)
        print_row(name, results[name])
    if len(names) == 1:
        result = results[names[0]]
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
