#!/usr/bin/env python3
"""nishape benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: pendulum-sync, pendulum-stabilize, certify-linear, surface-box
(see workloads.py and BENCHMARK.json).  Load is a closed loop from one
process and one thread: each operation starts when the previous one has
ended.  A round is one pass over the workload's operations; rounds repeat
while the next one is projected to end within ``--seconds`` (at least one).
With ``--trace 0`` every time is read on ``hostclock.HostClock``, which
scales wall time by the host's current speed: on a shared host the same
code runs up to twice as slow for stretches of 0.1 s to minutes.

``--trace 0`` prints the end-to-end metrics, measured untraced.
``--trace 1`` runs half the time untraced and half with the outside-in
tracer installed, and prints the per-layer metrics (per round) plus the
tracing overhead.  Every operation's output is checked either way.  The
last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import hostclock  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
# Set-up is timed this many times before the rounds and as many after them,
# so that its median spans the run rather than one phase of the host.
SETUP_REPEATS = 6

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "ops/s", "op_ms_p50": "ms",
    "op_ms_tail": "ms", "peak_rss_mb": "MB", "pass_ratio": "ratio",
    "bitwise_ref_ratio": "ratio",
}


def import_program():
    """Import nishape from this checkout's ``src``, and nothing else."""
    sys.path.insert(0, str(SRC))
    try:
        import nishape
        import nishape.cli  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"error: cannot import nishape from {SRC}: {exc}")
    if not Path(nishape.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: nishape resolved to {nishape.__file__}, outside {SRC}")
    return nishape


def load_reference():
    try:
        with open(REFERENCE) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: cannot read {REFERENCE}: {exc}")


def time_setup(repeats, warm=False, clock=time.perf_counter):
    """Times, on ``clock``, for a fresh interpreter to import nishape.cli;
    with ``warm``, one untimed import first so byte-code compilation is not
    counted."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import nishape.cli"]
    times = []
    for i in range(repeats + warm):
        t0 = clock()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        if i or not warm:
            times.append(clock() - t0)
    return times


class Tally:
    """Outcome bookkeeping across rounds: failures, correctness, repeat
    determinism and agreement with the reference digests."""

    def __init__(self, reference):
        self.reference = reference      # label -> {"digests", "values"}, or None
        self.attempted = 0
        self.failed = 0
        self.incorrect = []
        self.first = {}
        self.ref_total = 0
        self.ref_match = 0

    def ref(self, label):
        return None if self.reference is None else self.reference.get(label)

    def add(self, op, outcome):
        self.attempted += 1
        problems = list(outcome.problems)
        first = self.first.setdefault(op.label, outcome.digests)
        if first != outcome.digests:
            problems.append("bytes differ between two runs of the same operation")
        if problems:
            self.failed += 1
            if not (outcome.known_defect and len(problems) == 1):
                self.incorrect.append(f"{op.label}: {'; '.join(problems)}")
        ref = self.ref(op.label)
        if self.reference is not None and not op.degenerate:
            expected = ref["digests"] if ref else {}
            for name in set(expected) | set(outcome.digests):
                self.ref_total += 1
                self.ref_match += expected.get(name) == outcome.digests.get(name)


def run_rounds(ops, budget, tally, tr=None, first_round=0, clock=time.perf_counter):
    """Closed loop over rounds; returns per-round lists of op latencies read
    on ``clock``, and the wall time of each round's operations."""
    rounds, walls = [], []
    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        latencies = []
        wall = 0.0
        for op in ops:
            if tr is not None:
                tr.op = (first_round + len(rounds), op.label)
            w0 = time.perf_counter()
            t0 = clock()
            raw = op.run()
            latencies.append(clock() - t0)
            wall += time.perf_counter() - w0
            tally.add(op, op.finish(raw, tally.ref(op.label)))
        rounds.append(latencies)
        walls.append(wall)
        now = time.perf_counter()
        if (now - t_start) + (now - t_round) > budget:
            return rounds, walls


def tail(values):
    """Latency at the highest percentile with at least 10 samples beyond it:
    (value, percentile, samples beyond).  Below 11 samples, the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def end_to_end(rounds, wall_clock, tally, setup_s, clock_note):
    latencies = [x for r in rounds for x in r]
    walls = [sum(r) for r in rounds]
    tail_ms, pct, beyond = tail(latencies)
    q, wq = quartiles(walls), quartiles(wall_clock)
    notes = [f"wall_s over {len(walls)} rounds: q1 {q[0]:.6g} median "
             f"{statistics.median(walls):.6g} q3 {q[2]:.6g}",
             f"by the wall clock, unscaled: q1 {wq[0]:.6g} median "
             f"{statistics.median(wall_clock):.6g} q3 {wq[2]:.6g} s",
             clock_note,
             f"op_ms_tail is p{pct:.4g} of {len(latencies)} operations, "
             f"{beyond} samples beyond it",
             f"fail_ratio = {tally.failed / tally.attempted:.6g} "
             f"({tally.failed} of {tally.attempted} operations)"]
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_ms_p50": 1e3 * statistics.median(latencies),
        "op_ms_tail": 1e3 * tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": (tally.attempted - tally.failed) / tally.attempted,
        "bitwise_ref_ratio": tally.ref_match / tally.ref_total if tally.ref_total else 0.0,
    }
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, notes


def environment(args, nishape):
    import numpy
    git = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                                 cwd=ROOT, capture_output=True, text=True)
            git = res.stdout.strip() if res.returncode == 0 else git
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "nishape").glob("*.py")):
        src.update(path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "nishape": nishape.__version__,
            "git_describe": git, "src_sha256": src.hexdigest(),
            "blas_threads": int(BLAS_THREADS), "workload": args.workload,
            "seed": args.seed, "program_seed": args.seed % workloads.SEED_CLASSES,
            "seconds": args.seconds, "trace": args.trace,
            "load": "closed loop, 1 process, 1 thread"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")

    nishape = import_program()
    reference = load_reference()
    program_seed = str(args.seed % workloads.SEED_CLASSES)
    tally = Tally(reference["workloads"][args.workload][program_seed])
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        ops = workloads.build(args.workload, args.seed, str(workdir))
        if args.trace:
            untraced, _ = run_rounds(ops, args.seconds / 2, tally)
            with tracer.Tracer() as tr:
                traced, _ = run_rounds(ops, args.seconds / 2, tally, tr, len(untraced))
            overhead = (statistics.median(sum(r) for r in traced)
                        / statistics.median(sum(r) for r in untraced) - 1.0)
            layers = tracer.layer_metrics(tr.spans, len(traced), overhead)
            metrics = {k: (v, tracer.LAYER_METRICS[k][0]) for k, v in layers.items()}
            notes = [f"per-layer values are per round, over {len(traced)} traced rounds"]
            spans_dir = ROOT / ".perfbench_out"
            spans_dir.mkdir(exist_ok=True)
            tr.write(spans_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            with hostclock.HostClock() as hc:
                setup_times = time_setup(SETUP_REPEATS, warm=True, clock=hc.now)
                rounds, wall_clock = run_rounds(ops, args.seconds, tally, clock=hc.now)
                setup_times += time_setup(SETUP_REPEATS, clock=hc.now)
            metrics, notes = end_to_end(rounds, wall_clock, tally,
                                        statistics.median(setup_times), hc.note())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):      # still in use by another run
            workdir.parent.rmdir()

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for note in notes:
        print(note)
    for problem in tally.incorrect:
        print(f"INCORRECT {problem}")
    print("env " + json.dumps(environment(args, nishape), sort_keys=True))
    print(json.dumps({
        "correct": not tally.incorrect,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
