"""hermsq benchmark: one workload in one single-threaded process.

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 10 --trace 0

The workload's inputs are built from --seed.  One client runs a closed
loop: each operation starts when the previous one returns.  Whole rounds of
the workload's operation list run for at most --seconds (at least one
round), so known-fault operations are the same share of every run.
Every output is checked (see checks.py).  Times are reported at the speed
of a reference machine (see reference_kernel); the raw round time goes to
standard error.  The last line of standard output is one JSON object:
correct, attempted, failed and metrics -- the end-to-end metrics with
--trace 0, the per-layer metrics of one extra traced round with --trace 1.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

SPEC = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 9
TAIL_ABOVE = 10  # op_tail_ms: the highest percentile with this many samples above it
# The reference kernel's time on the machine the bounds were set on (2-vCPU
# VM, Python 3.11).  Times are reported at that speed; see reference_kernel.
REFERENCE_S = 0.0004


def reference_kernel():
    """Time a fixed piece of interpreter work of the program's kind
    (Fraction arithmetic, small dicts, a sort).

    On a shared host the interpreter's speed switches between states up to
    2x apart that last seconds.  The kernel runs before the first operation
    and after every operation; each operation's latency is scaled by
    REFERENCE_S over the mean of the kernel times just before and after
    it, which reports it at the reference speed."""
    start = time.perf_counter()
    counts, total = {}, Fraction(0)
    for i in range(1, 150):
        total += Fraction(i, i + 1)
        counts[i % 7, i % 11] = counts.get((i % 7, i % 11), 0) + i
    sorted(counts.items())
    return time.perf_counter() - start


def import_workloads():
    """Import the benchmark modules against the checkout's own sources."""
    if not (SRC / "hermsq" / "__init__.py").is_file():
        sys.exit(f"error: no hermsq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads
    import hermsq
    if Path(hermsq.__file__).resolve().parent != SRC / "hermsq":
        sys.exit(f"error: imported hermsq from {hermsq.__file__}, not from {SRC}")
    return workloads


def measure_setup(workload, seed):
    """Median, over fresh processes, of importing hermsq and building inputs."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def run_round(ops, tracer=None):
    """Run every operation once.  Returns (wall seconds, raw wall seconds,
    [(op, result, error, latency)]); wall and latencies are at the
    reference speed and leave out the kernel runs."""
    timed, raw = [], 0.0
    clock = time.perf_counter
    before = reference_kernel()
    for op in ops:
        t0 = clock()
        try:
            if tracer is None:
                result = op.run()
            else:
                with tracer.span("op:" + op.name):
                    result = op.run()
            error = None
        except Exception as exc:  # recorded as a failed operation
            result, error = None, exc
        latency = clock() - t0
        after = reference_kernel()
        raw += latency
        timed.append((op, result, error, latency * 2 * REFERENCE_S / (before + after)))
        before = after
    return sum(t for _, _, _, t in timed), raw, timed


class Tally:
    """Correctness and failure counts over all rounds of a run."""

    def __init__(self):
        self.correct = True
        self.attempted = 0
        self.failed = 0

    def check_round(self, timed):
        """Check each output; returns the bytes of canonical text emitted."""
        results = {op.name: result for op, result, error, _ in timed}
        emitted = 0
        for op, result, error, _ in timed:
            self.attempted += 1
            ok = False
            if error is None:
                try:
                    ok = op.check(result, results)
                except Exception as exc:  # a malformed output fails its check
                    print(f"check of {op.name} raised {exc!r}", file=sys.stderr)
            if ok:
                emitted += op.size(result)
                continue
            self.failed += 1
            if not op.fault:
                self.correct = False
                print(f"operation {op.name} gave a wrong answer"
                      + (f": {error!r}" if error else ""), file=sys.stderr)
        return emitted


def metric_units(kind):
    """{name: unit} of the BENCHMARK.json metrics of one kind, the one list
    of metric names that run.py, tracing.py and steady.py share."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[kind]}


def tail(latencies):
    ordered = sorted(latencies)
    return ordered[max(0, len(ordered) - TAIL_ABOVE - 1)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not SPEC.is_file():
        sys.exit(f"error: no {SPEC.name} at {ROOT}")
    workloads = import_workloads()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.build(args.workload, args.seed, str(workdir))
        tally = Tally()
        walls, raw_walls, latencies, tails, emitted = [], [], [], [], []
        start = time.perf_counter()
        # another round only while it should end within --seconds, judged
        # by the last round; the first round always runs
        while not walls or time.perf_counter() - start + raw_walls[-1] <= args.seconds:
            wall, raw_wall, timed = run_round(ops)
            walls.append(wall)
            raw_walls.append(raw_wall)
            round_latencies = [t for _, _, _, t in timed]
            latencies.extend(round_latencies)
            tails.append(tail(round_latencies))
            emitted.append(tally.check_round(timed))

        if args.trace:
            from tracing import Tracer
            units = metric_units("per_layer")
            tracer = Tracer()
            tracer.install()
            try:
                traced_wall, _, timed = run_round(ops, tracer)
            finally:
                tracer.uninstall()
            tally.check_round(timed)
            for name in tracer.missing:
                print(f"trace: {name} not found, its layer reads 0", file=sys.stderr)
            values = tracer.report(units, traced_wall, statistics.median(walls))
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")
        else:
            units = metric_units("end_to_end")
            print(f"raw wall_s {statistics.median(raw_walls)}", file=sys.stderr)
            values = {
                "setup_s": setup_s,
                "wall_s": statistics.median(walls),
                "op_p50_ms": statistics.median(latencies) * 1e3,
                "op_tail_ms": statistics.median(tails) * 1e3,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "output_bytes": statistics.median(emitted),
            }
        if set(values) != set(units):
            sys.exit(f"error: measured metrics {sorted(set(values) ^ set(units))} "
                     f"do not match {SPEC.name}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
