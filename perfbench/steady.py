"""Steadiness check: run every workload several times, each run in its own
process with its own seed (1, 2, ... --runs), and print for each end-to-end metric the
median, the quartiles and the spread (IQR / median) against its bound.

    python3 perfbench/steady.py                          # 10 runs per workload
    python3 perfbench/steady.py --runs 5 --workloads star-refutations
    python3 perfbench/steady.py --compare .bench_out/steady-A.json

The runs are saved to .bench_out/steady-<time>.json.  --compare reads an
earlier file and reports, per metric, how far this set's median moved from
that set's median, against the same bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - start
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["seed"], result["elapsed_s"] = seed, elapsed
    return result


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--compare", help="steady-*.json file of an earlier set of runs")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}
    saved = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(1, args.runs + 1):
            r = run_once(workload, seed, args.seconds)
            runs.append(r)
            print(f"{workload} seed={seed} correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']} elapsed={r['elapsed_s']:.1f}s", flush=True)
        saved[workload] = runs
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        print(f"\n{workload}: correct in {sum(r['correct'] for r in runs)}/{len(runs)} runs, "
              f"failed share {', '.join(str(s) for s in sorted(shares))}"
              + ("" if len(shares) == 1 else "  <-- differs between runs"))
        print(f"  {'metric':40} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, spread = summarize(values)
            bound = bounds.get(name)
            note = ""
            if bound is not None:
                note = ("  over bound" if spread > bound
                        else "  over bound/3" if spread > bound / 3 else "")
            if workload in earlier and bound is not None:
                before = statistics.median(r["metrics"][name]["value"] for r in earlier[workload])
                worse = (median - before if better[name] == "lower" else before - median) / before
                note += f"  vs earlier {worse:+.3f}" + ("  <-- worse than bound" if worse > bound else "")
            print(f"  {name:40} {first['unit']:6} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {bound if bound is not None else '-':>6}{note}")
        print()
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(saved))
    print(f"runs saved to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
