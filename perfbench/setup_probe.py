"""Print the seconds a fresh process takes to import hermsq and build one
workload's inputs, at the reference speed of run.reference_kernel:
    python3 perfbench/setup_probe.py <workload> <seed>"""

import os
import shutil
import statistics
import sys
import time

import run


def kernel_time():
    return statistics.median(run.reference_kernel() for _ in range(5))


if __name__ == "__main__":
    before = kernel_time()
    start = time.perf_counter()
    workloads = run.import_workloads()
    workdir = run.WORK / f"setup-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workloads.build(sys.argv[1], int(sys.argv[2]), str(workdir))
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(elapsed * 2 * run.REFERENCE_S / (before + kernel_time()))
