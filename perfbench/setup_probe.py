"""Set-up time of a fresh process: import su3kit, then the workload's warm-up ops.

    python3 perfbench/setup_probe.py WORKLOAD SEED DOC_DIR

Prints two numbers: the seconds spent importing and warming up
(generating the warm-up inputs is not counted), and the median time in
microseconds of refops.speed_probe measured right afterwards in the same
process.  run.py starts this several times and scales each set-up time
by the probe (see SetupProbes there).
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> None:
    workload, seed, doc_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path[0:1] = [os.path.join(ROOT, "src"), ROOT]
    t0 = time.perf_counter()
    import su3kit  # noqa: F401
    import su3kit.cli  # noqa: F401
    t1 = time.perf_counter()
    from perfbench import refops, workloads
    pool = workloads.build(workload, seed, doc_dir, count=workloads.WARMUP)
    t2 = time.perf_counter()
    workloads.warm_up(pool)
    t3 = time.perf_counter()
    print(repr((t1 - t0) + (t3 - t2)), repr(refops.speed_probe()))


if __name__ == "__main__":
    main()
