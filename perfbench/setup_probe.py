"""Time the set-up of one workload in a fresh interpreter.

Set-up is importing `stdd` and building `run.Problem` for the workload's
config on each field, which builds the base grid and generates the
permeability field.  Prints {"setup_s": seconds}.  Usage:

    python3 perfbench/setup_probe.py <workload> <field seed>...
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402  (imports nothing from stdd)


def main(name, *fields):
    t0 = time.perf_counter()
    import stdd
    for field in fields:
        stdd.Problem(workloads.config(name, int(field)))
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


if __name__ == "__main__":
    main(*sys.argv[1:])
