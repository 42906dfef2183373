"""Regenerate the accuracy reference of the `dynamic-dd` workload.

For each field in workloads.FIELD_SEEDS, runs the `dynamic-dd` workload's
config in `uniform-fine` mode (same horizon prefix, same permeability seed)
and stores its saturation rasters at the end of each dynamic-dd window in
perfbench/reference/dynamic-dd-field<seed>.npz.  Usage:

    python3 perfbench/make_reference.py
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import shutil  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from checks import check_run, read_raster  # noqa: E402


def main():
    import stdd  # noqa: F401

    run = sys.modules["stdd.run"].run
    for field in workloads.FIELD_SEEDS:
        dd = workloads.config("dynamic-dd", field)
        cfg = replace(dd, mode="uniform-fine")
        outdir = HERE.parent / ".perfbench" / f"reference-field{field}"
        shutil.rmtree(outdir, ignore_errors=True)
        summary = run(cfg, str(outdir))
        fails, _ = check_run(outdir, cfg)
        if fails:
            sys.exit("reference run failed its checks: " + "; ".join(fails))
        shape = tuple(summary["base_shape"])
        snaps = [s for s in summary["snapshots"]
                 if abs(s["time"] / dd.delta_t - round(s["time"] / dd.delta_t))
                 < 1.0e-9]
        path = HERE / "reference" / f"dynamic-dd-field{field}.npz"
        np.savez_compressed(
            path, times=np.array([s["time"] for s in snaps]),
            sw=np.stack([read_raster(outdir / s["sw"], shape)
                         for s in snaps]))
        shutil.rmtree(outdir)
        print(f"{path.name}: {len(snaps)} snapshots, "
              f"{summary['iterations']} Newton iterations")


if __name__ == "__main__":
    main()
