"""A complete adaptive waterflood on a toy 20 x 5 ft strip.

Water is injected at the left end of a small homogeneous reservoir and
oil is produced at a bottom-hole-pressure well near the right end.  The
simulation marches 2-day matching windows; between windows every coarse
tile is reclassified and only tiles near the moving water front are
resolved with 0.5 ft cells and 0.5 day steps.

Run:  python demos/02_toy_waterflood.py
"""

import tempfile

import numpy as np

from stdd.config import preset
from stdd.run import run
from stdd import output


RAMP = " .:-=+*#%@"


def ascii_field(s2d, lo=0.2, hi=0.8):
    rows = []
    for j in reversed(range(s2d.shape[1])):
        idx = np.clip((s2d[:, j] - lo) / (hi - lo) * (len(RAMP) - 1),
                      0, len(RAMP) - 1).astype(int)
        rows.append("".join(RAMP[k] for k in idx))
    return "\n".join(rows)


def main():
    cfg = preset("toy")
    with tempfile.TemporaryDirectory(prefix="toy_waterflood_") as outdir:
        print(f"running {cfg.label!r} ({cfg.mode}) into {outdir}\n")
        summary = run(cfg, outdir)

        for snap in summary["snapshots"]:
            s2d = output.read_grid_csv(f"{outdir}/{snap['sw']}")
            print(f"water saturation at t = {snap['time']:g} days "
                  f"(darker = more water):")
            print(ascii_field(s2d))
            print()

    mb = summary["mass_balance"]
    print(f"windows: {summary['windows']}   "
          f"Newton iterations: {summary['iterations']}")
    print(f"cost metric (iterations x reduced DOFs): "
          f"{summary['cost_metric']}")
    print(f"injected water:  {mb['injected']:.4f} lb")
    print(f"produced water:  {mb['produced_w']:.4f} lb")
    print(f"accumulated:     {mb['accumulated']:.4f} lb")
    print(f"mass balance relative error: {mb['relative_error']:.3e}")


if __name__ == "__main__":
    main()
