"""Adaptive space-time refinement versus a uniformly fine simulation.

Runs the same channelized waterflood twice on a 40 x 10 ft strip: once
on the uniformly fine grid with the fine time step everywhere, and once
with dynamic tile-by-tile refinement that keeps fine resolution only
around the water front.  The comparison reports the cost metric (Newton
iterations x reduced degrees of freedom), the all-in cost that adds the
adaptive run's predictor solves, and the saturation mismatch at every
shared snapshot time.

The domain is large enough that most tiles sit far from the front at
any instant, which is exactly when adaptivity pays off; on the bundled
desk-scale presets (110 x 30 ft, 60 days) the adaptive cost drops below
a fifth of the uniform cost.

Run:  python demos/04_adaptive_vs_uniform.py   (about 10 seconds)
"""

import tempfile

from stdd.config import RunConfig, WellSpec
from stdd.run import compare, run


def make_config(mode):
    return RunConfig(
        reservoir=(0.0, 0.0, 40.0, 10.0), horizon=16.0, delta_t=2.0,
        base_cell=(0.5, 0.5), tile=(2.5, 2.5),
        table={1: (0.5, 0.5, 0.5), 2: (0.5, 0.5, 2.0),
               3: (2.5, 2.5, 0.5), 4: (2.5, 2.5, 2.0)},
        mode=mode,
        permeability={"kind": "channelized", "seed": 3,
                      "n_channels": 1, "width": 2.0},
        wells=[WellSpec((0, 0), "rate-water-injector", 0.1),
               WellSpec((15, 3), "bhp-producer", 1000.0)],
        label=mode)


def main():
    with tempfile.TemporaryDirectory(prefix="adaptive_vs_uniform_") as base:
        dirs = {}
        for mode in ("uniform-fine", "dynamic-dd"):
            dirs[mode] = f"{base}/{mode}"
            print(f"running {mode} ...")
            s = run(make_config(mode), dirs[mode], emit_vtk=False)
            print(f"  windows {s['windows']}  iterations {s['iterations']}"
                  f"  cost {s['cost_metric']}")

        rep = compare(dirs["uniform-fine"], dirs["dynamic-dd"])
    print("\nsaturation difference (adaptive vs uniform fine):")
    print(f"{'time (d)':>10s}{'L_inf':>10s}{'L2':>10s}")
    for d in rep["saturation_differences"]:
        print(f"{d['time']:>10.2f}{d['linf']:>10.4f}{d['l2']:>10.4f}")
    adaptive_share = rep["b"]["cost_metric"] / rep["a"]["cost_metric"]
    all_in_share = rep["b"]["all_in_cost"] / rep["a"]["all_in_cost"]
    print(f"\nadaptive cost / uniform cost = {adaptive_share:.3f}"
          f"  (all-in, predictor solves included: {all_in_share:.3f})")
    print("the adaptive run concentrates fine 0.5 ft cells and 0.5 day"
          "\nsteps near the front; the far field keeps coarse 2.5 ft cells"
          "\nand the full 2-day step")


if __name__ == "__main__":
    main()
