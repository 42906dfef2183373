"""Flow-based permeability upscaling and its classical bounds.

Coarse subdomain cells need effective permeabilities of the fine rock
they cover.  The flow-based method solves a small single-phase problem
per block (unit pressure drop, sealed sides) and reports the
flux-equivalent permeability.  For any block this value must lie
between the harmonic mean (series bound) and the arithmetic mean
(parallel bound); for purely layered media it hits the bounds exactly.

Run:  python demos/03_upscaling.py
"""

import numpy as np

from stdd.adaptivity import upscale_blocks
from stdd.permfields import channelized_field, gaussian_field


def report(name, k, direction="x"):
    eff = upscale_blocks(k[None], 0.5, 0.5, direction)[0]
    harm = k.size / np.sum(1.0 / k)
    arith = np.mean(k)
    # relative slack: a block that hits a bound matches it to round-off
    inside = harm * (1 - 1e-12) <= eff <= arith * (1 + 1e-12)
    print(f"{name:34s} harmonic {harm:9.3f} <= effective {eff:9.3f}"
          f" <= arithmetic {arith:9.3f}   [{'ok' if inside else 'VIOLATED'}]")
    return eff


def main():
    print("All permeabilities in md; flow along x unless noted.\n")

    layers_series = np.repeat([[1.0], [100.0]], 5, axis=1)
    eff = report("two layers across the flow", layers_series)
    print(f"{'':34s} (exactly the harmonic mean: "
          f"{2 / (1 / 1.0 + 1 / 100.0):.4f})\n")

    layers_parallel = np.repeat([[1.0, 100.0]], 5, axis=0)
    eff = report("two layers along the flow", layers_parallel)
    print(f"{'':34s} (exactly the arithmetic mean: 50.5)\n")

    rng = np.random.default_rng(0)
    report("lognormal field 10x10", np.exp(rng.normal(3.0, 1.0, (10, 10))))
    report("gaussian generator block",
           gaussian_field((20, 20), seed=4)[:10, :10])
    # rows 2-9 lie in a channel (500 md), rows 10-11 in the background
    chan = channelized_field((40, 12), seed=7)[:10, 2:12]
    ex = report("channel-edge block, along channel", chan, "x")
    ey = report("channel-edge block, across channel", chan, "y")
    print(f"\nchannel anisotropy: Kx/Ky = {ex / ey:.2f} "
          "(channels conduct along x, so Kx >> Ky)")


if __name__ == "__main__":
    main()
