"""The benchmark's workloads: desk presets cut to a prefix of their horizon.

Each prefix is a whole number of the preset's matching steps, so no window
is partial.  This module imports nothing from `stdd` at load time, so the
set-up probe can time the package import itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# Channelized-field seeds that every run simulates, one round of each.
# All three workloads converge on both without an escalation.  Seed 7 is
# the presets' own.  Seeds 2, 3 and 5 are left out: on them `dynamic-dd`
# fails window 0 even after its escalation.  A field drawn from the
# benchmark seed would not do: window 0 of `uniform-fine` takes 19 Newton
# iterations on one seed and 57 on another, far beyond any bound.
FIELD_SEEDS = (7, 4)


@dataclass(frozen=True)
class Workload:
    preset: str
    horizon: float      # days; a whole number of matching steps


# Why each workload: see BENCHMARK.json and README.md.
WORKLOADS = {
    "uniform-fine": Workload("uniform-fine", 2.0),
    "dynamic-dd": Workload("dynamic-dd", 8.0),
    "static-dd": Workload("static-dd", 5.0),
}


def field_order(seed):
    """FIELD_SEEDS rotated by the benchmark seed; seed 0 starts with 7."""
    k = seed % len(FIELD_SEEDS)
    return FIELD_SEEDS[k:] + FIELD_SEEDS[:k]


def config(name, field):
    """RunConfig of workload `name` on the permeability field seeded `field`."""
    from stdd import preset

    w = WORKLOADS[name]
    cfg = preset(w.preset)
    perm = dict(cfg.permeability, seed=field)
    return replace(cfg, horizon=w.horizon, permeability=perm)
