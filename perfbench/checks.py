"""Checks on one finished run directory, independent of the program's readers.

Each check returns a list of failure messages; an empty list means the run
passed.  The water density is evaluated in closed form here rather than
through `stdd.physics`, so the mass check does not trust the code it checks.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

STB_TO_FT3 = 5.615
MASS_BALANCE_GATE = 1.0e-5      # the tier-1 relative-error gate
ROUND_OFF = 1.0e-12             # relative agreement of independent sums
S_RANGE = (0.0, 1.0)
ACCURACY = {"linf": 0.05, "l2": 0.02}   # the paper's saturation criterion


def read_raster(path, shape):
    """A snapshot CSV (i, j, x, y, value) as an (nx, ny) array."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    out = np.full(shape, np.nan)
    out[data[:, 0].astype(int), data[:, 1].astype(int)] = data[:, 4]
    return out


def water(cfg):
    """Water constants of `cfg`: FluidModel's defaults under its overrides."""
    return {"rho_w_ref": 64.0, "c_w": 3.0e-6, "p_ref_w": 1000.0, **cfg.fluid}


def rho_w(cfg, p):
    f = water(cfg)
    return f["rho_w_ref"] * np.exp(f["c_w"] * (p - f["p_ref_w"]))


def water_in_place(cfg, p, s):
    """Sum of phi * rho_w(p) * S * V over base cells."""
    hx, hy = cfg.base_cell
    return float(np.sum(cfg.phi * rho_w(cfg, p) * s * hx * hy * cfg.dz))


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0e-300)


def check_ledger(outdir, tol):
    """Every accepted window's last Newton norm is at or below `tol`."""
    last = {}
    with open(os.path.join(outdir, "ledger.csv"), newline="") as fh:
        for row in list(csv.reader(fh))[1:]:
            last[int(row[0])] = float(row[2])
    return [f"window {w}: final norm {n:.3e} > tol {tol:.1e}"
            for w, n in sorted(last.items()) if not n <= tol]


def check_run(outdir, cfg, reference=None):
    """All checks on one run; returns (failures, run summary)."""
    with open(os.path.join(outdir, "run_summary.json")) as fh:
        summary = json.load(fh)
    shape = tuple(summary["base_shape"])
    fails = check_ledger(outdir, cfg.newton["tol"])

    rasters = {}
    p_last = s_last = None
    for snap in summary["snapshots"]:
        sw = read_raster(os.path.join(outdir, snap["sw"]), shape)
        p = read_raster(os.path.join(outdir, snap["p"]), shape)
        t = round(snap["time"], 9)
        if not np.all(np.isfinite(p)):
            fails.append(f"t={t}: non-finite pressure")
        if not np.all(np.isfinite(sw)):
            fails.append(f"t={t}: non-finite saturation")
        elif sw.min() < S_RANGE[0] or sw.max() > S_RANGE[1]:
            fails.append(f"t={t}: saturation outside {S_RANGE}: "
                         f"[{sw.min():.6g}, {sw.max():.6g}]")
        rasters[t] = sw
        p_last, s_last = p, sw
    if len(summary["snapshots"]) != summary["windows"]:
        fails.append(f"{len(summary['snapshots'])} snapshots for "
                     f"{summary['windows']} windows")

    mb = summary["mass_balance"]
    if not mb["relative_error"] <= MASS_BALANCE_GATE:
        fails.append(f"mass balance relative error {mb['relative_error']:.3e}")
    w0 = water_in_place(cfg, np.full(shape, cfg.initial_pressure),
                        np.full(shape, cfg.initial_saturation))
    if not _close(mb["initial_w"], w0, ROUND_OFF):
        fails.append(f"initial_w {mb['initial_w']!r} vs independent {w0!r}")
    if p_last is not None:
        w1 = water_in_place(cfg, p_last, s_last)
        if not _close(mb["final_w"], w1, ROUND_OFF):
            fails.append(f"final_w {mb['final_w']!r} vs independent {w1!r}")
    rate = sum(w.value for w in cfg.wells if w.kind == "rate-water-injector")
    inj = rate * STB_TO_FT3 * water(cfg)["rho_w_ref"] * cfg.horizon
    if not _close(mb["injected"], inj, ROUND_OFF):
        fails.append(f"injected {mb['injected']!r} vs rate*t {inj!r}")

    if reference is not None:
        fails += check_accuracy(rasters, reference)
    return fails, summary


def check_accuracy(rasters, reference):
    """L-inf and L2 saturation error against a reference at common times."""
    common = sorted(set(rasters) & set(reference))
    if not common:
        return ["no snapshot time in common with the reference"]
    fails = []
    for t in common:
        d = rasters[t] - reference[t]
        linf = float(np.max(np.abs(d)))
        l2 = math.sqrt(float(np.mean(d * d)))
        if not (linf <= ACCURACY["linf"] and l2 <= ACCURACY["l2"]):
            fails.append(f"t={t}: L-inf {linf:.4f}, L2 {l2:.4f} against the "
                         f"uniform-fine reference")
    return fails


def load_reference(path):
    """{time: sw raster} from a reference file written by make_reference."""
    with np.load(path) as z:
        return {round(float(t), 9): z["sw"][k]
                for k, t in enumerate(z["times"])}
