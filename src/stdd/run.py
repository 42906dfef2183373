"""Simulation driver: resolve a config, march the windows, emit artifacts.

`run()` holds the one window loop.  `compare()` reports on two finished
run directories.
"""

from __future__ import annotations

import functools
import math
import os
import time
from dataclasses import replace

import numpy as np

from . import output
from .adaptivity import (BaseGrid, IdentifierMap, Thresholds, Tiling,
                         block_permeability, cell_permeability, classify,
                         decompose, delta_change, final_spatial,
                         residual_indicator, transfer_field, transfer_state)
from .assembly import (CellProperties, ResolvedWells, StateField, linearize,
                       window_terms)
from .config import UNIFORM_IDENTIFIER, RunConfig
from .errors import MismatchedProblem, NonConvergence, StddError
from .mesh import build_window
from .physics import BETA_C, OIL, STB_TO_FT3, WATER, property_curves
from .permfields import load_fields, make_field
from .solver import NewtonConfig, RunLedger, newton_solve_window

# The paper's cost target for the adaptive run against the uniformly fine
# one; `compare` flags the all-in and LU cost ratios above it.
COST_RATIO_BUDGET = 0.2
# The predictor is solved to this fraction of the smaller of θ_ΔS and θ_ΔT:
# the marking reads its change only as tile deltas against them, and the
# main window refines the seed it hands on to tol.  A looser stop moved
# main-window iteration counts.
PREDICTOR_THETA_FRACTION = 0.1


class Problem:
    """A RunConfig resolved into concrete fields and closures; each cell
    shape's `block_permeability(mi, mj)` is upscaled once, on first use."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.base = BaseGrid(cfg.reservoir, cfg.base_cell, cfg.dz)
        self.tiling = Tiling(cfg.reservoir, cfg.tile[0], cfg.tile[1])
        self.table = dict(cfg.table)
        self.thresholds = Thresholds(**cfg.thresholds)
        self.model = cfg.fluid_rock_model()
        self.phi_base = np.full(self.base.shape, cfg.phi)
        self.kx_base, self.ky_base = self._fields(cfg)
        self.block_permeability = functools.cache(functools.partial(
            block_permeability, self.base, self.kx_base, self.ky_base))

    def _fields(self, cfg):
        p = dict(cfg.permeability)
        kind = p.pop("kind", "uniform")
        if kind == "file":
            return load_fields(self.base.shape, **p)
        k = make_field(kind, self.base.shape, **p)
        return k, k.copy()

    # -- per-window closures ----------------------------------------------

    def maps(self, window):
        """The `WindowTerms` of the window: its cells' porosity and
        permeability, the wells resolved onto its cells, and its faces'
        auxiliary-flux diagonal.  `run()` calls this once per window it
        builds."""
        phi = self.base.average_to(window, self.phi_base)
        kx, ky = cell_permeability(window, self.base, self.block_permeability)
        props = CellProperties(phi=phi, kx=kx, ky=ky)
        wells = self._wells(window, props)
        for arr in (*vars(props).values(), *vars(wells).values()):
            arr.setflags(write=False)
        return window_terms(window, props, wells, self.model)

    def _wells(self, window, props):
        cfg = self.cfg
        wells = ResolvedWells.none(window.n_spatial)
        rho_w_ref = self.model.fluid.rho_w_ref
        for w in cfg.wells:
            cells = self._well_cells(window, w)
            if w.kind == "rate-water-injector":
                pv = window.cell_vol[cells] * props.phi[cells]
                mass_rate = w.value * STB_TO_FT3 * rho_w_ref   # lb/day
                wells.inj_w[cells] += mass_rate * pv / np.sum(pv)
            else:
                area = window.cell_hx[cells] * window.cell_hy[cells]
                wi_tile = (2.0 * math.pi * BETA_C
                           * np.sqrt(props.kx[cells] * props.ky[cells])
                           * cfg.dz
                           / math.log(cfg.well_equivalent_radius / w.r_w))
                wells.prod_wi[cells] += wi_tile * area / np.sum(area)
                wells.prod_bhp[cells] = w.value
        return wells

    def _well_cells(self, window, w):
        """The window's cells covering the well tile, in ascending order.

        Every cell lies inside one tile: cell sizes divide the tile, and
        subdomains are unions of tiles."""
        i, j = w.tile
        owner = self.base.owner(window).cells
        return np.unique(self.tiling.blocks(owner)[i, :, j, :])

    def trace(self, old, final, new):
        """The (P, S) per spatial cell that window `new` starts from: the
        initial state without an `old` window, `old`'s final level `final`
        itself if `new is old`, else `final` by `transfer_state`."""
        if old is None:
            return (np.full(new.n_spatial, self.cfg.initial_pressure),
                    np.full(new.n_spatial, self.cfg.initial_saturation))
        if new is old:
            return final
        return transfer_state(old, *final, new, self.base, self.phi_base)

    # -- identifier maps --------------------------------------------------

    def constant_idmap(self, identifier):
        """`identifier` on every tile, with zero indicators."""
        shape = self.tiling.shape
        z = np.zeros(shape)
        return IdentifierMap(np.full(shape, identifier), z, z.copy(),
                             z.copy())

    def static_idmap(self):
        """Fine inside the configured box, coarse elsewhere; no buffering."""
        idmap = self.constant_idmap(4)
        idmap.identifiers[self.tiling.inside(self.cfg.static_fine_box)] = 1
        return idmap

    def fixed_idmap(self):
        """The mode's identifier map if it never changes, else None."""
        if self.cfg.mode == "static-dd":
            return self.static_idmap()
        if self.cfg.mode in UNIFORM_IDENTIFIER:
            return self.constant_idmap(UNIFORM_IDENTIFIER[self.cfg.mode])
        return None


def _predict(pb, ncfg, terms, prev, final, s_now, seed=None):
    """Identifier map of the next window, the predictor solve's
    `LedgerEntry`, converged or not, and the trial's predicted saturation
    change over the window per trial cell (None if the solve failed).

    The all-coarse trial window, whose `WindowTerms` are `terms`, is
    solved from the final level `final` of the window `prev` (or from the
    initial state, when `prev` is None) to `PREDICTOR_THETA_FRACTION` of
    the smaller of θ_ΔS and θ_ΔT (or to tol, if larger): its change is
    read only as tile deltas against those thresholds and as a seed that
    the main window's Newton refines to tol.  The trial's warm-start
    residual is the residual indicator.  Newton starts from that warm
    start, or, given `seed` (the previous predictor's saturation change
    per trial cell), from the trace moved along it as a main window
    is.  `s_now` is the saturation raster at the next window's start.
    """
    trial = terms.window
    tp, ts = pb.trace(prev, final, trial)
    start = linearize(terms, StateField.from_trace(trial, tp, ts))
    eta = residual_indicator(trial, start.r_norm, pb.base, pb.tiling)
    theta = min(pb.thresholds.theta_ds, pb.thresholds.theta_dt)
    loose = replace(ncfg, tol=max(ncfg.tol,
                                  PREDICTOR_THETA_FRACTION * theta))
    try:
        sol, entry = newton_solve_window(
            terms, tp, ts, loose, start=start if seed is None else None,
            delta_s=seed)
    except NonConvergence as fail:
        # predictor failed: refine everywhere rather than guess
        big = np.full(pb.tiling.shape, pb.thresholds.theta_ds + 1.0)
        return classify(eta, big, big.copy(), pb.thresholds), fail.entry, None
    s_end = final_spatial(trial, sol)[1]
    s_pred = pb.base.rasterize(trial, s_end)
    d_s_now, _ = delta_change(s_now, s_now, pb.tiling)
    d_s_pred, d_t = delta_change(s_now, s_pred, pb.tiling)
    return (classify(eta, np.maximum(d_s_now, d_s_pred), d_t, pb.thresholds),
            entry, s_end - ts)


def _escalate(idmap):
    """`idmap` with every tile promoted one step toward identifier 1."""
    ids = np.where(idmap.identifiers == 4, 2, 1)
    return IdentifierMap(ids, idmap.eta, idmap.delta_s, idmap.delta_t)


def window_mass(terms, state, final):
    """(injected, produced water, produced oil, water in place at end/start).

    Masses in lb over the window of `terms`; "in place" values are
    snapshots at the window's final level `final`, (P, S) per spatial
    cell, and at its entry trace.
    """
    window, props, wells, model = (terms.window, terms.props, terms.wells,
                                   terms.model)
    sp_idx = window.st_spatial
    injected = float(np.sum(wells.inj_w[sp_idx] * window.st_dt))
    wi = wells.prod_wi[sp_idx]
    dd = state.p - wells.prod_bhp[sp_idx]
    lw = model.mobility(WATER, state.s, state.p)[0]
    lo = model.mobility(OIL, state.s, state.p)[0]
    produced_w = float(np.sum(wi * lw * dd * window.st_dt))
    produced_o = float(np.sum(wi * lo * dd * window.st_dt))

    def in_place(p, s):
        rho = model.density(WATER, p)[0]
        return float(np.sum(props.phi * rho * s * window.cell_vol))

    return (injected, produced_w, produced_o,
            in_place(*final), in_place(state.trace_p, state.trace_s))


def run(cfg: RunConfig, outdir, *, emit_vtk=True):
    """Execute one configured simulation; returns the summary dict.

    Each window's identifier map is the mode's fixed map (constant 1 or 4
    for the uniform references, the configured box for static-dd) or is
    predicted before the window (dynamic-dd) by a solve on the all-coarse
    trial window, which is built and mapped once.  The predictor is solved
    only as far as its marking reads it, to a tenth of the smaller of θ_ΔS
    and θ_ΔT (or to tol, if larger), and hands on only its saturation
    change; each predictor solve after the first starts from the previous
    one's change, unless that predictor failed.  The map is decomposed, and
    the window is solved by Newton to tol from the previous window's final
    level; with a predicted map, its saturation starts moved by the
    trial's predicted change, mapped onto the window as the trace's
    saturation is.  A window is built and mapped only when its
    decomposition differs from the current window's; otherwise the current
    one is solved again.  A predicted map that fails to converge is
    promoted once, if that changes it, and the window solved again from
    the same seed; a fixed map is never promoted.  Every Newton solve, the
    predictor's and the failed ones included, goes into one `RunLedger`,
    and the summary's costs are its sums.

    Artifacts: resolved config, property curves, permeability field,
    per-window saturation/pressure snapshots (CSV and VTK), identifier
    maps, solver ledger, and run_summary.json.  On a simulator error,
    everything produced so far is flushed alongside a FAILED marker
    before the exception propagates, with the ledger attached to it; a
    window that fails to converge raises with its last attempt's entry.
    """
    t0 = time.perf_counter()
    pb = Problem(cfg)       # a bad permeability file stops before output
    os.makedirs(outdir, exist_ok=True)
    base = pb.base
    origin = (cfg.reservoir[0], cfg.reservoir[1])

    output.write_summary(os.path.join(outdir, "config.json"), cfg.to_dict())
    output.write_curves_csv(os.path.join(outdir, "curves.csv"),
                            property_curves(pb.model))
    output.write_snapshot(
        {"kx": pb.kx_base}, origin, cfg.base_cell,
        csv_paths={"kx": os.path.join(outdir, "perm_kx.csv")})

    ncfg = NewtonConfig(**cfg.newton)
    length = cfg.window_length
    fixed = pb.fixed_idmap()
    if fixed is None:
        trial = build_window(decompose(pb.constant_idmap(4), pb.tiling,
                                       pb.table),
                             length, cfg.reservoir, dz=cfg.dz)
        trial_terms = pb.maps(trial)
    ledger = RunLedger()
    snapshots = []
    balance = {"injected": 0.0, "produced_w": 0.0, "produced_o": 0.0,
               "initial_w": None, "final_w": 0.0}
    window = terms = final = seed = None
    t = 0.0                 # the window's start, days
    s2d = np.full(base.shape, cfg.initial_saturation)

    try:
        for widx in range(round(cfg.horizon / length)):
            idmaps, change = [fixed], None
            if fixed is None:
                idmap, solve, change = _predict(pb, ncfg, trial_terms,
                                                window, final, s2d, seed)
                ledger.predictor.append(solve)
                seed = change   # the next predictor starts from it
                # one escalated retry, if escalating changes the map
                idmaps, up = [idmap], _escalate(idmap)
                if not np.array_equal(up.identifiers, idmap.identifiers):
                    idmaps.append(up)

            for attempt, idmap in enumerate(idmaps):
                subs = tuple(decompose(idmap, pb.tiling, pb.table))
                if window is not None and subs == window.subdomains:
                    new, new_terms = window, terms
                else:
                    new = build_window(subs, length, cfg.reservoir,
                                       dz=cfg.dz)
                    new_terms = pb.maps(new)
                trace = pb.trace(window, final, new)
                # Newton starts from the predicted saturation change,
                # mapped as the trace is
                delta_s = None
                if change is not None:
                    delta_s = transfer_field(trial, change, new, base,
                                             pb.phi_base)
                try:
                    state, entry = newton_solve_window(
                        new_terms, *trace, ncfg, delta_s=delta_s)
                    break
                except NonConvergence as fail:
                    ledger.failed.append(fail.entry)
                    if attempt == len(idmaps) - 1:
                        how = " after escalation" if attempt else ""
                        raise NonConvergence(
                            fail.entry,
                            f"window {widx} failed to converge{how}: {fail}")
            window, terms = new, new_terms
            ledger.entries.append(entry)
            final = final_spatial(window, state)
            t_end = t + window.delta_t

            inj, pw, po, w_end, w_start = window_mass(terms, state, final)
            balance["injected"] += inj
            balance["produced_w"] += pw
            balance["produced_o"] += po
            if balance["initial_w"] is None:
                balance["initial_w"] = w_start
            balance["final_w"] = w_end

            s2d = base.rasterize(window, final[1])
            p2d = base.rasterize(window, final[0])
            sw_name = f"snap_sw_{widx:03d}.csv"
            p_name = f"snap_p_{widx:03d}.csv"
            output.write_snapshot(
                {"sw": s2d, "p": p2d}, origin, cfg.base_cell,
                csv_paths={"sw": os.path.join(outdir, sw_name),
                           "p": os.path.join(outdir, p_name)},
                vtk_path=(os.path.join(outdir, f"snap_{widx:03d}.vtk")
                          if emit_vtk else None),
                title=f"t={t_end:g} days")
            if cfg.emit_fine_levels:
                _emit_fine_levels(outdir, widx, t, window, state, base,
                                  origin, cfg)
            snapshots.append({"index": widx, "time": t_end,
                              "sw": sw_name, "p": p_name})
            output.write_idmap_csv(
                os.path.join(outdir, f"idmap_{widx:03d}.csv"), idmap)
            t = t_end
    except StddError as exc:
        exc.ledger = ledger
        output.mark_failure(outdir, str(exc))
        raise
    finally:
        output.write_ledger_csv(os.path.join(outdir, "ledger.csv"), ledger)
    accumulated = balance["final_w"] - balance["initial_w"]
    net = balance["injected"] - balance["produced_w"] - accumulated
    rel = abs(net) / max(abs(balance["injected"]), 1.0e-30)
    summary = {
        "label": cfg.label,
        "mode": cfg.mode,
        "reservoir": list(cfg.reservoir),
        "base_shape": list(base.shape),
        "base_cell": list(cfg.base_cell),
        "horizon": cfg.horizon,
        "delta_t": cfg.delta_t,
        "permeability": cfg.permeability,
        "wells": [{"tile": list(w.tile), "kind": w.kind, "value": w.value}
                  for w in cfg.wells],
        "snapshots": snapshots,
        "windows": len(ledger.entries),
        **ledger.costs(),
        "mass_balance": {**balance, "accumulated": accumulated,
                         "relative_error": rel},
    }
    # end to end: set-up, predictor, transfers and output included
    summary["run_wall_ms"] = (time.perf_counter() - t0) * 1.0e3
    output.write_summary(os.path.join(outdir, "run_summary.json"), summary)
    return summary


def _emit_fine_levels(outdir, widx, start, window, state, base, origin,
                      cfg):
    """One saturation raster per distinct interior time of window `widx`,
    which starts at `start`.

    Each spatial cell shows its first level ending at or after the time.
    Levels of a cell are consecutive in time, so that level is the one
    reaching the time whose previous level does not.
    """
    ends = start + window.st_level * window.st_dt
    prev = window.st_prev
    for t in np.unique(np.round(ends, 9)):
        reached = ends >= t - 1.0e-9
        first = reached & ((prev < 0) | ~reached[np.maximum(prev, 0)])
        vals = np.empty(window.n_spatial)
        vals[window.st_spatial[first]] = state.s[first]
        s2d = base.rasterize(window, vals)
        name = f"fine_sw_w{widx:03d}_t{t:09.3f}.csv"
        output.write_snapshot({"sw": s2d}, origin, cfg.base_cell,
                              csv_paths={"sw": os.path.join(outdir, name)})


# -- comparison ------------------------------------------------------------

# The keys of `run_summary.json` that two comparable runs share, and all
# that `compare` reads.
PROBLEM_KEYS = ("reservoir", "base_shape", "horizon", "wells", "permeability")
SUMMARY_KEYS = PROBLEM_KEYS + ("label", "mode", "snapshots", "cost_metric",
                               "predictor_cost", "all_in_cost", "lu_cost",
                               "total_wall_ms", "run_wall_ms")
# The keys of each `snapshots` entry that `compare` reads.
SNAPSHOT_KEYS = ("time", "sw")


def _read_summary(run_dir):
    """The run summary in `run_dir`; `MismatchedProblem` if it is not JSON,
    lacks a key of `SUMMARY_KEYS`, or a snapshot is not an object with the
    keys of `SNAPSHOT_KEYS`."""
    path = os.path.join(run_dir, "run_summary.json")
    try:
        summary = output.read_summary(path)
        missing = [key for key in SUMMARY_KEYS if key not in summary]
    except (ValueError, TypeError) as exc:
        raise MismatchedProblem(f"{path} is no run summary: {exc}") from exc
    if missing:
        raise MismatchedProblem(f"{path} lacks {missing[0]!r}")
    if not isinstance(summary["snapshots"], list):
        raise MismatchedProblem(f"{path}: 'snapshots' is not a list")
    for k, snap in enumerate(summary["snapshots"]):
        if not isinstance(snap, dict):
            raise MismatchedProblem(f"{path}: snapshot {k} is not an object")
        missing = [key for key in SNAPSHOT_KEYS if key not in snap]
        if missing:
            raise MismatchedProblem(
                f"{path}: snapshot {k} lacks {missing[0]!r}")
    return summary


def compare(dir_a, dir_b):
    """Cost and accuracy comparison of two finished runs.

    Both runs must describe the same physical problem (`PROBLEM_KEYS`),
    and `a` and `b` are their summaries.  Saturation differences are
    computed at every common snapshot time; L2 is the RMS over base
    cells.  `over_budget` names the all-in and LU cost ratios above
    `COST_RATIO_BUDGET`, unless `a` is a uniform reference and `b` is
    not: then the ratios are the inverse of the budget's.  `wall_ratio`
    divides the two runs' Newton wall times (`total_wall_ms`),
    `run_wall_ratio` their end-to-end `run()` times.
    """
    sa, sb = _read_summary(dir_a), _read_summary(dir_b)
    for key in PROBLEM_KEYS:
        if sa[key] != sb[key]:
            raise MismatchedProblem(
                f"{key} differs: {sa[key]!r} vs {sb[key]!r}")

    times_a = {round(s["time"], 9): s for s in sa["snapshots"]}
    times_b = {round(s["time"], 9): s for s in sb["snapshots"]}
    common = sorted(set(times_a) & set(times_b))
    diffs = []
    for t in common:
        d = (output.read_grid_csv(os.path.join(dir_a, times_a[t]["sw"]))
             - output.read_grid_csv(os.path.join(dir_b, times_b[t]["sw"])))
        diffs.append({"time": t,
                      "linf": float(np.max(np.abs(d))),
                      "l2": float(np.sqrt(np.mean(d * d)))})

    def ratio(key, least=1):
        return sa[key] / max(sb[key], least)

    costs = {"all_in_cost_ratio": ratio("all_in_cost"),
             "lu_cost_ratio": ratio("lu_cost")}
    reversed_ = (sa["mode"] in UNIFORM_IDENTIFIER
                 and sb["mode"] not in UNIFORM_IDENTIFIER)
    return {
        "a": sa, "b": sb,
        "cost_ratio": ratio("cost_metric"),
        **costs,
        "over_budget": [k for k, v in costs.items()
                        if v > COST_RATIO_BUDGET and not reversed_],
        "wall_ratio": ratio("total_wall_ms", 1.0e-9),
        "run_wall_ratio": ratio("run_wall_ms", 1.0e-9),
        "saturation_differences": diffs,
    }
