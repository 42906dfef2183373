"""Simulation driver: resolve a config, march the windows, emit artifacts.

`run()` holds the one window loop.  `compare()` reports on two finished
run directories.
"""

from __future__ import annotations

import math
import os

import numpy as np

from . import output
from .adaptivity import (BaseGrid, IdentifierMap, Thresholds, Tiling,
                         cell_permeability, classify, decompose, delta_change,
                         final_spatial, residual_indicator, transfer_state)
from .assembly import CellProperties, ResolvedWells, StateField, linearize
from .config import UNIFORM_IDENTIFIER, RunConfig
from .errors import MismatchedProblem, NonConvergence, StddError
from .mesh import build_window
from .physics import (BETA_C, OIL, STB_TO_FT3, WATER, BrooksCoreyModel,
                      FluidModel, FluidRockModel, property_curves)
from .permfields import load_fields, make_field
from .solver import NewtonConfig, RunLedger, newton_solve_window

# Decompositions whose cell properties and wells `Problem` keeps: the
# current window's, the predictor's all-coarse trial and an escalation.
MAP_CACHE_SIZE = 4


class Problem:
    """A RunConfig resolved into concrete fields and closures."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.base = BaseGrid(cfg.reservoir, cfg.base_cell, cfg.dz)
        self.tiling = Tiling(cfg.reservoir, cfg.tile[0], cfg.tile[1])
        self.table = dict(cfg.table)
        self.thresholds = Thresholds(**cfg.thresholds)
        self.model = FluidRockModel(
            fluid=FluidModel(**cfg.fluid),
            relcap=BrooksCoreyModel(**cfg.relcap),
            mobility_model=cfg.mobility_model,
            use_capillarity=cfg.use_capillarity)
        self.phi_base = np.full(self.base.shape, cfg.phi)
        self.kx_base, self.ky_base = self._fields(cfg)
        self._perm_cache = {}
        self._map_cache = {}

    def _fields(self, cfg):
        p = dict(cfg.permeability)
        kind = p.pop("kind", "uniform")
        if kind == "file":
            return load_fields(self.base.shape, **p)
        k = make_field(kind, self.base.shape, **p)
        return k, k.copy()

    # -- per-window closures ----------------------------------------------

    def props_for(self, window):
        return self._maps(window)[0]

    def wells_for(self, window):
        return self._maps(window)[1]

    def _maps(self, window):
        """(props, wells) of the window's decomposition, built once and
        kept for the last few decompositions."""
        key = window.subdomains
        maps = self._map_cache.pop(key, None)
        if maps is None:
            phi = self.base.average_to(window, self.phi_base)
            kx, ky = cell_permeability(window, self.base, self.kx_base,
                                       self.ky_base, self.cfg.upscaling,
                                       self._perm_cache)
            props = CellProperties(phi=phi, kx=kx, ky=ky)
            maps = (props, self._wells(window, props))
            for arr in (*vars(maps[0]).values(), *vars(maps[1]).values()):
                arr.setflags(write=False)
            if len(self._map_cache) >= MAP_CACHE_SIZE:
                del self._map_cache[next(iter(self._map_cache))]
        self._map_cache[key] = maps        # most recently used last
        return maps

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
        ntx, nty = self.tiling.shape
        fx0, fy0, fx1, fy1 = self.cfg.static_fine_box
        x0, y0, _, _ = self.cfg.reservoir
        cx = x0 + (np.arange(ntx) + 0.5) * self.cfg.tile[0]
        cy = y0 + (np.arange(nty) + 0.5) * self.cfg.tile[1]
        idmap.identifiers[np.outer((fx0 < cx) & (cx < fx1),
                                   (fy0 < cy) & (cy < fy1))] = 1
        return idmap

    def fixed_idmap(self):
        """The mode's identifier map if it never changes, else None."""
        if self.cfg.mode == "static-dd":
            return self.static_idmap()
        if self.cfg.mode in UNIFORM_IDENTIFIER:
            return self.constant_idmap(UNIFORM_IDENTIFIER[self.cfg.mode])
        return None


def _predict(pb, ncfg, all_coarse, t_start, prev, final, s_now):
    """Identifier map of the window starting at `t_start`, the reduced
    DOFs of its predictor solves and their factors' stored entries.

    An all-coarse trial window is solved from the final level `final` of
    the window `prev` (or from the initial state, when `prev` is None).
    The predicted saturation deltas say where the front will move *during*
    the window, so refinement leads the front instead of trailing it.  The
    trial's warm-start residual provides the residual indicator.  `s_now`
    is the saturation raster at `t_start`.
    """
    cfg = pb.cfg
    trial = build_window(all_coarse, cfg.window_length, cfg.reservoir,
                         t_start=t_start, dz=cfg.dz)
    if prev is None:
        tp, ts = _initial_trace(cfg, trial)
    else:
        tp, ts = transfer_state(prev, *final, trial, pb.base, pb.phi_base)
    props, wells = pb.props_for(trial), pb.wells_for(trial)
    r_norm = linearize(trial, StateField.from_trace(trial, tp, ts), props,
                       wells, pb.model).r_norm
    eta = residual_indicator(trial, r_norm, pb.base, pb.tiling)
    try:
        sol, entry = newton_solve_window(trial, props, wells, tp, ts,
                                         pb.model, ncfg)
    except NonConvergence as fail:
        # predictor failed: refine everywhere rather than guess
        big = np.full(pb.tiling.shape, pb.thresholds.theta_ds + 1.0)
        return (classify(eta, big, big.copy(), pb.thresholds),
                fail.iterations * trial.n_y, fail.lu_nnz)
    s_pred = pb.base.rasterize(trial, final_spatial(trial, sol)[1])
    d_s_now, _ = delta_change(s_now, s_now, pb.tiling)
    d_s_pred, d_t = delta_change(s_now, s_pred, pb.tiling)
    return (classify(eta, np.maximum(d_s_now, d_s_pred), d_t, pb.thresholds),
            entry.iterations * trial.n_y, entry.lu_nnz)


def _escalate(idmap):
    """`idmap` with every tile promoted one step toward identifier 1."""
    ids = np.where(idmap.identifiers == 4, 2, 1)
    return IdentifierMap(ids, idmap.eta, idmap.delta_s, idmap.delta_t)


def _initial_trace(cfg, window):
    n = window.n_spatial
    return (np.full(n, cfg.initial_pressure),
            np.full(n, cfg.initial_saturation))


def window_mass(window, state, final, props, wells, model):
    """(injected, produced water, produced oil, water in place at end/start).

    Masses in lb over the window; "in place" values are snapshots at the
    window's final level `final`, (P, S) per spatial cell, and at its
    entry trace.
    """
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
    predicted before the window (dynamic-dd).  The map is decomposed, the
    window is built on the previous window's final level and solved by
    Newton.  A predicted map that fails to converge is promoted once and
    the window solved again; a fixed map is never promoted.

    Artifacts: resolved config, property curves, permeability field,
    per-window saturation/pressure snapshots (CSV and VTK), identifier
    maps, solver ledger, and run_summary.json.  On a simulator error,
    everything produced so far is flushed alongside a FAILED marker
    before the exception propagates, with the ledger attached to it.
    """
    os.makedirs(outdir, exist_ok=True)
    pb = Problem(cfg)
    base = pb.base
    origin = (cfg.reservoir[0], cfg.reservoir[1])

    output.write_summary(os.path.join(outdir, "config.json"), cfg.to_dict())
    output.write_curves_csv(os.path.join(outdir, "curves.csv"),
                            property_curves(pb.model))
    output.write_grid_csv(os.path.join(outdir, "perm_kx.csv"), pb.kx_base,
                          origin, cfg.base_cell, name="kx")

    ncfg = NewtonConfig(**cfg.newton)
    fixed = pb.fixed_idmap()
    if fixed is None:
        all_coarse = decompose(pb.constant_idmap(4), pb.tiling, pb.table)
    ledger = RunLedger()
    predictor_cost = 0
    lu_cost = 0             # SuperLU's stored entries over every solve
    snapshots = []
    balance = {"injected": 0.0, "produced_w": 0.0, "produced_o": 0.0,
               "initial_w": None, "final_w": 0.0}
    window = final = idmap = None
    s2d = np.full(base.shape, cfg.initial_saturation)

    try:
        for widx in range(round(cfg.horizon / cfg.window_length)):
            t = 0.0 if window is None else window.t_end
            new_map = fixed
            if fixed is None:
                new_map, cost, lu = _predict(pb, ncfg, all_coarse, t,
                                             window, final, s2d)
                predictor_cost += cost
                lu_cost += lu
            if new_map is not idmap:
                subs = decompose(new_map, pb.tiling, pb.table)
            idmap = new_map

            # a predicted map gets one escalated retry, a fixed map none
            attempts = 1 if fixed is not None else 2
            for attempt in range(attempts):
                new = build_window(subs, cfg.window_length, cfg.reservoir,
                                   window_index=widx, t_start=t, dz=cfg.dz)
                if window is None:
                    trace = _initial_trace(cfg, new)
                elif new.subdomains == window.subdomains:
                    trace = final
                else:
                    trace = transfer_state(window, *final, new, base,
                                           pb.phi_base)
                try:
                    state, entry = newton_solve_window(
                        new, pb.props_for(new), pb.wells_for(new), *trace,
                        pb.model, ncfg)
                    break
                except NonConvergence as fail:
                    ledger.failed_cost += fail.iterations * new.n_y
                    lu_cost += fail.lu_nnz
                    if attempt == attempts - 1:
                        how = " after escalation" if attempt else ""
                        raise NonConvergence(
                            0, float("nan"),
                            f"window {widx} failed to converge{how}")
                    idmap = _escalate(idmap)
                    subs = decompose(idmap, pb.tiling, pb.table)
            window = new
            ledger.entries.append(entry)
            lu_cost += entry.lu_nnz
            final = final_spatial(window, state)

            inj, pw, po, w_end, w_start = window_mass(
                window, state, final, pb.props_for(window),
                pb.wells_for(window), pb.model)
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
            output.write_grid_csv(os.path.join(outdir, sw_name), s2d,
                                  origin, cfg.base_cell, name="sw")
            output.write_grid_csv(os.path.join(outdir, p_name), p2d,
                                  origin, cfg.base_cell, name="p")
            if emit_vtk:
                output.write_vtk_rectilinear(
                    os.path.join(outdir, f"snap_{widx:03d}.vtk"),
                    {"sw": s2d, "p": p2d}, origin, cfg.base_cell,
                    title=f"t={window.t_end:g} days")
            if cfg.emit_fine_levels:
                _emit_fine_levels(outdir, window, state, base, origin, cfg)
            snapshots.append({"index": widx, "time": window.t_end,
                              "sw": sw_name, "p": p_name})
            output.write_idmap_csv(
                os.path.join(outdir, f"idmap_{widx:03d}.csv"), idmap)
    except StddError as exc:
        exc.ledger = ledger
        output.write_ledger_csv(os.path.join(outdir, "ledger.csv"), ledger)
        output.mark_failure(outdir, str(exc))
        raise

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
        "iterations": sum(e.iterations for e in ledger.entries),
        "cost_metric": ledger.cost_metric,
        # every linear solve: accepted windows, predictor, failed attempts
        "predictor_cost": predictor_cost,
        "failed_cost": ledger.failed_cost,
        "all_in_cost": (ledger.cost_metric + predictor_cost
                        + ledger.failed_cost),
        "lu_cost": lu_cost,
        "total_wall_ms": ledger.total_wall_ms,
        "mass_balance": {**balance, "accumulated": accumulated,
                         "relative_error": rel},
    }
    output.write_summary(os.path.join(outdir, "run_summary.json"), summary)
    return summary


def _emit_fine_levels(outdir, window, state, base, origin, cfg):
    """One saturation raster per distinct interior time of the window.

    Each spatial cell shows its first level ending at or after the time.
    Levels of a cell are consecutive in time, so that level is the one
    reaching the time whose previous level does not.
    """
    times = np.unique(np.round(window.st_t_end, 9))
    prev = window.st_prev
    for t in times:
        reached = window.st_t_end >= t - 1.0e-9
        first = reached & ((prev < 0) | ~reached[np.maximum(prev, 0)])
        vals = np.empty(window.n_spatial)
        vals[window.st_spatial[first]] = state.s[first]
        s2d = base.rasterize(window, vals)
        name = f"fine_sw_w{window.window_index:03d}_t{t:09.3f}.csv"
        output.write_grid_csv(os.path.join(outdir, name), s2d, origin,
                              cfg.base_cell, name="sw")


# -- comparison ------------------------------------------------------------

def compare(dir_a, dir_b):
    """Cost and accuracy comparison of two finished runs.

    Both runs must describe the same physical problem (reservoir, base
    grid, horizon, wells, permeability source).  Saturation differences
    are computed at every common snapshot time; L2 is the RMS over base
    cells.  The all-in and LU cost ratios are None when either run's
    summary predates its `all_in_cost` or `lu_cost`.  `wall_ratio`
    divides the two runs' Newton wall times (`total_wall_ms`), not their
    end-to-end times.
    """
    sa = output.read_summary(os.path.join(dir_a, "run_summary.json"))
    sb = output.read_summary(os.path.join(dir_b, "run_summary.json"))
    for key in ("reservoir", "base_shape", "horizon", "wells",
                "permeability"):
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

    def side(s):
        return {"label": s["label"], "mode": s["mode"],
                "cost_metric": s["cost_metric"],
                "all_in_cost": s.get("all_in_cost"),
                "lu_cost": s.get("lu_cost"), "wall_ms": s["total_wall_ms"]}

    def ratio(key):
        a, b = sa.get(key), sb.get(key)
        return None if a is None or b is None else a / max(b, 1)

    return {
        "a": side(sa),
        "b": side(sb),
        "cost_ratio": sa["cost_metric"] / max(sb["cost_metric"], 1),
        "all_in_cost_ratio": ratio("all_in_cost"),
        "lu_cost_ratio": ratio("lu_cost"),
        "wall_ratio": (sa["total_wall_ms"]
                       / max(sb["total_wall_ms"], 1.0e-9)),
        "saturation_differences": diffs,
    }
