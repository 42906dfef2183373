"""Simulation driver: resolve a config, march the windows, emit artifacts.

Also provides the comparison report between two finished run directories.
"""

from __future__ import annotations

import math
import os

import numpy as np

from . import output
from .adaptivity import (BaseGrid, IdentifierMap, RefinementTable,
                         Thresholds, Tiling, cell_permeability, classify,
                         decompose, delta_change, final_spatial,
                         residual_indicator, transfer_state)
from .assembly import CellProperties, ResolvedWells, StateField, linearize
from .config import UNIFORM_IDENTIFIER, RunConfig
from .errors import MismatchedProblem, NonConvergence, StddError
from .mesh import build_window
from .physics import (BETA_C, OIL, STB_TO_FT3, WATER, BrooksCoreyModel,
                      FluidModel, FluidRockModel, property_curves)
from .permfields import load_fields, make_field
from .solver import NewtonConfig, RunLedger, march, newton_solve_window

# Decompositions whose cell properties and wells `Problem` keeps: the
# current window's, the predictor's all-coarse trial and an escalation.
MAP_CACHE_SIZE = 4


class Problem:
    """A RunConfig resolved into concrete fields and closures."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.base = BaseGrid(cfg.reservoir, cfg.base_cell, cfg.dz)
        self.tiling = Tiling(cfg.reservoir, cfg.tile[0], cfg.tile[1])
        self.table = RefinementTable(dict(cfg.table))
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
        """Cells whose centers fall in the well tile, else the enclosing cell."""
        x0, y0, _, _ = self.cfg.reservoir
        i, j = w.tile
        bx0 = x0 + i * self.cfg.tile[0]
        bx1 = bx0 + self.cfg.tile[0]
        by0 = y0 + j * self.cfg.tile[1]
        by1 = by0 + self.cfg.tile[1]
        cx, cy = window.cell_cx, window.cell_cy
        inside = np.nonzero((cx > bx0) & (cx < bx1)
                            & (cy > by0) & (cy < by1))[0]
        if len(inside):
            return inside
        mx, my = (bx0 + bx1) / 2.0, (by0 + by1) / 2.0
        host = np.nonzero(
            (np.abs(cx - mx) <= window.cell_hx / 2.0)
            & (np.abs(cy - my) <= window.cell_hy / 2.0))[0]
        return host[:1]

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


class Controller:
    """Identifier map and decomposition of every window, in every mode.

    A fixed map serves every window: constant 1 or 4 for the uniform
    references, the configured box for static-dd.  Otherwise the map is
    predicted before each window: an all-coarse trial window starting at
    the new time is solved, and the predicted saturation deltas say where
    the front will move *during* the window, so refinement leads the
    front instead of trailing it.  The trial's warm-start residual
    provides the residual indicator.  Only predicted maps escalate.
    `predictor_cost` sums the reduced DOFs of every predictor solve.
    """

    def __init__(self, problem: Problem, newton_cfg: NewtonConfig):
        self.pb = problem
        self.newton_cfg = newton_cfg
        self.fixed = problem.fixed_idmap()
        self.all_coarse = decompose(problem.constant_idmap(4), problem.tiling,
                                problem.table)
        self.idmap = None
        self.idmaps = []
        self.predictor_cost = 0
        self.after_window(None, None, None)

    def decomposition(self, window_index, t_start):
        return self.subs

    def transfer(self, old_window, final_p, final_s, new_window):
        """Final state of `old_window` on the cells of `new_window`; the
        identity when both windows share their subdomains."""
        if new_window.subdomains == old_window.subdomains:
            return final_p, final_s
        return transfer_state(old_window, final_p, final_s, new_window,
                              self.pb.base, self.pb.phi_base)

    def _predict(self, t_next, window, state):
        """Identifier map for the window starting at `t_next`."""
        pb = self.pb
        cfg = pb.cfg
        d_next = min(cfg.window_length, cfg.horizon - t_next)
        trial = build_window(self.all_coarse, d_next, cfg.reservoir,
                             t_start=t_next, dz=cfg.dz)
        if window is None:
            tp = np.full(trial.n_spatial, cfg.initial_pressure)
            ts = np.full(trial.n_spatial, cfg.initial_saturation)
            s_now = np.full(pb.base.shape, cfg.initial_saturation)
        else:
            fin_p, fin_s = final_spatial(window, state)
            tp, ts = transfer_state(window, fin_p, fin_s, trial, pb.base,
                                    pb.phi_base)
            s_now = pb.base.rasterize(window, fin_s)

        trial_state = StateField.from_trace(trial, tp, ts)
        r_norm = linearize(trial, trial_state, pb.props_for(trial),
                           pb.wells_for(trial), pb.model).r_norm
        eta = residual_indicator(trial, r_norm, pb.tiling)

        try:
            sol, entry = newton_solve_window(
                trial, pb.props_for(trial), pb.wells_for(trial), tp, ts,
                pb.model, self.newton_cfg)
            self.predictor_cost += entry.iterations * trial.n_y
            _, pred_s = final_spatial(trial, sol)
            s_pred = pb.base.rasterize(trial, pred_s)
        except NonConvergence as fail:
            self.predictor_cost += fail.iterations * trial.n_y
            # predictor failed: refine everywhere rather than guess
            big = np.full(pb.tiling.shape,
                          pb.thresholds.theta_ds + 1.0)
            return classify(eta, big, big.copy(), pb.thresholds)

        d_s_now, _ = delta_change(s_now, s_now, pb.base, pb.tiling)
        d_s_pred, d_t = delta_change(s_now, s_pred, pb.base, pb.tiling)
        return classify(eta, np.maximum(d_s_now, d_s_pred), d_t,
                        pb.thresholds)

    def after_window(self, window, state, entry):
        """Choose the map of the window after `window`, or of the first
        window when `window` is None."""
        cfg = self.pb.cfg
        t_next = 0.0 if window is None else window.t_end
        if cfg.horizon - t_next <= 1.0e-9 * max(1.0, cfg.horizon):
            return
        idmap = self.fixed
        if idmap is None:
            idmap = self._predict(t_next, window, state)
        if idmap is not self.idmap:
            self.subs = decompose(idmap, self.pb.tiling, self.pb.table)
        self.idmap = idmap
        self.idmaps.append(idmap)
        self._escalated = False

    def escalate(self, window_index, t_start):
        """Replacement decomposition after a convergence failure, or None:
        a predicted map is promoted once, a fixed map never."""
        if self.fixed is not None or self._escalated:
            return None
        self._escalated = True
        promote = {1: 1, 2: 1, 3: 1, 4: 2}
        ids = np.vectorize(promote.get)(self.idmap.identifiers)
        self.idmap = IdentifierMap(ids, self.idmap.eta, self.idmap.delta_s,
                                   self.idmap.delta_t)
        self.subs = decompose(self.idmap, self.pb.tiling, self.pb.table)
        self.idmaps[-1] = self.idmap
        return self.subs


def window_mass(window, state, props, wells, model):
    """(injected, produced water, produced oil, water in place at end/start).

    Masses in lb over the window; "in place" values are snapshots at the
    window's final level and entry trace.
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

    fp, fs = final_spatial(window, state)
    return (injected, produced_w, produced_o,
            in_place(fp, fs), in_place(state.trace_p, state.trace_s))


def run(cfg: RunConfig, outdir, *, emit_vtk=True):
    """Execute one configured simulation; returns the summary dict.

    Artifacts: resolved config, property curves, permeability field,
    per-window saturation/pressure snapshots (CSV and VTK), identifier
    maps, solver ledger, and run_summary.json.  On a simulator error,
    everything produced so far is flushed alongside a FAILED marker
    before the exception propagates.
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

    def initial_trace(window):
        n = window.n_spatial
        return (np.full(n, cfg.initial_pressure),
                np.full(n, cfg.initial_saturation))

    snapshots = []
    balance = {"injected": 0.0, "produced_w": 0.0, "produced_o": 0.0,
               "initial_w": None, "final_w": 0.0}

    def observer(window, state, entry):
        props = pb.props_for(window)
        wells = pb.wells_for(window)
        inj, pw, po, w_end, w_start = window_mass(window, state, props,
                                                  wells, pb.model)
        balance["injected"] += inj
        balance["produced_w"] += pw
        balance["produced_o"] += po
        if balance["initial_w"] is None:
            balance["initial_w"] = w_start
        balance["final_w"] = w_end

        idx = window.window_index
        fp, fs = final_spatial(window, state)
        s2d = base.rasterize(window, fs)
        p2d = base.rasterize(window, fp)
        sw_name = f"snap_sw_{idx:03d}.csv"
        output.write_grid_csv(os.path.join(outdir, sw_name), s2d, origin,
                              cfg.base_cell, name="sw")
        output.write_grid_csv(os.path.join(outdir, f"snap_p_{idx:03d}.csv"),
                              p2d, origin, cfg.base_cell, name="p")
        if emit_vtk:
            output.write_vtk_rectilinear(
                os.path.join(outdir, f"snap_{idx:03d}.vtk"),
                {"sw": s2d, "p": p2d}, origin, cfg.base_cell,
                title=f"t={window.t_end:g} days")
        if cfg.emit_fine_levels:
            _emit_fine_levels(outdir, window, state, base, origin, cfg)
        snapshots.append({"index": idx, "time": window.t_end,
                          "sw": sw_name, "p": f"snap_p_{idx:03d}.csv"})
        output.write_idmap_csv(os.path.join(outdir, f"idmap_{idx:03d}.csv"),
                               controller.idmaps[idx])

    try:
        controller = Controller(pb, ncfg)
        ledger, _, _ = march(
            cfg.horizon, cfg.window_length, cfg.reservoir, controller,
            pb.model, pb.props_for, pb.wells_for, initial_trace, ncfg,
            observer=observer, dz=cfg.dz)
    except StddError as exc:
        output.write_ledger_csv(os.path.join(outdir, "ledger.csv"),
                                getattr(exc, "ledger", RunLedger()))
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
        "predictor_cost": controller.predictor_cost,
        "failed_cost": ledger.failed_cost,
        "all_in_cost": (ledger.cost_metric + controller.predictor_cost
                        + ledger.failed_cost),
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
    cells.  The all-in cost ratio is None when either run's summary
    predates its `all_in_cost`.
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
        fa, _, _ = output.read_grid_csv(
            os.path.join(dir_a, times_a[t]["sw"]))
        fb, _, _ = output.read_grid_csv(
            os.path.join(dir_b, times_b[t]["sw"]))
        d = fa - fb
        diffs.append({"time": t,
                      "linf": float(np.max(np.abs(d))),
                      "l2": float(np.sqrt(np.mean(d * d)))})
    all_a, all_b = sa.get("all_in_cost"), sb.get("all_in_cost")
    return {
        "a": {"label": sa["label"], "mode": sa["mode"],
              "cost_metric": sa["cost_metric"], "all_in_cost": all_a,
              "wall_ms": sa["total_wall_ms"]},
        "b": {"label": sb["label"], "mode": sb["mode"],
              "cost_metric": sb["cost_metric"], "all_in_cost": all_b,
              "wall_ms": sb["total_wall_ms"]},
        "cost_ratio": sa["cost_metric"] / max(sb["cost_metric"], 1),
        "all_in_cost_ratio": (None if all_a is None or all_b is None
                              else all_a / max(all_b, 1)),
        "wall_ratio": (sa["total_wall_ms"]
                       / max(sb["total_wall_ms"], 1.0e-9)),
        "saturation_differences": diffs,
    }
