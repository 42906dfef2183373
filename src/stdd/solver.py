"""Time-concurrent outer loop: Newton per window, windows marched in sequence.

Each matching window is solved monolithically: evaluate the residual of the
flux-eliminated space-time system and check the max norm of its normalized
form; above tolerance, fill the reduced Jacobian, solve it directly and
update.  Window n+1 starts from window n's final time level.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import StateField, linearize
from .errors import NonConvergence, SingularMatrix, StddError
from .mesh import build_window


@dataclass(frozen=True)
class NewtonConfig:
    tol: float = 1.0e-6        # on the max norm of the normalized residual
    max_iters: int = 15
    damping: bool = False      # halve the step while the norm increases
    max_halvings: int = 4
    max_ds: float = 0.2        # per-cell saturation step cap (0 disables)
    linear_tol: float = 1.0e-10

    def __post_init__(self):
        if self.tol <= 0 or self.max_iters < 1:
            raise ValueError("tol must be positive and max_iters >= 1")


@dataclass
class LedgerEntry:
    window_index: int
    t_start: float
    t_end: float
    iterations: int
    norms: list
    n_reduced_dofs: int
    wall_ms: float
    converged: bool


@dataclass
class RunLedger:
    """Per-window solver statistics and the cumulative cost metric."""

    entries: list = field(default_factory=list)

    @property
    def cost_metric(self):
        """Sum of (Newton iterations x reduced DOFs) over accepted windows."""
        return sum(e.iterations * e.n_reduced_dofs for e in self.entries)

    @property
    def total_wall_ms(self):
        return sum(e.wall_ms for e in self.entries)

    def iteration_rows(self):
        """Flat (window, iteration, norm, dofs, wall_ms) rows for CSV export."""
        rows = []
        for e in self.entries:
            for k, nrm in enumerate(e.norms):
                rows.append((e.window_index, k, nrm, e.n_reduced_dofs,
                             e.wall_ms))
        return rows


def linear_solve(jacobian, residual, linear_tol=1.0e-10):
    """Direct sparse solve of J dy = -r with a relative-residual check."""
    try:
        lu = spla.splu(jacobian.tocsc())
        dy = lu.solve(-residual)
    except (RuntimeError, ValueError) as exc:
        raise SingularMatrix(str(exc)) from exc
    if not np.all(np.isfinite(dy)):
        raise SingularMatrix("linear solve produced non-finite values")
    scale = np.max(np.abs(residual)) if len(residual) else 0.0
    if scale > 0:
        lin_res = np.max(np.abs(jacobian @ dy + residual))
        if lin_res > linear_tol * scale * 1.0e4:
            raise SingularMatrix(
                f"linear residual {lin_res:.3e} vs scale {scale:.3e}")
    return dy


def newton_solve_window(window, props, wells, trace_p, trace_s, model,
                        cfg: NewtonConfig):
    """Solve one window to tolerance; returns (StateField, LedgerEntry).

    The initial guess replicates the entry trace across all time levels.  A
    state that already satisfies the tolerance returns after zero update
    iterations.
    """
    t0 = time.perf_counter()
    state = StateField.from_trace(window, trace_p, trace_s)
    norms = []

    def entry(converged, iters):
        return LedgerEntry(
            window_index=window.window_index, t_start=window.t_start,
            t_end=window.t_end, iterations=iters, norms=list(norms),
            n_reduced_dofs=window.n_y,
            wall_ms=(time.perf_counter() - t0) * 1.0e3, converged=converged)

    for k in range(cfg.max_iters + 1):
        sys_ = linearize(window, state, props, wells, model)
        norm = float(np.max(np.abs(sys_.r_norm))) if window.n_st else 0.0
        norms.append(norm)
        if norm <= cfg.tol:
            return state, entry(True, k)
        if k == cfg.max_iters:
            break
        dy = linear_solve(sys_.jacobian(), sys_.r_y, cfg.linear_tol)
        dp, ds = dy[0::2], dy[1::2]
        # saturation chopping keeps iterates near the physical range; the
        # constant-mobility model is exactly linear and must not be chopped
        if cfg.max_ds > 0 and not model.linear:
            ds = np.clip(ds, -cfg.max_ds, cfg.max_ds)
        step = 1.0
        if cfg.damping:
            for _ in range(cfg.max_halvings + 1):
                trial = StateField(state.p + step * dp, state.s + step * ds,
                                   state.trace_p, state.trace_s)
                tnorm = float(np.max(np.abs(
                    linearize(window, trial, props, wells, model).r_norm)))
                if tnorm <= norm or step <= 1.0 / 2**cfg.max_halvings:
                    break
                step *= 0.5
        state.p += step * dp
        state.s += step * ds

    raise NonConvergence(cfg.max_iters, norms[-1])


def march(horizon, delta_t, reservoir, controller, model, props_for,
          wells_for, initial_trace, cfg, *, observer=None, dz=1.0):
    """March matching windows across the horizon.

    ``props_for(window)`` / ``wells_for(window)`` map properties and wells
    onto each window's cells; ``initial_trace(window)`` provides the t=0
    condition.  ``observer(window, state, entry)``, when given, is called
    after every accepted window (snapshot emission).  Returns
    (RunLedger, last_window, last_state).  A window that still fails after
    the controller's one escalation pass aborts the march; any simulator
    error leaves it with the ledger of the accepted windows attached.
    """
    ledger = RunLedger()
    t = 0.0
    widx = 0
    prev_window = None
    fin_p = fin_s = None

    def traces(window):
        if prev_window is None:
            return initial_trace(window)
        return controller.transfer(prev_window, fin_p, fin_s, window)

    try:
        while t < horizon - 1.0e-9 * max(1.0, horizon):
            dT = min(delta_t, horizon - t)
            subs = controller.decomposition(widx, t)
            window = build_window(subs, dT, reservoir, window_index=widx,
                                  t_start=t, dz=dz)
            trace_p, trace_s = traces(window)
            try:
                state, entry = newton_solve_window(
                    window, props_for(window), wells_for(window),
                    trace_p, trace_s, model, cfg)
            except NonConvergence:
                esc = controller.escalate(widx, t)
                if esc is None:
                    raise _aborted(widx, "")
                window = build_window(esc, dT, reservoir, window_index=widx,
                                      t_start=t, dz=dz)
                trace_p, trace_s = traces(window)
                try:
                    state, entry = newton_solve_window(
                        window, props_for(window), wells_for(window),
                        trace_p, trace_s, model, cfg)
                except NonConvergence:
                    raise _aborted(widx, " after escalation")
            ledger.entries.append(entry)
            fin = window.final_level_cells()
            fin_p, fin_s = state.p[fin], state.s[fin]
            if observer is not None:
                observer(window, state, entry)
            controller.after_window(window, state, entry)
            prev_window = window
            t += dT
            widx += 1
    except StddError as exc:
        exc.ledger = ledger
        raise

    return ledger, prev_window, state


def _aborted(window_index, how):
    return NonConvergence(
        0, float("nan"), f"window {window_index} failed to converge{how}")
