"""Monolithic Newton on one space-time window, and the run's solver ledger.

Each matching window is solved monolithically: evaluate the residual of the
flux-eliminated space-time system and check the max norm of its normalized
form; above tolerance, fill the reduced Jacobian, solve it directly and
update.  `stdd.run` marches the windows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import StateField, linearize
from .errors import NonConvergence, SingularMatrix

# Damping halves a step at most this many times.
MAX_HALVINGS = 4
# A linear solve fails when |J dy + r| exceeds 1e4 x this x |r|.
LINEAR_TOL = 1.0e-10


@dataclass(frozen=True)
class NewtonConfig:
    """A config's `newton` section; these values are its defaults."""

    tol: float = 1.0e-6        # on the max norm of the normalized residual
    max_iters: int = 60
    damping: bool = False      # halve the step while the norm increases
    max_ds: float = 0.2        # per-cell saturation step cap (0 disables)

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
    failed_cost: int = 0    # reduced DOFs of the solves of failed attempts

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


# SuperLU supernodes: no relaxation, because relaxed supernodes pad the
# 2x2-block Jacobians with stored zeros; four-column panels, because one
# column slows the densest factors and eight the sparser ones.
SUPERLU_RELAX = 1
SUPERLU_PANEL_SIZE = 4


def linear_solve(jacobian, residual):
    """Direct sparse solve of J dy = -r with a relative-residual check.

    SuperLU factors with COLAMD ordering, unrelaxed supernodes and
    four-column panels (`SUPERLU_RELAX`, `SUPERLU_PANEL_SIZE`).  Relaxed
    supernodes store padding zeros in these block-structured Jacobians:
    on the recorded Newton Jacobians of the desk presets, the unrelaxed
    factors hold 0.74-0.96x the default fill and take 3-28% less time
    (up to 2% more, within noise, on the densest static-dd factors), and
    the solutions agree to round-off.  One-column panels are faster
    still on uniform-fine and dynamic-dd but up to 24% slower than the
    defaults on those dense static-dd factors.
    """
    try:
        lu = spla.splu(jacobian.tocsc(), relax=SUPERLU_RELAX,
                       panel_size=SUPERLU_PANEL_SIZE)
        dy = lu.solve(-residual)
    except (RuntimeError, ValueError) as exc:
        raise SingularMatrix(str(exc)) from exc
    if not np.all(np.isfinite(dy)):
        raise SingularMatrix("linear solve produced non-finite values")
    scale = np.max(np.abs(residual)) if len(residual) else 0.0
    if scale > 0:
        lin_res = np.max(np.abs(jacobian @ dy + residual))
        if lin_res > LINEAR_TOL * scale * 1.0e4:
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
        dy = linear_solve(sys_.jacobian(), sys_.r_y)
        dp, ds = dy[0::2], dy[1::2]
        # saturation chopping keeps iterates near the physical range; the
        # constant-mobility model is exactly linear and must not be chopped
        if cfg.max_ds > 0 and not model.linear:
            ds = np.clip(ds, -cfg.max_ds, cfg.max_ds)
        step = 1.0
        if cfg.damping:
            for _ in range(MAX_HALVINGS + 1):
                trial = StateField(state.p + step * dp, state.s + step * ds,
                                   state.trace_p, state.trace_s)
                tnorm = float(np.max(np.abs(
                    linearize(window, trial, props, wells, model).r_norm)))
                if tnorm <= norm or step <= 1.0 / 2**MAX_HALVINGS:
                    break
                step *= 0.5
        state.p += step * dp
        state.s += step * ds

    raise NonConvergence(cfg.max_iters, norms[-1])
