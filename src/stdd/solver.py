"""Monolithic Newton on one space-time window, and the run's solver ledger.

Each matching window is solved monolithically: evaluate the residual of the
flux-eliminated space-time system and check the max norm of its normalized
form; above tolerance, fill the reduced Jacobian, solve it directly and
update.  `stdd.run` marches the windows.

Before each factorization the local saturations are eliminated exactly:
those whose row and column stay in their cell's 2x2 block, as they do
ahead of the front, where water is immobile.  SuperLU factors what remains
on one of two paths, chosen per window by its first Jacobian.  A swept
window, whose remaining system stores more than `SYMMETRIC_MIN_STORED` of
its structural pattern over the remaining unknowns, is factored in the
window's minimum-degree cell numbering with diagonal pivots (symmetric
mode); any other in COLAMD's order with partial pivoting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
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
    lu_nnz: int = 0         # SuperLU's stored entries over its solves


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
# The stored share of the structural pattern, over the unknowns left after
# the elimination, above which a window is swept: water flows through most
# of what remains.  Below, COLAMD gains from the zero-mobility entries.
SYMMETRIC_MIN_STORED = 0.55


def _local_saturations(jac):
    """The local saturations of the square canonical CSC matrix `jac`.

    With cell c's pressure at unknown 2c and its saturation at 2c + 1,
    the saturation is local when its row and its column hold entries
    only in the cell's 2x2 block.  Stored entries are nonzero, so the
    test is on the structure: a local saturation's column holds rows 2c
    and 2c + 1 at most, and its (s, p) entry, if stored, directly follows
    the pressure diagonal in column 2c.  Returns the local saturation
    unknowns and the data positions of their a_ss, a_ps and a_sp entries,
    -1 where a_ps or a_sp is not stored.
    """
    ptr, idx = jac.indptr, jac.indices
    n = jac.shape[0]
    if not jac.nnz:
        return (np.zeros(0, dtype=int),) * 4
    # `take`, not fancy indexing: the index arrays are int32
    last = ptr[2:n + 1:2].astype(np.intp) - 1
    cnt = last + 1 - ptr[1:n:2]
    s = np.arange(1, n, 2)
    local = np.zeros(n, dtype=bool)
    local[1::2] = ((idx.take(last, mode="clip") == s)
                   & (jac.data.take(last, mode="clip") != 0)
                   & ((cnt == 1) | (cnt == 2)
                      & (idx.take(last - 1, mode="clip") == s - 1)))
    # each entry of a candidate's row must be its diagonal or its (s, p)
    # entry, below a stored pressure diagonal
    pos = np.flatnonzero(local.take(idx))
    row = idx.take(pos).astype(np.intp)
    start = ptr.take(row)
    sp_ = ((pos < start) & (pos > ptr.take(row - 1))
           & (idx.take(pos - 1, mode="clip") == row - 1))
    local[row[(pos < start) & ~sp_ | (pos >= ptr.take(row + 1))]] = False
    at_sp = np.full(n, -1)
    at_sp[row[sp_]] = pos[sp_]
    s = np.flatnonzero(local)
    at_ss = last.take(s // 2)
    return (s, at_ss, np.where(cnt.take(s // 2) == 2, at_ss - 1, -1),
            at_sp.take(s))


def linear_solve(jacobian, residual, symmetric=False, fill=None):
    """Direct sparse solve of J dy = -r with a relative-residual check.

    Each local saturation (`_local_saturations`), in practice one ahead
    of the front, where water is immobile and no face carries water, is
    first eliminated exactly: its 1x1 pivot a_ss folds a_ps a_sp / a_ss
    into the pressure diagonal and a_ps r_s / a_ss into the pressure
    residual, and its update is recovered after the solve.  This adds no
    fill.  SuperLU factors what remains with unrelaxed supernodes and
    four-column panels (`SUPERLU_RELAX`, `SUPERLU_PANEL_SIZE`): by default
    in COLAMD's order with partial pivoting; with `symmetric`, in the
    given numbering in symmetric mode, pivoting on the diagonal unless it
    is below 0.01 of its column's largest entry.  The factor's stored
    entries (`SuperLU.nnz`) are appended to the list `fill`.

    Relaxed supernodes store padding zeros in these block-structured
    Jacobians: on the recorded Newton Jacobians of the desk presets, the
    unrelaxed factors hold 0.74-0.96x the default fill and take 3-28%
    less time (up to 2% more, within noise, on the densest static-dd
    factors), and the solutions agree to round-off.  One-column panels
    are faster still on uniform-fine and dynamic-dd but up to 24% slower
    than the defaults on those dense static-dd factors.
    """
    jac = jacobian.tocsc()
    if not jac.has_canonical_format:
        jac = jac.copy()
        jac.sum_duplicates()
    s, at_ss, at_ps, at_sp = _local_saturations(jac)
    path = {}
    if symmetric:
        path = dict(permc_spec="NATURAL", diag_pivot_thresh=0.01,
                    options={"SymmetricMode": True})
    n = len(residual)
    reduced, rhs = jac, residual
    if len(s):
        a_ss = jac.data.take(at_ss)
        a_ps = np.where(at_ps >= 0, jac.data.take(at_ps), 0.0) / a_ss
        a_sp = np.where(at_sp >= 0, jac.data.take(at_sp), 0.0)
        has = at_sp >= 0
        r_s = residual.take(s)
        # the reduced CSC: the local saturations' columns and (s, p)
        # entries dropped, the others kept in order, the rows renumbered
        keep = np.ones(jac.nnz, dtype=bool)
        keep[at_ss] = False
        keep[at_ps[at_ps >= 0]] = False
        keep[at_sp[has]] = False
        keep = np.flatnonzero(keep)
        kept = np.ones(n, dtype=bool)
        kept[s] = False
        number = np.cumsum(kept, dtype=np.int32) - 1
        cnt = np.diff(jac.indptr)
        cnt[s - 1] -= has
        indptr = np.zeros(n - len(s) + 1, dtype=np.int32)
        np.cumsum(cnt[kept], out=indptr[1:])
        reduced = sp.csc_matrix(
            (jac.data.take(keep), number.take(jac.indices.take(keep)),
             indptr), shape=(n - len(s),) * 2)
        # a_pp, just above a_sp, moves up by the entries dropped before it
        dropped = 1 + (at_ps >= 0) + has
        at_pp = at_sp - 1 - np.cumsum(dropped) + dropped
        reduced.data[at_pp[has]] -= (a_ps * a_sp)[has]
        kept = np.flatnonzero(kept)
        rhs = residual.take(kept)
        rhs[number.take(s - 1)] -= a_ps * r_s
    try:
        lu = spla.splu(reduced, relax=SUPERLU_RELAX,
                       panel_size=SUPERLU_PANEL_SIZE, **path)
        dy = lu.solve(-rhs)
    except (RuntimeError, ValueError) as exc:
        raise SingularMatrix(str(exc)) from exc
    if len(s):
        full = np.empty(n)
        full[kept] = dy
        full[s] = (-r_s - a_sp * full[s - 1]) / a_ss
        dy = full
    if fill is not None:
        fill.append(lu.nnz)
    if not np.all(np.isfinite(dy)):
        raise SingularMatrix("linear solve produced non-finite values")
    scale = np.max(np.abs(residual)) if len(residual) else 0.0
    if scale > 0:
        lin_res = np.max(np.abs(jacobian @ dy + residual))
        if lin_res > LINEAR_TOL * scale * 1.0e4:
            raise SingularMatrix(
                f"linear residual {lin_res:.3e} vs scale {scale:.3e}")
    return dy


def _stored_share(window, jac):
    """The stored share of the window's structural pattern once the local
    saturations of its natural-numbered Jacobian `jac` are eliminated,
    over the unknowns that remain."""
    s, _, at_ps, at_sp = _local_saturations(jac)
    unknowns = np.full(window.n_st, 2)
    unknowns[s // 2] = 1
    rows, cols = window.jacobian_blocks()
    stored = (jac.nnz - len(s) - np.count_nonzero(at_ps >= 0)
              - np.count_nonzero(at_sp >= 0))
    return stored / np.dot(unknowns[rows], unknowns[cols])


def newton_solve_window(window, props, wells, trace_p, trace_s, model,
                        cfg: NewtonConfig):
    """Solve one window to tolerance; returns (StateField, LedgerEntry).

    The initial guess replicates the entry trace across all time levels.  A
    state that already satisfies the tolerance returns after zero update
    iterations.  A swept window solves every Jacobian in
    `window.ordered_pattern`'s numbering on the symmetric path.
    """
    t0 = time.perf_counter()
    state = StateField.from_trace(window, trace_p, trace_s)
    norms = []
    fill = []               # SuperLU's stored entries, per solve
    pattern = unknowns = None   # natural numbering unless the window is swept

    def entry(converged, iters):
        return LedgerEntry(
            window_index=window.window_index, t_start=window.t_start,
            t_end=window.t_end, iterations=iters, norms=list(norms),
            n_reduced_dofs=window.n_y,
            wall_ms=(time.perf_counter() - t0) * 1.0e3, converged=converged,
            lu_nnz=sum(fill))

    sys_ = linearize(window, state, props, wells, model)
    for k in range(cfg.max_iters + 1):
        norm = float(np.max(np.abs(sys_.r_norm))) if window.n_st else 0.0
        norms.append(norm)
        if norm <= cfg.tol:
            return state, entry(True, k)
        if k == cfg.max_iters:
            break
        jac = sys_.jacobian(pattern)
        if k == 0 and _stored_share(window, jac) > SYMMETRIC_MIN_STORED:
            pattern = window.ordered_pattern
            unknowns = (2 * window.cell_order[:, None]
                        + np.arange(2)).ravel()
            jac = sys_.jacobian(pattern)
        if pattern is None:
            dy = linear_solve(jac, sys_.r_y, fill=fill)
        else:
            dy = np.empty(window.n_y)
            dy[unknowns] = linear_solve(jac, sys_.r_y[unknowns],
                                        symmetric=True, fill=fill)
        del jac                 # freed before the next linearization
        dp, ds = dy[0::2], dy[1::2]
        # saturation chopping keeps iterates near the physical range; the
        # constant-mobility model is exactly linear and must not be chopped
        if cfg.max_ds > 0 and not model.linear:
            ds = np.clip(ds, -cfg.max_ds, cfg.max_ds)
        if not cfg.damping:
            # in place: a fresh state per iteration grows the heap
            state.p += dp
            state.s += ds
            sys_ = linearize(window, state, props, wells, model)
            continue
        # halve the step while the norm does not decrease; the accepted
        # step's linearization serves the next iteration
        step = 1.0
        for _ in range(MAX_HALVINGS + 1):
            trial = StateField(state.p + step * dp, state.s + step * ds,
                               state.trace_p, state.trace_s)
            sys_ = linearize(window, trial, props, wells, model)
            if (step <= 1.0 / 2**MAX_HALVINGS
                    or np.max(np.abs(sys_.r_norm)) <= norm):
                break
            step *= 0.5
        state = trial

    raise NonConvergence(cfg.max_iters, norms[-1], lu_nnz=sum(fill))
