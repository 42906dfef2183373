"""Monolithic Newton on one space-time window, and the run's solver ledger.

Each matching window is solved monolithically: evaluate the residual of the
flux-eliminated space-time system and check the max norm of its normalized
form; above tolerance, fill the reduced Jacobian, solve it directly and
update.  `stdd.run` marches the windows.  Each solve, converged or not,
is one `LedgerEntry`, and `RunLedger` sums the run's costs over them all.

The residual and the tolerance are exact, so a converged state meets the
exact equations.  Each saturation update is clipped to `MAX_DS` per cell
(`chop_saturation`).  Above √tol Newton factors the front slope's Jacobian
(`stdd.assembly.CellSystem.newton_blocks`), and each front cell rises to no
more than `stdd.assembly.front_saturation_cap`; within √tol, one quadratic
step from tol, it factors the exact Jacobian and applies the clip only.

The fill (`CellSystem.jacobian`) eliminates the local saturations exactly.
Every Jacobian is filled in the window's minimum-degree numbering, and
SuperLU factors what remains on one of two paths, which `factor_path`
picks per Newton solve from its first Jacobian: a swept one, storing more
than `SYMMETRIC_MIN_STORED` of its pattern (`ReducedJacobian.stored_share`),
in that numbering in symmetric mode; any other in COLAMD's order.
`linear_solve` recovers the eliminated updates and checks the whole update
against the factored Jacobian on its 2x2 blocks.

Where the large residual sits on a few cells, as after a transfer onto
refined cells, Newton first solves those cells with the rest of the window
frozen (nonlinear elimination, after Lanzkron, Rose & Wilkes 1996 and Cai
& Li 2011): `elimination_set` picks them, `eliminate` solves them, and
each local solve is a `LedgerEntry` of `RunLedger.local`.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .assembly import StateField, front_saturation_cap, linearize
from .errors import NonConvergence, SingularMatrix
from .physics import finite_number

# |J dy + r| ≤ LINEAR_TOL · max|r|
LINEAR_TOL = 1.0e-6
# Per-cell cap on a Newton saturation update
MAX_DS = 0.2
# The nonlinear elimination's rule (`elimination_set`, `eliminate`)
ELIM_MIN_NORM = 1.0
ELIM_RESIDUAL_SHARE = 0.01
ELIM_CELL_SHARE = 0.05
ELIM_RINGS = 2
ELIM_MAX_STEPS = 10
ELIM_OUTSIDE_FACTOR = 2.0


@dataclass(frozen=True)
class NewtonConfig:
    """A config's `newton` section; these values are its defaults."""

    tol: float = 1.0e-6        # on the max norm of the normalized residual
    max_iters: int = 60

    def __post_init__(self):
        if not (finite_number(self.tol) and self.tol > 0):
            raise ValueError("tol must be a positive number")
        if not (isinstance(self.max_iters, numbers.Integral)
                and finite_number(self.max_iters) and self.max_iters >= 1):
            raise ValueError("max_iters must be an integer >= 1")


@dataclass
class LedgerEntry:
    iterations: int
    norms: list
    n_reduced_dofs: int
    wall_ms: float
    lu_nnz: int = 0         # SuperLU's stored entries over its solves
    # its local solves' entries (`eliminate`), not in its own counts
    local: list = field(default_factory=list)


def _cost(solves):
    """The paper's cost of `solves`: Newton iterations x reduced DOFs."""
    return sum(e.iterations * e.n_reduced_dofs for e in solves)


@dataclass
class RunLedger:
    """Every Newton solve of a run, and the costs summed over them.

    `entries` holds the accepted windows' solves in order, so an entry's
    position is its window's index; `predictor` the dynamic predictor's
    solves, converged or not; `failed` the failed attempts of windows.
    Each of their local solves (`eliminate`) is an entry of `local`."""

    entries: list = field(default_factory=list)
    predictor: list = field(default_factory=list)
    failed: list = field(default_factory=list)

    @property
    def local(self):
        """The entries of every local solve, in the order of their solves'
        lists."""
        return [sub for e in self.entries + self.predictor + self.failed
                for sub in e.local]

    @property
    def failed_cost(self):
        return _cost(self.failed)

    def costs(self):
        """The summary's counts: `iterations` and `cost_metric` over the
        accepted windows' global steps, `predictor_cost`, `failed_cost`
        and `local_cost` over their lists, and `all_in_cost`, `lu_cost`
        and `total_wall_ms` over all."""
        local = self.local
        every = self.entries + self.predictor + self.failed + local
        return {"iterations": sum(e.iterations for e in self.entries),
                "cost_metric": _cost(self.entries),
                "predictor_cost": _cost(self.predictor),
                "failed_cost": self.failed_cost,
                "local_cost": _cost(local),
                "all_in_cost": _cost(every),
                "lu_cost": sum(e.lu_nnz for e in every),
                "total_wall_ms": sum(e.wall_ms for e in every)}

    def iteration_rows(self):
        """Flat (window, iteration, norm, dofs, wall_ms) rows for CSV export."""
        rows = []
        for w, e in enumerate(self.entries):
            for k, nrm in enumerate(e.norms):
                rows.append((w, k, nrm, e.n_reduced_dofs, e.wall_ms))
        return rows


# SuperLU's factor paths: unrelaxed supernodes, which store no padding zeros
# in the 2x2 block Jacobians, and one-column panels; in COLAMD's order with
# partial pivoting, or in the matrix's own numbering in symmetric mode,
# pivoting on the diagonal unless it is below 0.01 of its column's largest.
COLAMD = dict(relax=1, panel_size=1)
SYMMETRIC = dict(relax=1, panel_size=1, permc_spec="NATURAL",
                 diag_pivot_thresh=0.01, options={"SymmetricMode": True})
# The stored share of the structural pattern, over the unknowns left after
# the elimination, above which a window is swept: water flows through most
# of what remains.  Below, COLAMD gains from the zero-mobility entries.
SYMMETRIC_MIN_STORED = 0.55


def factor_path(jac):
    """The factor path of a Newton solve whose first `ReducedJacobian` is
    `jac`: `SYMMETRIC` if the window is swept, else `COLAMD`."""
    return SYMMETRIC if jac.stored_share > SYMMETRIC_MIN_STORED else COLAMD


def linear_solve(jac, residual, path=COLAMD):
    """Direct sparse solve of J dy = -r with a relative-residual check;
    returns the update and the factor's stored entries (`SuperLU.nnz`).

    `jac` is a `ReducedJacobian`: SuperLU factors its matrix, whose local
    saturations are already eliminated, on `path` (`COLAMD` or
    `SYMMETRIC`), and the update of each is recovered after the solve.
    `residual` and the returned update are the full, natural-numbered
    vectors, and the check is on Newton's whole J, through its 2x2
    blocks.
    """
    try:
        lu = spla.splu(jac.matrix, **path)
        x = lu.solve(-jac._reduce(residual))
    except (RuntimeError, ValueError) as exc:
        raise SingularMatrix(str(exc)) from exc
    dy = jac._expand(x, residual)
    if not np.all(np.isfinite(dy)):
        raise SingularMatrix("linear solve produced non-finite values")
    scale = np.max(np.abs(residual)) if len(residual) else 0.0
    if scale > 0:
        lin_res = np.max(np.abs(jac._dot(dy) + residual))
        if lin_res > LINEAR_TOL * scale:
            raise SingularMatrix(
                f"linear residual {lin_res:.3e} vs scale {scale:.3e}")
    return dy, lu.nnz


def chop_saturation(model, s, ds, front):
    """Add Newton's saturation update `ds` to `s` in place, chopped.

    Each cell moves by at most `MAX_DS`, which keeps iterates near the
    physical range.  A front cell (`CellSystem.front_cells`), whose k_rw
    the step took from the front slope's line, then rises no higher than
    `front_saturation_cap`, where that line is half of k_rw; one already
    above the cap is not moved down to it.  The constant-mobility model
    is exactly linear and is not chopped.
    """
    if model.linear:
        s += ds
        return
    s_front = s.take(front)
    s += np.clip(ds, -MAX_DS, MAX_DS)
    s[front] = np.minimum(s.take(front), np.maximum(
        s_front, front_saturation_cap(model.relcap)))


# The front cells of a step that caps none (`chop_saturation`)
_NO_FRONT = np.empty(0, dtype=np.intp)


def elimination_set(sys_, norm):
    """The space-time cells, ascending, to solve locally before a global
    step from `sys_`, whose max norm is `norm`, or None: if `norm` is above
    `ELIM_MIN_NORM` and its cells above `ELIM_RESIDUAL_SHARE` of it are at
    most `ELIM_CELL_SHARE` of the window's, those cells and `ELIM_RINGS`
    rings of neighbours in the block graph (across faces and time levels).
    """
    w = sys_.window
    if not norm > ELIM_MIN_NORM:
        return None
    inside = sys_.cell_norms > ELIM_RESIDUAL_SHARE * norm
    if np.count_nonzero(inside) > ELIM_CELL_SHARE * w.n_st:
        return None
    rows, cols = w.jacobian_blocks
    for _ in range(ELIM_RINGS):
        ring = inside.copy()
        ring[rows[inside.take(cols)]] = True
        ring[cols[inside.take(rows)]] = True
        inside = ring
    return np.flatnonzero(inside)


def eliminate(terms, state, held, cells):
    """Newton on the space-time cells `cells` alone from `state` (updated
    in place), until the set's maximum is at most max(`ELIM_MIN_NORM`,
    `ELIM_OUTSIDE_FACTOR` x the maximum outside it) or for
    `ELIM_MAX_STEPS` steps.  Each step solves the set's own blocks of
    `newton_blocks` (`CellSystem.local_jacobian`) through `linear_solve`,
    clipped only.  `held` is a one-item list with the linearization of
    `state`, which the call takes, so that no caller keeps it alive
    beside the next one.  Returns the final linearization and the solve's
    `LedgerEntry`, whose norms are the set's maxima."""
    t0 = time.perf_counter()
    sys_ = held.pop()
    outside = np.ones(sys_.window.n_st, dtype=bool)
    outside[cells] = False
    rows = (2 * cells[:, None] + np.arange(2)).ravel()
    norms, lu_nnz = [], 0
    for k in range(ELIM_MAX_STEPS + 1):
        r = sys_.cell_norms
        inner = float(np.max(r.take(cells)))
        norms.append(inner)
        if (k == ELIM_MAX_STEPS or inner <= max(
                ELIM_MIN_NORM,
                ELIM_OUTSIDE_FACTOR * np.max(r[outside], initial=0.0))):
            break
        jac, r_set = sys_.local_jacobian(cells), sys_.r_y[rows]
        del sys_                # freed before the next linearization
        dy, nnz = linear_solve(jac, r_set)
        lu_nnz += nnz
        state.p[cells] += dy[0::2]
        s = state.s[cells]
        chop_saturation(terms.model, s, dy[1::2], _NO_FRONT)
        state.s[cells] = s
        sys_ = linearize(terms, state)
    return sys_, LedgerEntry(k, norms, len(rows),
                             (time.perf_counter() - t0) * 1.0e3, lu_nnz)


def newton_solve_window(terms, trace_p, trace_s, cfg: NewtonConfig,
                        start=None, delta_s=None):
    """Solve the window of `terms` (`WindowTerms`) to tolerance; returns
    (StateField, LedgerEntry), or raises `NonConvergence` with the failed
    solve's entry.

    The initial guess replicates the entry trace across all time levels,
    its saturation moved linearly in time along `delta_s`, a predicted
    change over the window per spatial cell, if given
    (`StateField.from_trace`); `start` is its `linearize`, if the caller
    already has it.  A state that already satisfies the tolerance returns
    after zero update iterations.  Before each global step the cells that
    `elimination_set` picks, if any, are solved locally (`eliminate`) into
    the entry's `local`; its own counts, wall and norms are the global
    steps', each norm after any local solve.  A step from a norm within
    √tol factors the exact Jacobian and gives the chop no front cells.
    Every global step factors on the path that `factor_path` picks from
    the first Jacobian.
    """
    t0 = time.perf_counter()
    window, model = terms.window, terms.model
    state = StateField.from_trace(window, trace_p, trace_s, delta_s)
    norms, local = [], []
    lu_nnz = 0              # SuperLU's stored entries over the solves

    def entry(iterations):
        wall_ms = (time.perf_counter() - t0) * 1.0e3
        return LedgerEntry(iterations, norms, window.n_y,
                           wall_ms - sum(e.wall_ms for e in local), lu_nnz,
                           local)

    tail = math.sqrt(cfg.tol)
    sys_ = linearize(terms, state) if start is None else start
    for k in range(cfg.max_iters + 1):
        norm = float(np.max(sys_.cell_norms, initial=0.0))
        cells = (elimination_set(sys_, norm)
                 if norm > cfg.tol and k < cfg.max_iters else None)
        if cells is not None:
            held, sys_ = [sys_], None
            sys_, sub = eliminate(terms, state, held, cells)
            local.append(sub)
            norm = float(np.max(sys_.cell_norms))
        norms.append(norm)
        if norm <= cfg.tol:
            return state, entry(k)
        if k == cfg.max_iters:
            break
        exact = norm <= tail
        jac, r_y = sys_.jacobian(exact), sys_.r_y
        front = _NO_FRONT if exact else sys_.front_cells
        del sys_                # freed before the factor
        if k == 0:          # the factor path of every solve
            path = factor_path(jac)
        dy, nnz = linear_solve(jac, r_y, path=path)
        lu_nnz += nnz
        del jac                 # freed before the next linearization
        # in place: a fresh state per iteration grows the heap
        state.p += dy[0::2]
        chop_saturation(model, state.s, dy[1::2], front)
        sys_ = linearize(terms, state)

    raise NonConvergence(entry(cfg.max_iters))
