"""Residual and Jacobian of a space-time window on cell unknowns.

Per space-time cell ``c``, row/column ``2c`` is the total-mass equation /
oil-pressure unknown and ``2c + 1`` the water-mass equation /
water-saturation unknown.

The mixed method also carries four flux unknowns per face: the auxiliary
(pressure-gradient) flux and the upwinded Darcy flux of each phase.  Their
relations are linear in the fluxes with an invertible 4x4 block per face,
so they are eliminated exactly: each auxiliary flux takes its closure
value `drive / a` and each Darcy flux `lambda* * aux`.  `linearize`
evaluates the residual that remains on cell unknowns, and
`CellSystem.blocks` is the Schur complement A - B D^-1 C as 2x2 blocks,
filled face by face in closed form each time it is read.  The expanded
system is not built; the tests keep it as their oracle.

The auxiliary-flux diagonal, which no state changes, is computed once per
window (`WindowTerms`).  Capillary pressure and relative permeability are
evaluated once per cell per linearization and gathered to the faces.

`CellSystem.newton_blocks` are the exact blocks but for the front slope:
ahead of the water front k_rw and its slope vanish, so on the faces whose
upwind cell is a front cell the water mobility's saturation derivative
takes the k_rw slope `FRONT_KRW_SLOPE`.  Those faces' upwind cells
(`CellSystem.front_cells`) are the cells whose Newton step
`front_saturation_cap` bounds.

`CellSystem.jacobian` turns either set of blocks into the sparse matrix
that is factored, in the numbering of the window's one pattern
(`SpaceTimeWindow.jacobian_pattern`).  A cell's saturation is local when
its row and its column stay in the cell's own block, as ahead of the
front, where water is immobile; the fill finds these on the block values
and eliminates each exactly through its 1x1 pivot (`ReducedJacobian`,
which keeps the blocks for the check of each update).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import MissingPrevTrace, SingularFluxBlock, ZeroPermeability
from .mesh import SpaceTimeWindow
from .physics import BETA_C, OIL, WATER, FluidRockModel


@dataclass(frozen=True)
class CellProperties:
    """Per spatial cell of one window: porosity and diagonal permeability."""

    phi: np.ndarray
    kx: np.ndarray   # md
    ky: np.ndarray


@dataclass(frozen=True)
class ResolvedWells:
    """Well terms mapped onto a window's spatial cells.

    ``inj_w`` is a constant water mass rate (lb/day) per cell; producers are
    Peaceman-type with ``prod_wi`` in ft^3*cP/(psi*day) (the Darcy constant
    is already folded in) and zero where no producer is present.
    """

    inj_w: np.ndarray
    prod_wi: np.ndarray
    prod_bhp: np.ndarray

    @classmethod
    def none(cls, n_spatial):
        z = np.zeros(n_spatial)
        return cls(inj_w=z, prod_wi=z.copy(), prod_bhp=z.copy())


@dataclass
class StateField:
    """Pressure/saturation unknowns plus the previous-window trace."""

    p: np.ndarray        # psi, per space-time cell
    s: np.ndarray        # water saturation
    trace_p: np.ndarray  # per spatial cell, at the window's start time
    trace_s: np.ndarray

    @classmethod
    def from_trace(cls, window: SpaceTimeWindow, trace_p, trace_s,
                   delta_s=None):
        """Warm start: replicate the entry trace across all time levels.

        With `delta_s`, a saturation change over the whole window per
        spatial cell, a level ending at t_k after the window's start
        starts at trace_s + delta_s * t_k / delta_t instead, clipped into
        [0, 1].  Pressure and the trace itself are unchanged."""
        trace_p = np.asarray(trace_p, dtype=float)
        trace_s = np.asarray(trace_s, dtype=float)
        if len(trace_p) != window.n_spatial or len(trace_s) != window.n_spatial:
            raise MissingPrevTrace(
                f"trace covers {len(trace_p)} cells, window has {window.n_spatial}")
        sp = window.st_spatial
        s = trace_s[sp]
        if delta_s is not None:
            elapsed = window.st_level * window.st_dt / window.delta_t
            s = np.clip(s + np.asarray(delta_s, dtype=float)[sp] * elapsed,
                        0.0, 1.0)
        return cls(p=trace_p[sp], s=s,
                   trace_p=trace_p.copy(), trace_s=trace_s.copy())


@dataclass(frozen=True)
class WindowTerms:
    """A window with its cells' properties, its wells and the closures,
    and each face's auxiliary-flux diagonal `a`, computed once per window
    by `window_terms`."""

    window: SpaceTimeWindow
    props: CellProperties
    wells: ResolvedWells
    model: FluidRockModel
    a: np.ndarray = field(repr=False)


def window_terms(window, props, wells, model):
    """The `WindowTerms` of `window` with `props`, `wells` and `model`;
    raises if a flux face has no permeability or a singular flux block."""
    f = window.faces
    kl = np.where(f.axis == 0, props.kx[f.s_left], props.ky[f.s_left])
    kr = np.where(f.axis == 0, props.kx[f.s_right], props.ky[f.s_right])
    if np.any(kl <= 0) or np.any(kr <= 0):
        raise ZeroPermeability("non-positive permeability on a flux face")
    e = f.area * f.dt                       # face space-time measure
    a = (f.h_left / kl + f.h_right / kr) / (2.0 * BETA_C * e)
    if np.any(a <= 0) or not np.all(np.isfinite(a)):
        raise SingularFluxBlock("auxiliary-flux diagonal is not positive")
    return WindowTerms(window, props, wells, model, a)


@dataclass
class _FaceClosure:
    """Closure values on every face of a window at one state."""

    drive_o: np.ndarray      # phase-pressure drops, left minus right
    drive_w: np.ndarray
    dpc_l: np.ndarray        # capillary slopes of the two cells
    dpc_r: np.ndarray
    ut_o: np.ndarray         # auxiliary fluxes
    ut_w: np.ndarray
    oil: tuple               # `upwind_mobility`: lambda*, d/dS_up,
    water: tuple             # d/dp_left, d/dp_right, upwind_is_left


def _densities(fluid, p):
    """Each phase's density pair (rho, drho/dp) at every cell's pressure."""
    return {OIL: fluid.density(OIL, p), WATER: fluid.density(WATER, p)}


def _face_closure(terms, state, rho):
    """Auxiliary fluxes from their closure and the upwind mobilities they
    select.  `rho` is `_densities` at `state.p`.  Capillary pressure and
    relative permeability are evaluated once per cell and gathered to
    the faces."""
    model = terms.model
    f = terms.window.faces
    cl, cr = f.c_left, f.c_right
    pc, dpc = model.pc(state.s)
    pl, pr = state.p.take(cl), state.p.take(cr)
    drive_o = pl - pr
    drive_w = (pl - pc.take(cl)) - (pr - pc.take(cr))
    ut_o = drive_o / terms.a
    ut_w = drive_w / terms.a

    def upwind(phase, ut):
        return model.upwind_mobility(phase, ut, cl, cr, state.s, rho[phase])

    return _FaceClosure(drive_o, drive_w, dpc.take(cl), dpc.take(cr), ut_o,
                        ut_w, upwind(OIL, ut_o), upwind(WATER, ut_w))


def _mass_block(pv, rho_w, drho_w, rho_o, drho_o, s):
    """d(total, water mass)/d(p, s), one row (t_p, t_s, w_p, w_s) per cell."""
    w_p = pv * drho_w * s
    w_s = pv * rho_w
    o_p = pv * drho_o * (1.0 - s)
    o_s = -pv * rho_o
    return np.column_stack([w_p + o_p, w_s + o_s, w_p, w_s])


def _cell_terms(terms, state, rho):
    """Accumulation and well terms of every cell, without the divergence.

    Returns (r_t, r_w, own, prev): the total and water residuals, and
    their derivative blocks against each cell's own (p, s) and, for each
    cell with a previous level, against that level's, in the block order
    of `SpaceTimeWindow.jacobian_blocks`.
    """
    window, props, wells, model = (terms.window, terms.props, terms.wells,
                                   terms.model)
    if len(state.trace_p) != window.n_spatial:
        raise MissingPrevTrace("trace does not cover the window's spatial cells")
    sp_idx = window.st_spatial
    fluid = model.fluid
    pv = props.phi[sp_idx] * window.cell_vol[sp_idx]
    dt_c = window.st_dt
    p, s = state.p, state.s

    prev = window.st_prev
    has_prev = prev >= 0
    pp = np.where(has_prev, p[np.maximum(prev, 0)], state.trace_p[sp_idx])
    sp_ = np.where(has_prev, s[np.maximum(prev, 0)], state.trace_s[sp_idx])

    rho_w, drho_w = rho[WATER]
    rho_o, drho_o = rho[OIL]
    rho_wp, drho_wp = fluid.density(WATER, pp)
    rho_op, drho_op = fluid.density(OIL, pp)

    r_w = pv * (rho_w * s - rho_wp * sp_)
    r_t = r_w + pv * (rho_o * (1.0 - s) - rho_op * (1.0 - sp_))
    own = _mass_block(pv, rho_w, drho_w, rho_o, drho_o, s)
    hp = np.nonzero(has_prev)[0]
    prev_block = -_mass_block(pv[hp], rho_wp[hp], drho_wp[hp], rho_op[hp],
                              drho_op[hp], sp_[hp])

    inj = wells.inj_w[sp_idx]
    r_w -= inj * dt_c
    r_t -= inj * dt_c

    wi = wells.prod_wi[sp_idx]
    prod = np.nonzero(wi > 0)[0]
    if len(prod):
        wi_p = wi[prod]
        dd = p[prod] - wells.prod_bhp[sp_idx][prod]     # drawdown, psi
        dtp = dt_c[prod]
        lw, dlw_ds, dlw_dp = model.mobility(WATER, s[prod], p[prod])
        lo, dlo_ds, dlo_dp = model.mobility(OIL, s[prod], p[prod])
        rate_w = wi_p * lw * dd
        rate_o = wi_p * lo * dd
        r_w[prod] += rate_w * dtp
        r_t[prod] += (rate_w + rate_o) * dtp
        drw_dp = wi_p * (lw + dd * dlw_dp) * dtp
        drw_ds = wi_p * dd * dlw_ds * dtp
        dro_dp = wi_p * (lo + dd * dlo_dp) * dtp
        dro_ds = wi_p * dd * dlo_ds * dtp
        own[prod] += np.column_stack([drw_dp + dro_dp, drw_ds + dro_ds,
                                      drw_dp, drw_ds])
    return r_t, r_w, own, prev_block


def _add_divergence(window, u_o, u_w, r_t, r_w):
    """Add each face's phase fluxes out of its left cell, into its right."""
    f, n = window.faces, window.n_st
    u_t = u_o + u_w
    r_t += np.bincount(f.c_left, u_t, n) - np.bincount(f.c_right, u_t, n)
    r_w += np.bincount(f.c_left, u_w, n) - np.bincount(f.c_right, u_w, n)


def _rows(terms, r_t, r_w):
    """Interleaved residual (rows 2c total, 2c + 1 water) and its
    normalization by phi * rho_ref * |E| per row."""
    window, fluid = terms.window, terms.model.fluid
    sp_idx = window.st_spatial
    phi = terms.props.phi[sp_idx]
    vol = window.cell_vol[sp_idx]
    r_y = np.empty(window.n_y)
    r_y[0::2], r_y[1::2] = r_t, r_w
    r_norm = np.empty(window.n_y)
    r_norm[0::2] = r_t / (phi * fluid.rho_o_ref * vol)
    r_norm[1::2] = r_w / (phi * fluid.rho_w_ref * vol)
    return r_y, r_norm


@dataclass(frozen=True)
class ReducedJacobian:
    """A window's Jacobian with its local saturations eliminated.

    `matrix` is what remains, in the window's numbering: its row and
    column k is unknown `unknowns[k]` of the natural numbering.  Cell
    `local[i]`'s saturation was eliminated with its pivot `a_ss[i]`, its
    (p, s) entry over the pivot `a_ps[i]` and its (s, p) entry `a_sp[i]`.
    The whole Jacobian is kept as Newton's 2x2 blocks: column k of
    `blocks` holds the block at (row cell `rows[k]`, column cell
    `cols[k]`), row e its entry e.
    """

    matrix: sp.csc_matrix
    unknowns: np.ndarray
    local: np.ndarray
    a_ss: np.ndarray
    a_ps: np.ndarray
    a_sp: np.ndarray
    blocks: np.ndarray = field(repr=False)
    rows: np.ndarray = field(repr=False)
    cols: np.ndarray = field(repr=False)

    @property
    def nnz(self):
        """The stored entries of the matrix that is factored."""
        return self.matrix.nnz

    @property
    def stored_share(self):
        """The stored share of the structural pattern over the unknowns
        that remain: `nnz` over the pattern's entries in the kept rows
        and columns."""
        kept = np.full((self.matrix.shape[0] + len(self.local)) // 2, 2)
        kept[self.local] = 1
        return self.nnz / np.dot(kept.take(self.rows), kept.take(self.cols))

    def _reduce(self, r):
        """The residual `r` of J dy = -r folded onto the remaining
        unknowns: each eliminated saturation's a_ps r_s / a_ss leaves its
        cell's pressure row."""
        p = 2 * self.local
        r = r.copy()
        r[p] -= self.a_ps * r[p + 1]
        return r.take(self.unknowns)

    def _expand(self, x, r):
        """The natural-numbered update whose remaining unknowns are `x`;
        each eliminated saturation is recovered from its own row."""
        dy = np.empty(len(r))
        dy[self.unknowns] = x
        p = 2 * self.local
        dy[p + 1] = (-r[p + 1] - self.a_sp * dy[p]) / self.a_ss
        return dy

    def _dot(self, dy):
        """The whole Jacobian times the natural-numbered `dy`, block by
        block."""
        v, n = self.blocks, len(dy) // 2
        dp, ds = dy[0::2].take(self.cols), dy[1::2].take(self.cols)
        out = np.empty(len(dy))
        out[0::2] = np.bincount(self.rows, v[0] * dp + v[1] * ds, n)
        out[1::2] = np.bincount(self.rows, v[2] * dp + v[3] * ds, n)
        return out


# The k_rw slope that Newton's Jacobian gives a front cell
# (`CellSystem._front_slope`).
FRONT_KRW_SLOPE = 0.01


def front_saturation_cap(relcap):
    """The saturation s_wirr + Δ up to which one Newton step may raise a
    front cell (`CellSystem.front_cells`): at s_wirr + Δ the exact k_rw
    is twice the front slope's line, kr0_w (Δ / span)^n_w =
    2 FRONT_KRW_SLOPE Δ.  Beyond it the line, which the step was solved
    on, holds the cell's k_rw at less than half its true value.  Infinite,
    no cap, for n_w = 1, where k_rw over the line does not grow with Δ,
    and wherever Δ overflows or is too small to move s_wirr, where a cap
    would hold a floored front cell in every step."""
    if relcap.n_w <= 1:
        return np.inf
    with np.errstate(over="ignore", under="ignore"):
        delta = (2.0 * FRONT_KRW_SLOPE * np.float64(relcap.span)**relcap.n_w
                 / relcap.kr0_w) ** (1.0 / (relcap.n_w - 1.0))
    cap = float(relcap.s_wirr + delta)
    return cap if relcap.s_wirr < cap < np.inf else np.inf


@dataclass
class CellSystem:
    """One Newton linearization on cell unknowns only.

    The residual is evaluated on construction; the Jacobian A - B D^-1 C
    of the flux-eliminated system is filled on demand, so a residual-only
    check never pays for it.  With the flux unknowns at their closure
    values the flux residuals vanish, so the reduced residual is the
    conservation residual itself.
    """

    terms: WindowTerms
    r_y: np.ndarray          # conservation residual
    r_norm: np.ndarray       # r_y scaled per row by phi * rho_ref * |E|
    _own: np.ndarray = field(repr=False)
    _prev: np.ndarray = field(repr=False)
    _faces: _FaceClosure = field(repr=False)
    _rho_w: np.ndarray = field(repr=False)      # water density per cell

    @property
    def window(self):
        return self.terms.window

    @property
    def blocks(self):
        """The exact Jacobian's 2x2 blocks: column k holds block k of
        `SpaceTimeWindow.jacobian_blocks`, row e its entry e."""
        return self._fill_blocks(self._faces.water[1])

    @property
    def newton_blocks(self):
        """The blocks of the Jacobian that Newton factors: `blocks` with
        the front slope (`_front_slope`) in place of the water mobility's
        saturation derivative on the faces it floors."""
        faces, floor = self._front_slope
        slope = self._faces.water[1].copy()
        slope[faces] = floor
        return self._fill_blocks(slope)

    @cached_property
    def _front_slope(self):
        """The faces whose upwind cell is a front cell, and the
        rho_face * FRONT_KRW_SLOPE / mu_w that Newton's Jacobian gives
        their water mobility's saturation derivative.

        A front cell's k_rw slope is below `FRONT_KRW_SLOPE`, while it
        takes in water across a face from a cell whose k_rw is positive.
        Water that enters it will also leave it, which the exact
        derivative, zero at s_wirr, does not show.  The constant-mobility
        model has no front.
        """
        fc, model = self._faces, self.terms.model
        if model.linear:
            return np.empty(0, dtype=np.intp), np.empty(0)
        lam, dlam_ds, _, _, up_left = fc.water
        w = self.window
        cl, cr = w.faces.c_left, w.faces.c_right
        takes_in = np.zeros(w.n_st, dtype=bool)
        takes_in[np.where(up_left, cr, cl)[(lam > 0) & (fc.ut_w != 0)]] = True
        faces = np.flatnonzero(takes_in.take(np.where(up_left, cl, cr)))
        floor = FRONT_KRW_SLOPE * model.face_density(
            WATER, cl.take(faces), cr.take(faces), self._rho_w)
        # the faces whose upwind cell's k_rw slope is below the floor
        slow = dlam_ds.take(faces) < floor
        return faces[slow], floor[slow]

    @cached_property
    def front_cells(self):
        """The front cells, in ascending order: the upwind cells of the
        faces whose slope `_front_slope` floors."""
        faces = self._front_slope[0]
        f = self.window.faces
        return np.unique(np.where(self._faces.water[4].take(faces),
                                  f.c_left.take(faces), f.c_right.take(faces)))

    def _fill_blocks(self, dlw_ds):
        """The blocks with `dlw_ds` as each face's saturation derivative
        of its upwind water mobility."""
        fc = self._faces
        a = self.terms.a
        lam_o, dlo_ds, dlo_dpl, dlo_dpr, up_o = fc.oil
        lam_w, _, dlw_dpl, dlw_dpr, up_w = fc.water
        w = self.window
        n, nf, n_prev = w.n_st, w.n_faces, len(self._prev)
        vals = np.empty((4, n + n_prev + 2 * nf))
        own = vals[:, :n]
        vals[:, n:n + n_prev] = self._prev.T
        lr = vals[:, n + n_prev:n + n_prev + nf]
        ll = vals[:, n + n_prev + nf:]
        # ll, lr: the left cell's rows against the left and the right
        # cell's (p, s), from u = lambda* * drive / a; the upwind mobility's
        # saturation derivative lands on its upwind cell.  The right cell's
        # rows are their negatives.
        go, gw = lam_o / a, lam_w / a
        so, sw = fc.ut_o * dlo_ds, fc.ut_w * dlw_ds
        ll[2] = gw + fc.ut_w * dlw_dpl
        ll[3] = np.where(up_w, sw, 0.0) - gw * fc.dpc_l
        lr[2] = -gw + fc.ut_w * dlw_dpr
        lr[3] = np.where(up_w, 0.0, sw) + gw * fc.dpc_r
        ll[0] = go + fc.ut_o * dlo_dpl + ll[2]
        ll[1] = np.where(up_o, so, 0.0) + ll[3]
        lr[0] = -go + fc.ut_o * dlo_dpr + lr[2]
        lr[1] = np.where(up_o, 0.0, so) + lr[3]
        # diagonal blocks: accumulation and wells, every face's (left, left)
        # on its left cell and (right, right) = -lr on its right cell
        own[:] = self._own.T
        cl, cr = w.faces.c_left, w.faces.c_right
        for e in range(4):
            own[e] += np.bincount(cl, ll[e], n) - np.bincount(cr, lr[e], n)
        np.negative(ll, out=ll)
        return vals

    def _local(self, vals):
        """The cells whose saturation is local: its row and its column
        hold nonzeros only in the cell's own block, with a nonzero
        diagonal, in the blocks `vals`.  Such a cell has no other time
        level, whose mass terms would link it, and no face whose water
        flux moves with it, as ahead of the front, where water is
        immobile; in `newton_blocks` a front cell is linked by its front
        slope."""
        w = self.window
        n, nf = w.n_st, w.n_faces
        local = vals[3, :n] != 0
        local[w.st_prev >= 0] = False
        local[w.st_prev[w.st_prev >= 0]] = False
        # a face links its left cell's water row to the right cell's
        # unknowns (lr) and its saturation column to the right cell's rows
        # (-ll), and the right cell's likewise
        nz = vals[:, n + len(self._prev):] != 0
        lr, ll = nz[:, :nf], nz[:, nf:]
        local[w.faces.c_left[lr[2] | lr[3] | ll[1] | ll[3]]] = False
        local[w.faces.c_right[ll[2] | ll[3] | lr[1] | lr[3]]] = False
        return np.flatnonzero(local)

    def jacobian(self, exact=False):
        """The `ReducedJacobian` of `newton_blocks`, or with `exact` of
        `blocks`, filled into the window's `jacobian_pattern`.

        Each local saturation is eliminated exactly in the fill: its 1x1
        pivot a_ss folds a_ps a_sp / a_ss into its cell's pressure
        diagonal, which adds no fill, and its three entries are zeroed in
        the gathered block values.  The zeros (those, an upwind side, a
        zero mobility) are then dropped, as they would otherwise be stored
        and slow the factorization, and the remaining rows renumbered.
        The blocks, read once, go to the `ReducedJacobian` for its check.
        """
        w = self.window
        pat = w.jacobian_pattern
        vals = self.blocks if exact else self.newton_blocks
        data = vals.ravel().take(pat.entry)
        local = self._local(vals)
        # the local pivots, from the cells' own blocks
        a_pp, a_ps, a_sp, a_ss = vals.take(local, axis=1)
        at = pat.own.take(local, axis=1)
        a_ps = a_ps / a_ss
        data[at[0]] = a_pp - a_ps * a_sp
        data[at[1:]] = 0.0
        # this compacts the index arrays in place, hence their copies
        jac = sp.csc_matrix((data, pat.indices.copy(), pat.indptr.copy()),
                            shape=(w.n_y, w.n_y))
        jac.eliminate_zeros()
        # the local saturations' rows and columns are empty now
        dropped = np.zeros(w.n_y, dtype=bool)
        dropped[2 * local + 1] = True
        kept = ~dropped.take(pat.unknowns)
        number = np.cumsum(kept, dtype=np.int32) - 1
        keep = np.flatnonzero(kept)
        matrix = sp.csc_matrix(
            (jac.data, number.take(jac.indices),
             jac.indptr.take(np.append(keep, w.n_y))),
            shape=(len(keep), len(keep)))
        return ReducedJacobian(matrix, pat.unknowns.take(keep), local,
                               a_ss, a_ps, a_sp, vals, *w.jacobian_blocks)


def linearize(terms, state):
    """Residual of the flux-eliminated system of the window of `terms` at
    `state`, the Jacobian on demand."""
    rho = _densities(terms.model.fluid, state.p)
    fc = _face_closure(terms, state, rho)
    r_t, r_w, own, prev = _cell_terms(terms, state, rho)
    _add_divergence(terms.window, fc.oil[0] * fc.ut_o,
                    fc.water[0] * fc.ut_w, r_t, r_w)
    r_y, r_norm = _rows(terms, r_t, r_w)
    return CellSystem(terms, r_y, r_norm, own, prev, fc, rho[WATER][0])
