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
`CellSystem.jacobian` fills the Schur complement A - B D^-1 C face by face
in closed form.  The expanded system is not built; the tests keep it as
their oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import MissingPrevTrace, SingularFluxBlock, ZeroPermeability
from .mesh import SpaceTimeWindow
from .physics import BETA_C, OIL, WATER


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
    def from_trace(cls, window: SpaceTimeWindow, trace_p, trace_s):
        """Warm start: replicate the entry trace across all time levels."""
        trace_p = np.asarray(trace_p, dtype=float)
        trace_s = np.asarray(trace_s, dtype=float)
        if len(trace_p) != window.n_spatial or len(trace_s) != window.n_spatial:
            raise MissingPrevTrace(
                f"trace covers {len(trace_p)} cells, window has {window.n_spatial}")
        return cls(p=trace_p[window.st_spatial].copy(),
                   s=trace_s[window.st_spatial].copy(),
                   trace_p=trace_p.copy(), trace_s=trace_s.copy())


def _face_geometry(window, props):
    f = window.faces
    kl = np.where(f.axis == 0, props.kx[f.s_left], props.ky[f.s_left])
    kr = np.where(f.axis == 0, props.kx[f.s_right], props.ky[f.s_right])
    if np.any(kl <= 0) or np.any(kr <= 0):
        raise ZeroPermeability("non-positive permeability on a flux face")
    e = f.area * f.dt                       # face space-time measure
    a = (f.h_left / kl + f.h_right / kr) / (2.0 * BETA_C * e)
    return a


@dataclass
class _FaceClosure:
    """Closure values on every face of a window at one state."""

    a: np.ndarray            # auxiliary-flux diagonal
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


def _face_closure(window, state, props, model, rho):
    """Auxiliary fluxes from their closure and the upwind mobilities they
    select.  `rho` is `_densities` at `state.p`."""
    f = window.faces
    a = _face_geometry(window, props)
    pl, pr = state.p[f.c_left], state.p[f.c_right]
    sl, sr = state.s[f.c_left], state.s[f.c_right]
    pc_l, dpc_l = model.pc(sl)
    pc_r, dpc_r = model.pc(sr)
    drive_o = pl - pr
    drive_w = (pl - pc_l) - (pr - pc_r)
    ut_o = drive_o / a
    ut_w = drive_w / a

    def upwind(phase, ut):
        r, dr = rho[phase]
        return model.upwind_mobility(phase, ut, sl, sr,
                                     (r[f.c_left], dr[f.c_left]),
                                     (r[f.c_right], dr[f.c_right]))

    return _FaceClosure(a, drive_o, drive_w, dpc_l, dpc_r, ut_o, ut_w,
                        upwind(OIL, ut_o), upwind(WATER, ut_w))


def _mass_block(pv, rho_w, drho_w, rho_o, drho_o, s):
    """d(total, water mass)/d(p, s), one row (t_p, t_s, w_p, w_s) per cell."""
    w_p = pv * drho_w * s
    w_s = pv * rho_w
    o_p = pv * drho_o * (1.0 - s)
    o_s = -pv * rho_o
    return np.column_stack([w_p + o_p, w_s + o_s, w_p, w_s])


def _cell_terms(window, state, props, wells, model, rho):
    """Accumulation and well terms of every cell, without the divergence.

    Returns (r_t, r_w, own, prev): the total and water residuals, and
    their derivative blocks against each cell's own (p, s) and, for each
    cell with a previous level, against that level's, in the block order
    of `SpaceTimeWindow.jacobian_blocks`.
    """
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


def _rows(window, props, fluid, r_t, r_w):
    """Interleaved residual (rows 2c total, 2c + 1 water) and its
    normalization by phi * rho_ref * |E| per row."""
    sp_idx = window.st_spatial
    phi = props.phi[sp_idx]
    vol = window.cell_vol[sp_idx]
    r_y = np.empty(window.n_y)
    r_y[0::2], r_y[1::2] = r_t, r_w
    r_norm = np.empty(window.n_y)
    r_norm[0::2] = r_t / (phi * fluid.rho_o_ref * vol)
    r_norm[1::2] = r_w / (phi * fluid.rho_w_ref * vol)
    return r_y, r_norm


@dataclass
class CellSystem:
    """One Newton linearization on cell unknowns only.

    The residual is evaluated on construction; the Jacobian A - B D^-1 C
    of the flux-eliminated system is filled on demand into the window's
    fixed pattern, so a residual-only check never pays for it.  With the
    flux unknowns at their closure values the flux residuals vanish, so
    the reduced residual is the conservation residual itself.
    """

    window: SpaceTimeWindow
    r_y: np.ndarray          # conservation residual
    r_norm: np.ndarray       # r_y scaled per row by phi * rho_ref * |E|
    _own: np.ndarray = field(repr=False)
    _prev: np.ndarray = field(repr=False)
    _faces: _FaceClosure = field(repr=False)

    def jacobian(self, pattern=None):
        """The reduced Jacobian as CSC in `pattern`'s numbering (the
        window's `jacobian_pattern` by default), with no stored zeros."""
        fc = self._faces
        a = fc.a
        if np.any(a <= 0) or not np.all(np.isfinite(a)):
            raise SingularFluxBlock("auxiliary-flux diagonal is not positive")
        lam_o, dlo_ds, dlo_dpl, dlo_dpr, up_o = fc.oil
        lam_w, dlw_ds, dlw_dpl, dlw_dpr, up_w = fc.water
        # ll, lr: the left cell's rows against the left and the right
        # cell's (p, s), from u = lambda* * drive / a; the upwind mobility's
        # saturation derivative lands on its upwind cell.  The right cell's
        # rows are their negatives.
        go, gw = lam_o / a, lam_w / a
        so, sw = fc.ut_o * dlo_ds, fc.ut_w * dlw_ds
        w = self.window
        ll = np.empty((w.n_faces, 4))
        lr = np.empty((w.n_faces, 4))
        ll[:, 2] = gw + fc.ut_w * dlw_dpl
        ll[:, 3] = np.where(up_w, sw, 0.0) - gw * fc.dpc_l
        lr[:, 2] = -gw + fc.ut_w * dlw_dpr
        lr[:, 3] = np.where(up_w, 0.0, sw) + gw * fc.dpc_r
        ll[:, 0] = go + fc.ut_o * dlo_dpl + ll[:, 2]
        ll[:, 1] = np.where(up_o, so, 0.0) + ll[:, 3]
        lr[:, 0] = -go + fc.ut_o * dlo_dpr + lr[:, 2]
        lr[:, 1] = np.where(up_o, 0.0, so) + lr[:, 3]
        # diagonal blocks: accumulation and wells, every face's (left, left)
        # on its left cell and (right, right) = -lr on its right cell
        own = self._own.copy()
        cl, cr, n = w.faces.c_left, w.faces.c_right, w.n_st
        for e in range(4):
            own[:, e] += (np.bincount(cl, ll[:, e], n)
                          - np.bincount(cr, lr[:, e], n))
        pat = w.jacobian_pattern if pattern is None else pattern
        data = np.empty(pat.nnz)
        groups = np.split(pat.pos, np.cumsum([n, len(self._prev), w.n_faces]))
        for pos, vals in zip(groups, (own, self._prev, lr,
                                      np.negative(ll, out=ll))):
            data[pos] = vals
        jac = sp.csc_matrix((data, pat.indices.copy(), pat.indptr.copy()),
                            shape=(w.n_y, w.n_y))
        # entries that are zero at this state (an upwind side, a zero
        # mobility) would otherwise be stored and slow the factorization;
        # this compacts the index arrays in place, hence their copies
        jac.eliminate_zeros()
        return jac


def linearize(window, state, props, wells, model):
    """Residual of the flux-eliminated system at `state`, the Jacobian on
    demand."""
    rho = _densities(model.fluid, state.p)
    fc = _face_closure(window, state, props, model, rho)
    r_t, r_w, own, prev = _cell_terms(window, state, props, wells, model,
                                      rho)
    _add_divergence(window, fc.oil[0] * fc.ut_o, fc.water[0] * fc.ut_w,
                    r_t, r_w)
    r_y, r_norm = _rows(window, props, model.fluid, r_t, r_w)
    return CellSystem(window, r_y, r_norm, own, prev, fc)
