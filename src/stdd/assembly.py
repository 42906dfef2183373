"""Residual and Jacobian of the monolithic space-time system.

Unknown layout over a window:

* conservation block ``y``: per space-time cell ``c``, row/column ``2c`` is
  the total-mass equation / oil-pressure unknown and ``2c + 1`` the
  water-mass equation / water-saturation unknown;
* flux block ``f``: per face, four rows/columns in the order
  (aux_o, aux_w, darcy_o, darcy_w) holding the pressure-gradient fluxes
  and the Darcy fluxes of each phase.

The flux-relation rows are linear in the flux unknowns with an invertible
(block-triangular, 4x4 per face) diagonal, so the system is reduced to
pressure/saturation unknowns by exact block elimination; solving the reduced
system and back-substituting reproduces the unreduced solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    def copy(self):
        return StateField(self.p.copy(), self.s.copy(),
                          self.trace_p.copy(), self.trace_s.copy())


def compute_fluxes(window, state, props, model):
    """Closure-consistent flux values from a (P, S) state.

    Solves the auxiliary-flux and Darcy-closure relations exactly:
    the auxiliary flux carries the (phase) pressure difference through the
    half-cell transmissibility, the Darcy flux is the upwind mobility times
    the auxiliary flux.
    """
    sys_ = assemble(window, state, props,
                    ResolvedWells.none(window.n_spatial), model,
                    _fluxes_only=True)
    return sys_


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
class MonolithicSystem:
    """Assembled blocks of one Newton linearization over a window."""

    window: SpaceTimeWindow
    A: sp.spmatrix           # conservation rows vs (P, S)
    B: sp.spmatrix           # conservation rows vs flux unknowns
    C: sp.spmatrix           # flux rows vs (P, S)
    D: sp.spmatrix           # flux rows vs flux unknowns
    r_y: np.ndarray          # conservation residual
    r_f: np.ndarray          # flux-relation residual
    r_norm: np.ndarray       # r_y scaled per row by phi * rho_ref * |E|
    fluxes: dict             # aux_o, aux_w, darcy_o, darcy_w per face
    a_diag: np.ndarray       # auxiliary-flux diagonal per face
    lam_o: np.ndarray        # upwind mobilities per face
    lam_w: np.ndarray

    @property
    def n_y(self):
        return self.A.shape[0]

    @property
    def n_flux(self):
        return self.D.shape[0]

    @property
    def jacobian_full(self):
        if self.n_flux == 0:
            return self.A.tocsr()
        return sp.bmat([[self.A, self.B], [self.C, self.D]], format="csr")

    @property
    def residual_full(self):
        return np.concatenate([self.r_y, self.r_f])

    def dump_matrix_market(self, path):
        from scipy.io import mmwrite
        mmwrite(str(path), self.jacobian_full.tocoo())

    def residual_rows(self):
        """(spatial cell, time level, equation, raw, normalized) per row."""
        w = self.window
        rows = []
        for c in range(w.n_st):
            for k, eq in enumerate(("total", "water")):
                rows.append((int(w.st_spatial[c]), int(w.st_level[c]), eq,
                             float(self.r_y[2 * c + k]),
                             float(self.r_norm[2 * c + k])))
        return rows


def assemble(window, state, props, wells, model, *, fluxes=None,
             _fluxes_only=False):
    """Evaluate residual and Jacobian blocks at the given state.

    When ``fluxes`` is None the flux unknowns are set from their closure
    relations (flux residuals vanish identically); pass explicit values to
    linearize at an arbitrary full-system point.
    """
    f = window.faces
    n_st = window.n_st
    nf = window.n_faces
    sp_idx = window.st_spatial
    fluid = model.fluid

    phi = props.phi[sp_idx]
    vol = window.cell_vol[sp_idx]
    dt_c = window.st_dt

    p, s = state.p, state.s
    if len(state.trace_p) != window.n_spatial:
        raise MissingPrevTrace("trace does not cover the window's spatial cells")

    # --- faces: auxiliary fluxes and closures -------------------------
    a = _face_geometry(window, props)
    cl, cr = f.c_left, f.c_right
    pl, pr = p[cl], p[cr]
    sl, sr = s[cl], s[cr]
    pc_l, dpc_l = model.pc(sl)
    pc_r, dpc_r = model.pc(sr)
    drive_o = pl - pr
    drive_w = (pl - pc_l) - (pr - pc_r)

    if fluxes is None:
        ut_o = drive_o / a
        ut_w = drive_w / a
    else:
        ut_o = np.asarray(fluxes["aux_o"], dtype=float)
        ut_w = np.asarray(fluxes["aux_w"], dtype=float)

    lam_o, dlam_o_ds, dlam_o_dpl, dlam_o_dpr, up_o = model.upwind_mobility(
        OIL, ut_o, sl, sr, pl, pr)
    lam_w, dlam_w_ds, dlam_w_dpl, dlam_w_dpr, up_w = model.upwind_mobility(
        WATER, ut_w, sl, sr, pl, pr)

    if fluxes is None:
        u_o = lam_o * ut_o
        u_w = lam_w * ut_w
    else:
        u_o = np.asarray(fluxes["darcy_o"], dtype=float)
        u_w = np.asarray(fluxes["darcy_w"], dtype=float)

    flux_vals = {"aux_o": ut_o, "aux_w": ut_w, "darcy_o": u_o, "darcy_w": u_w}
    if _fluxes_only:
        return flux_vals

    # --- accumulation -------------------------------------------------
    prev = window.st_prev
    has_prev = prev >= 0
    pp = np.where(has_prev, p[np.maximum(prev, 0)], state.trace_p[sp_idx])
    sp_ = np.where(has_prev, s[np.maximum(prev, 0)], state.trace_s[sp_idx])

    rho_w, drho_w = fluid.density(WATER, p)
    rho_o, drho_o = fluid.density(OIL, p)
    rho_wp, drho_wp = fluid.density(WATER, pp)
    rho_op, drho_op = fluid.density(OIL, pp)

    r_w = phi * vol * (rho_w * s - rho_wp * sp_)
    r_t = r_w + phi * vol * (rho_o * (1.0 - s) - rho_op * (1.0 - sp_))

    rows_a, cols_a, vals_a = [], [], []

    def add(rows, cols, vals, r, c, v):
        rows.append(np.asarray(r, dtype=np.int64))
        cols.append(np.asarray(c, dtype=np.int64))
        vals.append(np.asarray(v, dtype=float))

    c_all = np.arange(n_st)
    rt, rw = 2 * c_all, 2 * c_all + 1
    dmw_dp = phi * vol * drho_w * s
    dmw_ds = phi * vol * rho_w
    dmo_dp = phi * vol * drho_o * (1.0 - s)
    dmo_ds = -phi * vol * rho_o
    add(rows_a, cols_a, vals_a, rw, rt, dmw_dp)       # col 2c is P
    add(rows_a, cols_a, vals_a, rw, rw, dmw_ds)
    add(rows_a, cols_a, vals_a, rt, rt, dmw_dp + dmo_dp)
    add(rows_a, cols_a, vals_a, rt, rw, dmw_ds + dmo_ds)

    hp = np.nonzero(has_prev)[0]
    if len(hp):
        cp = prev[hp]
        dmw_dp_p = (phi * vol * drho_wp * sp_)[hp]
        dmw_ds_p = (phi * vol * rho_wp)[hp]
        dmo_dp_p = (phi * vol * drho_op * (1.0 - sp_))[hp]
        dmo_ds_p = -(phi * vol * rho_op)[hp]
        add(rows_a, cols_a, vals_a, rw[hp], 2 * cp, -dmw_dp_p)
        add(rows_a, cols_a, vals_a, rw[hp], 2 * cp + 1, -dmw_ds_p)
        add(rows_a, cols_a, vals_a, rt[hp], 2 * cp, -(dmw_dp_p + dmo_dp_p))
        add(rows_a, cols_a, vals_a, rt[hp], 2 * cp + 1, -(dmw_ds_p + dmo_ds_p))

    # --- divergence ---------------------------------------------------
    np.add.at(r_w, cl, u_w)
    np.add.at(r_w, cr, -u_w)
    np.add.at(r_t, cl, u_o + u_w)
    np.add.at(r_t, cr, -(u_o + u_w))

    # --- sources ------------------------------------------------------
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
        add(rows_a, cols_a, vals_a, rw[prod], rt[prod], drw_dp)
        add(rows_a, cols_a, vals_a, rw[prod], rw[prod], drw_ds)
        add(rows_a, cols_a, vals_a, rt[prod], rt[prod], drw_dp + dro_dp)
        add(rows_a, cols_a, vals_a, rt[prod], rw[prod], drw_ds + dro_ds)

    n_y = 2 * n_st
    A = sp.coo_matrix(
        (np.concatenate(vals_a),
         (np.concatenate(rows_a), np.concatenate(cols_a))),
        shape=(n_y, n_y)).tocsr()

    # --- flux blocks --------------------------------------------------
    fidx = np.arange(nf)
    r_aux_o = a * ut_o - drive_o
    r_aux_w = a * ut_w - drive_w
    r_clo_o = u_o - lam_o * ut_o
    r_clo_w = u_w - lam_w * ut_w
    r_f = np.empty(4 * nf)
    r_f[0::4], r_f[1::4], r_f[2::4], r_f[3::4] = r_aux_o, r_aux_w, r_clo_o, r_clo_w

    # B: divergence rows pick up the Darcy flux unknowns with unit signs
    b_rows = np.concatenate([2 * cl, 2 * cl, 2 * cl + 1,
                             2 * cr, 2 * cr, 2 * cr + 1])
    b_cols = np.concatenate([4 * fidx + 2, 4 * fidx + 3, 4 * fidx + 3,
                             4 * fidx + 2, 4 * fidx + 3, 4 * fidx + 3])
    b_vals = np.concatenate([np.ones(3 * nf), -np.ones(3 * nf)])
    B = sp.coo_matrix((b_vals, (b_rows, b_cols)), shape=(n_y, 4 * nf)).tocsr()

    cup_o = np.where(up_o, cl, cr)
    cup_w = np.where(up_w, cl, cr)
    c_rows = np.concatenate([
        4 * fidx, 4 * fidx,
        4 * fidx + 1, 4 * fidx + 1, 4 * fidx + 1, 4 * fidx + 1,
        4 * fidx + 2, 4 * fidx + 2, 4 * fidx + 2,
        4 * fidx + 3, 4 * fidx + 3, 4 * fidx + 3,
    ])
    c_cols = np.concatenate([
        2 * cl, 2 * cr,
        2 * cl, 2 * cr, 2 * cl + 1, 2 * cr + 1,
        2 * cl, 2 * cr, 2 * cup_o + 1,
        2 * cl, 2 * cr, 2 * cup_w + 1,
    ])
    ones = np.ones(nf)
    c_vals = np.concatenate([
        -ones, ones,
        -ones, ones, dpc_l, -dpc_r,
        -ut_o * dlam_o_dpl, -ut_o * dlam_o_dpr, -ut_o * dlam_o_ds,
        -ut_w * dlam_w_dpl, -ut_w * dlam_w_dpr, -ut_w * dlam_w_ds,
    ])
    C = sp.coo_matrix((c_vals, (c_rows, c_cols)), shape=(4 * nf, n_y)).tocsr()

    d_rows = np.concatenate([4 * fidx, 4 * fidx + 1,
                             4 * fidx + 2, 4 * fidx + 2,
                             4 * fidx + 3, 4 * fidx + 3])
    d_cols = np.concatenate([4 * fidx, 4 * fidx + 1,
                             4 * fidx, 4 * fidx + 2,
                             4 * fidx + 1, 4 * fidx + 3])
    d_vals = np.concatenate([a, a, -lam_o, ones, -lam_w, ones])
    D = sp.coo_matrix((d_vals, (d_rows, d_cols)),
                      shape=(4 * nf, 4 * nf)).tocsr()

    # --- normalization ------------------------------------------------
    r_norm = np.empty(n_y)
    r_norm[0::2] = r_t / (phi * fluid.rho_o_ref * vol)
    r_norm[1::2] = r_w / (phi * fluid.rho_w_ref * vol)
    r_y = np.empty(n_y)
    r_y[0::2], r_y[1::2] = r_t, r_w

    return MonolithicSystem(window=window, A=A, B=B, C=C, D=D, r_y=r_y,
                            r_f=r_f, r_norm=r_norm, fluxes=flux_vals,
                            a_diag=a, lam_o=lam_o, lam_w=lam_w)


@dataclass
class ReducedSystem:
    """Pressure/saturation system after eliminating the flux unknowns."""

    jacobian: sp.spmatrix
    residual: np.ndarray
    system: MonolithicSystem
    _d_inv: sp.spmatrix | None = field(default=None, repr=False)

    @property
    def n_dofs(self):
        return self.jacobian.shape[0]

    def back_substitute(self, dy):
        """Flux increments consistent with a (P, S) increment."""
        sys_ = self.system
        if sys_.n_flux == 0:
            return np.zeros(0)
        return -self._d_inv @ (sys_.r_f + sys_.C @ dy)


def schur_reduce(system: MonolithicSystem) -> ReducedSystem:
    """Eliminate the flux block by exact inversion of its 4x4 face blocks."""
    if system.n_flux == 0:
        return ReducedSystem(system.A.tocsr(), system.r_y.copy(), system)
    a, lam_o, lam_w = system.a_diag, system.lam_o, system.lam_w
    if np.any(a <= 0) or not np.all(np.isfinite(a)):
        raise SingularFluxBlock("auxiliary-flux diagonal is not positive")
    nf = len(a)
    fidx = np.arange(nf)
    rows = np.concatenate([4 * fidx, 4 * fidx + 1,
                           4 * fidx + 2, 4 * fidx + 2,
                           4 * fidx + 3, 4 * fidx + 3])
    cols = np.concatenate([4 * fidx, 4 * fidx + 1,
                           4 * fidx, 4 * fidx + 2,
                           4 * fidx + 1, 4 * fidx + 3])
    ones = np.ones(nf)
    vals = np.concatenate([1.0 / a, 1.0 / a,
                           lam_o / a, ones, lam_w / a, ones])
    d_inv = sp.coo_matrix((vals, (rows, cols)), shape=(4 * nf, 4 * nf)).tocsr()
    jac = (system.A - system.B @ (d_inv @ system.C)).tocsr()
    res = system.r_y - system.B @ (d_inv @ system.r_f)
    return ReducedSystem(jac, res, system, _d_inv=d_inv)
