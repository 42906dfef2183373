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

Newton works on the reduced system only: `linearize` evaluates the
residual on cell unknowns and fills the reduced Jacobian A - B D^-1 C
face by face in closed form (the cell-centred form of the mixed method).
`assemble` and `schur_reduce` build the expanded blocks and eliminate
them by sparse products; they are the oracle the exactness tests check
the reduced system against.
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


def _face_closure(window, state, props, model, rho, fluxes=None):
    """Auxiliary fluxes from their closure, or from `fluxes` when given,
    and the upwind mobilities they select.  `rho` is `_densities` at
    `state.p`."""
    f = window.faces
    a = _face_geometry(window, props)
    pl, pr = state.p[f.c_left], state.p[f.c_right]
    sl, sr = state.s[f.c_left], state.s[f.c_right]
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

    def jacobian(self):
        """The reduced Jacobian as CSC, with no stored zeros."""
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
        pat = w.jacobian_pattern
        data = np.empty(pat.nnz)
        groups = np.split(pat.pos, np.cumsum([n, len(self._prev), w.n_faces]))
        for pos, vals in zip(groups, (own, self._prev, lr,
                                      np.negative(ll, out=ll))):
            data[pos] = vals
        jac = sp.csc_matrix((data, pat.indices.copy(), pat.indptr.copy()),
                            shape=(w.n_y, w.n_y))
        # entries that are zero at this state (an upwind side, a zero
        # mobility) would otherwise be stored and slow the factorization
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


# ---------------------------------------------------------------------------
# the expanded mixed system: the oracle of the exactness tests
# ---------------------------------------------------------------------------


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


def assemble(window, state, props, wells, model, *, fluxes=None):
    """Evaluate residual and Jacobian blocks of the expanded system.

    When ``fluxes`` is None the flux unknowns are set from their closure
    relations (flux residuals vanish identically); pass explicit values to
    linearize at an arbitrary full-system point.
    """
    f = window.faces
    nf = window.n_faces
    n_y = window.n_y
    rho = _densities(model.fluid, state.p)
    fc = _face_closure(window, state, props, model, rho, fluxes)
    a, ut_o, ut_w = fc.a, fc.ut_o, fc.ut_w
    lam_o, dlam_o_ds, dlam_o_dpl, dlam_o_dpr, up_o = fc.oil
    lam_w, dlam_w_ds, dlam_w_dpl, dlam_w_dpr, up_w = fc.water
    if fluxes is None:
        u_o = lam_o * ut_o
        u_w = lam_w * ut_w
    else:
        u_o = np.asarray(fluxes["darcy_o"], dtype=float)
        u_w = np.asarray(fluxes["darcy_w"], dtype=float)
    flux_vals = {"aux_o": ut_o, "aux_w": ut_w, "darcy_o": u_o, "darcy_w": u_w}

    r_t, r_w, own, prev = _cell_terms(window, state, props, wells, model,
                                      rho)
    _add_divergence(window, u_o, u_w, r_t, r_w)
    r_y, r_norm = _rows(window, props, model.fluid, r_t, r_w)

    rows, cols = window.jacobian_blocks()
    k = len(own) + len(prev)
    A = sp.coo_matrix(
        (np.concatenate([own, prev]).ravel(),
         ((2 * rows[:k, None] + np.array([0, 0, 1, 1])).ravel(),
          (2 * cols[:k, None] + np.array([0, 1, 0, 1])).ravel())),
        shape=(n_y, n_y)).tocsr()

    # --- flux blocks --------------------------------------------------
    cl, cr = f.c_left, f.c_right
    fidx = np.arange(nf)
    r_f = np.empty(4 * nf)
    r_f[0::4] = a * ut_o - fc.drive_o
    r_f[1::4] = a * ut_w - fc.drive_w
    r_f[2::4] = u_o - lam_o * ut_o
    r_f[3::4] = u_w - lam_w * ut_w

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
        -ones, ones, fc.dpc_l, -fc.dpc_r,
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
