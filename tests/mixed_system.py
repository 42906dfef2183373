"""The expanded mixed system: the oracle of the exactness tests.

Unknown layout over a window: the conservation block ``y`` (per
space-time cell ``c``, row/column ``2c`` is the total-mass equation /
oil-pressure unknown and ``2c + 1`` the water-mass equation /
water-saturation unknown), then the flux block: per face, four
rows/columns in the order (aux_o, aux_w, darcy_o, darcy_w) holding the
pressure-gradient fluxes and the Darcy fluxes of each phase.

`assemble` builds the four blocks and `schur_reduce` eliminates the flux
block by sparse products, independently of the closed-form face kernel
of `stdd.assembly.CellSystem.jacobian`.  The cell terms and the window
terms are shared with the program.  The face closure is evaluated face
by face here (`face_closure`, `upwind_mobility`), where the program
evaluates each closure once per cell and gathers it to the faces;
`face_wise_linearize` is the program's linearization on this closure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from stdd.assembly import (CellSystem, _add_divergence, _cell_terms,
                           _densities, _FaceClosure, _rows, window_terms)
from stdd.errors import SingularFluxBlock
from stdd.mesh import SpaceTimeWindow
from stdd.physics import OIL, WATER


def upwind_mobility(model, phase, ut, s_left, s_right, rho_left, rho_right):
    """`FluidRockModel.upwind_mobility` face by face: k_r of the upstream
    saturation, with the phase's density pairs of the two cells."""
    ut = np.asarray(ut, dtype=float)
    up_left = ut > 0.0
    if model.linear:
        one = np.ones_like(ut)
        zero = np.zeros_like(ut)
        return one, zero, zero, zero, up_left
    s_up = np.where(up_left, s_left, s_right)
    kr, dkr = model.relcap.relperm(phase, s_up)
    rho_l, drho_l = rho_left
    rho_r, drho_r = rho_right
    half = 0.5 / model.fluid.viscosity(phase)
    lam = half * (rho_l + rho_r) * kr
    return (lam, half * (rho_l + rho_r) * dkr, half * drho_l * kr,
            half * drho_r * kr, up_left)


def face_upwind(terms, state, rho, phase, ut):
    """`upwind_mobility` of every face of the window of `terms`."""
    f = terms.window.faces
    r, dr = rho[phase]
    return upwind_mobility(terms.model, phase, ut, state.s[f.c_left],
                           state.s[f.c_right], (r[f.c_left], dr[f.c_left]),
                           (r[f.c_right], dr[f.c_right]))


def face_closure(terms, state, rho):
    """The program's `_FaceClosure` with `pc` evaluated on each face's
    two cells and `upwind_mobility` face by face."""
    f, model = terms.window.faces, terms.model
    pl, pr = state.p[f.c_left], state.p[f.c_right]
    pc_l, dpc_l = model.pc(state.s[f.c_left])
    pc_r, dpc_r = model.pc(state.s[f.c_right])
    drive_o = pl - pr
    drive_w = (pl - pc_l) - (pr - pc_r)
    ut_o = drive_o / terms.a
    ut_w = drive_w / terms.a
    return _FaceClosure(drive_o, drive_w, dpc_l, dpc_r, ut_o, ut_w,
                        face_upwind(terms, state, rho, OIL, ut_o),
                        face_upwind(terms, state, rho, WATER, ut_w))


def face_wise_linearize(terms, state):
    """`stdd.assembly.linearize` on the face-wise `face_closure`."""
    rho = _densities(terms.model.fluid, state.p)
    fc = face_closure(terms, state, rho)
    r_t, r_w, own, prev = _cell_terms(terms, state, rho)
    _add_divergence(terms.window, fc.oil[0] * fc.ut_o, fc.water[0] * fc.ut_w,
                    r_t, r_w)
    r_y, r_norm = _rows(terms, r_t, r_w)
    return CellSystem(terms, r_y, r_norm, own, prev, fc, rho[WATER][0])


def n_dofs(window):
    """Unknowns of the expanded system: two per cell, four per face."""
    return window.n_y + 4 * window.n_faces


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
    linearize at an arbitrary full-system point.  The upwind side of each
    phase then follows the given auxiliary flux.
    """
    f = window.faces
    nf = window.n_faces
    n_y = window.n_y
    terms = window_terms(window, props, wells, model)
    rho = _densities(model.fluid, state.p)
    fc = face_closure(terms, state, rho)
    a, ut_o, ut_w, oil, water = terms.a, fc.ut_o, fc.ut_w, fc.oil, fc.water
    if fluxes is not None:
        ut_o = np.asarray(fluxes["aux_o"], dtype=float)
        ut_w = np.asarray(fluxes["aux_w"], dtype=float)
        oil = face_upwind(terms, state, rho, OIL, ut_o)
        water = face_upwind(terms, state, rho, WATER, ut_w)
    lam_o, dlam_o_ds, dlam_o_dpl, dlam_o_dpr, up_o = oil
    lam_w, dlam_w_ds, dlam_w_dpl, dlam_w_dpr, up_w = water
    if fluxes is None:
        u_o = lam_o * ut_o
        u_w = lam_w * ut_w
    else:
        u_o = np.asarray(fluxes["darcy_o"], dtype=float)
        u_w = np.asarray(fluxes["darcy_w"], dtype=float)
    flux_vals = {"aux_o": ut_o, "aux_w": ut_w, "darcy_o": u_o, "darcy_w": u_w}

    r_t, r_w, own, prev = _cell_terms(terms, state, rho)
    _add_divergence(window, u_o, u_w, r_t, r_w)
    r_y, r_norm = _rows(terms, r_t, r_w)

    rows, cols = window.jacobian_blocks
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
