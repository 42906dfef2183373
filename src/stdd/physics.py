"""Constitutive closures for slightly compressible oil-water flow.

All property evaluations are pure functions of immutable parameter sets and
return both the value and the analytic derivative needed for Jacobian
assembly.  Field units throughout: ft, day, psi, cP, md, lb/ft^3.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

# Darcy unit-conversion constant, ft^2*cP/(md*psi*day).  Converts
# K[md] * dp/dx [psi/ft] / mu [cP] into a velocity in ft/day.
BETA_C = 6.3283e-3

# Stock-tank barrel to cubic feet.
STB_TO_FT3 = 5.615

# Phase labels used throughout.
OIL, WATER = "o", "w"


def finite_number(v):
    """A finite real number, and not a bool: the check of every number
    setting."""
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and math.isfinite(v))


@dataclass(frozen=True)
class FluidModel:
    """Viscosity, compressibility and reference density per phase."""

    mu_o: float = 3.0       # cP
    mu_w: float = 1.0
    c_o: float = 1.0e-4     # 1/psi
    c_w: float = 3.0e-6
    rho_o_ref: float = 53.0  # lb/ft^3 at p_ref
    rho_w_ref: float = 64.0
    p_ref_o: float = 1000.0  # psi
    p_ref_w: float = 1000.0

    def __post_init__(self):
        if not all(map(finite_number, vars(self).values())):
            raise ValueError("fluid values must be finite numbers")
        if self.mu_o <= 0 or self.mu_w <= 0:
            raise ValueError("viscosities must be positive")
        if self.c_o < 0 or self.c_w < 0:
            raise ValueError("compressibilities must be non-negative")
        if self.rho_o_ref <= 0 or self.rho_w_ref <= 0:
            raise ValueError("reference densities must be positive")

    def density(self, phase, p):
        """rho = rho_ref * exp(c_f * (p - p_ref)); returns (rho, drho/dp)."""
        p = np.asarray(p, dtype=float)
        if phase == OIL:
            cf, rho_ref, p_ref = self.c_o, self.rho_o_ref, self.p_ref_o
        elif phase == WATER:
            cf, rho_ref, p_ref = self.c_w, self.rho_w_ref, self.p_ref_w
        else:
            raise ValueError(f"unknown phase {phase!r}")
        rho = rho_ref * np.exp(cf * (p - p_ref))
        return rho, cf * rho

    def viscosity(self, phase):
        return self.mu_o if phase == OIL else self.mu_w


@dataclass(frozen=True)
class BrooksCoreyModel:
    """Brooks-Corey relative permeability and capillary pressure.

    The capillary curve is singular at S_w = s_wirr; evaluation is
    regularized by flooring the saturation at s_wirr + eps_s, which caps
    p_c at its value there.  Saturations are clamped to the mobile range
    [s_wirr, 1 - s_or] inside the relperm evaluation only.
    """

    s_or: float = 0.2
    s_wirr: float = 0.2
    kr0_o: float = 1.0
    kr0_w: float = 1.0
    n_o: float = 2.0
    n_w: float = 2.0
    p_entry: float = 10.0   # psi
    pc_exp: float = 0.2
    eps_s: float = 1.0e-3

    def __post_init__(self):
        if not all(map(finite_number, vars(self).values())):
            raise ValueError("relcap values must be finite numbers")
        if self.s_or < 0 or self.s_wirr < 0 or self.s_or + self.s_wirr >= 1:
            raise ValueError("residual saturations must satisfy s_or + s_wirr < 1")
        if not (0 < self.kr0_o <= 1 and 0 < self.kr0_w <= 1):
            raise ValueError("endpoint relperms must lie in (0, 1]")
        # below 1 a relperm's slope is infinite at its endpoint
        if self.n_o < 1 or self.n_w < 1:
            raise ValueError("relperm exponents must be at least 1")
        if self.p_entry < 0:
            raise ValueError("entry pressure must be non-negative")
        if self.eps_s <= 0:
            raise ValueError("eps_s must be positive")

    @property
    def span(self):
        # summed before subtraction so the common default span is the
        # closest double to its exact value
        return 1.0 - (self.s_or + self.s_wirr)

    def _se(self, sw):
        sc = np.clip(np.asarray(sw, dtype=float), self.s_wirr,
                     1.0 - self.s_or)
        return np.clip((sc - self.s_wirr) / self.span, 0.0, 1.0)

    def krw(self, sw):
        """Water relative permeability and d/dS_w."""
        sw = np.asarray(sw, dtype=float)
        se = self._se(sw)
        kr = self.kr0_w * se**self.n_w
        dkr = np.where(
            (sw > self.s_wirr) & (sw < 1.0 - self.s_or),
            self.kr0_w * self.n_w * se ** (self.n_w - 1.0) / self.span,
            0.0,
        )
        return kr, dkr

    def kro(self, sw):
        """Oil relative permeability (in S_o = 1 - S_w) and d/dS_w."""
        sw = np.asarray(sw, dtype=float)
        se = self._se(sw)
        kr = self.kr0_o * (1.0 - se)**self.n_o
        dkr = np.where(
            (sw > self.s_wirr) & (sw < 1.0 - self.s_or),
            -self.kr0_o * self.n_o * (1.0 - se) ** (self.n_o - 1.0)
            / self.span,
            0.0,
        )
        return kr, dkr

    def relperm(self, phase, sw):
        return self.kro(sw) if phase == OIL else self.krw(sw)

    def pc(self, sw):
        """Capillary pressure p_o - p_w (psi) and d/dS_w, regularized."""
        sw = np.asarray(sw, dtype=float)
        floor = self.s_wirr + self.eps_s
        se = np.maximum(sw, floor) - self.s_wirr
        val = self.p_entry * ((1.0 - self.s_wirr) / se) ** self.pc_exp
        dval = np.where(sw > floor, -self.pc_exp * val / se, 0.0)
        return val, dval

    @property
    def pc_max(self):
        """Regularization cap: p_c at the floored saturation."""
        return float(self.pc(self.s_wirr)[0])


@dataclass(frozen=True)
class FluidRockModel:
    """All closures needed by assembly, bundled.

    `linear` replaces the Brooks-Corey closure chain by a constant unit
    mobility (lambda* = 1, all derivatives zero, capillarity off), which
    makes the discrete system linear; the solver's tests use it as their
    reference.  `relcap.p_entry = 0` turns capillarity off.
    """

    fluid: FluidModel
    relcap: BrooksCoreyModel
    linear: bool = False

    def density(self, phase, p):
        return self.fluid.density(phase, p)

    def pc(self, sw):
        if self.linear:
            z = np.zeros_like(np.asarray(sw, dtype=float))
            return z, z
        return self.relcap.pc(sw)

    def mobility(self, phase, sw, p):
        """Cell mobility lambda = k_r * rho / mu and partials (d/dS_w, d/dp)."""
        if self.linear:
            sw = np.asarray(sw, dtype=float)
            one = np.ones_like(sw)
            zero = np.zeros_like(sw)
            return one, zero, zero
        kr, dkr = self.relcap.relperm(phase, sw)
        rho, drho = self.fluid.density(phase, p)
        mu = self.fluid.viscosity(phase)
        lam = kr * rho / mu
        return lam, dkr * rho / mu, kr * drho / mu

    def upwind_mobility(self, phase, ut, left, right, sw, rho):
        """Interface mobility: upstream k_r with arithmetic interface density.

        The faces join cells `left` to cells `right`, and `sw` and `rho`,
        the phase's `density` pair (rho, drho/dp), are given per cell:
        k_r is evaluated once per cell and gathered to the faces.  The
        upstream cell is the left one when the auxiliary flux `ut` is
        positive; ties take the right cell.  Returns (lambda*, d/dS_up,
        d/dp_left, d/dp_right, upwind_is_left) per face.
        """
        ut = np.asarray(ut, dtype=float)
        up_left = ut > 0.0
        if self.linear:
            one = np.ones_like(ut)
            zero = np.zeros_like(ut)
            return one, zero, zero, zero, up_left
        kr, dkr = self.relcap.relperm(phase, sw)
        up = np.where(up_left, left, right)
        rho_c, drho_c = rho
        half = 0.5 / self.fluid.viscosity(phase)
        kr_up = kr.take(up)
        rho_face = self.face_density(phase, left, right, rho_c)
        return (rho_face * kr_up, rho_face * dkr.take(up),
                half * drho_c.take(left) * kr_up,
                half * drho_c.take(right) * kr_up, up_left)

    def face_density(self, phase, left, right, rho):
        """Per face, the mean of the per-cell density `rho` of cells
        `left` and `right`, over the phase's viscosity."""
        half = 0.5 / self.fluid.viscosity(phase)
        return half * (rho.take(left) + rho.take(right))


def property_curves(model: FluidRockModel, n: int = 81):
    """Tabulate (S_w, k_rw, k_ro, p_c) over [s_wirr, 1].

    The grid is snapped to 12 decimals so round-number saturations are
    sampled exactly.  Returns an (n, 4) array suitable for CSV export.
    """
    rc = model.relcap
    sw = np.round(np.linspace(rc.s_wirr, 1.0, n), 12)
    krw, _ = rc.krw(sw)
    kro, _ = rc.kro(sw)
    pc, _ = rc.pc(sw)
    return np.column_stack([sw, krw, kro, pc])
