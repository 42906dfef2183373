"""Constitutive closure checks: pinned values, monotonicity, derivatives."""

import numpy as np
import pytest

from stdd.physics import (BETA_C, OIL, STB_TO_FT3, WATER, BrooksCoreyModel,
                          FluidModel, FluidRockModel, property_curves)


@pytest.fixture
def fluid():
    return FluidModel()


@pytest.fixture
def relcap():
    return BrooksCoreyModel()


@pytest.fixture
def model(fluid, relcap):
    return FluidRockModel(fluid, relcap)


class TestDensity:
    def test_reference_point(self, fluid):
        rho, _ = fluid.density(WATER, 1000.0)
        assert rho == 64.0

    def test_oil_compressed(self, fluid):
        rho, _ = fluid.density(OIL, 2000.0)
        assert rho == pytest.approx(53.0 * np.exp(0.1), rel=1e-12)
        assert rho == pytest.approx(58.5741, abs=1e-4)

    def test_incompressible_limit(self):
        f = FluidModel(c_o=0.0, c_w=0.0)
        for p in (0.0, 500.0, 5000.0):
            assert f.density(OIL, p)[0] == 53.0
            assert f.density(WATER, p)[0] == 64.0

    def test_strictly_increasing(self, fluid):
        p = np.linspace(0.0, 5000.0, 200)
        for ph in (OIL, WATER):
            rho, _ = fluid.density(ph, p)
            assert np.all(np.diff(rho) > 0)

    def test_derivative_vs_central_difference(self, fluid):
        h = 1.0e-3
        p = np.linspace(500.0, 2000.0, 50)
        # water compressibility 3e-6 puts the FD roundoff floor near 4e-8
        # at this step size, so only the oil phase can resolve 1e-8
        for ph, tol in ((OIL, 1e-8), (WATER, 1e-7)):
            _, drho = fluid.density(ph, p)
            fd = (fluid.density(ph, p + h)[0]
                  - fluid.density(ph, p - h)[0]) / (2 * h)
            assert np.max(np.abs(drho - fd) / np.abs(fd)) <= tol


class TestRelperm:
    def test_endpoints(self, relcap):
        assert relcap.krw(0.2)[0] == 0.0
        assert relcap.krw(0.8)[0] == 1.0
        assert relcap.kro(0.8)[0] == 0.0
        assert relcap.kro(0.2)[0] == 1.0

    def test_midpoint_exact(self, relcap):
        assert relcap.krw(0.5)[0] == 0.25
        assert relcap.kro(0.5)[0] == 0.25

    def test_clamped_outside_mobile_range(self, relcap):
        assert relcap.krw(0.05)[0] == 0.0
        assert relcap.krw(0.97)[0] == 1.0
        assert relcap.krw(0.05)[1] == 0.0
        assert relcap.kro(0.97)[1] == 0.0

    def test_monotone_and_bounded(self, relcap):
        sw = np.linspace(0.2, 0.8, 301)
        krw, _ = relcap.krw(sw)
        kro, _ = relcap.kro(sw)
        assert np.all(np.diff(krw) >= 0)
        assert np.all(np.diff(kro) <= 0)
        assert np.all((krw >= 0) & (krw <= 1))
        assert np.all((kro >= 0) & (kro <= 1))

    def test_derivatives_vs_central_difference(self, relcap):
        sw = np.linspace(0.25, 0.75, 41)
        h = 1.0e-7
        for fn in (relcap.krw, relcap.kro):
            _, dk = fn(sw)
            fd = (fn(sw + h)[0] - fn(sw - h)[0]) / (2 * h)
            assert np.max(np.abs(dk - fd) / np.maximum(np.abs(fd), 1e-12)) \
                <= 1e-6


class TestCapillary:
    def test_full_saturation_is_entry_pressure(self, relcap):
        assert relcap.pc(1.0)[0] == 10.0

    def test_pinned_value(self, relcap):
        # 10 * (0.8 / 0.4)^0.2 = 10 * 2^0.2
        val, _ = relcap.pc(0.6)
        assert val == pytest.approx(10.0 * 2.0**0.2, rel=1e-12)
        assert val == pytest.approx(11.487, abs=1e-3)

    def test_capped_at_regularized_floor(self, relcap):
        cap = relcap.pc_max
        assert relcap.pc(0.2)[0] == cap
        assert relcap.pc(0.1)[0] == cap
        assert relcap.pc(relcap.s_wirr + relcap.eps_s)[0] == cap

    def test_strictly_decreasing_on_regular_range(self, relcap):
        sw = np.linspace(0.202, 1.0, 200)
        val, dval = relcap.pc(sw)
        assert np.all(np.diff(val) < 0)
        assert np.all(dval < 0)


class TestMobility:
    def test_zero_relperm_zero_mobility(self, model):
        lam, _, _ = model.mobility(WATER, 0.2, 1000.0)
        assert lam == 0.0

    def test_water_midpoint(self, model):
        lam, _, _ = model.mobility(WATER, 0.5, 1000.0)
        assert lam == pytest.approx(16.0, rel=1e-12)

    def test_viscosity_scaling(self, fluid, relcap):
        thick = FluidRockModel(FluidModel(mu_w=2.0), relcap)
        thin = FluidRockModel(FluidModel(mu_w=1.0), relcap)
        for sw in (0.3, 0.5, 0.7):
            assert thick.mobility(WATER, sw, 1200.0)[0] == pytest.approx(
                0.5 * thin.mobility(WATER, sw, 1200.0)[0], rel=1e-14)


def face_upwind(model, phase, ut, s_left, s_right, rho_left, rho_right):
    """`upwind_mobility` of one face from cell 0 to cell 1, whose
    saturations and density pairs are given."""
    rho = tuple(np.array([lv, rv]) for lv, rv in zip(rho_left, rho_right))
    out = model.upwind_mobility(phase, np.array([ut]), np.array([0]),
                                np.array([1]), np.array([s_left, s_right]),
                                rho)
    return [v[0] for v in out]


class TestUpwindMobility:
    def test_positive_flux_takes_left(self, model):
        rho = model.density(WATER, 1000.0)
        lam, *_ = face_upwind(model, WATER, 1.0, 0.5, 0.2, rho, rho)
        assert lam == pytest.approx(64.0 * 0.25, rel=1e-12)

    def test_negative_flux_takes_right(self, model):
        rho = model.density(WATER, 1000.0)
        lam, *_ = face_upwind(model, WATER, -1.0, 0.5, 0.2, rho, rho)
        assert lam == 0.0

    def test_tie_takes_right(self, model):
        rho = model.density(WATER, 1000.0)
        lam, *_, up_left = face_upwind(model, WATER, 0.0, 0.5, 0.2, rho,
                                       rho)
        assert not up_left
        assert lam == 0.0

    def test_equal_states_sign_independent(self, model):
        rho = model.density(OIL, 1100.0)
        a = face_upwind(model, OIL, 3.0, 0.4, 0.4, rho, rho)[0]
        b = face_upwind(model, OIL, -3.0, 0.4, 0.4, rho, rho)[0]
        assert a == b

    def test_depends_on_sign_only(self, model):
        args = (0.6, 0.3, model.density(WATER, 1050.0),
                model.density(WATER, 950.0))
        small = face_upwind(model, WATER, 1e-9, *args)[0]
        large = face_upwind(model, WATER, 1e9, *args)[0]
        assert small == large

    def test_gathers_each_cells_values(self, model):
        """Faces share cells: each face takes its upstream cell's k_r and
        the mean of its two cells' densities."""
        sw = np.array([0.3, 0.5, 0.7])
        p = np.array([900.0, 1000.0, 1100.0])
        left, right = np.array([0, 1, 0]), np.array([1, 2, 2])
        ut = np.array([1.0, -1.0, 0.0])
        rho = model.density(WATER, p)
        lam, dlam, dl, dr, up = model.upwind_mobility(WATER, ut, left,
                                                      right, sw, rho)
        kr, dkr = model.relcap.krw(sw)
        assert up.tolist() == [True, False, False]
        half = 0.5 / model.fluid.mu_w
        for k, c in enumerate([0, 2, 2]):
            mean = half * (rho[0][left[k]] + rho[0][right[k]])
            assert lam[k] == mean * kr[c]
            assert dlam[k] == mean * dkr[c]
            assert dl[k] == half * rho[1][left[k]] * kr[c]
            assert dr[k] == half * rho[1][right[k]] * kr[c]


class TestConstantMobilityModel:
    def test_unit_mobility_no_capillarity(self, fluid, relcap):
        m = FluidRockModel(fluid, relcap, linear=True)
        assert m.linear
        lam, dls, dlp = m.mobility(WATER, 0.5, 1234.0)
        assert (lam, dls, dlp) == (1.0, 0.0, 0.0)
        val, dval = m.pc(0.4)
        assert val == 0.0 and dval == 0.0

    def test_capillarity_switch(self, fluid):
        """A zero entry pressure turns capillarity off, in the run's
        closures and in the printed curves alike."""
        m = FluidRockModel(fluid, BrooksCoreyModel(p_entry=0.0))
        val, dval = m.pc(np.linspace(0.0, 1.0, 11))
        assert np.all(val == 0.0) and np.all(dval == 0.0)
        assert np.all(property_curves(m)[:, 3] == 0.0)


class TestParameterValidation:
    def test_bad_viscosity(self):
        with pytest.raises(ValueError):
            FluidModel(mu_o=0.0)

    def test_bad_residuals(self):
        with pytest.raises(ValueError):
            BrooksCoreyModel(s_or=0.6, s_wirr=0.5)

    @pytest.mark.parametrize("key", ["n_w", "n_o"])
    def test_relperm_exponent_at_least_1(self, key):
        """Below 1 a relperm's slope is infinite at its endpoint; 1 is
        linear and valid."""
        with pytest.raises(ValueError):
            BrooksCoreyModel(**{key: 0.5})
        with pytest.raises(ValueError):
            BrooksCoreyModel(**{key: 1.0 - 1.0e-9})
        m = BrooksCoreyModel(**{key: 1.0})
        for curve in (m.krw, m.kro):
            assert np.all(np.isfinite(curve(np.linspace(0.0, 1.0, 11))))


class TestConstants:
    def test_darcy_constant(self):
        assert BETA_C == 6.3283e-3

    def test_stb_conversion(self):
        assert STB_TO_FT3 == 5.615


class TestPropertyCurves:
    def test_shape_and_span(self, model):
        c = property_curves(model)
        assert c.shape == (81, 4)
        assert c[0, 0] == 0.2 and c[-1, 0] == 1.0

    def test_round_saturations_sampled_exactly(self, model):
        c = property_curves(model)
        sw = c[:, 0]
        assert 0.5 in sw and 1.0 in sw
        row = c[sw == 0.5][0]
        assert row[1] == 0.25 and row[2] == 0.25
        row = c[sw == 1.0][0]
        assert row[1] == 1.0 and row[2] == 0.0 and row[3] == 10.0
