"""Residual/Jacobian assembly: oracles, conservation identities, reduction."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from mixed_system import assemble, n_dofs, schur_reduce
from stdd.assembly import (CellProperties, ResolvedWells, StateField,
                           linearize)
from stdd.errors import MissingPrevTrace, ZeroPermeability
from stdd.mesh import Subdomain, build_window
from stdd.physics import (BETA_C, BrooksCoreyModel, FluidModel,
                          FluidRockModel)


def model():
    return FluidRockModel(FluidModel(), BrooksCoreyModel())


def uniform_props(n, k=100.0, phi=0.2):
    return CellProperties(phi=np.full(n, phi), kx=np.full(n, k),
                          ky=np.full(n, k))


def line_window(n=4, h=1.0, dt=1.0, delta_t=None):
    s = Subdomain((0.0, 0.0, n * h, h), (h, h), dt)
    return build_window([s], delta_t or dt, (0.0, 0.0, n * h, h))


def nonmatching_window():
    fine = Subdomain((0.0, 0.0, 1.0, 1.0), (0.5, 0.5), 0.5, 1)
    coarse = Subdomain((1.0, 0.0, 2.0, 1.0), (1.0, 1.0), 1.0, 4)
    return build_window([fine, coarse], 1.0, (0.0, 0.0, 2.0, 1.0))


def random_state(window, seed=0):
    rng = np.random.default_rng(seed)
    return StateField(
        p=rng.uniform(900.0, 1100.0, window.n_st),
        s=rng.uniform(0.25, 0.75, window.n_st),
        trace_p=rng.uniform(900.0, 1100.0, window.n_spatial),
        trace_s=rng.uniform(0.25, 0.75, window.n_spatial))


class TestResidualBasics:
    def test_steady_state_zero_residual(self):
        w = line_window(4)
        state = StateField(
            p=np.full(w.n_st, 1000.0), s=np.full(w.n_st, 0.4),
            trace_p=np.full(w.n_spatial, 1000.0),
            trace_s=np.full(w.n_spatial, 0.4))
        sys_ = assemble(w, state, uniform_props(w.n_spatial),
                        ResolvedWells.none(w.n_spatial), model())
        assert np.all(sys_.residual_full == 0.0)

    def test_single_cell_injector_balance(self):
        w = line_window(1)
        m = model()
        state = StateField(
            p=np.array([1000.0]), s=np.array([0.5]),
            trace_p=np.array([1000.0]), trace_s=np.array([0.3]))
        wells = ResolvedWells(inj_w=np.array([2.0]),
                              prod_wi=np.zeros(1), prod_bhp=np.zeros(1))
        sys_ = assemble(w, state, uniform_props(1), wells, m)
        vol = w.cell_vol[0]
        acc = 0.2 * 64.0 * (0.5 - 0.3) * vol
        assert sys_.r_y[1] == pytest.approx(acc - 2.0 * 1.0, rel=1e-14)

    def test_accumulation_hand_value(self):
        # phi=0.2, incompressible rho_w=64, dS=0.1 -> 1.28 per unit volume
        w = line_window(1, h=1.0)
        m = FluidRockModel(FluidModel(c_o=0.0, c_w=0.0), BrooksCoreyModel())
        state = StateField(
            p=np.array([1000.0]), s=np.array([0.5]),
            trace_p=np.array([1000.0]), trace_s=np.array([0.4]))
        sys_ = assemble(w, state, uniform_props(1),
                        ResolvedWells.none(1), m)
        assert sys_.r_y[1] == pytest.approx(1.28 * w.cell_vol[0], rel=1e-13)

    def test_auxiliary_flux_unit_case(self):
        # two 1 ft cells, K = 1 md, unit face measure, dP = 1 psi
        w = line_window(2, h=1.0, dt=1.0)
        state = StateField(
            p=np.array([1001.0, 1000.0]), s=np.array([0.5, 0.5]),
            trace_p=np.array([1001.0, 1000.0]),
            trace_s=np.array([0.5, 0.5]))
        m = FluidRockModel(FluidModel(), BrooksCoreyModel(),
                           use_capillarity=False)
        fluxes = assemble(w, state, uniform_props(2, k=1.0),
                          ResolvedWells.none(2), m).fluxes
        assert fluxes["aux_o"][0] == pytest.approx(BETA_C, rel=1e-13)

    def test_uniform_pressure_zero_flux(self):
        w = nonmatching_window()
        state = StateField(
            p=np.full(w.n_st, 1000.0), s=np.full(w.n_st, 0.5),
            trace_p=np.full(w.n_spatial, 1000.0),
            trace_s=np.full(w.n_spatial, 0.5))
        m = FluidRockModel(FluidModel(), BrooksCoreyModel(),
                           use_capillarity=False)
        fluxes = assemble(w, state, uniform_props(w.n_spatial),
                          ResolvedWells.none(w.n_spatial), m).fluxes
        for arr in fluxes.values():
            assert np.all(arr == 0.0)

    def test_zero_permeability_rejected(self):
        w = line_window(2)
        props = CellProperties(phi=np.full(2, 0.2), kx=np.array([0.0, 1.0]),
                               ky=np.ones(2))
        with pytest.raises(ZeroPermeability):
            assemble(w, random_state(w), props, ResolvedWells.none(2),
                     model())

    def test_missing_trace_rejected(self):
        w = line_window(4)
        with pytest.raises(MissingPrevTrace):
            StateField.from_trace(w, np.zeros(2), np.zeros(2))

    def test_bhp_producer_zero_drawdown(self):
        w = line_window(1)
        wells = ResolvedWells(inj_w=np.zeros(1), prod_wi=np.array([5.0]),
                              prod_bhp=np.array([1000.0]))
        state = StateField(
            p=np.array([1000.0]), s=np.array([0.5]),
            trace_p=np.array([1000.0]), trace_s=np.array([0.5]))
        sys_ = assemble(w, state, uniform_props(1), wells, model())
        assert np.all(sys_.residual_full == 0.0)


class TestConservationIdentities:
    def test_global_telescoping_conforming(self):
        w = line_window(6, delta_t=2.0, dt=1.0)
        state = random_state(w, seed=3)
        sys_ = assemble(w, state, uniform_props(w.n_spatial),
                        ResolvedWells.none(w.n_spatial), model())
        m = model()
        # sum of water rows == total accumulation difference: fluxes cancel
        total = float(np.sum(sys_.r_y[1::2]))
        acc = 0.0
        for c in range(w.n_st):
            prev = w.st_prev[c]
            sp = w.st_spatial[c]
            rw_c = m.density("w", state.p[c])[0]
            if prev < 0:
                rw_p, s_p = m.density("w", state.trace_p[sp])[0], \
                    state.trace_s[sp]
            else:
                rw_p, s_p = m.density("w", state.p[prev])[0], state.s[prev]
            acc += 0.2 * w.cell_vol[sp] * (rw_c * state.s[c] - rw_p * s_p)
        assert total == pytest.approx(acc, rel=1e-12, abs=1e-10)

    def test_global_telescoping_nonmatching(self):
        w = nonmatching_window()
        state = random_state(w, seed=5)
        props = CellProperties(
            phi=np.full(w.n_spatial, 0.2),
            kx=np.random.default_rng(1).uniform(10, 200, w.n_spatial),
            ky=np.random.default_rng(2).uniform(10, 200, w.n_spatial))
        sys_ = assemble(w, state, props, ResolvedWells.none(w.n_spatial),
                        model())
        m = model()
        total = float(np.sum(sys_.r_y[1::2]))
        acc = 0.0
        for c in range(w.n_st):
            prev = w.st_prev[c]
            sp = w.st_spatial[c]
            rw_c = m.density("w", state.p[c])[0]
            if prev < 0:
                rw_p, s_p = m.density("w", state.trace_p[sp])[0], \
                    state.trace_s[sp]
            else:
                rw_p, s_p = m.density("w", state.p[prev])[0], state.s[prev]
            acc += 0.2 * w.cell_vol[sp] * (rw_c * state.s[c] - rw_p * s_p)
        assert total == pytest.approx(acc, rel=1e-12, abs=1e-10)

    def test_interface_bundle_flux_cancels_exactly(self):
        """Each bundle flux DOF enters the coarse divergence row and one fine
        divergence row with equal and opposite unit weights: the coarse face
        flux minus the sum of its fine fluxes is identically zero."""
        w = nonmatching_window()
        assert w.bundles
        state = random_state(w, seed=7)
        sys_ = assemble(w, state, uniform_props(w.n_spatial),
                        ResolvedWells.none(w.n_spatial), model())
        jac = sys_.jacobian_full.tocsc()
        for b in w.bundles:
            for f in b.faces:
                # the coarse st cell is one endpoint of every bundled face
                end = w.faces.c_left[f] if b.coarse_is_left else \
                    w.faces.c_right[f]
                assert end == b.coarse_cell
                for kind in (2, 3):  # phase flux dofs
                    col = jac[:, w.n_y + 4 * f + kind].toarray().ravel()
                    lrow = 2 * w.faces.c_left[f] + (kind - 2)
                    rrow = 2 * w.faces.c_right[f] + (kind - 2)
                    assert col[lrow] + col[rrow] == 0.0


class TestJacobian:
    def test_matches_central_differences(self):
        w = nonmatching_window()
        rng = np.random.default_rng(0)
        props = CellProperties(phi=np.full(w.n_spatial, 0.2),
                               kx=rng.uniform(0.1, 0.5, w.n_spatial),
                               ky=rng.uniform(0.1, 0.5, w.n_spatial))
        wells = ResolvedWells(
            inj_w=np.where(np.arange(w.n_spatial) == 0, 1.0, 0.0),
            prod_wi=np.where(np.arange(w.n_spatial) == w.n_spatial - 1,
                             0.01, 0.0),
            prod_bhp=np.full(w.n_spatial, 1000.0))
        state = random_state(w, seed=0)
        sys0 = assemble(w, state, props, wells, model())
        fx = {k: v.copy() for k, v in sys0.fluxes.items()}
        x0 = _pack(w, state, fx)
        jac = assemble(w, state, props, wells, model(),
                       fluxes=fx).jacobian_full.toarray()

        def res(x):
            st, fl = _unpack(w, x, state)
            return assemble(w, st, props, wells, model(),
                            fluxes=fl).residual_full

        fd = np.zeros_like(jac)
        for j in range(n_dofs(w)):
            h = 1e-6 * max(1.0, abs(x0[j]))
            xp, xm = x0.copy(), x0.copy()
            xp[j] += h
            xm[j] -= h
            fd[:, j] = (res(xp) - res(xm)) / (2 * h)
        denom = np.maximum(1e-12, np.maximum(np.abs(jac), np.abs(fd)))
        assert np.max(np.abs(jac - fd) / denom) <= 1e-6

    def test_column_count_bookkeeping(self):
        w = nonmatching_window()
        sys_ = assemble(w, random_state(w), uniform_props(w.n_spatial),
                        ResolvedWells.none(w.n_spatial), model())
        assert sys_.jacobian_full.shape == (n_dofs(w), n_dofs(w))
        assert n_dofs(w) == 2 * w.n_st + 2 * 2 * w.n_faces

    def test_bit_reproducible(self):
        w = nonmatching_window()
        state = random_state(w, seed=11)
        args = (w, state, uniform_props(w.n_spatial),
                ResolvedWells.none(w.n_spatial), model())
        a = assemble(*args)
        b = assemble(*args)
        assert np.array_equal(a.residual_full, b.residual_full)
        assert (a.jacobian_full != b.jacobian_full).nnz == 0


class TestSchurReduction:
    def test_reduced_matches_dense_unreduced(self):
        w = nonmatching_window()
        assert n_dofs(w) <= 200
        state = random_state(w, seed=2)
        wells = ResolvedWells(
            inj_w=np.where(np.arange(w.n_spatial) == 0, 1.0, 0.0),
            prod_wi=np.where(np.arange(w.n_spatial) == w.n_spatial - 1,
                             0.5, 0.0),
            prod_bhp=np.full(w.n_spatial, 1000.0))
        sys_ = assemble(w, state, uniform_props(w.n_spatial), wells,
                        model())
        full = np.linalg.solve(sys_.jacobian_full.toarray(),
                               -sys_.residual_full)
        red = schur_reduce(sys_)
        dy = spla.spsolve(red.jacobian.tocsc(), -red.residual)
        df = red.back_substitute(dy)
        got = np.concatenate([dy, df])
        scale = np.max(np.abs(full))
        assert np.max(np.abs(got - full)) <= 1e-10 * scale

    def test_single_cell_reduction_is_identity(self):
        w = line_window(1)
        state = random_state(w)
        sys_ = assemble(w, state, uniform_props(1),
                        ResolvedWells.none(1), model())
        red = schur_reduce(sys_)
        assert red.jacobian.shape == (2, 2)
        assert np.allclose(red.jacobian.toarray(),
                           sys_.A.toarray())

    def test_matching_1d_reduced_sparsity_tridiagonal(self):
        w = line_window(5)
        state = random_state(w, seed=4)
        sys_ = assemble(w, state, uniform_props(5),
                        ResolvedWells.none(5), model())
        red = schur_reduce(sys_).jacobian.toarray()
        # block-tridiagonal in space: no coupling beyond nearest neighbor
        for i in range(5):
            for j in range(5):
                if abs(i - j) > 1:
                    blk = red[2 * i:2 * i + 2, 2 * j:2 * j + 2]
                    assert np.all(blk == 0.0)


class TestBackwardEulerEquivalence:
    """On a conforming grid with ratio 1 the reduced system IS the classic
    cell-centered two-phase backward-Euler discretization.  The oracle here
    is an independent, direct implementation of that scheme."""

    def _oracle_residual(self, p, s, pp, sp, h, area, dt, k, phi, vol, m,
                         dz=1.0):
        n = len(p)
        r = np.zeros(2 * n)
        for i in range(n):
            rw_c, _ = m.density("w", p[i])
            ro_c, _ = m.density("o", p[i])
            rw_p, _ = m.density("w", pp[i])
            ro_p, _ = m.density("o", pp[i])
            mw = phi * vol * (rw_c * s[i] - rw_p * sp[i])
            mo = phi * vol * (ro_c * (1 - s[i]) - ro_p * (1 - sp[i]))
            r[2 * i] += mw + mo
            r[2 * i + 1] += mw
        for i in range(n - 1):
            t = 2.0 * BETA_C * area * dt / (h / k[i] + h / k[i + 1])
            ut_o = t * (p[i] - p[i + 1])
            pc_l, _ = m.pc(s[i])
            pc_r, _ = m.pc(s[i + 1])
            ut_w = t * ((p[i] - pc_l) - (p[i + 1] - pc_r))
            lam_o = m.upwind_mobility("o", ut_o, s[i], s[i + 1],
                                      m.density("o", p[i]),
                                      m.density("o", p[i + 1]))[0]
            lam_w = m.upwind_mobility("w", ut_w, s[i], s[i + 1],
                                      m.density("w", p[i]),
                                      m.density("w", p[i + 1]))[0]
            uo, uw = lam_o * ut_o, lam_w * ut_w
            r[2 * i] += uo + uw
            r[2 * i + 2] -= uo + uw
            r[2 * i + 1] += uw
            r[2 * i + 3] -= uw
        return r

    def test_residual_row_for_row(self):
        n, h, dt = 6, 1.0, 1.0
        w = line_window(n, h=h, dt=dt)
        rng = np.random.default_rng(8)
        k = rng.uniform(10.0, 300.0, n)
        props = CellProperties(phi=np.full(n, 0.2), kx=k, ky=k.copy())
        m = model()
        state = random_state(w, seed=8)
        sys_ = assemble(w, state, props, ResolvedWells.none(n), m)
        red = schur_reduce(sys_)
        oracle = self._oracle_residual(
            state.p, state.s, state.trace_p, state.trace_s,
            h, w.faces.area[0], dt, k, 0.2, w.cell_vol[0], m)
        assert np.max(np.abs(red.residual - oracle)) <= \
            1e-11 * max(1.0, np.max(np.abs(oracle)))

    def test_jacobian_row_for_row(self):
        n, h, dt = 5, 1.0, 1.0
        w = line_window(n, h=h, dt=dt)
        rng = np.random.default_rng(9)
        k = rng.uniform(10.0, 300.0, n)
        props = CellProperties(phi=np.full(n, 0.2), kx=k, ky=k.copy())
        m = model()
        state = random_state(w, seed=9)
        sys_ = assemble(w, state, props, ResolvedWells.none(n), m)
        red = schur_reduce(sys_).jacobian.toarray()

        def oracle(x):
            return self._oracle_residual(
                x[0::2], x[1::2], state.trace_p, state.trace_s,
                h, w.faces.area[0], dt, k, 0.2, w.cell_vol[0], m)

        x0 = np.empty(2 * n)
        x0[0::2], x0[1::2] = state.p, state.s
        fd = np.zeros((2 * n, 2 * n))
        for j in range(2 * n):
            hj = 1e-6 * max(1.0, abs(x0[j]))
            xp, xm = x0.copy(), x0.copy()
            xp[j] += hj
            xm[j] -= hj
            fd[:, j] = (oracle(xp) - oracle(xm)) / (2 * hj)
        denom = np.maximum(1e-7, np.maximum(np.abs(red), np.abs(fd)))
        assert np.max(np.abs(red - fd) / denom) <= 1e-5


def fine_box_window():
    """A fine box (h 0.5, dt 0.25) ringed by coarse subdomains (h 1, dt
    0.5) over a 1-day window: four fine and two coarse levels."""
    coarse = [(0.0, 0.0, 2.0, 6.0), (2.0, 0.0, 4.0, 2.0),
              (2.0, 4.0, 4.0, 6.0), (4.0, 0.0, 6.0, 6.0)]
    subs = [Subdomain(r, (1.0, 1.0), 0.5, 4) for r in coarse]
    subs.append(Subdomain((2.0, 2.0, 4.0, 4.0), (0.5, 0.5), 0.25, 1))
    return build_window(subs, 1.0, (0.0, 0.0, 6.0, 6.0))


def time_refined_window():
    """Equal cells on both sides of an interface, dt 1/3 against dt 1."""
    a = Subdomain((0.0, 0.0, 3.0, 2.0), (1.0, 1.0), 1.0 / 3.0)
    b = Subdomain((3.0, 0.0, 6.0, 2.0), (1.0, 1.0), 1.0)
    return build_window([a, b], 1.0, (0.0, 0.0, 6.0, 2.0))


def uniform_window():
    s = Subdomain((0.0, 0.0, 4.0, 3.0), (1.0, 1.0), 0.5)
    return build_window([s], 1.0, (0.0, 0.0, 4.0, 3.0))


MODELS = {
    "capillarity": model,
    "no-capillarity": lambda: FluidRockModel(
        FluidModel(), BrooksCoreyModel(), use_capillarity=False),
    "constant": lambda: FluidRockModel(
        FluidModel(), BrooksCoreyModel(), mobility_model="constant"),
}


class TestDirectJacobian:
    """The face kernel's Jacobian against the oracle's Schur complement."""

    @staticmethod
    def case(window, seed):
        rng = np.random.default_rng(seed)
        n = window.n_spatial
        props = CellProperties(phi=rng.uniform(0.1, 0.3, n),
                               kx=rng.uniform(10.0, 300.0, n),
                               ky=rng.uniform(10.0, 300.0, n))
        wells = ResolvedWells(
            inj_w=np.where(np.arange(n) == 0, 2.0, 0.0),
            prod_wi=np.where(np.arange(n) == n - 1, 0.5, 0.0),
            prod_bhp=np.full(n, 950.0))
        state = random_state(window, seed)
        # cells at the saturation end points, where one phase's mobility
        # and its derivative vanish
        state.s[::5] = 0.2
        state.s[1::7] = 0.8
        return state, props, wells

    @pytest.mark.parametrize("make", [uniform_window, fine_box_window,
                                      time_refined_window, line_window])
    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_matches_schur_complement(self, make, kind):
        w = make()
        m = MODELS[kind]()
        state, props, wells = self.case(w, seed=2)
        red = schur_reduce(assemble(w, state, props, wells, m))
        want = red.jacobian.tocsc()
        want.sort_indices()
        got = linearize(w, state, props, wells, m).jacobian()
        assert got.format == "csc" and got.shape == want.shape
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.max(np.abs(got.data - want.data)) <= \
            1e-12 * np.max(np.abs(want.data))
        assert np.all(got.data != 0.0)

    @pytest.mark.parametrize("make", [uniform_window, fine_box_window,
                                      time_refined_window])
    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_residual_matches_oracle(self, make, kind):
        w = make()
        m = MODELS[kind]()
        state, props, wells = self.case(w, seed=3)
        sys_ = assemble(w, state, props, wells, m)
        red = schur_reduce(sys_)
        got = linearize(w, state, props, wells, m)
        assert np.max(np.abs(got.r_norm - sys_.r_norm)) <= \
            1e-14 * np.max(np.abs(sys_.r_norm))
        assert np.max(np.abs(got.r_y - red.residual)) <= \
            1e-14 * np.max(np.abs(red.residual))

    def test_pattern_built_once_per_window(self):
        w = fine_box_window()
        state, props, wells = self.case(w, seed=1)
        m = model()
        a = linearize(w, state, props, wells, m).jacobian()
        pattern = w.jacobian_pattern
        state.p += 1.0
        b = linearize(w, state, props, wells, m).jacobian()
        assert w.jacobian_pattern is pattern
        assert not np.shares_memory(a.indices, pattern.indices)
        assert not np.shares_memory(a.indices, b.indices)


class TestOrderedPattern:
    """The window's minimum-degree numbering of its Jacobian."""

    @pytest.mark.parametrize("make", [uniform_window, fine_box_window])
    def test_renumbered_jacobian_matches_natural(self, make):
        """Unknown 2k + e of the renumbered Jacobian is unknown
        2 cell_order[k] + e of the natural one, entry for entry."""
        w = make()
        state, props, wells = TestDirectJacobian.case(w, seed=2)
        sys_ = linearize(w, state, props, wells, model())
        order = w.cell_order
        assert np.array_equal(np.sort(order), np.arange(w.n_st))
        u = (2 * order[:, None] + np.arange(2)).ravel()
        want = sys_.jacobian()[u][:, u].tocsc()
        want.sort_indices()
        got = sys_.jacobian(w.ordered_pattern)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)

    @pytest.mark.parametrize("which", ["jacobian_pattern", "ordered_pattern"])
    def test_index_arrays_not_shared(self, which):
        """Every matrix gets its own index arrays: `eliminate_zeros`
        compacts them in place, which must not touch the pattern."""
        w = fine_box_window()
        state, props, wells = TestDirectJacobian.case(w, seed=1)
        pattern = getattr(w, which)
        kept = pattern.indices.copy(), pattern.indptr.copy()
        jacs = [linearize(w, state, props, wells, model()).jacobian(pattern)
                for _ in range(2)]
        for jac in jacs:
            for a in (jac.indices, jac.indptr):
                assert not np.shares_memory(a, pattern.indices)
                assert not np.shares_memory(a, pattern.indptr)
        assert not np.shares_memory(jacs[0].indices, jacs[1].indices)
        assert np.array_equal(pattern.indices, kept[0])
        assert np.array_equal(pattern.indptr, kept[1])


def _pack(w, state, fluxes):
    x = np.empty(n_dofs(w))
    x[0:2 * w.n_st:2] = state.p
    x[1:2 * w.n_st:2] = state.s
    base = 2 * w.n_st
    for k, name in enumerate(("aux_o", "aux_w", "darcy_o", "darcy_w")):
        x[base + k::4] = fluxes[name]
    return x


def _unpack(w, x, template):
    st = StateField(p=x[:2 * w.n_st][0::2].copy(),
                    s=x[:2 * w.n_st][1::2].copy(),
                    trace_p=template.trace_p, trace_s=template.trace_s)
    fl = x[2 * w.n_st:]
    fluxes = {"aux_o": fl[0::4], "aux_w": fl[1::4],
              "darcy_o": fl[2::4], "darcy_w": fl[3::4]}
    return st, fluxes
