"""Newton and the window loop: convergence behavior, equivalences, the ledger."""

import importlib
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import stdd.solver
import test_assembly
from artifact_readers import read_ledger_csv
from jacobian_oracle import (PlainJacobian, full_jacobian,
                             local_saturations, newton_jacobian,
                             window_jacobian)
from stdd.adaptivity import Thresholds, decompose
from stdd.assembly import (FRONT_KRW_SLOPE, CellProperties, CellSystem,
                           ResolvedWells, StateField, front_saturation_cap,
                           linearize, window_terms)
from stdd.config import preset
from stdd.errors import ConfigError, NonConvergence, SingularMatrix
from stdd.mesh import Subdomain, build_window
from stdd.output import read_grid_csv
from stdd.physics import BrooksCoreyModel, FluidModel, FluidRockModel
from stdd.run import run
from stdd.solver import (COLAMD, MAX_DS, SYMMETRIC, NewtonConfig, RunLedger,
                         chop_saturation, factor_path, linear_solve,
                         newton_solve_window)


def nonlinear_model():
    return FluidRockModel(FluidModel(), BrooksCoreyModel())


def linear_model():
    # constant unit mobility, no capillarity, incompressible fluids:
    # the residual is exactly linear in (p, s)
    return FluidRockModel(FluidModel(c_o=0.0, c_w=0.0), BrooksCoreyModel(),
                          linear=True)


def props(n, k=100.0):
    return CellProperties(phi=np.full(n, 0.2), kx=np.full(n, k),
                          ky=np.full(n, k))


def corner_wells(n, rate=0.05, wi=0.5, bhp=1000.0):
    inj = np.zeros(n)
    inj[0] = rate * 64.0 * 5.615  # STB/day water -> lb/day
    pwi = np.zeros(n)
    pwi[n - 1] = wi
    return ResolvedWells(inj_w=inj, prod_wi=pwi,
                         prod_bhp=np.full(n, bhp))


def strip_window(nx=8, ny=2, h=1.0, dt=1.0, delta_t=1.0):
    box = (0.0, 0.0, nx * h, ny * h)
    return build_window([Subdomain(box, (h, h), dt)], delta_t, box)


class TestLinearSolve:
    def test_against_dense_oracle(self):
        rng = np.random.default_rng(0)
        n = 100
        a = np.eye(n) + 0.1 * rng.standard_normal((n, n))
        b = rng.standard_normal(n)
        dy, _ = linear_solve(PlainJacobian(a), b)
        ref = np.linalg.solve(a, -b)
        assert np.max(np.abs(dy - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_singular_rejected(self):
        a = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(SingularMatrix):
            linear_solve(PlainJacobian(a), np.array([1.0, 0.0]))

    def test_identity(self):
        r = np.array([3.0, -1.0, 2.0])
        dy, _ = linear_solve(PlainJacobian(sp.identity(3)), r)
        assert np.array_equal(dy, -r)

    @pytest.mark.parametrize("make", [test_assembly.uniform_window,
                                      test_assembly.fine_box_window])
    def test_unrelaxed_supernodes_cut_fill(self, make, monkeypatch):
        """The COLAMD LU of a window's natural-numbered Jacobian stores
        less fill than SuperLU's default supernodes and solves to the same
        update."""
        w = make()
        state, props_, wells = test_assembly.TestDirectJacobian.case(w, 2)
        sys_ = linearize(window_terms(w, props_, wells, nonlinear_model()),
                         state)
        assert len(sys_.jacobian().local) == 0
        jac = PlainJacobian(newton_jacobian(sys_))
        lus = []

        class Spla:
            def __getattr__(self, name):
                return getattr(spla, name)

            def splu(self, *args, **kwargs):
                lus.append(spla.splu(*args, **kwargs))
                return lus[-1]

        monkeypatch.setattr(stdd.solver, "spla", Spla())
        dy, _ = linear_solve(jac, sys_.r_y)
        default = spla.splu(jac.matrix)
        ref = default.solve(-sys_.r_y)
        assert len(lus) == 1
        assert lus[0].nnz <= 0.9 * default.nnz
        assert np.max(np.abs(dy - ref)) <= 1e-10 * np.max(np.abs(ref))


class TestLocalElimination:
    """Saturations whose row and column stay in their cell's block are
    eliminated exactly in the Jacobian fill."""

    @staticmethod
    def strip_system(wet=(), dt=1.0, drop=0.0):
        """The first linearization of a strip at irreducible saturation,
        with the cells `wet` at s = 0.6, and a pressure that falls by
        `drop` psi per cell eastward."""
        w = strip_window(dt=dt)
        n = w.n_spatial
        s = np.full(n, 0.2)
        s[list(wet)] = 0.6
        p = 1000.0 - drop * (np.arange(n) % 8)
        state = StateField.from_trace(w, p, s)
        return w, linearize(window_terms(w, props(n), corner_wells(n),
                                         nonlinear_model()), state)

    @staticmethod
    def assembly_system(make, s0=None):
        """A linearization of one of `test_assembly`'s windows at a
        random state, or on a trace at the uniform saturation `s0`."""
        w = make()
        state, props_, wells = test_assembly.TestDirectJacobian.case(w, 2)
        if s0 is not None:
            n = w.n_spatial
            state = StateField.from_trace(w, np.full(n, 1000.0),
                                          np.full(n, s0))
        return w, linearize(window_terms(w, props_, wells,
                                         nonlinear_model()), state)

    CASES = {
        "uniform": lambda: TestLocalElimination.assembly_system(
            test_assembly.uniform_window),
        "fine-box": lambda: TestLocalElimination.assembly_system(
            test_assembly.fine_box_window),
        "strip": lambda: TestLocalElimination.strip_system(),
        "strip-front": lambda: TestLocalElimination.strip_system(
            wet=[0, 5]),
        "strip-flow": lambda: TestLocalElimination.strip_system(
            wet=[0], drop=10.0),
        "two-level": lambda: TestLocalElimination.strip_system(
            wet=[5], dt=0.5),
        "time-refined": lambda: TestLocalElimination.assembly_system(
            test_assembly.time_refined_window, s0=0.2),
    }

    # each case and its count of local saturations
    LOCAL = [("uniform", 0), ("fine-box", 0), ("strip", 16),
             ("strip-front", 9), ("strip-flow", 11), ("two-level", 0),
             ("time-refined", 6)]

    # the small windows on which the minimum-degree cell order fills more
    # than COLAMD's order of the whole system (660 against 506 entries on
    # the two-level strip, 489 against 399 on the time-refined window)
    SYMMETRIC_FILLS_MORE = ("two-level", "time-refined")

    @pytest.mark.parametrize("case, local", LOCAL)
    def test_block_set_matches_csc_oracle(self, case, local):
        """The local set found on the block values is the one the CSC
        structural test finds on the unreduced matrix."""
        w, sys_ = self.CASES[case]()
        s = local_saturations(newton_jacobian(sys_))[0]
        assert np.array_equal(s % 2, np.ones(len(s)))
        jac = sys_.jacobian()
        assert np.array_equal(jac.local, s // 2)
        assert len(jac.local) == local

    def test_zero_pivot_is_kept(self, monkeypatch):
        """A saturation whose diagonal vanishes is not local, as the
        structural test needs a stored pivot."""
        _, sys_ = self.strip_system()
        vals = sys_.newton_blocks.copy()
        vals[3, 4] = 0.0            # cell 4's own (water, s) entry
        monkeypatch.setattr(CellSystem, "newton_blocks",
                            property(lambda self: vals))
        s = local_saturations(newton_jacobian(sys_))[0]
        local = sys_.jacobian().local
        assert np.array_equal(local, s // 2)
        assert len(s) == 15 and 4 not in local

    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("case, local", LOCAL)
    def test_matches_uneliminated_solve(self, case, local, symmetric):
        """On either path, the update agrees with a plain SuperLU solve
        of the whole natural-numbered system.  The factor is no larger than
        COLAMD's of the whole system in the window's numbering, except on
        the symmetric path on the windows of `SYMMETRIC_FILLS_MORE`, and,
        where saturations are eliminated, no larger than the whole
        system's on the same path."""
        w, sys_ = self.CASES[case]()
        jac = sys_.jacobian()
        full = window_jacobian(sys_)
        assert len(jac.local) == local
        assert jac.matrix.shape[0] == w.n_y - local
        path = SYMMETRIC if symmetric else COLAMD
        dy, fill = linear_solve(jac, sys_.r_y, path=path)
        ref = spla.splu(newton_jacobian(sys_)).solve(-sys_.r_y)
        assert np.max(np.abs(dy - ref)) <= 1e-10 * np.max(np.abs(ref))
        if not (symmetric and case in self.SYMMETRIC_FILLS_MORE):
            assert fill <= spla.splu(full, relax=1, panel_size=4).nnz
        if symmetric and local:
            assert fill <= spla.splu(full, **{**path, "panel_size": 4}).nnz

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_reduced_matrix_is_the_oracle_elimination(self, case):
        """The filled matrix is the unreduced one with each local
        saturation's row and column removed and a_ps a_sp / a_ss taken
        off its cell's pressure diagonal, entry for entry, in the window's
        numbering; its stored share is over the pattern's entries in the
        kept rows and columns; the product is with the unreduced
        matrix."""
        w, sys_ = self.CASES[case]()
        full = window_jacobian(sys_).toarray()
        s = local_saturations(sp.csc_matrix(full))[0]
        a_ss, a_ps, a_sp = full[s, s], full[s - 1, s], full[s, s - 1]
        full[s - 1, s - 1] -= a_ps / a_ss * a_sp
        kept = np.setdiff1d(np.arange(w.n_y), s)
        jac = sys_.jacobian()
        assert np.array_equal(jac.unknowns, w.jacobian_pattern.unknowns[kept])
        assert np.array_equal(jac.matrix.toarray(), full[kept][:, kept])
        pat = w.jacobian_pattern
        pattern = sp.csc_matrix(
            (np.ones(pat.nnz), pat.indices, pat.indptr),
            shape=(w.n_y, w.n_y)).toarray()
        assert jac.stored_share == (np.count_nonzero(full[kept][:, kept])
                                    / np.count_nonzero(pattern[kept][:, kept]))
        dy = np.random.default_rng(0).standard_normal(w.n_y)
        want = newton_jacobian(sys_) @ dy
        assert np.allclose(jac._dot(dy), want, rtol=0,
                           atol=1e-13 * np.max(np.abs(want)))

    def test_fill_drops_the_blocks(self):
        """The linearization keeps no blocks, so a caller that keeps it
        keeps only its residual; a second fill computes them afresh into
        the same matrix."""
        _, sys_ = self.strip_system(wet=[0, 5])
        first = sys_.jacobian()
        assert "newton_blocks" not in vars(sys_)
        assert "blocks" not in vars(sys_)
        again = sys_.jacobian()
        assert again.blocks is not first.blocks
        assert np.array_equal(again.blocks, first.blocks)
        assert np.array_equal(first.matrix.toarray(), again.matrix.toarray())

    def test_linked_cells_are_kept(self):
        """A cell with another time level in the window, and a cell on a
        face that carries water, keep their saturation."""
        _, sys_ = self.strip_system(dt=0.5)
        assert len(sys_.jacobian().local) == 0
        # cell 0 is wet: water leaves it across its faces to cells 1 and 8
        _, sys_ = self.strip_system(wet=[0])
        assert np.array_equal(sys_.jacobian().local,
                              np.setdiff1d(np.arange(16), [0, 1, 8]))

    def test_plain_matrix(self):
        """Unknowns 1 and 3 touch only their own blocks; unknown 5's row
        reaches column 0.  The (s, p) entry of unknown 1 is at data
        position 1, its (p, s) entry at 4 and its diagonal at 5."""
        r = np.array([3.0, -1.0, 2.0, 5.0, 1.0, -2.0])
        a = sp.csc_matrix(np.array([[2.0, 1.0, 0.0, 0.0, 0.0, 0.0],
                                    [4.0, 8.0, 0.0, 0.0, 0.0, 0.0],
                                    [1.0, 0.0, 3.0, 0.0, 0.0, 0.0],
                                    [0.0, 0.0, 0.0, 4.0, 0.0, 0.0],
                                    [0.0, 0.0, 0.0, 0.0, 5.0, 1.0],
                                    [1.0, 0.0, 0.0, 0.0, 0.0, 6.0]]))
        s = local_saturations(a)
        assert [x.tolist() for x in s] == [[1, 3], [5, 7], [4, -1], [1, -1]]
        dy, _ = linear_solve(PlainJacobian(a), r)
        assert np.allclose(dy, np.linalg.solve(a.toarray(), -r),
                           rtol=1e-14, atol=0)


class TestNewtonWindow:
    def test_constant_mobility_converges_in_one_iteration(self):
        """With unit mobilities and no capillarity the system is linear in
        (p, s): a single Newton update must land within tolerance."""
        w = strip_window()
        n = w.n_spatial
        state, entry = newton_solve_window(
            window_terms(w, props(n), corner_wells(n), linear_model()),
            np.full(n, 1000.0), np.full(n, 0.3), NewtonConfig())
        assert entry.norms[-1] <= 1e-6
        assert entry.iterations == 1

    def test_warm_start_takes_zero_iterations(self):
        w = strip_window()
        n = w.n_spatial
        cfg = NewtonConfig(max_iters=30)
        state, entry = newton_solve_window(
            window_terms(w, props(n), corner_wells(n), nonlinear_model()),
            np.full(n, 1000.0), np.full(n, 0.3), cfg)
        fin = w.final_level_cells()
        # no wells, no flow: the converged steady trace re-solves instantly
        quiet = ResolvedWells.none(n)
        st0, e0 = newton_solve_window(
            window_terms(w, props(n), quiet, nonlinear_model()),
            np.full(n, 1000.0), np.full(n, 0.3), cfg)
        assert e0.iterations == 0

    def test_norm_sequence_decreases_to_tolerance(self):
        w = strip_window()
        n = w.n_spatial
        _, entry = newton_solve_window(
            window_terms(w, props(n), corner_wells(n), nonlinear_model()),
            np.full(n, 1000.0), np.full(n, 0.3), NewtonConfig(max_iters=30))
        assert entry.norms[-1] <= 1e-6
        assert entry.norms[0] > entry.norms[-1]

    def test_superlinear_tail(self):
        """Newton's last step on a smooth residual should contract much
        faster than a fixed linear rate."""
        w = strip_window(nx=6, ny=1)
        n = w.n_spatial
        m = FluidRockModel(FluidModel(), BrooksCoreyModel(p_entry=0.0))
        _, entry = newton_solve_window(
            window_terms(w, props(n), corner_wells(n, rate=0.02), m),
            np.full(n, 1000.0), np.full(n, 0.5),
            NewtonConfig(max_iters=30, tol=1e-11))
        tail = [x for x in entry.norms if x > 0][-2:]
        assert tail[1] / tail[0] < 0.02

    def test_nonconvergence_raises_with_stats(self):
        w = strip_window()
        n = w.n_spatial
        with pytest.raises(NonConvergence) as exc:
            newton_solve_window(
                window_terms(w, props(n), corner_wells(n, rate=1.0),
                             nonlinear_model()),
                np.full(n, 1000.0), np.full(n, 0.25),
                NewtonConfig(max_iters=1))
        assert exc.value.entry.iterations == 1
        assert exc.value.entry.norms[-1] > 1e-6

    def test_multilevel_window_matches_sequential_steps(self):
        """A 4-level window solved monolithically equals four single-step
        windows solved in sequence (conforming grid, same dt)."""
        nx, ny, dt = 10, 4, 1.0
        box = (0.0, 0.0, float(nx), float(ny))
        n = nx * ny
        cfg = NewtonConfig(max_iters=40, tol=1e-12)
        rng = np.random.default_rng(5)
        k = rng.uniform(50.0, 200.0, n)
        pr = CellProperties(phi=np.full(n, 0.2), kx=k, ky=k.copy())
        m = nonlinear_model()
        wells = corner_wells(n, rate=0.02)

        w4 = build_window([Subdomain(box, (1.0, 1.0), dt)], 4 * dt, box)
        st4, _ = newton_solve_window(
            window_terms(w4, pr, wells, m), np.full(n, 1000.0),
            np.full(n, 0.3), cfg)
        fin = w4.final_level_cells()
        p4, s4 = st4.p[fin], st4.s[fin]

        tp, ts = np.full(n, 1000.0), np.full(n, 0.3)
        w1 = build_window([Subdomain(box, (1.0, 1.0), dt)], dt, box)
        f1 = w1.final_level_cells()
        for _ in range(4):
            st1, _ = newton_solve_window(window_terms(w1, pr, wells, m), tp,
                                         ts, cfg)
            tp, ts = st1.p[f1].copy(), st1.s[f1].copy()

        order = np.lexsort((w4.cell_cx[:n], w4.cell_cy[:n]))
        assert np.max(np.abs(p4 - tp)) <= 1e-8
        assert np.max(np.abs(s4 - ts)) <= 1e-10
        del order

    def test_saturation_chopping_caps_first_update(self):
        w = strip_window(nx=4, ny=1)
        n = w.n_spatial

        class Recorder(FluidRockModel):
            pass

        m = nonlinear_model()
        cfg = NewtonConfig(max_iters=60)
        st, entry = newton_solve_window(
            window_terms(w, props(n), corner_wells(n, rate=0.05), m),
            np.full(n, 1000.0), np.full(n, 0.2), cfg)
        # converged despite the aggressive front; more iterations than the
        # uncapped run, each saturation move bounded
        assert entry.norms[-1] <= 1e-6
        assert np.all(st.s >= 0.2 - 1e-9)

    @staticmethod
    def front_with_recorded_residuals(monkeypatch):
        """Newton on a front entering a strip at irreducible saturation;
        returns its ledger entry and, for every residual it evaluated, the
        state's (p, s) as one vector and the norm."""
        w = strip_window()
        n = w.n_spatial
        evaluated = []
        real = stdd.solver.linearize

        def recording(terms, state):
            sys_ = real(terms, state)
            evaluated.append((np.concatenate([state.p, state.s]),
                              float(np.max(np.abs(sys_.r_norm)))))
            return sys_

        monkeypatch.setattr(stdd.solver, "linearize", recording)
        _, entry = newton_solve_window(
            window_terms(w, props(n), corner_wells(n, rate=0.05),
                         nonlinear_model()),
            np.full(n, 1000.0), np.full(n, 0.2), NewtonConfig())
        assert entry.norms[-1] <= 1e-6
        return entry, evaluated

    def test_each_state_linearized_once(self, monkeypatch):
        """Each iteration linearizes its updated state once, and that
        linearization serves the next iteration."""
        entry, evaluated = self.front_with_recorded_residuals(monkeypatch)
        keys = [v.tobytes() for v, _ in evaluated]
        assert len(set(keys)) == len(keys)
        assert len(evaluated) == entry.iterations + 1


class TestFrontTrustRegion:
    """A front cell, whose k_rw slope Newton's Jacobian floors, rises in
    one step no higher than s_wirr + Δ, where k_rw is twice the slope's
    line; every other cell moves by at most `MAX_DS`."""

    def test_cap_is_where_k_rw_doubles_the_line(self):
        """0.2072 for the defaults; for any n_w > 1, k_rw at the cap is
        twice the front slope's line."""
        assert front_saturation_cap(BrooksCoreyModel()) == pytest.approx(
            0.2072, rel=1e-12)
        rc = BrooksCoreyModel(s_wirr=0.1, s_or=0.3, kr0_w=0.5, n_w=3.0)
        cap = front_saturation_cap(rc)
        assert 0.1 < cap < 0.7
        assert rc.krw(cap)[0] == pytest.approx(
            2.0 * FRONT_KRW_SLOPE * (cap - 0.1), rel=1e-12)
        # span^n_w underflows to 0, and so would Δ: no cap
        assert front_saturation_cap(BrooksCoreyModel(n_w=1e6)) == np.inf

    def test_floored_cell_stops_at_the_cap(self):
        """Front cells 0-3 rise to the cap, stay below it, stay above it
        and fall; cells 4-6, not floored, get the ±MAX_DS clip only."""
        m = nonlinear_model()
        cap = front_saturation_cap(m.relcap)
        s = np.array([0.2, 0.2, 0.5, 0.4, 0.2, 0.3, 0.5])
        ds = np.array([0.3, 0.005, 0.1, -0.1, 0.3, -0.5, 0.05])
        chop_saturation(m, s, ds, np.array([0, 1, 2, 3]))
        np.testing.assert_allclose(
            s, [cap, 0.205, 0.5, 0.3, 0.2 + MAX_DS, 0.3 - MAX_DS, 0.55],
            rtol=0.0, atol=1e-15)
        assert s[0] == cap and s[2] == 0.5

    def test_unfloored_cells_get_the_clip_only(self):
        m = nonlinear_model()
        rng = np.random.default_rng(0)
        s = rng.uniform(0.2, 0.8, 50)
        ds = rng.uniform(-0.5, 0.5, 50)
        got = s.copy()
        chop_saturation(m, got, ds, np.empty(0, dtype=np.intp))
        assert got.tobytes() == (s + np.clip(ds, -MAX_DS, MAX_DS)).tobytes()

    def test_no_cap_for_n_w_1(self):
        """For n_w = 1 there is no cap: a front cell gets the clip only,
        and a front entering the strip converges."""
        m = FluidRockModel(FluidModel(), BrooksCoreyModel(n_w=1.0))
        assert front_saturation_cap(m.relcap) == np.inf
        s = np.array([0.2, 0.4])
        chop_saturation(m, s, np.array([0.3, 0.1]), np.array([0, 1]))
        assert s.tolist() == [0.2 + MAX_DS, 0.4 + 0.1]
        w = strip_window()
        n = w.n_spatial
        terms = window_terms(w, props(n), corner_wells(n), m)
        st, entry = newton_solve_window(
            terms, np.full(n, 1000.0), np.full(n, 0.2), NewtonConfig())
        assert entry.norms[-1] <= 1e-6

    @staticmethod
    def strip_iterations(monkeypatch, relcap, capped):
        """Newton's iterations for a front entering the strip, with the
        cap on or off."""
        with monkeypatch.context() as patch:
            if not capped:
                patch.setattr(stdd.solver, "front_saturation_cap",
                              lambda relcap: np.inf)
            w = strip_window()
            n = w.n_spatial
            m = FluidRockModel(FluidModel(), relcap)
            _, entry = newton_solve_window(
                window_terms(w, props(n), corner_wells(n), m),
                np.full(n, 1000.0), np.full(n, 0.2), NewtonConfig())
        assert entry.norms[-1] <= 1e-6
        return entry.iterations

    @pytest.mark.parametrize("relcap", [
        {"n_w": 1.05}, {"n_w": 1.11}, {"kr0_w": 0.01, "n_w": 1.0001}])
    def test_no_cap_where_delta_leaves_no_range(self, monkeypatch, relcap):
        """Where Δ underflows below s_wirr's last digit (n_w just above
        1) or overflows (k_rw below the doubled line up to Δ > 1e300),
        there is no cap: a cap at s_wirr would hold a front cell there in
        every step.  The strip converges as it does with the cap off."""
        rc = BrooksCoreyModel(**relcap)
        assert front_saturation_cap(rc) == np.inf
        assert (self.strip_iterations(monkeypatch, rc, True)
                == self.strip_iterations(monkeypatch, rc, False))

    @pytest.mark.parametrize("n_w", [1.12, 1.2, 1.5])
    def test_small_cap_moves_the_front(self, monkeypatch, n_w):
        """For n_w between 1 and 2 the cap is a small Δ above s_wirr
        (1.5e-10 at n_w = 1.2), where k_rw is still twice the line; a
        front cell stopped there has left the floored range, so the strip
        converges with at most one iteration more than with the cap
        off."""
        rc = BrooksCoreyModel(n_w=n_w)
        cap = front_saturation_cap(rc)
        assert rc.s_wirr < cap < rc.s_wirr + 1e-4
        assert rc.krw(cap)[0] == pytest.approx(
            2.0 * FRONT_KRW_SLOPE * (cap - rc.s_wirr), rel=1e-6)
        assert rc.krw(cap)[1] > FRONT_KRW_SLOPE
        assert (self.strip_iterations(monkeypatch, rc, True)
                <= self.strip_iterations(monkeypatch, rc, False) + 1)

    def test_constant_mobility_is_unchopped(self):
        s = np.array([0.2, 0.2, 0.9])
        ds = np.array([0.5, -0.7, 0.01])
        want = s + ds
        chop_saturation(linear_model(), s, ds, np.array([0, 1]))
        assert s.tobytes() == want.tobytes()

    def test_newton_caps_each_steps_front_cells(self, monkeypatch):
        """In a front entering a strip, each update keeps the cells that
        its linearization floors at or below max(s, cap), the cap binds
        on some step, and every other cell moves by at most MAX_DS."""
        w = strip_window()
        n = w.n_spatial
        m = nonlinear_model()
        cap = front_saturation_cap(m.relcap)
        seen = []
        real = stdd.solver.linearize

        def recording(terms, state):
            sys_ = real(terms, state)
            seen.append((state.s.copy(), sys_.front_cells))
            return sys_

        monkeypatch.setattr(stdd.solver, "linearize", recording)
        _, entry = newton_solve_window(
            window_terms(w, props(n), corner_wells(n, rate=0.05), m),
            np.full(n, 1000.0), np.full(n, 0.2), NewtonConfig())
        assert entry.norms[-1] <= 1e-6
        bound = 0
        for (s, front), (s_next, _) in zip(seen, seen[1:]):
            assert np.all(s_next[front] <= np.maximum(s[front], cap))
            bound += np.sum((s_next[front] == cap) & (s[front] < cap))
            rest = np.setdiff1d(np.arange(len(s)), front)
            assert np.all(np.abs(s_next[rest] - s[rest]) <= MAX_DS + 1e-15)
        assert bound > 0

    def test_toy_marks_the_same_with_the_cap_off(self, tmp_path,
                                                  monkeypatch):
        """The toy `dynamic-dd` run marks bitwise the identifiers it
        marks with the cap off, ends each window within 1e-6 of it, and
        takes no more iterations."""
        summaries, maps, snaps = {}, {}, {}
        for capped in (True, False):
            with monkeypatch.context() as patch:
                if not capped:
                    patch.setattr(stdd.solver, "front_saturation_cap",
                                  lambda relcap: np.inf)
                predicted = predictions(patch)
                out = tmp_path / str(capped)
                summaries[capped] = run(preset("toy"), out, emit_vtk=False)
            maps[capped] = [m.identifiers for m, _, _ in predicted]
            snaps[capped] = [read_grid_csv(out / s["sw"])
                             for s in summaries[capped]["snapshots"]]
        assert len(maps[True]) == len(maps[False]) == 4
        for a, b in zip(maps[True], maps[False]):
            assert a.tobytes() == b.tobytes()
        assert len(snaps[True]) == len(snaps[False]) == 4
        for a, b in zip(snaps[True], snaps[False]):
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-6)
        assert (summaries[True]["iterations"]
                <= summaries[False]["iterations"])


class TestNewtonTail:
    """A step from a norm within √tol, one quadratic step from tol,
    factors the exact Jacobian (`CellSystem.blocks`) and is chopped by
    the clip only; a step from above it factors the front slope's
    Jacobian (`CellSystem.newton_blocks`) and caps the front cells."""

    @staticmethod
    def steps(monkeypatch):
        """Newton on a front entering the fine box at irreducible
        saturation, whose front cells stay floored into the tail; per
        global step: whether it is a tail step, the linearization, the
        factored `ReducedJacobian`, the residual, the update, the front
        cells that the chop was given, and the saturation before and
        after.  The local steps of the nonlinear elimination, which
        solve and chop fewer cells than the window's, are left out."""
        w = test_assembly.fine_box_window()
        n = w.n_spatial
        terms = window_terms(w, props(n), corner_wells(n, rate=0.05),
                             nonlinear_model())
        systems, solves, chops = [], [], []
        real_linearize = stdd.solver.linearize
        real_solve = stdd.solver.linear_solve
        real_chop = stdd.solver.chop_saturation

        def linearized(terms, state):
            systems.append(real_linearize(terms, state))
            return systems[-1]

        def solved(jacobian, residual, path=COLAMD):
            dy, fill = real_solve(jacobian, residual, path=path)
            if len(residual) == w.n_y:
                solves.append((systems[-1], jacobian, residual, dy))
            return dy, fill

        def chopped(model, s, ds, front):
            before = s.copy()
            real_chop(model, s, ds, front)
            if len(s) == w.n_st:
                chops.append((front.copy(), before, s.copy()))

        monkeypatch.setattr(stdd.solver, "linearize", linearized)
        monkeypatch.setattr(stdd.solver, "linear_solve", solved)
        monkeypatch.setattr(stdd.solver, "chop_saturation", chopped)
        _, entry = newton_solve_window(terms, np.full(n, 1000.0),
                                       np.full(n, 0.2), NewtonConfig())
        assert entry.norms[-1] <= 1e-6
        assert len(solves) == len(chops) == entry.iterations
        tail = [norm <= math.sqrt(NewtonConfig().tol)
                for norm in entry.norms[:-1]]
        assert any(tail) and not all(tail)
        return [(t, *solve, *chop)
                for t, solve, chop in zip(tail, solves, chops)]

    def test_tail_factors_the_exact_blocks(self, monkeypatch):
        """Each step factors the exact blocks within √tol and Newton's
        above it, and the two differ on a tail step: the front cells
        are still floored there."""
        floored_tail = False
        for tail, sys_, jac, *_ in self.steps(monkeypatch):
            # the blocks that the fill dropped are rebuilt on these reads
            want = sys_.blocks if tail else sys_.newton_blocks
            assert np.array_equal(jac.blocks, want)
            floored_tail |= tail and not np.array_equal(
                sys_.blocks, sys_.newton_blocks)
        assert floored_tail

    def test_tail_has_no_front_cap(self, monkeypatch):
        """A tail step gives the chop no front cells and adds the clipped
        update bit for bit; a step above √tol gives it the linearization's
        front cells, which stay at or below max(s, cap)."""
        cap = front_saturation_cap(nonlinear_model().relcap)
        capped = 0
        for tail, sys_, _, _, dy, front, s, s_next in self.steps(
                monkeypatch):
            if tail:
                assert len(front) == 0
                want = s + np.clip(dy[1::2], -MAX_DS, MAX_DS)
                assert s_next.tobytes() == want.tobytes()
            else:
                assert np.array_equal(front, sys_.front_cells)
                assert np.all(s_next[front] <= np.maximum(s[front], cap))
                capped += len(front)
        assert capped > 0

    def test_linear_check_holds_on_both_paths(self, monkeypatch):
        """On either path the update solves the unreduced system of the
        blocks it factored, to `LINEAR_TOL` of the residual's scale."""
        for _, sys_, jac, r, dy, *_ in self.steps(monkeypatch):
            lin = full_jacobian(sys_, jac.blocks) @ dy + r
            assert (np.max(np.abs(lin))
                    <= stdd.solver.LINEAR_TOL * np.max(np.abs(r)))


class TestFactorPath:
    """The symmetric path on swept windows, COLAMD on the others."""

    @pytest.mark.parametrize("make", [test_assembly.uniform_window,
                                      test_assembly.fine_box_window])
    def test_symmetric_solve_matches_colamd(self, make):
        w = make()
        state, props_, wells = test_assembly.TestDirectJacobian.case(w, 2)
        sys_ = linearize(window_terms(w, props_, wells, nonlinear_model()),
                         state)
        jac = sys_.jacobian()
        ref, _ = linear_solve(jac, sys_.r_y, path=COLAMD)
        dy, _ = linear_solve(jac, sys_.r_y, path=SYMMETRIC)
        assert np.max(np.abs(dy - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("make, s0, swept", [
        pytest.param(test_assembly.fine_box_window, 0.2, False,
                     id="0.2-False"),
        pytest.param(strip_window, 0.5, True, id="0.5-True"),
        pytest.param(strip_window, 0.2, True, id="strip-0.2-True")])
    def test_first_jacobian_picks_every_solve_path(self, monkeypatch, make,
                                                   s0, swept):
        """A front entering a multi-level window at irreducible saturation
        stores under half the pattern and has no local saturation:
        COLAMD.  Ahead of the front in a one-level strip every saturation
        is local, and what remains stores all of its pattern; the strip
        at s = 0.5 stores all of it unreduced.  There every solve is
        symmetric.  `factor_path` picks the path from the first Jacobian,
        and Newton hands that same object to every global solve; the
        nonlinear elimination's local solves, on fewer unknowns than the
        window's, take COLAMD."""
        w = make()
        n = w.n_spatial
        trace = np.full(n, 1000.0), np.full(n, s0)
        terms = window_terms(w, props(n), corner_wells(n, rate=0.05),
                             nonlinear_model())
        first = linearize(terms, StateField.from_trace(w, *trace)).jacobian()
        assert (first.stored_share > stdd.solver.SYMMETRIC_MIN_STORED) == swept
        want = SYMMETRIC if swept else COLAMD
        assert factor_path(first) is want
        paths = []
        real = stdd.solver.linear_solve

        def recorded(jacobian, residual, path=COLAMD):
            paths.append((len(residual) == w.n_y, path))
            return real(jacobian, residual, path=path)

        monkeypatch.setattr(stdd.solver, "linear_solve", recorded)
        _, entry = newton_solve_window(terms, *trace, NewtonConfig())
        assert entry.norms[-1] <= 1e-6 and entry.iterations > 1
        assert [g for g, _ in paths].count(True) == entry.iterations
        assert all(path is (want if g else COLAMD) for g, path in paths)

    def test_colamd_solves_match_the_natural_oracle(self, monkeypatch):
        """Each COLAMD-path update of a Newton solve, factored in the
        window's minimum-degree numbering, is the update of the natural
        numbered unreduced Jacobian that it factors to 1e-10 relative:
        Newton's above √tol, the exact one within.  A front entering the
        fine box at irreducible saturation takes both.  The nonlinear
        elimination's local solves, on fewer unknowns than the window's,
        are left out (`TestNonlinearElimination` checks their matrix)."""
        w = test_assembly.fine_box_window()
        assert not np.array_equal(w.jacobian_pattern.unknowns,
                                  np.arange(w.n_y))
        n = w.n_spatial
        trace = np.full(n, 1000.0), np.full(n, 0.2)
        terms = window_terms(w, props(n), corner_wells(n, rate=0.05),
                             nonlinear_model())
        systems, errors, tails = [], [], []
        real_linearize = stdd.solver.linearize
        real_solve = stdd.solver.linear_solve

        def linearized(*a):
            systems.append(real_linearize(*a))
            return systems[-1]

        def solved(jacobian, residual, path=COLAMD):
            assert path is COLAMD
            dy, fill = real_solve(jacobian, residual, path=path)
            if len(residual) < w.n_y:
                return dy, fill
            sys_ = systems[-1]
            tails.append(np.max(np.abs(sys_.r_norm)) <= math.sqrt(1e-6))
            # the blocks that the fill dropped are rebuilt on this read
            factored = (full_jacobian(sys_) if tails[-1]
                        else newton_jacobian(sys_))
            ref = spla.splu(factored).solve(-residual)
            errors.append(np.max(np.abs(dy - ref)) / np.max(np.abs(ref)))
            return dy, fill

        monkeypatch.setattr(stdd.solver, "linearize", linearized)
        monkeypatch.setattr(stdd.solver, "linear_solve", solved)
        _, entry = newton_solve_window(terms, *trace, NewtonConfig())
        assert entry.norms[-1] <= 1e-6
        assert len(errors) == entry.iterations > 1
        assert any(tails) and not all(tails)
        assert max(errors) <= 1e-10


class TestNonlinearElimination:
    """Before a global step from a norm above 1 whose cells above 1% of
    it are at most 5% of the window's, Newton solves those cells and two
    rings of neighbours locally, every other unknown frozen."""

    @staticmethod
    def jump_window(jumped, wells=corner_wells):
        """A 40 x 10 strip with `wells`, and a trace at 1,000 psi but
        1,050 psi on the cells `jumped`, as a transfer onto refined
        cells leaves a few."""
        w = strip_window(nx=40, ny=10)
        n = w.n_spatial
        terms = window_terms(w, props(n), wells(n), nonlinear_model())
        trace_p = np.full(n, 1000.0)
        trace_p[jumped] = 1050.0
        return terms, trace_p, np.full(n, 0.3)

    @staticmethod
    def solve(monkeypatch, terms, trace_p, trace_s, eliminate=True):
        """Newton's state and entry, and the residual length of each
        `linear_solve` it made; without `eliminate`, no local step."""
        if not eliminate:
            monkeypatch.setattr(stdd.solver, "ELIM_MIN_NORM", math.inf)
        lengths = solved_dofs(monkeypatch)
        state, entry = newton_solve_window(terms, trace_p, trace_s,
                                           NewtonConfig())
        monkeypatch.undo()
        return state, entry, lengths

    def test_jump_is_solved_locally_to_the_same_state(self, monkeypatch):
        """Three jumped cells start the window at norm 126 on 11 of its
        400 cells: one local step on them and two rings (40 cells, 80
        unknowns) brings the norm to 0.81, and Newton ends at tol after
        3 global steps against 4, on the state of the solve without
        local steps, to tol."""
        terms, trace_p, trace_s = self.jump_window([84, 85, 124])
        w = terms.window
        start = linearize(terms, StateField.from_trace(w, trace_p, trace_s))
        norm = float(np.max(np.abs(start.r_norm)))
        cells = stdd.solver.elimination_set(start, norm)
        assert norm > 1 and len(cells) == 40
        state, entry, lengths = self.solve(monkeypatch, terms, trace_p,
                                           trace_s)
        plain, plain_entry, plain_lengths = self.solve(
            monkeypatch, terms, trace_p, trace_s, eliminate=False)
        [local] = entry.local
        assert (local.iterations, local.n_reduced_dofs) == (1, 2 * len(cells))
        assert local.norms[0] == norm > 1 >= local.norms[-1]
        assert local.norms[-1] <= entry.norms[0] < 1
        assert (entry.iterations, plain_entry.iterations) == (3, 4)
        assert plain_entry.local == []
        assert entry.norms[-1] <= 1e-6 and plain_entry.norms[-1] <= 1e-6
        # linear_solve is given the set's residual, then the window's
        assert lengths == [2 * len(cells)] + [w.n_y] * 3
        assert plain_lengths == [w.n_y] * 4
        np.testing.assert_allclose(state.s, plain.s, rtol=0, atol=1e-6)
        np.testing.assert_allclose(state.p, plain.p, rtol=0, atol=1e-5)

    def test_set_holds_two_rings(self):
        """The set is the cells above 1% of the norm and every cell within
        two blocks of one, across faces and time levels."""
        w = test_assembly.fine_box_window()
        n = w.n_spatial
        sys_ = linearize(window_terms(w, props(n), ResolvedWells.none(n),
                                      nonlinear_model()),
                         StateField.from_trace(w, np.full(n, 1000.0),
                                               np.full(n, 0.3)))
        sys_.r_norm[:] = 0.0
        c = w.n_st - 1          # a last level with a previous one
        assert w.st_prev[c] >= 0
        sys_.r_norm[2 * c + 1] = 5.0
        graph = full_jacobian(sys_, np.ones((4, len(w.jacobian_blocks[0]))))
        adjacency = (abs(graph[0::2, 0::2]) + abs(graph[0::2, 0::2]).T) > 0
        near = np.zeros(w.n_st, dtype=bool)
        near[c] = True
        for _ in range(2):
            near = (adjacency @ near.astype(float)) > 0
        assert np.array_equal(stdd.solver.elimination_set(sys_, 5.0),
                              np.flatnonzero(near))
        assert w.st_prev[c] in np.flatnonzero(near)

    def test_local_jacobian_is_the_sets_newton_blocks(self):
        """The local matrix is the set's rows and columns of Newton's
        unreduced Jacobian, front slope included: water at 0.6 in the
        first cells flows down a pressure slope into cells at irreducible
        saturation."""
        w = test_assembly.fine_box_window()
        n = w.n_spatial
        s0 = np.full(n, 0.2)
        s0[:4] = 0.6
        sys_ = linearize(window_terms(w, props(n), corner_wells(n, rate=0.05),
                                      nonlinear_model()),
                         StateField.from_trace(w, 1000.0 - np.arange(n), s0))
        assert len(sys_.front_cells)
        assert not np.array_equal(sys_.newton_blocks, sys_.blocks)
        cells = np.arange(0, w.n_st, 3)
        rows = (2 * cells[:, None] + np.arange(2)).ravel()
        want = newton_jacobian(sys_)[rows][:, rows].toarray()
        assert np.array_equal(sys_.local_jacobian(cells).matrix.toarray(),
                              want)

    def test_spread_residual_takes_no_local_step(self, monkeypatch):
        """Jumps on every fourth cell of a strip without wells put the
        norm above 1 on more than 5% of the cells: no local step, and
        every solve is the window's."""
        terms, trace_p, trace_s = self.jump_window(slice(0, None, 4),
                                                   ResolvedWells.none)
        w = terms.window
        start = linearize(terms, StateField.from_trace(w, trace_p, trace_s))
        norm = float(np.max(np.abs(start.r_norm)))
        big = np.maximum(*np.abs(start.r_norm).reshape(-1, 2).T) > 0.01 * norm
        assert norm > 1 and np.count_nonzero(big) > 0.05 * w.n_st
        assert stdd.solver.elimination_set(start, norm) is None
        _, entry, lengths = self.solve(monkeypatch, terms, trace_p, trace_s)
        assert entry.local == [] and entry.norms[-1] <= 1e-6
        assert lengths == [w.n_y] * entry.iterations

    def test_local_solves_are_ledger_entries(self, tmp_path, monkeypatch):
        """The toy's `uniform-fine` run takes local steps: each local
        solve is an entry of `RunLedger.local`, and `all_in_cost`,
        `lu_cost` and `total_wall_ms` count them, while `iterations`,
        `cost_metric` and `ledger.csv` count the global steps."""
        dofs = solved_dofs(monkeypatch)
        fill, _ = factor_fills(monkeypatch)
        ledgers = []
        real = stdd.solver.RunLedger

        def kept():
            ledgers.append(real())
            return ledgers[-1]

        monkeypatch.setattr(run_module, "RunLedger", kept)
        summary = run(replace(preset("toy"), mode="uniform-fine"), tmp_path,
                      emit_vtk=False)
        [ledger] = ledgers
        local = ledger.local
        assert local and all(e.local == [] for e in local)
        n_y = {e.n_reduced_dofs for e in ledger.entries}
        assert all(e.n_reduced_dofs < min(n_y) for e in local)
        assert summary["local_cost"] == sum(
            e.iterations * e.n_reduced_dofs for e in local) > 0
        assert summary["all_in_cost"] == sum(dofs) == (
            summary["cost_metric"] + summary["local_cost"])
        assert summary["lu_cost"] == sum(fill) == sum(
            e.lu_nnz for e in ledger.entries + local)
        assert sum(e.lu_nnz for e in local) > 0
        assert summary["total_wall_ms"] == pytest.approx(
            sum(e.wall_ms for e in ledger.entries + local), rel=1e-12)
        assert summary["iterations"] == sum(
            e.iterations for e in ledger.entries)
        rows = read_ledger_csv(tmp_path / "ledger.csv")
        assert len(rows) == summary["iterations"] + summary["windows"]


run_module = importlib.import_module("stdd.run")


@pytest.fixture(scope="module")
def toy_runs(tmp_path_factory):
    """Two runs of the toy preset (dynamic-dd: predicted maps)."""
    dirs = [tmp_path_factory.mktemp(f"toy{k}") for k in range(2)]
    return [(d, run(preset("toy"), d, emit_vtk=False)) for d in dirs]


def newton_calls(monkeypatch):
    """Per `newton_solve_window` call that `run()` makes from now on, the
    window and the reduced DOFs of each linear solve of that call."""
    dofs = solved_dofs(monkeypatch)
    calls = []
    real = run_module.newton_solve_window

    def recorded(terms, *args, **kwargs):
        start = len(dofs)
        try:
            return real(terms, *args, **kwargs)
        finally:
            calls.append((terms.window, dofs[start:]))

    monkeypatch.setattr(run_module, "newton_solve_window", recorded)
    return calls


class TestMarch:
    """The window loop of `run()`, on the toy preset."""

    def test_window_count_and_partial_final_window(self, toy_runs):
        cfg = preset("toy")
        _, summary = toy_runs[0]
        assert summary["windows"] == round(cfg.horizon / cfg.window_length)
        assert summary["snapshots"][-1]["time"] == pytest.approx(cfg.horizon)
        # no partial final window: such a horizon is rejected up front
        with pytest.raises(ConfigError):
            replace(cfg, horizon=cfg.horizon - 0.5 * cfg.window_length)

    def test_cost_metric_accumulates(self, toy_runs):
        out, summary = toy_runs[0]
        rows = read_ledger_csv(out / "ledger.csv")
        dofs = {r[0]: r[3] for r in rows}
        # a window's rows are its norms: one more than its iterations
        manual = sum(d * (sum(r[0] == w for r in rows) - 1)
                     for w, d in dofs.items())
        assert summary["cost_metric"] == manual > 0

    def test_bitwise_reproducible(self, toy_runs):
        (a, sa), (b, sb) = toy_runs
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            if name.startswith("snap_") or name.startswith("idmap_"):
                assert (a / name).read_bytes() == (b / name).read_bytes()
        norms = [[r[:4] for r in read_ledger_csv(d / "ledger.csv")]
                 for d in (a, b)]
        assert norms[0] == norms[1]
        for key in ("iterations", "cost_metric", "all_in_cost",
                    "mass_balance"):
            assert sa[key] == sb[key]

    def test_observer_sees_every_window(self, toy_runs):
        """One snapshot and one identifier map per window."""
        out, summary = toy_runs[0]
        n = summary["windows"]
        assert [s["index"] for s in summary["snapshots"]] == list(range(n))
        for prefix in ("snap_sw_", "snap_p_", "idmap_"):
            assert sorted(p.name for p in out.glob(prefix + "*.csv")) == [
                f"{prefix}{k:03d}.csv" for k in range(n)]

    def test_escalation_hook_used_once(self, tmp_path, monkeypatch):
        """The failed prediction refines every tile, so the one escalation
        leaves the map as it is: the window is solved once, its global
        steps are the ledger's failed cost and its local solves, on fewer
        unknowns than the window's, its local cost."""
        calls = newton_calls(monkeypatch)
        escalated = []
        real = run_module._escalate

        def recorded(idmap):
            escalated.append((idmap, real(idmap)))
            return escalated[-1][1]

        monkeypatch.setattr(run_module, "_escalate", recorded)
        cfg = replace(preset("toy"), newton={"max_iters": 2})
        with pytest.raises(NonConvergence) as exc:
            run(cfg, tmp_path, emit_vtk=False)
        assert "escalation" not in str(exc.value)
        [(idmap, up)] = escalated
        assert np.all(idmap.identifiers == 1)
        assert np.array_equal(up.identifiers, idmap.identifiers)
        # the predictor's trial solve, then the window's one attempt
        assert len(calls) == 2
        (trial, _), (first, dofs) = calls
        assert {s.identifier for s in first.subdomains} == {1}
        steps = [n for n in dofs if n == first.n_y]
        assert trial is not first and len(steps) == 2
        assert isinstance(exc.value.ledger, RunLedger)
        assert len(exc.value.ledger.failed) == 1
        assert exc.value.ledger.failed_cost == sum(steps) > 0
        assert (exc.value.ledger.costs()["local_cost"]
                == sum(dofs) - sum(steps))
        assert (tmp_path / "FAILED").exists()

    def test_failure_after_escalation_keeps_its_cause(self, tmp_path):
        """The error and the `FAILED` marker name the last attempt's
        iterations and norm, and carry its ledger entry; an all-fine map
        is not escalated, so they do not say "after escalation"."""
        cfg = replace(preset("toy"), newton={"max_iters": 2})
        with pytest.raises(NonConvergence) as exc:
            run(cfg, tmp_path, emit_vtk=False)
        entry = exc.value.entry
        assert [entry] == exc.value.ledger.failed
        assert entry.iterations == 2 and entry.norms[-1] > 1e-6
        marker = (tmp_path / "FAILED").read_text()
        assert marker == f"{exc.value}\n"
        assert marker.startswith("window 0 failed to converge: ")
        assert f"final norm {entry.norms[-1]:.3e}" in marker

    def test_failed_prediction_retried_on_the_escalated_window(
            self, tmp_path, monkeypatch):
        """Window 0's first attempt gets one iteration and fails.  It is
        retried once, on a new window built from the escalated map and
        started from the predicted change; the run completes, and the
        written map is the escalated one."""
        maps = predictions(monkeypatch)
        real = run_module.newton_solve_window
        calls = []          # (window, delta_s) per call

        def flaky(terms, *args, **kwargs):
            calls.append((terms.window, kwargs.get("delta_s")))
            if len(calls) == 2:         # after the predictor's solve
                *args, cfg = args
                args = (*args, replace(cfg, max_iters=1))
            return real(terms, *args, **kwargs)

        monkeypatch.setattr(run_module, "newton_solve_window", flaky)
        cfg = preset("toy")
        summary = run(cfg, tmp_path, emit_vtk=False)
        (trial, _), (first, _), (retry, seed) = calls[:3]
        # the trial and main solve of every window, and one retry
        assert len(calls) == 2 * summary["windows"] + 1
        assert summary["failed_cost"] == first.n_y > 0
        pb = run_module.Problem(cfg)
        predicted = maps[0][0]
        escalated = run_module._escalate(predicted)
        assert first.subdomains == tuple(
            decompose(predicted, pb.tiling, pb.table))
        assert retry.subdomains == tuple(
            decompose(escalated, pb.tiling, pb.table))
        assert {s.identifier for s in first.subdomains} == {1, 2, 4}
        assert {s.identifier for s in retry.subdomains} == {1, 2}
        assert retry is not first and retry is not trial
        assert seed is not None and len(seed) == retry.n_spatial
        written = np.loadtxt(tmp_path / "idmap_000.csv", delimiter=",",
                             skiprows=1, usecols=2)
        assert np.array_equal(written, escalated.identifiers.ravel())

    @pytest.mark.parametrize("mode", ["dynamic-dd", "uniform-fine",
                                      "static-dd"])
    def test_each_decomposition_built_once(self, tmp_path, monkeypatch,
                                           mode):
        """A window is built only when its decomposition differs from the
        current window's, the predictor's all-coarse trial once, and each
        built window is mapped once."""
        calls = newton_calls(monkeypatch)
        built, mapped = [], []
        real_build, real_maps = run_module.build_window, run_module.Problem.maps

        def build(*args, **kwargs):
            built.append(real_build(*args, **kwargs))
            return built[-1]

        def maps(self, window):
            mapped.append(window)
            return real_maps(self, window)

        monkeypatch.setattr(run_module, "build_window", build)
        monkeypatch.setattr(run_module.Problem, "maps", maps)
        summary = run(replace(preset("toy"), mode=mode), tmp_path,
                      emit_vtk=False)
        assert [id(w) for w in mapped] == [id(w) for w in built]
        assert len({w.subdomains for w in built}) == len(built)
        solved = [w for w, _ in calls]
        assert all(any(w is b for b in built) for w in solved)
        if mode == "dynamic-dd":
            trial = built[0]
            assert solved[0::2] == [trial] * summary["windows"]
            solved = solved[1::2]
        assert len(solved) == summary["windows"]
        changes = sum(a is not b for a, b in zip(solved, solved[1:]))
        assert len(built) == (mode == "dynamic-dd") + 1 + changes
        if mode != "dynamic-dd":
            assert len(built) == 1

    def test_fixed_map_never_escalates(self, tmp_path, monkeypatch):
        calls = newton_calls(monkeypatch)
        cfg = replace(preset("toy"), mode="uniform-coarse",
                      newton={"max_iters": 1})
        with pytest.raises(NonConvergence) as exc:
            run(cfg, tmp_path, emit_vtk=False)
        assert "escalation" not in str(exc.value)
        assert len(calls) == 1
        assert exc.value.ledger.failed_cost == sum(calls[0][1]) > 0

    def test_ledger_iteration_rows_shape(self, toy_runs):
        out, summary = toy_runs[0]
        rows = read_ledger_csv(out / "ledger.csv")
        assert len(rows) == summary["iterations"] + summary["windows"]
        assert all(len(r) == 5 for r in rows)

    def test_no_state_linearized_twice(self, tmp_path, monkeypatch):
        """The predictor's warm start is linearized once: its residual
        is the indicator and Newton's first."""
        seen = []           # the terms are kept, so their ids stay apart
        real = stdd.solver.linearize

        def recorded(terms, state):
            seen.append((terms, state.p.tobytes(), state.s.tobytes()))
            return real(terms, state)

        monkeypatch.setattr(stdd.solver, "linearize", recorded)
        monkeypatch.setattr(run_module, "linearize", recorded)
        run(replace(preset("toy"), horizon=4.0), tmp_path, emit_vtk=False)
        keys = [(id(w), p, s) for w, p, s in seen]
        assert len(set(keys)) == len(keys) > 0


def seeded_calls(monkeypatch, fail_predictors=()):
    """Per `newton_solve_window` call that `run()` makes from now on: the
    trace and `delta_s` it was given and the returned state, or None if
    it raised.  The solves of the all-coarse trial whose positions among
    the trial's solves are in `fail_predictors` get one iteration, and
    fail."""
    calls = []
    real = run_module.newton_solve_window

    def recorded(terms, trace_p, trace_s, cfg, *args, **kwargs):
        trial = {s.identifier for s in terms.window.subdomains} == {4}
        if trial and sum(c["trial"] for c in calls) in fail_predictors:
            cfg = replace(cfg, max_iters=1)
        call = {"trial": trial, "trace": (trace_p.copy(), trace_s.copy()),
                "delta_s": kwargs.get("delta_s"), "state": None}
        calls.append(call)
        call["state"], entry = real(terms, trace_p, trace_s, cfg, *args,
                                    **kwargs)
        return call["state"], entry

    monkeypatch.setattr(run_module, "newton_solve_window", recorded)
    return calls


def predictions(monkeypatch, seeded=True, unseeded=None):
    """The (identifier map, entry, change) of every `_predict` call that
    `run()` makes from now on.  Without `seeded`, each predictor starts
    from its trace, as before the predictor took a seed.  Given a list
    `unseeded`, each call also appends to it what `_predict` returns on
    the same inputs without a seed."""
    results = []
    real = run_module._predict

    def recorded(pb, ncfg, terms, prev, final, s_now, seed=None):
        if unseeded is not None:
            unseeded.append(real(pb, ncfg, terms, prev, final, s_now))
        results.append(real(pb, ncfg, terms, prev, final, s_now,
                            seed if seeded else None))
        return results[-1]

    monkeypatch.setattr(run_module, "_predict", recorded)
    return results


def solves_of(monkeypatch, trial_tol=None):
    """(trial, entry) of every converged `newton_solve_window` call that
    `run()` makes from now on; `trial` tells the all-coarse trial's
    solves, which are solved to `trial_tol`, if given, instead."""
    solves = []
    real = run_module.newton_solve_window

    def recorded(terms, trace_p, trace_s, cfg, *args, **kwargs):
        trial = {s.identifier for s in terms.window.subdomains} == {4}
        if trial and trial_tol is not None:
            cfg = replace(cfg, tol=trial_tol)
        state, entry = real(terms, trace_p, trace_s, cfg, *args, **kwargs)
        solves.append((trial, entry))
        return state, entry

    monkeypatch.setattr(run_module, "newton_solve_window", recorded)
    return solves


class TestPredictorTolerance:
    """The predictor is solved to a tenth of the smaller of θ_ΔS and θ_ΔT,
    or to tol if that is larger: its change is read only as tile deltas
    against those thresholds and as a seed that main-window Newton refines
    to tol."""

    TOL = NewtonConfig(**preset("toy").newton).tol

    @staticmethod
    def predictor_tol(cfg):
        theta = Thresholds(**cfg.thresholds)
        return max(NewtonConfig(**cfg.newton).tol,
                   run_module.PREDICTOR_THETA_FRACTION
                   * min(theta.theta_ds, theta.theta_dt))

    def predictor_entries(self, cfg, tmp_path, monkeypatch):
        """The entries `_predict` returns on a run of `cfg`; each ends at
        its first norm at or below the predictor's tolerance, and each
        main window's at or below tol."""
        predicted = predictions(monkeypatch)
        solves = solves_of(monkeypatch)
        run(cfg, tmp_path, emit_vtk=False)
        assert [trial for trial, _ in solves] == [True, False] * 4
        entries = [entry for _, entry, _ in predicted]
        assert len(entries) == 4
        tol = self.predictor_tol(cfg)
        for e in entries:
            assert e.norms[-1] <= tol
            assert all(n > tol for n in e.norms[:-1])
        main = [entry for trial, entry in solves if not trial]
        assert all(e.norms[-1] <= NewtonConfig(**cfg.newton).tol
                   for e in main)
        return entries

    def test_predictor_stops_at_a_tenth_of_theta(self, tmp_path,
                                                  monkeypatch):
        """On the toy, θ_ΔS = θ_ΔT = 0.04 and tol = 1e-6: each predictor
        entry ends at its first norm at or below 0.004, and some above
        tol."""
        cfg = preset("toy")
        assert self.predictor_tol(cfg) == pytest.approx(0.004, rel=1e-12)
        entries = self.predictor_entries(cfg, tmp_path, monkeypatch)
        assert any(e.norms[-1] > self.TOL for e in entries)

    @pytest.mark.parametrize("section, values", [
        ("thresholds", {"theta_ds": 0.0, "theta_dt": 0.0}),
        ("newton", {"tol": 0.01})])
    def test_falls_back_to_tol(self, tmp_path, monkeypatch, section,
                               values):
        """With θ_ΔS = θ_ΔT = 0, or with a tol of 0.01 above 0.004, the
        predictor is solved to tol."""
        cfg = replace(preset("toy"), **{section: values})
        assert self.predictor_tol(cfg) == NewtonConfig(**cfg.newton).tol
        self.predictor_entries(cfg, tmp_path, monkeypatch)

    def test_tol_predictor_marks_the_same(self, tmp_path, monkeypatch):
        """A predictor solved to tol, or to √tol, marks the toy's windows
        bitwise as the one solved to a tenth of θ does, and the main
        windows keep their 31 iterations (cost 66,158); only the
        predictor's cost moves: 672 at tol, 448 at √tol and at θ/10.
        Pinned because the predictor's stop must not reach the marking
        or the main windows."""
        counts, maps = {}, {}
        tols = (None, math.sqrt(self.TOL), self.TOL)
        for trial_tol in tols:
            with monkeypatch.context() as patch:
                predicted = predictions(patch)
                solves_of(patch, trial_tol)
                summary = run(preset("toy"), tmp_path / str(trial_tol),
                              emit_vtk=False)
            counts[trial_tol] = (summary["iterations"],
                                 summary["cost_metric"],
                                 summary["predictor_cost"])
            maps[trial_tol] = [m.identifiers for m, _, _ in predicted]
        assert counts == {None: (31, 66_158, 448),
                          math.sqrt(self.TOL): (31, 66_158, 448),
                          self.TOL: (31, 66_158, 672)}
        for trial_tol in tols:
            assert len(maps[trial_tol]) == 4
            for a, b in zip(maps[None], maps[trial_tol]):
                assert a.tobytes() == b.tobytes()


class TestPredictedSeed:
    """A predicted window's Newton starts from its trace plus the
    predictor's saturation change, linear in time across its levels; a
    predictor after the first starts from its trace plus the previous
    predictor's change."""

    @staticmethod
    def trace(w, seed=0):
        rng = np.random.default_rng(seed)
        n = w.n_spatial
        return 1000.0 + 50.0 * rng.random(n), 0.2 + 0.6 * rng.random(n)

    @pytest.mark.parametrize("make", [test_assembly.uniform_window,
                                      test_assembly.fine_box_window,
                                      test_assembly.time_refined_window])
    def test_zero_change_is_the_trace_start(self, make):
        w = make()
        p, s = self.trace(w)
        plain = StateField.from_trace(w, p, s)
        seeded = StateField.from_trace(w, p, s, np.zeros(w.n_spatial))
        for name in ("p", "s", "trace_p", "trace_s"):
            assert (getattr(seeded, name).tobytes()
                    == getattr(plain, name).tobytes()), name

    def test_each_level_moves_with_its_end_time(self):
        """Coarse cells' two levels end at 1/2 and 1, the fine box's four
        at 1/4 ... 1: each starts at trace + change * t_k / delta_t,
        clipped into [0, 1]."""
        w = test_assembly.fine_box_window()
        p, s = self.trace(w, 1)
        change = np.random.default_rng(2).uniform(-1.0, 1.0, w.n_spatial)
        state = StateField.from_trace(w, p, s, change)
        assert {s_.dt for s_ in w.subdomains} == {0.5, 0.25}
        clipped = 0
        for c in range(w.n_spatial):
            levels = np.flatnonzero(w.st_spatial == c)   # in time order
            n = len(levels)
            assert n in (2, 4)
            for k, st in enumerate(levels, start=1):
                guess = s[c] + change[c] * k / n
                clipped += not 0.0 <= guess <= 1.0
                assert state.s[st] == pytest.approx(
                    min(max(guess, 0.0), 1.0), abs=1e-15)
                assert state.p[st] == p[c]
        assert clipped > 0

    def test_trace_is_kept_bitwise(self):
        w = test_assembly.time_refined_window()
        p, s = self.trace(w, 3)
        state = StateField.from_trace(w, p, s, np.full(w.n_spatial, 0.5))
        assert state.trace_p.tobytes() == p.tobytes()
        assert state.trace_s.tobytes() == s.tobytes()
        fin = w.final_level_cells()
        np.testing.assert_allclose(
            state.s[fin], np.minimum(s[w.st_spatial[fin]] + 0.5, 1.0),
            rtol=0.0, atol=1e-15)

    def test_run_seeds_predictors_and_main_windows(self, tmp_path,
                                                   monkeypatch):
        """On the toy `dynamic-dd` run the first predictor starts from its
        trace and each later one from its trace moved by the previous
        predictor's saturation change, handed on bitwise; each main window
        starts from its transferred trace moved by the mapped change.
        Every converged state keeps its trace bitwise, so accumulation and
        mass see the trace."""
        calls = seeded_calls(monkeypatch)
        predicted = predictions(monkeypatch)
        summary = run(preset("toy"), tmp_path, emit_vtk=False)
        assert [c["trial"] for c in calls] == [True, False] * 4
        for c in calls:
            for given, kept in zip(c["trace"], (c["state"].trace_p,
                                                c["state"].trace_s)):
                assert kept.tobytes() == given.tobytes()
        trials = [c for c in calls if c["trial"]]
        assert trials[0]["delta_s"] is None
        for c, (_, _, change) in zip(trials[1:], predicted):
            assert c["delta_s"].tobytes() == change.tobytes()
        main = [c for c in calls if not c["trial"]]
        assert all(len(c["delta_s"]) == len(c["trace"][1]) for c in main)
        assert any(np.max(np.abs(c["delta_s"])) > 0.01 for c in main)
        assert summary["mass_balance"]["relative_error"] <= 1e-5

    def test_failed_predictor_gives_no_seed(self, tmp_path, monkeypatch):
        """A predictor that raises `NonConvergence` refines every tile and
        hands the window no change: it starts from its trace."""
        cfg = preset("toy")
        pb = run_module.Problem(cfg)
        trial = build_window(
            decompose(pb.constant_idmap(4), pb.tiling, pb.table),
            cfg.window_length, cfg.reservoir, dz=cfg.dz)
        s_now = np.full(pb.base.shape, cfg.initial_saturation)
        _, entry, change = run_module._predict(
            pb, NewtonConfig(max_iters=1), pb.maps(trial), None, None, s_now)
        assert entry.iterations == 1 and change is None

        calls = seeded_calls(monkeypatch, fail_predictors={0})
        summary = run(replace(cfg, horizon=2.0), tmp_path, emit_vtk=False)
        assert [c["trial"] for c in calls] == [True, False]
        assert calls[0]["state"] is None
        assert calls[1]["delta_s"] is None
        assert summary["predictor_cost"] > 0

    def test_failed_predictor_leaves_the_next_unseeded(self, tmp_path,
                                                       monkeypatch):
        """Window 0's predictor fails, so window 1's predictor starts from
        its trace, and window 2's from window 1's predicted change."""
        calls = seeded_calls(monkeypatch, fail_predictors={0})
        predicted = predictions(monkeypatch)
        run(replace(preset("toy"), horizon=6.0), tmp_path, emit_vtk=False)
        trials = [c for c in calls if c["trial"]]
        assert [c["state"] is None for c in trials] == [True, False, False]
        assert predicted[0][2] is None
        assert trials[0]["delta_s"] is None and trials[1]["delta_s"] is None
        assert (trials[2]["delta_s"].tobytes()
                == predicted[1][2].tobytes())

    def test_seed_keeps_the_marking(self, tmp_path, monkeypatch):
        """The toy `dynamic-dd` run marks the same identifiers with the
        predictor's seed as without, and keeps its main windows' 31
        iterations (cost 66,158); the predictor's cost is 448 seeded and
        640 unseeded.  Pinned because the seed may only make the
        predictor cheaper, never move the marking or the main windows.

        Each seeded predictor's indicator η is bitwise the one `_predict`
        gives on the same inputs unseeded.  Across the two runs η agrees
        in every window: bitwise in windows 0 and 1, whose inputs the seed
        does not reach, and within 1e-9 after them, which follow main
        windows started from seeds about √tol apart that both converge to
        tol (3.5e-11 apart in η)."""
        counts = {}
        maps = {}
        unseeded = []
        for seeded in (True, False):
            with monkeypatch.context() as patch:
                predicted = predictions(patch, seeded,
                                        unseeded if seeded else None)
                summary = run(preset("toy"), tmp_path / str(seeded),
                              emit_vtk=False)
            counts[seeded] = (summary["iterations"], summary["cost_metric"],
                              summary["predictor_cost"])
            maps[seeded] = [idmap for idmap, _, _ in predicted]
        assert counts == {True: (31, 66_158, 448), False: (31, 66_158, 640)}
        assert len(maps[True]) == len(maps[False]) == len(unseeded) == 4
        for a, b in zip(maps[True], maps[False]):
            assert a.identifiers.tobytes() == b.identifiers.tobytes()
        for a, (b, _, _) in zip(maps[True], unseeded):
            assert a.eta.tobytes() == b.eta.tobytes()
        for a, b in zip(maps[True][:2], maps[False][:2]):
            assert a.eta.tobytes() == b.eta.tobytes()
        for a, b in zip(maps[True], maps[False]):
            np.testing.assert_allclose(a.eta, b.eta, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("mode, iterations, cost", [
        ("uniform-fine", 97, 77_600), ("uniform-coarse", 21, 672),
        ("static-dd", 46, 147_200)])
    def test_fixed_maps_keep_their_counts(self, tmp_path, monkeypatch, mode,
                                          iterations, cost):
        """Fixed maps have no predictor, so no seed: every solve starts
        from its trace alone.  The toy's counts are pinned because only a
        change to Newton itself may move them."""
        calls = seeded_calls(monkeypatch)
        summary = run(replace(preset("toy"), mode=mode), tmp_path,
                      emit_vtk=False)
        assert all(c["delta_s"] is None for c in calls)
        assert summary["iterations"] == iterations
        assert summary["cost_metric"] == cost


def solved_dofs(monkeypatch):
    """The reduced DOFs of every `linear_solve` made from now on."""
    dofs = []
    real = stdd.solver.linear_solve

    def counted(jacobian, residual, *args, **kwargs):
        dofs.append(len(residual))
        return real(jacobian, residual, *args, **kwargs)

    monkeypatch.setattr(stdd.solver, "linear_solve", counted)
    return dofs


def factor_fills(monkeypatch):
    """SuperLU's stored entries, and the factored matrix's (nnz, order),
    of every factor made from now on."""
    fill, factored = [], []

    class Spla:
        def __getattr__(self, name):
            return getattr(spla, name)

        def splu(self, a, *args, **kwargs):
            lu = spla.splu(a, *args, **kwargs)
            fill.append(lu.nnz)
            factored.append((a.nnz, a.shape[0]))
            return lu

    monkeypatch.setattr(stdd.solver, "spla", Spla())
    return fill, factored


class TestAllInCost:
    def test_counts_every_linear_solve(self, tmp_path, monkeypatch):
        """Each factorization is one `linear_solve` call, through the
        module global, with the full-length residual; its first
        argument's `nnz` is the factored matrix's."""
        dofs = solved_dofs(monkeypatch)
        real = stdd.solver.linear_solve
        given = []          # (jacobian nnz, residual length) per call

        def recorded(jacobian, residual, *args, **kwargs):
            given.append((jacobian.nnz, len(residual)))
            return real(jacobian, residual, *args, **kwargs)

        monkeypatch.setattr(stdd.solver, "linear_solve", recorded)
        fill, factored = factor_fills(monkeypatch)
        summary = run(preset("toy"), tmp_path, emit_vtk=False)
        assert summary["mode"] == "dynamic-dd"
        assert summary["all_in_cost"] == sum(dofs)
        assert summary["all_in_cost"] == (summary["cost_metric"]
                                          + summary["predictor_cost"]
                                          + summary["failed_cost"]
                                          + summary["local_cost"])
        assert summary["predictor_cost"] > 0
        # the factors' stored entries over the same solves
        assert len(fill) == len(dofs)
        assert summary["lu_cost"] == sum(fill) > 0
        assert [nnz for nnz, _ in given] == [nnz for nnz, _ in factored]
        assert [n for _, n in given] == dofs
        # some local saturations were eliminated, and only those
        assert any(m < n for (_, m), n in zip(factored, dofs))

    def test_completed_run_with_a_failed_attempt(self, tmp_path,
                                                 monkeypatch):
        """Window 0's first main attempt gets one iteration and fails;
        its escalation converges.  Every cost, fill and wall of the
        summary is its sum over all the run's solves."""
        dofs = solved_dofs(monkeypatch)
        fill, _ = factor_fills(monkeypatch)
        real = run_module.newton_solve_window
        entries = []        # of every solve, converged or not

        def flaky(*args, **kwargs):
            if len(entries) == 1:       # after the predictor's solve
                *args, cfg = args
                args = (*args, replace(cfg, max_iters=1))
            try:
                result = real(*args, **kwargs)
            except NonConvergence as exc:
                entries.append(exc.entry)
                raise
            entries.append(result[1])
            return result

        monkeypatch.setattr(run_module, "newton_solve_window", flaky)
        summary = run(preset("toy"), tmp_path, emit_vtk=False)
        assert summary["mode"] == "dynamic-dd"
        # the failed attempt's one solve follows the predictor's solves
        assert entries[1].iterations == 1 and entries[1].norms[-1] > 1e-6
        assert summary["failed_cost"] == dofs[entries[0].iterations] > 0
        assert summary["all_in_cost"] == sum(dofs) == (
            summary["cost_metric"] + summary["predictor_cost"]
            + summary["failed_cost"] + summary["local_cost"])
        assert summary["lu_cost"] == sum(fill)
        assert summary["total_wall_ms"] == pytest.approx(
            sum(e.wall_ms for e in entries + [sub for e in entries
                                              for sub in e.local]),
            rel=1e-12)


class TestNewtonConfigValidation:
    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            NewtonConfig(tol=0.0)

    def test_bad_iteration_budget(self):
        with pytest.raises(ValueError):
            NewtonConfig(max_iters=0)


class TestNewtonCounts:
    """Counts that a change to the linear solves must not move.  A change
    to the Jacobian that Newton factors, or to its start, moves them, and
    is re-pinned on purpose.  The nonlinear elimination's local steps are
    not global iterations and do not count here."""

    def test_uniform_fine_first_day(self, tmp_path):
        """The desk `uniform-fine` run's first window (13,200 cells,
        channelized field 7): the benchmark's `uniform-fine` workload
        starts with it.  It takes 8 iterations (cost 211,200) and local
        solves of cost 1,944."""
        cfg = replace(preset("uniform-fine"), horizon=1.0)
        assert cfg.permeability == {"kind": "channelized", "seed": 7}
        summary = run(cfg, tmp_path, emit_vtk=False)
        assert summary["windows"] == 1
        assert summary["iterations"] == 8
        assert summary["cost_metric"] == 211_200
        assert summary["local_cost"] == 1_944

    @staticmethod
    def dynamic_dd_prefix(tmp_path, seed):
        cfg = preset("dynamic-dd")
        cfg = replace(cfg, horizon=8.0,
                      permeability=dict(cfg.permeability, seed=seed))
        summary = run(cfg, tmp_path, emit_vtk=False)
        assert summary["windows"] == 4
        assert summary["failed_cost"] == 0
        return (summary["iterations"], summary["cost_metric"],
                summary["predictor_cost"])

    def test_dynamic_dd_prefix(self, tmp_path):
        """The benchmark's 8-day `dynamic-dd` prefix on field 7, the
        preset's own: its main windows take 37 iterations (cost 172,922)
        and its predictors cost 12,672.  Each main window starts from its
        trace plus the predictor's saturation change, and each predictor
        after the first from its trace plus the previous predictor's
        change, solved to a tenth of θ."""
        assert preset("dynamic-dd").permeability == {"kind": "channelized",
                                                     "seed": 7}
        assert self.dynamic_dd_prefix(tmp_path, 7) == (37, 172_922, 12_672)

    def test_dynamic_dd_prefix_field_4(self, tmp_path):
        """The benchmark's other `dynamic-dd` field: its main windows
        take 37 iterations (cost 170,088) and its predictors cost
        12,672."""
        assert self.dynamic_dd_prefix(tmp_path, 4) == (37, 170_088, 12_672)


# The 8-day `dynamic-dd` prefix's main-window iterations on channelized
# seeds 0-9 (355 in all), pinned so that a change to Newton on fields
# beyond the benchmark's two shows
PREFIX_ITERATIONS = (36, 41, 41, 27, 37, 26, 28, 37, 47, 35)


class TestChannelizedPrefix:
    """The 8-day `dynamic-dd` prefix on channelized seeds 0-9 converges
    without a failed attempt in `PREFIX_ITERATIONS`' main-window counts:
    window 0 of seeds 2, 3 and 5 is the hardest start among them."""

    @pytest.mark.parametrize("seed", range(10))
    def test_converges_without_a_failed_attempt(self, tmp_path, seed):
        cfg = preset("dynamic-dd")
        cfg = replace(cfg, horizon=8.0,
                      permeability=dict(cfg.permeability, seed=seed))
        summary = run(cfg, tmp_path, emit_vtk=False)
        assert summary["windows"] == 4
        assert summary["failed_cost"] == 0
        assert summary["iterations"] == PREFIX_ITERATIONS[seed]
