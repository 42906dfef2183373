"""Newton/window marching: convergence behavior, equivalences, the ledger."""

import numpy as np
import pytest
import scipy.sparse as sp

from stdd.assembly import CellProperties, ResolvedWells
from stdd.errors import NonConvergence, SingularMatrix
from stdd.mesh import Subdomain, build_window
from stdd.physics import BrooksCoreyModel, FluidModel, FluidRockModel
from stdd.solver import (NewtonConfig, RunLedger, linear_solve, march,
                         newton_solve_window)


def nonlinear_model():
    return FluidRockModel(FluidModel(), BrooksCoreyModel())


def linear_model():
    # constant unit mobility, no capillarity, incompressible fluids:
    # the residual is exactly linear in (p, s)
    return FluidRockModel(FluidModel(c_o=0.0, c_w=0.0), BrooksCoreyModel(),
                          mobility_model="constant")


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


def strip_window(nx=8, ny=2, h=1.0, dt=1.0, delta_t=1.0, t_start=0.0):
    box = (0.0, 0.0, nx * h, ny * h)
    return build_window([Subdomain(box, (h, h), dt)], delta_t, box,
                        t_start=t_start)


class TestLinearSolve:
    def test_against_dense_oracle(self):
        rng = np.random.default_rng(0)
        n = 100
        a = np.eye(n) + 0.1 * rng.standard_normal((n, n))
        b = rng.standard_normal(n)
        dy = linear_solve(sp.csr_matrix(a), b)
        ref = np.linalg.solve(a, -b)
        assert np.max(np.abs(dy - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_singular_rejected(self):
        a = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(SingularMatrix):
            linear_solve(a, np.array([1.0, 0.0]))

    def test_identity(self):
        r = np.array([3.0, -1.0, 2.0])
        dy = linear_solve(sp.identity(3, format="csr"), r)
        assert np.array_equal(dy, -r)


class TestNewtonWindow:
    def test_constant_mobility_converges_in_one_iteration(self):
        """With unit mobilities and no capillarity the system is linear in
        (p, s): a single Newton update must land within tolerance."""
        w = strip_window()
        n = w.n_spatial
        state, entry = newton_solve_window(
            w, props(n), corner_wells(n), np.full(n, 1000.0),
            np.full(n, 0.3), linear_model(), NewtonConfig())
        assert entry.converged
        assert entry.iterations == 1

    def test_warm_start_takes_zero_iterations(self):
        w = strip_window()
        n = w.n_spatial
        cfg = NewtonConfig(max_iters=30)
        state, entry = newton_solve_window(
            w, props(n), corner_wells(n), np.full(n, 1000.0),
            np.full(n, 0.3), nonlinear_model(), cfg)
        fin = w.final_level_cells()
        # no wells, no flow: the converged steady trace re-solves instantly
        quiet = ResolvedWells.none(n)
        st0, e0 = newton_solve_window(
            w, props(n), quiet, np.full(n, 1000.0), np.full(n, 0.3),
            nonlinear_model(), cfg)
        assert e0.iterations == 0

    def test_norm_sequence_decreases_to_tolerance(self):
        w = strip_window()
        n = w.n_spatial
        _, entry = newton_solve_window(
            w, props(n), corner_wells(n), np.full(n, 1000.0),
            np.full(n, 0.3), nonlinear_model(), NewtonConfig(max_iters=30))
        assert entry.norms[-1] <= 1e-6
        assert entry.norms[0] > entry.norms[-1]

    def test_superlinear_tail(self):
        """Newton's last step on a smooth residual should contract much
        faster than a fixed linear rate."""
        w = strip_window(nx=6, ny=1)
        n = w.n_spatial
        m = FluidRockModel(FluidModel(), BrooksCoreyModel(),
                           use_capillarity=False)
        _, entry = newton_solve_window(
            w, props(n), corner_wells(n, rate=0.02), np.full(n, 1000.0),
            np.full(n, 0.5), m, NewtonConfig(max_iters=30, tol=1e-11))
        tail = [x for x in entry.norms if x > 0][-2:]
        assert tail[1] / tail[0] < 0.02

    def test_nonconvergence_raises_with_stats(self):
        w = strip_window()
        n = w.n_spatial
        with pytest.raises(NonConvergence) as exc:
            newton_solve_window(
                w, props(n), corner_wells(n, rate=1.0), np.full(n, 1000.0),
                np.full(n, 0.25), nonlinear_model(),
                NewtonConfig(max_iters=1))
        assert exc.value.iterations == 1
        assert exc.value.final_norm > 1e-6

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
            w4, pr, wells, np.full(n, 1000.0), np.full(n, 0.3), m, cfg)
        fin = w4.final_level_cells()
        p4, s4 = st4.p[fin], st4.s[fin]

        tp, ts = np.full(n, 1000.0), np.full(n, 0.3)
        for lev in range(4):
            w1 = build_window([Subdomain(box, (1.0, 1.0), dt)], dt, box,
                              t_start=lev * dt)
            st1, _ = newton_solve_window(w1, pr, wells, tp, ts, m, cfg)
            f1 = w1.final_level_cells()
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
        cfg = NewtonConfig(max_iters=60, max_ds=0.05)
        st, entry = newton_solve_window(
            w, props(n), corner_wells(n, rate=0.05), np.full(n, 1000.0),
            np.full(n, 0.2), m, cfg)
        # converged despite the aggressive front; more iterations than the
        # uncapped run, each saturation move bounded
        assert entry.converged
        assert np.all(st.s >= 0.2 - 1e-9)


class FixedController:
    """One decomposition for every window, identity transfer, no escalation."""

    def __init__(self, subdomains):
        self.subdomains = list(subdomains)

    def decomposition(self, window_index, t_start):
        return self.subdomains

    def transfer(self, old_window, final_p, final_s, new_window):
        return final_p, final_s

    def after_window(self, window, state, ledger_entry):
        pass

    def escalate(self, window_index, t_start):
        return None


class TestMarch:
    def _problem(self, nx=8, ny=2, h=1.0):
        box = (0.0, 0.0, nx * h, ny * h)
        n = nx * ny
        ctl = FixedController([Subdomain(box, (h, h), 1.0)])
        m = nonlinear_model()
        return box, n, ctl, m

    def test_window_count_and_partial_final_window(self):
        box, n, ctl, m = self._problem()
        ledger, w, st = march(
            5.0, 2.0, box, ctl, m, lambda w: props(n),
            lambda w: corner_wells(n, rate=0.02),
            lambda w: (np.full(n, 1000.0), np.full(n, 0.3)),
            NewtonConfig(max_iters=40))
        assert len(ledger.entries) == 3          # 2 + 2 + 1 days
        assert ledger.entries[-1].t_end == pytest.approx(5.0)
        assert w.t_end == pytest.approx(5.0)

    def test_cost_metric_accumulates(self):
        box, n, ctl, m = self._problem()
        ledger, _, _ = march(
            4.0, 2.0, box, ctl, m, lambda w: props(n),
            lambda w: corner_wells(n, rate=0.02),
            lambda w: (np.full(n, 1000.0), np.full(n, 0.3)),
            NewtonConfig(max_iters=40))
        manual = sum(e.iterations * e.n_reduced_dofs for e in ledger.entries)
        assert ledger.cost_metric == manual > 0

    def test_bitwise_reproducible(self):
        box, n, ctl, m = self._problem()
        out = []
        for _ in range(2):
            ledger, _, st = march(
                4.0, 2.0, box, ctl, m, lambda w: props(n),
                lambda w: corner_wells(n, rate=0.02),
                lambda w: (np.full(n, 1000.0), np.full(n, 0.3)),
                NewtonConfig(max_iters=40))
            out.append((st.p.copy(), st.s.copy(),
                        [tuple(e.norms) for e in ledger.entries]))
        assert np.array_equal(out[0][0], out[1][0])
        assert np.array_equal(out[0][1], out[1][1])
        assert out[0][2] == out[1][2]

    def test_observer_sees_every_window(self):
        box, n, ctl, m = self._problem()
        seen = []
        march(4.0, 2.0, box, ctl, m, lambda w: props(n),
              lambda w: corner_wells(n, rate=0.02),
              lambda w: (np.full(n, 1000.0), np.full(n, 0.3)),
              NewtonConfig(max_iters=40),
              observer=lambda w, s, e: seen.append(w.window_index))
        assert seen == [0, 1]

    def test_escalation_hook_used_once(self):
        box, n, _, m = self._problem()

        class Escalating(FixedController):
            def __init__(self, subs):
                super().__init__(subs)
                self.calls = 0

            def escalate(self, widx, t):
                self.calls += 1
                return self.subdomains

        ctl = Escalating([Subdomain(box, (1.0, 1.0), 1.0)])
        with pytest.raises(NonConvergence) as exc:
            march(2.0, 2.0, box, ctl, m, lambda w: props(n),
                  lambda w: corner_wells(n, rate=5.0),
                  lambda w: (np.full(n, 1000.0), np.full(n, 0.25)),
                  NewtonConfig(max_iters=2))
        assert ctl.calls == 1
        assert isinstance(exc.value.ledger, RunLedger)

    def test_ledger_iteration_rows_shape(self):
        box, n, ctl, m = self._problem()
        ledger, _, _ = march(
            2.0, 2.0, box, ctl, m, lambda w: props(n),
            lambda w: corner_wells(n, rate=0.02),
            lambda w: (np.full(n, 1000.0), np.full(n, 0.3)),
            NewtonConfig(max_iters=40))
        rows = ledger.iteration_rows()
        assert len(rows) == sum(len(e.norms) for e in ledger.entries)
        assert all(len(r) == 5 for r in rows)


class TestNewtonConfigValidation:
    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            NewtonConfig(tol=0.0)

    def test_bad_iteration_budget(self):
        with pytest.raises(ValueError):
            NewtonConfig(max_iters=0)
