"""Newton and the window loop: convergence behavior, equivalences, the ledger."""

import importlib
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import stdd.solver
import test_assembly
from artifact_readers import read_ledger_csv
from stdd.assembly import (CellProperties, ResolvedWells, StateField,
                           linearize)
from stdd.config import preset
from stdd.errors import ConfigError, NonConvergence, SingularMatrix
from stdd.mesh import Subdomain, build_window
from stdd.physics import BrooksCoreyModel, FluidModel, FluidRockModel
from stdd.run import run
from stdd.solver import (MAX_HALVINGS, NewtonConfig, RunLedger,
                         linear_solve, newton_solve_window)


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

    @pytest.mark.parametrize("make", [test_assembly.uniform_window,
                                      test_assembly.fine_box_window])
    def test_unrelaxed_supernodes_cut_fill(self, make, monkeypatch):
        """The LU of a window's Newton Jacobian stores less fill than
        SuperLU's default supernodes and solves to the same update."""
        w = make()
        state, props_, wells = test_assembly.TestDirectJacobian.case(w, 2)
        sys_ = linearize(w, state, props_, wells, nonlinear_model())
        jac = sys_.jacobian()
        lus = []

        class Spla:
            def __getattr__(self, name):
                return getattr(spla, name)

            def splu(self, *args, **kwargs):
                lus.append(spla.splu(*args, **kwargs))
                return lus[-1]

        monkeypatch.setattr(stdd.solver, "spla", Spla())
        dy = linear_solve(jac, sys_.r_y)
        default = spla.splu(jac)
        ref = default.solve(-sys_.r_y)
        assert len(lus) == 1
        assert lus[0].nnz <= 0.9 * default.nnz
        assert np.max(np.abs(dy - ref)) <= 1e-10 * np.max(np.abs(ref))


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

    @staticmethod
    def front_with_recorded_residuals(monkeypatch, damping):
        """Newton on a front entering a strip at irreducible saturation;
        returns its ledger entry and, for every residual it evaluated, the
        state's (p, s) as one vector and the norm."""
        w = strip_window()
        n = w.n_spatial
        evaluated = []
        real = stdd.solver.linearize

        def recording(window, state, *args):
            sys_ = real(window, state, *args)
            evaluated.append((np.concatenate([state.p, state.s]),
                              float(np.max(np.abs(sys_.r_norm)))))
            return sys_

        monkeypatch.setattr(stdd.solver, "linearize", recording)
        _, entry = newton_solve_window(
            w, props(n), corner_wells(n, rate=0.05), np.full(n, 1000.0),
            np.full(n, 0.2), nonlinear_model(), NewtonConfig(damping=damping))
        assert entry.converged
        return entry, evaluated

    def test_damping_accepts_descent_or_shortest_step(self, monkeypatch):
        """With `damping`, Newton converges on the front, and every step it
        takes either lowers the norm or is the shortest one (MAX_HALVINGS
        halvings)."""
        entry, evaluated = self.front_with_recorded_residuals(monkeypatch,
                                                              True)
        # after the first, every residual is a trial x + 2**-j * d of the
        # iterate x; a trial off the current step's line starts the next
        # step from the last trial, which that step accepted
        x, norm = evaluated[0]
        steps = []               # per step: iterate norm, trial norms
        full = last = None
        for v, tnorm in evaluated[1:]:
            if full is not None and np.allclose(
                    v - x, (full - x) * 0.5 ** len(steps[-1][1]),
                    rtol=1e-9, atol=1e-9):
                steps[-1][1].append(tnorm)
                last = v
                continue
            if full is not None:
                x, norm = last, steps[-1][1][-1]
            full = last = v
            steps.append((norm, [tnorm]))
        assert [n for n, _ in steps] + [steps[-1][1][-1]] == entry.norms
        # one linearization per trial, none for an accepted iterate
        assert len(evaluated) == 1 + sum(len(t) for _, t in steps)
        for norm, trials in steps:
            assert 1 <= len(trials) <= MAX_HALVINGS + 1
            assert all(t > norm for t in trials[:-1])
            assert trials[-1] <= norm or len(trials) == MAX_HALVINGS + 1
        # the case exercises both halving and the shortest step
        assert any(len(t) > 1 for _, t in steps)
        assert any(len(t) == MAX_HALVINGS + 1 for _, t in steps)

    @pytest.mark.parametrize("damping", [False, True])
    def test_each_state_linearized_once(self, monkeypatch, damping):
        """An accepted line-search trial's linearization serves the next
        iteration, so no state is linearized twice."""
        entry, evaluated = self.front_with_recorded_residuals(monkeypatch,
                                                              damping)
        keys = [v.tobytes() for v, _ in evaluated]
        assert len(set(keys)) == len(keys)
        if not damping:
            assert len(evaluated) == entry.iterations + 1


class TestFactorPath:
    """The symmetric path on swept windows, COLAMD on the others."""

    @pytest.mark.parametrize("make", [test_assembly.uniform_window,
                                      test_assembly.fine_box_window])
    def test_symmetric_solve_matches_colamd(self, make):
        w = make()
        state, props_, wells = test_assembly.TestDirectJacobian.case(w, 2)
        sys_ = linearize(w, state, props_, wells, nonlinear_model())
        ref = linear_solve(sys_.jacobian(), sys_.r_y)
        u = (2 * w.cell_order[:, None] + np.arange(2)).ravel()
        dy = np.empty_like(ref)
        dy[u] = linear_solve(sys_.jacobian(w.ordered_pattern), sys_.r_y[u],
                             symmetric=True)
        assert np.max(np.abs(dy - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("s0, swept", [(0.2, False), (0.5, True)])
    def test_first_jacobian_picks_every_solve_path(self, monkeypatch, s0,
                                                   swept):
        """A front entering a strip at irreducible saturation stores under
        half the pattern: COLAMD, and no cell order is built.  The strip
        at s = 0.5 stores all of it: every solve is symmetric."""
        w = strip_window()
        n = w.n_spatial
        trace = np.full(n, 1000.0), np.full(n, s0)
        args = props(n), corner_wells(n, rate=0.05)
        first = linearize(w, StateField.from_trace(w, *trace), *args,
                          nonlinear_model()).jacobian()
        assert (first.nnz > stdd.solver.SYMMETRIC_MIN_STORED
                * w.jacobian_pattern.nnz) == swept
        paths = []
        real = stdd.solver.linear_solve

        def recorded(jacobian, residual, symmetric=False, **kwargs):
            paths.append(symmetric)
            return real(jacobian, residual, symmetric=symmetric, **kwargs)

        monkeypatch.setattr(stdd.solver, "linear_solve", recorded)
        _, entry = newton_solve_window(w, *args, *trace, nonlinear_model(),
                                       NewtonConfig())
        assert entry.converged and entry.iterations > 1
        assert paths == [swept] * entry.iterations
        assert ("cell_order" in vars(w)) == swept


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

    def recorded(window, *args):
        start = len(dofs)
        try:
            return real(window, *args)
        finally:
            calls.append((window, dofs[start:]))

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
        """A predicted map that fails is promoted once, and the solves of
        both failed attempts are the ledger's failed cost."""
        calls = newton_calls(monkeypatch)
        cfg = replace(preset("toy"), newton={"max_iters": 2})
        with pytest.raises(NonConvergence, match="after escalation") as exc:
            run(cfg, tmp_path, emit_vtk=False)
        # the predictor's trial solve, then the window's two attempts
        assert len(calls) == 3
        attempts = calls[1:]
        assert all(w.window_index == 0 and w.t_start == 0.0
                   for w, _ in attempts)
        assert all(len(d) == 2 for _, d in attempts)
        assert isinstance(exc.value.ledger, RunLedger)
        assert exc.value.ledger.failed_cost == sum(
            sum(d) for _, d in attempts) > 0
        assert (tmp_path / "FAILED").exists()

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



def solved_dofs(monkeypatch):
    """The reduced DOFs of every `linear_solve` made from now on."""
    dofs = []
    real = stdd.solver.linear_solve

    def counted(jacobian, residual, *args, **kwargs):
        dofs.append(len(residual))
        return real(jacobian, residual, *args, **kwargs)

    monkeypatch.setattr(stdd.solver, "linear_solve", counted)
    return dofs


class TestAllInCost:
    def test_counts_every_linear_solve(self, tmp_path, monkeypatch):
        dofs = solved_dofs(monkeypatch)
        fill = []

        class Spla:
            def __getattr__(self, name):
                return getattr(spla, name)

            def splu(self, *args, **kwargs):
                lu = spla.splu(*args, **kwargs)
                fill.append(lu.nnz)
                return lu

        monkeypatch.setattr(stdd.solver, "spla", Spla())
        summary = run(preset("toy"), tmp_path, emit_vtk=False)
        assert summary["mode"] == "dynamic-dd"
        assert summary["all_in_cost"] == sum(dofs)
        assert summary["all_in_cost"] == (summary["cost_metric"]
                                          + summary["predictor_cost"]
                                          + summary["failed_cost"])
        assert summary["predictor_cost"] > 0
        # the factors' stored entries over the same solves
        assert len(fill) == len(dofs)
        assert summary["lu_cost"] == sum(fill) > 0


class TestNewtonConfigValidation:
    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            NewtonConfig(tol=0.0)

    def test_bad_iteration_budget(self):
        with pytest.raises(ValueError):
            NewtonConfig(max_iters=0)
