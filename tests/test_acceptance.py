"""End-to-end acceptance checks at their contractual tolerances.

The expensive desk-scale runs (uniform fine reference, adaptive runs on
the channelized and smooth-lognormal fields) execute once per session
and are shared by the accuracy, cost, and mass-balance checks.
"""

import pathlib
import time

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from mixed_system import assemble, n_dofs, schur_reduce
from stdd.adaptivity import BaseGrid, Tiling, upscale_blocks
from stdd.assembly import (CellProperties, ResolvedWells, StateField,
                           window_terms)
from stdd.config import preset
from stdd.mesh import Subdomain, build_window
from stdd.output import write_curves_csv
from stdd.physics import (BrooksCoreyModel, FluidModel, FluidRockModel,
                          property_curves)
from stdd.run import Problem, compare, run
from stdd.solver import NewtonConfig, newton_solve_window

DATA = pathlib.Path(__file__).parent / "data"


# -- shared desk-scale runs -------------------------------------------------

@pytest.fixture(scope="session")
def desk(tmp_path_factory):
    """Uniform-fine and adaptive desk runs on both permeability fields."""
    root = tmp_path_factory.mktemp("desk")
    out = {"dirs": {}, "summaries": {}}
    t0 = time.perf_counter()
    for key, cfg in (
            ("uf", preset("uniform-fine")),
            ("dd", preset("dynamic-dd")),
            ("ddg", preset("dynamic-dd-gaussian")),
            ("ufg", None)):
        if key == "ufg":
            cfg = preset("uniform-fine")
            cfg.permeability = {"kind": "gaussian", "seed": 7}
            cfg.label = "uniform-fine-gaussian"
        d = root / key
        out["summaries"][key] = run(cfg, str(d), emit_vtk=False)
        out["dirs"][key] = str(d)
    out["wall_s"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="session")
def static_solution():
    """One converged window of the fixed fine-box/coarse decomposition."""
    from stdd.adaptivity import decompose
    cfg = preset("static-dd")
    pb = Problem(cfg)
    subs = decompose(pb.static_idmap(), pb.tiling, pb.table)
    window = build_window(subs, cfg.delta_t, cfg.reservoir, dz=cfg.dz)
    n = window.n_spatial
    ncfg = NewtonConfig(max_iters=60)
    terms = pb.maps(window)
    state, entry = newton_solve_window(
        terms, np.full(n, cfg.initial_pressure),
        np.full(n, cfg.initial_saturation), ncfg)
    sys_ = assemble(window, state, terms.props, terms.wells, pb.model)
    return window, state, entry, sys_


# -- 1: the linear configuration solves in one Newton iteration -------------

class TestLinearOneIteration:
    def test_single_update_converges(self):
        t0 = time.perf_counter()
        box = (0.0, 0.0, 20.0, 6.0)
        w = build_window([Subdomain(box, (1.0, 1.0), 1.0)], 1.0, box)
        n = w.n_spatial
        model = FluidRockModel(FluidModel(c_o=0.0, c_w=0.0),
                               BrooksCoreyModel(), linear=True)
        props = CellProperties(phi=np.full(n, 0.2), kx=np.full(n, 100.0),
                               ky=np.full(n, 100.0))
        wells = ResolvedWells.none(n)
        wells.inj_w[0] = 10.0
        wells.prod_wi[n - 1] = 1.0
        wells.prod_bhp[:] = 1000.0
        _, entry = newton_solve_window(
            window_terms(w, props, wells, model), np.full(n, 1000.0),
            np.full(n, 0.3), NewtonConfig())
        assert entry.iterations == 1
        assert time.perf_counter() - t0 < 5.0


# -- 2: a multi-level window equals sequential single steps -----------------

class TestWindowEqualsSequential:
    def test_conforming_equivalence(self):
        t0 = time.perf_counter()
        box = (0.0, 0.0, 10.0, 4.0)
        n = 40
        rng = np.random.default_rng(2)
        k = rng.uniform(50.0, 200.0, n)
        props = CellProperties(phi=np.full(n, 0.2), kx=k, ky=k.copy())
        model = FluidRockModel(FluidModel(), BrooksCoreyModel())
        wells = ResolvedWells.none(n)
        wells.inj_w[0] = 5.0
        wells.prod_wi[n - 1] = 0.5
        wells.prod_bhp[:] = 1000.0
        cfg = NewtonConfig(max_iters=60, tol=1e-12)

        w4 = build_window([Subdomain(box, (1.0, 1.0), 1.0)], 4.0, box)
        st4, _ = newton_solve_window(window_terms(w4, props, wells, model),
                                     np.full(n, 1000.0), np.full(n, 0.3),
                                     cfg)
        fin = w4.final_level_cells()
        p_mono, s_mono = st4.p[fin], st4.s[fin]

        tp, ts = np.full(n, 1000.0), np.full(n, 0.3)
        w1 = build_window([Subdomain(box, (1.0, 1.0), 1.0)], 1.0, box)
        f1 = w1.final_level_cells()
        for _ in range(4):
            st1, _ = newton_solve_window(window_terms(w1, props, wells,
                                                      model), tp, ts, cfg)
            tp, ts = st1.p[f1].copy(), st1.s[f1].copy()

        assert np.max(np.abs(p_mono - tp)) <= 1e-8
        assert np.max(np.abs(s_mono - ts)) <= 1e-10
        assert time.perf_counter() - t0 < 10.0


# -- 3: flux elimination is exact -------------------------------------------

class TestSchurEquivalence:
    def test_reduced_solution_matches_full(self):
        fine = Subdomain((0.0, 0.0, 2.5, 2.5), (0.5, 0.5), 0.5, 1)
        coarse = Subdomain((2.5, 0.0, 5.0, 2.5), (2.5, 2.5), 1.0, 4)
        w = build_window([fine, coarse], 1.0, (0.0, 0.0, 5.0, 2.5))
        rng = np.random.default_rng(1)
        n = w.n_spatial
        props = CellProperties(phi=np.full(n, 0.2),
                               kx=rng.uniform(10, 300, n),
                               ky=rng.uniform(10, 300, n))
        wells = ResolvedWells.none(n)
        wells.inj_w[0] = 2.0
        model = FluidRockModel(FluidModel(), BrooksCoreyModel())
        state = StateField(p=rng.uniform(900, 1100, w.n_st),
                           s=rng.uniform(0.25, 0.75, w.n_st),
                           trace_p=rng.uniform(900, 1100, n),
                           trace_s=rng.uniform(0.25, 0.75, n))
        sys_ = assemble(w, state, props, wells, model)
        full = np.linalg.solve(sys_.jacobian_full.toarray(),
                               -sys_.residual_full)
        red = schur_reduce(sys_)
        dy = spla.spsolve(red.jacobian.tocsc(), -red.residual)
        df = red.back_substitute(dy)
        err = np.max(np.abs(np.concatenate([dy, df]) - full))
        assert err <= 1e-10 * max(1.0, np.max(np.abs(full)))


# -- 4: the analytic Jacobian matches finite differences --------------------

class TestJacobianFiniteDifference:
    def test_relative_error_within_tolerance(self):
        fine = Subdomain((0.0, 0.0, 1.0, 1.0), (0.5, 0.5), 0.5, 1)
        coarse = Subdomain((1.0, 0.0, 2.0, 1.0), (1.0, 1.0), 1.0, 4)
        w = build_window([fine, coarse], 1.0, (0.0, 0.0, 2.0, 1.0))
        n = w.n_spatial
        rng = np.random.default_rng(0)
        props = CellProperties(phi=np.full(n, 0.2),
                               kx=rng.uniform(0.1, 0.5, n),
                               ky=rng.uniform(0.1, 0.5, n))
        wells = ResolvedWells.none(n)
        wells.inj_w[0] = 1.0
        wells.prod_wi[n - 1] = 0.01
        wells.prod_bhp[:] = 1000.0
        model = FluidRockModel(FluidModel(), BrooksCoreyModel())
        state = StateField(p=rng.uniform(900.0, 1100.0, w.n_st),
                           s=rng.uniform(0.25, 0.75, w.n_st),
                           trace_p=rng.uniform(900.0, 1100.0, n),
                           trace_s=rng.uniform(0.25, 0.75, n))
        sys0 = assemble(w, state, props, wells, model)
        fx = {k: v.copy() for k, v in sys0.fluxes.items()}
        jac = assemble(w, state, props, wells, model,
                       fluxes=fx).jacobian_full.toarray()

        x0 = np.empty(n_dofs(w))
        x0[0:2 * w.n_st:2] = state.p
        x0[1:2 * w.n_st:2] = state.s
        base = 2 * w.n_st
        names = ("aux_o", "aux_w", "darcy_o", "darcy_w")
        for kind, name in enumerate(names):
            x0[base + kind::4] = fx[name]

        def residual(x):
            st = StateField(p=x[:base][0::2].copy(),
                            s=x[:base][1::2].copy(),
                            trace_p=state.trace_p, trace_s=state.trace_s)
            fl = {name: x[base + kind::4]
                  for kind, name in enumerate(names)}
            return assemble(w, st, props, wells, model,
                            fluxes=fl).residual_full

        fd = np.zeros_like(jac)
        for j in range(n_dofs(w)):
            h = 1e-6 * max(1.0, abs(x0[j]))
            xp, xm = x0.copy(), x0.copy()
            xp[j] += h
            xm[j] -= h
            fd[:, j] = (residual(xp) - residual(xm)) / (2 * h)
        denom = np.maximum(1e-12, np.maximum(np.abs(jac), np.abs(fd)))
        assert np.max(np.abs(jac - fd) / denom) <= 1e-6


# -- 5: static decomposition converges with exactly matched interface mass --

class TestStaticDecomposition:
    def test_local_residual_tolerance(self, static_solution):
        window, state, entry, sys_ = static_solution
        assert entry.norms[-1] <= 1e-6
        assert np.max(np.abs(sys_.r_norm)) <= 1e-6

    def test_bundle_flux_cancellation(self, static_solution):
        """Zeroing one bundle's phase fluxes changes the coarse-side
        divergence by exactly the opposite of the fine-side change: the
        aggregated coarse flux minus the sum of fine fluxes is zero."""
        window, state, entry, sys_ = static_solution
        assert window.bundles
        cfg = preset("static-dd")
        pb = Problem(cfg)
        terms = pb.maps(window)
        props, wells = terms.props, terms.wells
        fx = sys_.fluxes
        r0 = sys_.r_y
        for b in window.bundles[:20]:
            zeroed = {k: v.copy() for k, v in fx.items()}
            for f in b.faces:
                zeroed["darcy_o"][f] = 0.0
                zeroed["darcy_w"][f] = 0.0
            r1 = assemble(window, state, props, wells, pb.model,
                          fluxes=zeroed).r_y
            d = r1 - r0
            # only interface divergence terms changed; they must cancel
            net = float(d.sum())
            assert abs(net) <= 1e-13 * max(1.0, float(np.max(np.abs(d))))
            assert np.max(np.abs(d[[2 * b.coarse_cell,
                                    2 * b.coarse_cell + 1]])) > 0.0


# -- 6: global mass balance -------------------------------------------------

class TestMassBalance:
    def test_adaptive_run_closes(self, desk):
        rel = desk["summaries"]["dd"]["mass_balance"]["relative_error"]
        assert rel <= 1e-5

    def test_uniform_run_closes(self, desk):
        rel = desk["summaries"]["uf"]["mass_balance"]["relative_error"]
        assert rel <= 1e-5


# -- 7: adaptive accuracy against the uniformly fine reference --------------

class TestAdaptiveAccuracy:
    def test_saturation_errors_at_checkpoints(self, desk):
        rep = compare(desk["dirs"]["uf"], desk["dirs"]["dd"])
        diffs = {round(d["time"], 6): d
                 for d in rep["saturation_differences"]}
        for t in (20.0, 60.0):
            assert diffs[t]["linf"] <= 0.05, (t, diffs[t])
            assert diffs[t]["l2"] <= 0.02, (t, diffs[t])


# -- 8: adaptive cost -------------------------------------------------------

class TestAdaptiveCost:
    def test_cost_ratio_at_most_one_fifth(self, desk):
        s = desk["summaries"]
        ratio = s["dd"]["cost_metric"] / s["uf"]["cost_metric"]
        assert ratio <= 0.2, ratio

    def test_channelized_speedup_exceeds_smooth_field(self, desk):
        s = desk["summaries"]
        speed_chan = s["uf"]["cost_metric"] / s["dd"]["cost_metric"]
        speed_gauss = s["ufg"]["cost_metric"] / s["ddg"]["cost_metric"]
        assert speed_chan >= speed_gauss, (speed_chan, speed_gauss)

    def test_total_wall_budget(self, desk):
        assert desk["wall_s"] < 600.0


# -- 9: property curves are exact and reproducible --------------------------

class TestPropertyCurves:
    def model(self):
        return FluidRockModel(FluidModel(), BrooksCoreyModel())

    def test_pinned_values_exact(self):
        relcap = self.model().relcap
        assert relcap.krw(0.5)[0] == 0.25
        assert relcap.kro(0.5)[0] == 0.25
        assert relcap.pc(1.0)[0] == 10.0

    def test_golden_csv_bit_for_bit(self, tmp_path):
        path = tmp_path / "curves.csv"
        write_curves_csv(path, property_curves(self.model()))
        assert path.read_bytes() == (DATA / "curves_golden.csv").read_bytes()


# -- 10: permeability upscaling ---------------------------------------------

class TestUpscalingBounds:
    def test_hundred_tiles_within_wiener_bounds(self):
        rng = np.random.default_rng(100)
        base = BaseGrid((0.0, 0.0, 50.0, 50.0), (0.5, 0.5))
        tiling = Tiling(base.reservoir, 5.0, 5.0)   # 10 x 10 = 100 tiles
        kx = np.exp(rng.normal(3.0, 1.0, base.shape))
        ky = np.exp(rng.normal(3.0, 1.0, base.shape))
        assert tiling.shape == (10, 10)
        for i in range(10):
            for j in range(10):
                for k, d in ((kx, "x"), (ky, "y")):
                    blk = k[i * 10:(i + 1) * 10, j * 10:(j + 1) * 10]
                    val = upscale_blocks(blk[None], base.hx, base.hy, d)[0]
                    harm = blk.size / np.sum(1.0 / blk)
                    arith = np.mean(blk)
                    assert harm - 1e-9 <= val <= arith + 1e-9

    def test_one_dimensional_series_is_harmonic(self):
        rng = np.random.default_rng(7)
        vals = rng.uniform(1.0, 100.0, 20)
        k = vals[:, None]                       # 20 cells in series along x
        eff = upscale_blocks(k[None], 1.0, 1.0, "x")[0]
        harm = len(vals) / np.sum(1.0 / vals)
        assert abs(eff - harm) <= 1e-10 * harm
