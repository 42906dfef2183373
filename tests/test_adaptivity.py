"""Region classification, decomposition, transfer, and upscaling."""

import importlib
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solveh_banded

from stdd.adaptivity import (BaseGrid, IdentifierMap, Thresholds, Tiling,
                             block_permeability, cell_permeability, classify,
                             decompose, delta_change, final_spatial,
                             residual_indicator, transfer_field,
                             upscale_blocks)
from stdd.config import RunConfig, WellSpec, preset
from stdd.errors import NonIntegerRatio
from stdd.mesh import Subdomain, _int_ratio, build_window

run_module = importlib.import_module("stdd.run")

TABLE = {1: (0.5, 0.5, 1.0), 2: (0.5, 0.5, 4.0),
         3: (2.5, 2.5, 1.0), 4: (2.5, 2.5, 4.0)}


class TestClassify:
    def th(self, **kw):
        kw.setdefault("theta_ds", 0.05)
        kw.setdefault("theta_dt", 0.05)
        kw.setdefault("theta_eta", 0.5)
        return Thresholds(**kw)

    def test_rule_table(self):
        z = np.zeros((1, 1))
        big = np.full((1, 1), 0.2)
        assert classify(z, big, big, self.th()).identifiers[0, 0] == 1
        assert classify(z, big, z, self.th()).identifiers[0, 0] == 2
        assert classify(z, z, big, self.th()).identifiers[0, 0] == 3
        assert classify(z, z, z, self.th()).identifiers[0, 0] == 4

    def test_residual_forces_full_refinement(self):
        eta = np.array([[1.0]])
        z = np.zeros((1, 1))
        assert classify(eta, z, z, self.th()).identifiers[0, 0] == 1

    def test_buffer_ring_promoted(self):
        n = 5
        ds = np.zeros((n, n))
        dt = np.zeros((n, n))
        ds[2, 2] = dt[2, 2] = 0.3
        ids = classify(np.zeros((n, n)), ds, dt, self.th()).identifiers
        assert ids[2, 2] == 1
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if di or dj:
                    assert ids[2 + di, 2 + dj] == 2
        assert ids[0, 0] == 4

    def test_buffer_does_not_demote(self):
        ds = np.array([[0.3, 0.0], [0.3, 0.0]])
        dt = np.array([[0.3, 0.3], [0.3, 0.0]])
        ids = classify(np.zeros((2, 2)), ds, dt, self.th()).identifiers
        assert ids[0, 0] == 1 and ids[1, 0] == 1
        # (0,1) is id 3 on its own; the ring may only move it towards 2
        assert ids[0, 1] == 2

    def test_threshold_is_strict_inequality(self):
        v = np.full((1, 1), 0.05)
        z = np.zeros((1, 1))
        assert classify(z, v, v, self.th()).identifiers[0, 0] == 4

    def test_monotone_in_thresholds(self):
        rng = np.random.default_rng(3)
        ds = rng.uniform(0, 0.2, (8, 4))
        dt = rng.uniform(0, 0.2, (8, 4))
        eta = rng.uniform(0, 1.0, (8, 4))
        loose = classify(eta, ds, dt,
                         Thresholds(0.15, 0.15, 2.0)).identifiers
        tight = classify(eta, ds, dt,
                         Thresholds(0.02, 0.02, 0.1)).identifiers
        # tightening thresholds can only refine (smaller identifier is finer,
        # except 2 vs 3 which are incomparable; compare via fine-in-space)
        assert np.all((tight == 1) | (tight <= loose) | (loose == 3))


class TestBufferRing:
    """The identifier-1 buffer against scipy.ndimage.binary_dilation with a
    full 3x3 structure (border tiles count as not identifier 1)."""

    TH = Thresholds(0.05, 0.05, 0.5)

    def unbuffered(self, eta, ds, dt):
        big_s, big_t = ds > self.TH.theta_ds, dt > self.TH.theta_dt
        return np.select([(eta > self.TH.theta_eta) | (big_s & big_t),
                          big_s, big_t], [1, 2, 3], 4)

    def check(self, eta, ds, dt):
        from scipy.ndimage import binary_dilation

        ids = self.unbuffered(eta, ds, dt)
        near = binary_dilation(ids == 1, np.ones((3, 3), bool))
        expected = np.where(near, np.minimum(ids, 2), ids)
        got = classify(eta, ds, dt, self.TH).identifiers
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)

    def check_ones(self, ones):
        z = np.zeros(ones.shape)
        self.check(np.where(ones, 1.0, 0.0), z, z)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (2, 2),
                                       (5, 3), (22, 6), (44, 12)])
    def test_random_maps(self, shape, seed):
        rng = np.random.default_rng(seed)
        ds, dt = rng.uniform(0, 0.1, (2, *shape))
        eta = rng.uniform(0, 0.7, shape)
        self.check(eta, ds, dt)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (4, 5)])
    def test_edges_and_corners(self, shape):
        nx, ny = shape
        tiles = {(i, j) for i in (0, nx // 2, nx - 1)
                 for j in (0, ny // 2, ny - 1)}
        for tile in tiles:
            ones = np.zeros(shape, bool)
            ones[tile] = True
            self.check_ones(ones)
        edge = np.zeros(shape, bool)
        edge[0, :] = edge[:, -1] = True
        self.check_ones(edge)

    @pytest.mark.parametrize("fill", [False, True])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (3, 4)])
    def test_uniform_maps(self, shape, fill):
        self.check_ones(np.full(shape, fill))


class TestDecompose:
    def tiling(self, ntx, nty):
        return Tiling((0.0, 0.0, ntx * 2.5, nty * 2.5), 2.5, 2.5)

    def test_uniform_map_single_rectangle(self):
        idmap = IdentifierMap(np.full((4, 3), 4), *(np.zeros((4, 3)),) * 3)
        subs = decompose(idmap, self.tiling(4, 3), TABLE)
        assert len(subs) == 1
        assert subs[0].region == (0.0, 0.0, 10.0, 7.5)
        assert subs[0].identifier == 4

    def test_partition_covers_exactly(self):
        rng = np.random.default_rng(0)
        ids = rng.integers(1, 5, (6, 5))
        idmap = IdentifierMap(ids, *(np.zeros((6, 5)),) * 3)
        t = self.tiling(6, 5)
        subs = decompose(idmap, t, TABLE)
        covered = np.zeros((6, 5), dtype=int)
        for s in subs:
            x0, y0, x1, y1 = s.region
            i0, j0 = round(x0 / 2.5), round(y0 / 2.5)
            i1, j1 = round(x1 / 2.5), round(y1 / 2.5)
            assert np.all(ids[i0:i1, j0:j1] == s.identifier)
            covered[i0:i1, j0:j1] += 1
        assert np.all(covered == 1)

    def test_row_of_same_identifier_merges(self):
        ids = np.full((5, 1), 2)
        idmap = IdentifierMap(ids, *(np.zeros((5, 1)),) * 3)
        subs = decompose(idmap, self.tiling(5, 1), TABLE)
        assert len(subs) == 1

    def test_resolutions_follow_table(self):
        ids = np.array([[1, 4]])
        idmap = IdentifierMap(ids, *(np.zeros((1, 2)),) * 3)
        subs = decompose(idmap, self.tiling(1, 2), TABLE)
        by_id = {s.identifier: s for s in subs}
        assert by_id[1].cell_size == (0.5, 0.5) and by_id[1].dt == 1.0
        assert by_id[4].cell_size == (2.5, 2.5) and by_id[4].dt == 4.0

    def test_buildable_window(self):
        rng = np.random.default_rng(1)
        ids = np.where(rng.random((4, 4)) < 0.3, 1, 4)
        idmap = IdentifierMap(ids, *(np.zeros((4, 4)),) * 3)
        t = self.tiling(4, 4)
        subs = decompose(idmap, t, TABLE)
        w = build_window(subs, 4.0, t.reservoir)
        n_fine = int(np.sum(ids == 1))
        assert w.n_spatial == 25 * n_fine + (16 - n_fine)


class TestDeltaChange:
    def test_hand_example(self):
        base = BaseGrid((0.0, 0.0, 2.0, 1.0), (0.5, 0.5))
        tiling = Tiling((0.0, 0.0, 2.0, 1.0), 1.0, 1.0)
        s0 = np.zeros(base.shape)
        s1 = np.zeros(base.shape)
        s1[1, 1] = 0.4      # inside left tile
        d_s, d_t = delta_change(s0, s1, tiling)
        assert d_t[0, 0] == pytest.approx(0.4)
        assert d_t[1, 0] == 0.0
        assert d_s[0, 0] == pytest.approx(0.4)

    def test_boundary_face_counts_for_both_tiles(self):
        base = BaseGrid((0.0, 0.0, 2.0, 1.0), (0.5, 0.5))
        tiling = Tiling((0.0, 0.0, 2.0, 1.0), 1.0, 1.0)
        s = np.zeros(base.shape)
        s[2:, :] = 0.5      # jump exactly on the tile boundary
        d_s, _ = delta_change(s, s, tiling)
        assert d_s[0, 0] == pytest.approx(0.5)
        assert d_s[1, 0] == pytest.approx(0.5)

    def test_uniform_field_no_indicator(self):
        base = BaseGrid((0.0, 0.0, 5.0, 5.0), (0.5, 0.5))
        tiling = Tiling((0.0, 0.0, 5.0, 5.0), 2.5, 2.5)
        s = np.full(base.shape, 0.37)
        d_s, d_t = delta_change(s, s, tiling)
        assert np.all(d_s == 0.0) and np.all(d_t == 0.0)


class TestTransfer:
    def setup_method(self):
        self.res = (0.0, 0.0, 10.0, 5.0)
        self.base = BaseGrid(self.res, (0.5, 0.5))
        self.phi = np.full(self.base.shape, 0.2)

    def window(self, h, dt=1.0):
        return build_window([Subdomain(self.res, (h, h), dt)], dt, self.res)

    def test_two_cell_average(self):
        # fine values 0.2 and 0.4 with equal pore volume average to 0.3
        fine = build_window(
            [Subdomain((0.0, 0.0, 2.0, 1.0), (1.0, 1.0), 1.0)], 1.0,
            (0.0, 0.0, 2.0, 1.0))
        coarse = build_window(
            [Subdomain((0.0, 0.0, 2.0, 1.0), (2.0, 1.0), 1.0)], 1.0,
            (0.0, 0.0, 2.0, 1.0))
        base = BaseGrid((0.0, 0.0, 2.0, 1.0), (1.0, 1.0))
        phi = np.full(base.shape, 0.2)
        vals = np.empty(2)
        vals[fine.cell_cx.argsort()] = [0.2, 0.4]
        s = transfer_field(fine, vals, coarse, base, phi)
        assert s[0] == pytest.approx(0.3, rel=1e-15)

    def test_water_volume_conserved(self):
        fine = self.window(0.5)
        coarse = self.window(2.5)
        rng = np.random.default_rng(7)
        s_f = rng.uniform(0.2, 0.8, fine.n_spatial)
        s_c = transfer_field(fine, s_f, coarse, self.base, self.phi)
        vol_f = float(np.sum(0.2 * fine.cell_vol * s_f))
        vol_c = float(np.sum(0.2 * coarse.cell_vol * s_c))
        assert vol_c == pytest.approx(vol_f, rel=1e-14)

    def test_constant_round_trip_exact(self):
        a, b = self.window(0.5), self.window(2.5)
        p0, s0 = np.full(a.n_spatial, 1234.5), np.full(a.n_spatial, 0.42)
        p1, s1 = (transfer_field(a, v, b, self.base, self.phi)
                  for v in (p0, s0))
        p2, s2 = (transfer_field(b, v, a, self.base, self.phi)
                  for v in (p1, s1))
        np.testing.assert_allclose(p2, 1234.5, rtol=1e-14)
        np.testing.assert_allclose(s2, 0.42, rtol=1e-14)

    def test_refining_is_injection(self):
        coarse, fine = self.window(2.5), self.window(0.5)
        rng = np.random.default_rng(1)
        s_c = rng.uniform(0.2, 0.8, coarse.n_spatial)
        s_f = transfer_field(coarse, s_c, fine, self.base, self.phi)
        raster = self.base.rasterize(coarse, s_c)
        assert np.array_equal(self.base.rasterize(fine, s_f), raster)

    def test_final_spatial_orders_by_cell(self):
        w = self.window(1.0, dt=0.5)
        rng = np.random.default_rng(2)
        p = rng.random(w.n_st)
        s = rng.random(w.n_st)
        from stdd.assembly import StateField
        st = StateField(p=p, s=s, trace_p=np.zeros(w.n_spatial),
                        trace_s=np.zeros(w.n_spatial))
        pf, sf = final_spatial(w, st)
        fin = w.final_level_cells()
        for c in fin:
            sp = w.st_spatial[c]
            assert pf[sp] == p[c] and sf[sp] == s[c]


class TestUpscaling:
    def test_homogeneous_exact(self):
        k = np.full((5, 5), 123.0)
        for d in ("x", "y"):
            assert upscale_blocks(k[None], 0.5, 0.5, d)[0] == \
                pytest.approx(123.0, rel=1e-12)

    def test_series_equals_harmonic(self):
        # two layers in series along x: harmonic mean 2*1*4/(1+4) = 1.6
        k = np.array([[1.0, 1.0], [4.0, 4.0]])
        got = upscale_blocks(k[None], 1.0, 1.0, "x")[0]
        assert got == pytest.approx(1.6, abs=1e-10)

    def test_parallel_equals_arithmetic(self):
        # two layers parallel to flow: arithmetic mean 2.5
        k = np.array([[1.0, 4.0], [1.0, 4.0]])
        got = upscale_blocks(k[None], 1.0, 1.0, "x")[0]
        assert got == pytest.approx(2.5, rel=1e-10)

    def test_checkerboard_between_bounds(self):
        k = np.where((np.add.outer(np.arange(6), np.arange(6)) % 2) == 0,
                     1.0, 4.0)
        got = upscale_blocks(k[None], 1.0, 1.0, "x")[0]
        assert 1.6 < got < 2.5

    def test_wiener_bounds_random_tiles(self):
        rng = np.random.default_rng(11)
        base = BaseGrid((0.0, 0.0, 50.0, 25.0), (0.5, 0.5))
        tiling = Tiling(base.reservoir, 2.5, 2.5)   # 10 x 5 = 50 tiles
        kx = np.exp(rng.normal(3.0, 1.0, base.shape))
        ntx, nty = tiling.shape
        for i in range(ntx):
            for j in range(nty):
                blk = kx[i * 5:(i + 1) * 5, j * 5:(j + 1) * 5]
                lo = blk.size / np.sum(1.0 / blk)
                hi = np.mean(blk)
                for d in ("x", "y"):
                    val = upscale_blocks(blk[None], base.hx, base.hy, d)[0]
                    assert lo - 1e-9 <= val <= hi + 1e-9

    def test_direction_transpose_symmetry(self):
        rng = np.random.default_rng(4)
        k = rng.uniform(1.0, 10.0, (4, 6))
        a = upscale_blocks(k[None], 0.5, 0.5, "y")[0]
        b = upscale_blocks(k.T[None], 0.5, 0.5, "x")[0]
        assert a == pytest.approx(b, rel=1e-12)

    @pytest.mark.parametrize("shape", [(2, 2), (5, 5), (3, 7), (8, 2)])
    def test_flow_matches_loop_assembly(self, shape):
        k = np.exp(np.random.default_rng(9).normal(3.0, 1.5, shape))
        assert upscale_blocks(k[None], 0.5, 0.7, "x")[0] == \
            ref_upscale_flow(k, 0.5, 0.7)

    @pytest.mark.parametrize("shape", [(2, 2), (5, 5), (3, 7), (8, 2),
                                       (6, 1), (10, 10)])
    def test_flow_matches_sparse_solve(self, shape):
        k = np.exp(np.random.default_rng(3).normal(3.0, 1.5, shape))
        assert upscale_blocks(k[None], 0.5, 0.7, "x")[0] == pytest.approx(
            ref_upscale_flow(k, 0.5, 0.7, solve="sparse"), rel=1e-12)
        assert upscale_blocks(k[None], 0.5, 0.7, "y")[0] == pytest.approx(
            ref_upscale_flow(k.T, 0.7, 0.5, solve="sparse"), rel=1e-12)

    @pytest.mark.parametrize("shape", [(5, 5), (2, 3), (1, 4), (4, 1)])
    @pytest.mark.parametrize("direction", ["x", "y"])
    def test_batch_equals_per_block_reference(self, shape, direction):
        """A stack of uncoupled blocks solved in one banded call gives
        each block's own value, bit for bit."""
        rng = np.random.default_rng(sum(shape))
        ks = np.exp(rng.normal(3.0, 1.5, (40,) + shape))
        got = upscale_blocks(ks, 0.5, 0.7, direction)
        assert got.shape == (40,)
        assert got.tolist() == [ref_upscale(k, 0.5, 0.7, direction)
                                for k in ks]
        assert [upscale_blocks(k[None], 0.5, 0.7, direction)[0]
                for k in ks] == got.tolist()

    def test_cell_permeability_passthrough_on_base_cells(self):
        res = (0.0, 0.0, 4.0, 2.0)
        base = BaseGrid(res, (0.5, 0.5))
        rng = np.random.default_rng(5)
        kxb = rng.uniform(1, 10, base.shape)
        kyb = rng.uniform(1, 10, base.shape)
        w = build_window([Subdomain(res, (0.5, 0.5), 1.0)], 1.0, res)
        kx, ky = cell_permeability(
            w, base, partial(block_permeability, base, kxb, kyb))
        assert np.array_equal(base.rasterize(w, kx), kxb)
        assert np.array_equal(base.rasterize(w, ky), kyb)

    def test_each_shape_upscaled_once_per_problem(self, tmp_path,
                                                  monkeypatch):
        """Over a toy dynamic-dd run, which maps its trial window and
        several main windows, the one coarse cell shape (5 x 5 base cells)
        is upscaled once per direction; base-size cells upscale nothing."""
        real, calls, depth = upscale_blocks, [], []

        def counted(k_blocks, hx, hy, direction):
            if not depth:       # not the y direction's own x call
                calls.append((np.shape(k_blocks), direction))
            depth.append(None)
            try:
                return real(k_blocks, hx, hy, direction)
            finally:
                depth.pop()

        maps = []
        real_maps = run_module.Problem.maps
        monkeypatch.setattr("stdd.adaptivity.upscale_blocks", counted)
        monkeypatch.setattr(run_module.Problem, "maps",
                            lambda pb, w: maps.append(w) or real_maps(pb, w))
        run_module.run(preset("toy"), tmp_path / "run", emit_vtk=False)
        assert len(maps) > 2
        # every 5 x 5 block of the 40 x 10 base grid, in one call each
        assert calls == [((16, 5, 5), "x"), ((16, 5, 5), "y")]

    def test_subdomain_off_its_block_lattice_raises(self):
        """2 x 2 ft cells that start one base cell past the 2 ft lattice
        have no slice of their shape's blocks."""
        res = (0.0, 0.0, 4.0, 2.0)
        base = BaseGrid(res, (0.5, 0.5))
        k = np.random.default_rng(6).uniform(1, 10, base.shape)
        w = build_window([Subdomain((0.0, 0.0, 0.5, 2.0), (0.5, 0.5), 1.0),
                          Subdomain((0.5, 0.0, 2.5, 2.0), (2.0, 2.0), 1.0),
                          Subdomain((2.5, 0.0, 4.0, 2.0), (0.5, 0.5), 1.0)],
                         1.0, res)
        with pytest.raises(NonIntegerRatio, match="lattice"):
            cell_permeability(w, base, partial(block_permeability, base, k, k))


class TestTrace:
    """`Problem.trace`, the one rule for the state a window starts from."""

    def setup_method(self):
        self.pb = pb = run_module.Problem(preset("toy"))
        self.coarse, self.fine = (
            build_window(decompose(pb.constant_idmap(k), pb.tiling, pb.table),
                         2.0, pb.cfg.reservoir) for k in (4, 1))
        rng = np.random.default_rng(11)
        n = self.coarse.n_spatial
        self.final = (rng.uniform(900, 1100, n), rng.uniform(0.2, 0.8, n))

    def test_initial_state_without_an_old_window(self):
        p, s = self.pb.trace(None, None, self.fine)
        assert np.array_equal(p, np.full(self.fine.n_spatial, 1000.0))
        assert np.array_equal(s, np.full(self.fine.n_spatial, 0.2))

    def test_same_window_keeps_the_final_level(self):
        assert self.pb.trace(self.coarse, self.final,
                             self.coarse) is self.final

    @pytest.mark.parametrize("target", ["fine", "rebuilt"])
    def test_another_window_is_transferred(self, target):
        """Onto another window, even one of the same decomposition, the
        trace is `transfer_field`'s of each half."""
        pb = self.pb
        new = (self.fine if target == "fine"
               else build_window(self.coarse.subdomains, 2.0,
                                 pb.cfg.reservoir))
        got = pb.trace(self.coarse, self.final, new)
        want = [transfer_field(self.coarse, v, new, pb.base, pb.phi_base)
                for v in self.final]
        assert got is not self.final
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_toy_run_transfers_as_before(self, tmp_path, monkeypatch):
        """The toy's 4 windows each change decomposition: the predictor
        and the main window each transfer a trace 3 times, P and S each
        by one `transfer_field`, and each of the 4 main windows maps its
        predicted change once."""
        calls = []
        real = run_module.transfer_field
        monkeypatch.setattr(run_module, "transfer_field",
                            lambda *a: calls.append(None) or real(*a))
        run_module.run(preset("toy"), tmp_path / "run", emit_vtk=False)
        assert len(calls) == 2 * 6 + 4


def ref_flow_system(k, hx, hy):
    """Two-point flow matrix of x-upscaling, built face by face, with its
    right-hand side and left boundary transmissibilities."""
    mx, my = k.shape
    n = mx * my
    idx = np.arange(n).reshape(mx, my)
    rows, cols, vals = [], [], []
    diag = np.zeros(n)
    rhs = np.zeros(n)

    def add_face(a, b, t):
        rows.extend((a, b))
        cols.extend((b, a))
        vals.extend((-t, -t))
        diag[a] += t
        diag[b] += t

    tx = (hy / hx) * 2.0 * k[:-1, :] * k[1:, :] / (k[:-1, :] + k[1:, :])
    for i in range(mx - 1):
        for j in range(my):
            add_face(idx[i, j], idx[i + 1, j], tx[i, j])
    ty = (hx / hy) * 2.0 * k[:, :-1] * k[:, 1:] / (k[:, :-1] + k[:, 1:])
    for i in range(mx):
        for j in range(my - 1):
            add_face(idx[i, j], idx[i, j + 1], ty[i, j])
    tb_l = (hy / hx) * 2.0 * k[0, :]
    tb_r = (hy / hx) * 2.0 * k[-1, :]
    diag[idx[0, :]] += tb_l
    rhs[idx[0, :]] += tb_l
    diag[idx[-1, :]] += tb_r
    rows.extend(range(n))
    cols.extend(range(n))
    vals.extend(diag)
    return sp.csc_matrix((vals, (rows, cols)), shape=(n, n)), rhs, tb_l


def ref_upscale_flow(k, hx, hy, solve="banded"):
    """Flow upscaling in x of the face-by-face matrix, solved in the
    matrix's upper band storage or, with solve="sparse", by spsolve."""
    mx, my = k.shape
    mat, rhs, tb_l = ref_flow_system(k, hx, hy)
    if solve == "sparse":
        p = spla.spsolve(mat, rhs)
    else:
        dense = mat.toarray()
        band = np.array([np.concatenate([np.zeros(d), np.diagonal(dense, d)])
                         for d in range(my, -1, -1)])
        p = solveh_banded(band, rhs)
    q_in = float(np.sum(tb_l * (1.0 - p[:my])))
    return q_in * (mx * hx) / (my * hy)


def ref_upscale(k, hx, hy, direction):
    """One block's flow upscaling on its own: the mean of a block one
    cell long in the flow direction, `ref_upscale_flow` of any other."""
    if direction == "y":
        k, hx, hy = k.T, hy, hx
    if k.shape[0] == 1:
        return float(np.mean(k))
    return ref_upscale_flow(k, hx, hy)


# -- the base-grid owner map against per-cell slices ------------------------

def ref_block(base, window, c):
    """Base-cell slices of spatial cell `c`, checked cell by cell."""
    x0, y0, _, _ = base.reservoir
    hx, hy = window.cell_hx[c], window.cell_hy[c]
    i0 = _int_ratio(window.cell_cx[c] - hx / 2.0 - x0, base.hx,
                    NonIntegerRatio, "x alignment", least=0)
    j0 = _int_ratio(window.cell_cy[c] - hy / 2.0 - y0, base.hy,
                    NonIntegerRatio, "y alignment", least=0)
    mi = _int_ratio(hx, base.hx, NonIntegerRatio, "x ratio")
    mj = _int_ratio(hy, base.hy, NonIntegerRatio, "y ratio")
    return slice(i0, i0 + mi), slice(j0, j0 + mj)


def ref_tile_of(tiling, x, y):
    """Tile indices (ti, tj) of points (x, y), by floor division."""
    x0, y0, _, _ = tiling.reservoir
    ntx, nty = tiling.shape
    ti = np.clip((np.asarray(x) - x0) // tiling.tile_hx, 0, ntx - 1)
    tj = np.clip((np.asarray(y) - y0) // tiling.tile_hy, 0, nty - 1)
    return ti.astype(int), tj.astype(int)


def ref_residual_indicator(window, cell_norms, tiling):
    """Per-tile max of the cell norms, scattered through cell-centre
    tiles."""
    eta = np.zeros(tiling.shape)
    cell = window.st_spatial
    ti, tj = ref_tile_of(tiling, window.cell_cx[cell], window.cell_cy[cell])
    np.maximum.at(eta, (ti, tj), cell_norms)
    return eta


def ref_delta_change(s_start, s_end, base, tiling):
    """(delta_s, delta_t), each face scattered to the tiles of its cells."""
    mx = _int_ratio(tiling.tile_hx, base.hx, NonIntegerRatio, "x")
    my = _int_ratio(tiling.tile_hy, base.hy, NonIntegerRatio, "y")
    d_t = np.zeros(tiling.shape)
    ii, jj = np.indices(base.shape)
    np.maximum.at(d_t, (ii // mx, jj // my), np.abs(s_end - s_start))
    d_s = np.zeros(tiling.shape)
    dx = np.abs(np.diff(s_end, axis=0))
    dy = np.abs(np.diff(s_end, axis=1))
    ii = np.repeat(np.arange(base.nx - 1), base.ny)
    jj = np.tile(np.arange(base.ny), base.nx - 1)
    np.maximum.at(d_s, (ii // mx, jj // my), dx.ravel())
    np.maximum.at(d_s, ((ii + 1) // mx, jj // my), dx.ravel())
    ii = np.repeat(np.arange(base.nx), base.ny - 1)
    jj = np.tile(np.arange(base.ny - 1), base.nx)
    np.maximum.at(d_s, (ii // mx, jj // my), dy.ravel())
    np.maximum.at(d_s, (ii // mx, (jj + 1) // my), dy.ravel())
    return d_s, d_t


def ref_well_cells(window, tiling, tile):
    """Cells whose centres fall strictly inside the tile."""
    x0, y0, _, _ = tiling.reservoir
    bx0 = x0 + tile[0] * tiling.tile_hx
    by0 = y0 + tile[1] * tiling.tile_hy
    cx, cy = window.cell_cx, window.cell_cy
    return np.nonzero((cx > bx0) & (cx < bx0 + tiling.tile_hx)
                      & (cy > by0) & (cy < by0 + tiling.tile_hy))[0]


class TestOwnerMap:
    RES = (0.0, 0.0, 15.0, 10.0)

    def setup_method(self):
        self.base = BaseGrid(self.RES, (0.5, 0.5))
        self.tiling = tiling = Tiling(self.RES, 2.5, 2.5)
        ids = np.full(tiling.shape, 4)
        ids[1:3, 1:3] = 1        # a fine box
        ids[4:, :2] = 3          # refined in time only
        ids[0, 3] = 2
        subs = decompose(IdentifierMap(ids, *(np.zeros(ids.shape),) * 3),
                         tiling, TABLE)
        assert {s.identifier for s in subs} == {1, 2, 3, 4}
        self.window = build_window(subs, 4.0, self.RES)
        self.rng = np.random.default_rng(8)

    def blocks(self):
        return [ref_block(self.base, self.window, c)
                for c in range(self.window.n_spatial)]

    def test_rasterize_exact(self):
        vals = self.rng.random(self.window.n_spatial)
        ref = np.full(self.base.shape, np.nan)
        for c, (si, sj) in enumerate(self.blocks()):
            ref[si, sj] = vals[c]
        assert np.array_equal(self.base.rasterize(self.window, vals), ref)

    def test_average_to(self):
        f = self.rng.random(self.base.shape)
        w = self.rng.uniform(0.1, 1.0, self.base.shape)
        ref = np.array([f[b].mean() for b in self.blocks()])
        ref_w = np.array([np.sum(w[b] * f[b]) / np.sum(w[b])
                          for b in self.blocks()])
        np.testing.assert_allclose(self.base.average_to(self.window, f),
                                   ref, rtol=1e-14, atol=0)
        np.testing.assert_allclose(self.base.average_to(self.window, f, w),
                                   ref_w, rtol=1e-14, atol=0)

    def test_cell_permeability(self):
        kxb = self.rng.uniform(1, 10, self.base.shape)
        kyb = self.rng.uniform(1, 10, self.base.shape)
        kx, ky = cell_permeability(
            self.window, self.base,
            partial(block_permeability, self.base, kxb, kyb))
        for c, (si, sj) in enumerate(self.blocks()):
            assert kx[c] == upscale_blocks(kxb[None, si, sj], 0.5, 0.5,
                                           "x")[0]
            assert ky[c] == upscale_blocks(kyb[None, si, sj], 0.5, 0.5,
                                           "y")[0]

    def test_residual_indicator(self):
        # several levels per cell where the decomposition refines time
        assert self.window.n_st > self.window.n_spatial
        norms = np.abs(self.rng.normal(size=self.window.n_st))
        eta = residual_indicator(self.window, norms, self.base, self.tiling)
        assert np.array_equal(
            eta, ref_residual_indicator(self.window, norms, self.tiling))

    def test_delta_change(self):
        s0 = self.rng.random(self.base.shape)
        s1 = self.rng.random(self.base.shape)
        got = delta_change(s0, s1, self.tiling)
        ref = ref_delta_change(s0, s1, self.base, self.tiling)
        assert np.array_equal(got[0], ref[0])
        assert np.array_equal(got[1], ref[1])

    def test_well_cells(self):
        cfg = RunConfig(reservoir=self.RES, horizon=4.0, delta_t=4.0,
                        table=TABLE,
                        permeability={"kind": "uniform", "value": 100.0},
                        wells=[])
        pb = run_module.Problem(cfg)
        ntx, nty = self.tiling.shape
        for tile in np.ndindex(ntx, nty):
            got = pb._well_cells(self.window,
                                 WellSpec(tile, "bhp-producer", 1000.0))
            assert np.array_equal(
                got, ref_well_cells(self.window, self.tiling, tile)), tile

    @pytest.mark.parametrize("subs, what", [
        # a cell size that is not a whole number of base cells
        ([Subdomain((0.0, 0.0, 3.0, 1.0), (1.5, 1.0), 1.0),
          Subdomain((3.0, 0.0, 4.0, 1.0), (1.0, 1.0), 1.0)], "ratio"),
        # whole base cells, but starting half a base cell off
        ([Subdomain((0.5, 0.0, 3.5, 1.0), (1.0, 1.0), 1.0),
          Subdomain((0.0, 0.0, 0.5, 1.0), (0.5, 1.0), 1.0),
          Subdomain((3.5, 0.0, 4.0, 1.0), (0.5, 1.0), 1.0)], "alignment"),
    ])
    def test_misaligned_subdomain_raises(self, subs, what):
        res = (0.0, 0.0, 4.0, 1.0)
        window = build_window(subs, 1.0, res)
        with pytest.raises(NonIntegerRatio, match=what):
            BaseGrid(res, (1.0, 1.0)).rasterize(window,
                                                np.zeros(window.n_spatial))
