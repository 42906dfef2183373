"""Window construction: tiling checks, DOF numbering, interface bundles."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from stdd.adaptivity import IdentifierMap, Tiling, decompose
from stdd.config import preset
from stdd.errors import (MeshError, MisalignedInterface, NonIntegerRatio,
                         TilingGap, TilingOverlap)
from stdd.mesh import (Subdomain, _block_pattern, build_window,
                       minimum_degree_order)


def two_subdomain_window(dt_f=1.0, dt_c=5.0, delta_t=5.0):
    fine = Subdomain((0.0, 0.0, 5.0, 5.0), (0.5, 0.5), dt_f, identifier=1)
    coarse = Subdomain((5.0, 0.0, 10.0, 5.0), (2.5, 2.5), dt_c, identifier=4)
    return build_window([fine, coarse], delta_t, (0.0, 0.0, 10.0, 5.0))


class TestBuildWindow:
    def test_matching_time_ratio_five(self):
        w = two_subdomain_window()
        # fine: 10x10 cells x 5 levels; coarse: 2x2 cells x 1 level
        assert w.n_spatial == 104
        assert w.n_st == 504

    def test_single_subdomain_single_level(self):
        s = Subdomain((0.0, 0.0, 4.0, 2.0), (1.0, 1.0), 5.0)
        w = build_window([s], 5.0, (0.0, 0.0, 4.0, 2.0))
        assert w.n_st == 8
        assert len(w.bundles) == 0
        # interior faces only: 3x2 vertical + 4x1 horizontal
        assert w.n_faces == 10

    def test_non_integer_time_ratio_rejected(self):
        with pytest.raises(NonIntegerRatio):
            two_subdomain_window(dt_f=2.0, dt_c=5.0, delta_t=5.0)

    def test_gap_rejected(self):
        a = Subdomain((0.0, 0.0, 4.0, 5.0), (1.0, 1.0), 1.0)
        b = Subdomain((5.0, 0.0, 10.0, 5.0), (1.0, 1.0), 1.0)
        with pytest.raises(TilingGap):
            build_window([a, b], 1.0, (0.0, 0.0, 10.0, 5.0))

    def test_overlap_rejected(self):
        a = Subdomain((0.0, 0.0, 6.0, 5.0), (1.0, 1.0), 1.0)
        b = Subdomain((5.0, 0.0, 10.0, 5.0), (1.0, 1.0), 1.0)
        with pytest.raises(TilingOverlap):
            build_window([a, b], 1.0, (0.0, 0.0, 10.0, 5.0))

    def test_empty_decomposition_rejected(self):
        with pytest.raises(TilingGap):
            build_window([], 1.0, (0.0, 0.0, 1.0, 1.0))


class TestDofNumbering:
    def test_counts_are_consistent(self):
        w = two_subdomain_window()
        assert w.n_y == 2 * w.n_st

    def test_final_level_covers_each_spatial_cell_once(self):
        w = two_subdomain_window()
        fin = w.final_level_cells()
        assert sorted(w.st_spatial[fin]) == list(range(w.n_spatial))
        ends = w.st_level[fin] * w.st_dt[fin]
        assert np.all(np.abs(ends - w.delta_t) < 1e-12)

    def test_final_level_with_mixed_dt(self):
        # three subdomains of 6, 3 and 1 levels: each spatial cell's
        # final level ends at the window's end, in spatial order
        subs = [Subdomain((0.0, 0.0, 2.0, 2.0), (1.0, 1.0), 1.0),
                Subdomain((2.0, 0.0, 4.0, 2.0), (2.0, 2.0), 2.0),
                Subdomain((4.0, 0.0, 6.0, 2.0), (0.5, 0.5), 6.0)]
        w = build_window(subs, 6.0, (0.0, 0.0, 6.0, 2.0))
        fin = w.final_level_cells()
        assert fin.dtype == np.int64
        assert np.array_equal(w.st_spatial[fin], np.arange(w.n_spatial))
        assert np.all(w.st_level[fin] * w.st_dt[fin] == w.delta_t)
        steps = np.array([s.n_steps(6.0) for s in subs])
        assert np.array_equal(w.st_level[fin], steps[w.sub_of_cell])

    def test_window_arrays_immutable(self):
        w = two_subdomain_window()
        with pytest.raises(ValueError):
            w.st_spatial[0] = 3


def ratio_window(r):
    """A box beside one r times coarser in space and in time, with
    faces across y (r = 2, coarse above) or across x (r = 3, coarse on
    the left)."""
    fine = (1.0, 1.0, 1.0)
    coarse = (float(r), float(r), float(r))
    if r == 2:
        regions = [(0.0, 0.0, 6.0, 6.0), (0.0, 6.0, 6.0, 12.0)]
        reservoir = (0.0, 0.0, 6.0, 12.0)
    else:
        regions = [(6.0, 0.0, 12.0, 6.0), (0.0, 0.0, 6.0, 6.0)]
        reservoir = (0.0, 0.0, 12.0, 6.0)
    subs = [Subdomain(reg, h[:2], h[2]) for reg, h in
            zip(regions, (fine, coarse))]
    return build_window(subs, 6.0, reservoir, dz=2.5)


class TestFaceGeometry:
    """Every face's geometry follows from its two space-time cells."""

    @pytest.mark.parametrize("r", [2, 3])
    def test_faces_follow_their_cells(self, r):
        w = ratio_window(r)
        f = w.faces
        assert np.any(w.sub_of_cell[f.s_left] != w.sub_of_cell[f.s_right])
        h = {0: w.cell_hx, 1: w.cell_hy}
        centre = {0: w.cell_cx, 1: w.cell_cy}
        for i in range(w.n_faces):
            a, cl, cr = int(f.axis[i]), f.c_left[i], f.c_right[i]
            sl, sr = w.st_spatial[cl], w.st_spatial[cr]
            assert (f.s_left[i], f.s_right[i]) == (sl, sr)
            assert (f.h_left[i], f.h_right[i]) == (h[a][sl], h[a][sr])
            assert f.area[i] == min(h[1 - a][sl], h[1 - a][sr]) * w.dz
            assert f.dt[i] == min(w.st_dt[cl], w.st_dt[cr])
            # the cells touch across the face, which is their shared
            # edge times the depth, over their shared time slab
            assert centre[a][sr] - centre[a][sl] == pytest.approx(
                (f.h_left[i] + f.h_right[i]) / 2.0)
            lo = [centre[1 - a][s] - h[1 - a][s] / 2.0 for s in (sl, sr)]
            hi = [centre[1 - a][s] + h[1 - a][s] / 2.0 for s in (sl, sr)]
            assert (min(hi) - max(lo)) * w.dz == pytest.approx(f.area[i])
            t1 = [w.st_level[c] * w.st_dt[c] for c in (cl, cr)]
            t0 = [t - w.st_dt[c] for t, c in zip(t1, (cl, cr))]
            assert min(t1) - max(t0) == pytest.approx(f.dt[i])

    @pytest.mark.parametrize("r", [2, 3])
    def test_bundles_follow_their_coarse_cell(self, r):
        w = ratio_window(r)
        f = w.faces
        assert len(w.bundles) == (6 // r) ** 2     # edge cells x levels
        for b in w.bundles:
            c = b.coarse_cell
            s = w.st_spatial[c]
            assert b.coarse_is_left == (r == 3)
            assert b.coarse_sub == w.sub_of_cell[s] == 1
            assert b.coarse_level == w.st_level[c]
            edge = w.cell_hy[s] if f.axis[b.faces[0]] == 0 else w.cell_hx[s]
            assert b.coarse_extent == edge * w.st_dt[c] * w.dz
            assert len(b.faces) == r * r
            assert sum(f.area[k] * f.dt[k] for k in b.faces) == \
                pytest.approx(b.coarse_extent, rel=1e-12)
        keys = [(w.st_spatial[b.coarse_cell], b.coarse_level)
                for b in w.bundles]
        assert keys == sorted(keys)


class TestInterfaceBundles:
    def test_bundle_size_is_rs_times_rt(self):
        # spatial ratio 5, temporal ratio 4: 20 fine face-levels per bundle
        fine = Subdomain((0.0, 0.0, 5.0, 5.0), (0.5, 0.5), 1.0)
        coarse = Subdomain((5.0, 0.0, 10.0, 5.0), (2.5, 2.5), 4.0)
        w = build_window([fine, coarse], 4.0, (0.0, 0.0, 10.0, 5.0))
        sizes = [len(b.faces) for b in w.bundles]
        assert sizes and all(s == 20 for s in sizes)
        # 2 coarse edge cells x 1 coarse level
        assert len(w.bundles) == 2

    def test_bundle_measures_match(self):
        w = two_subdomain_window()
        for b in w.bundles:
            fine_measure = sum(w.faces.area[f] * w.faces.dt[f]
                               for f in b.faces)
            assert fine_measure == pytest.approx(b.coarse_extent,
                                                 rel=1e-12)

    def test_conforming_interface_degenerates(self):
        a = Subdomain((0.0, 0.0, 5.0, 5.0), (1.0, 1.0), 1.0)
        b = Subdomain((5.0, 0.0, 10.0, 5.0), (1.0, 1.0), 1.0)
        w = build_window([a, b], 1.0, (0.0, 0.0, 10.0, 5.0))
        assert all(len(bd.faces) == 1 for bd in w.bundles)
        # total face count equals the single-domain conforming count
        whole = build_window(
            [Subdomain((0.0, 0.0, 10.0, 5.0), (1.0, 1.0), 1.0)],
            1.0, (0.0, 0.0, 10.0, 5.0))
        assert w.n_faces == whole.n_faces

    def test_bundles_partition_interface_faces(self):
        # a fine box ringed by coarse subdomains: every face between two
        # subdomains is in exactly one bundle, whose coarse cell it touches
        coarse = [(0.0, 0.0, 2.0, 6.0), (2.0, 0.0, 4.0, 2.0),
                  (2.0, 4.0, 4.0, 6.0), (4.0, 0.0, 6.0, 6.0)]
        subs = [Subdomain(r, (1.0, 1.0), 0.5, 4) for r in coarse]
        subs.append(Subdomain((2.0, 2.0, 4.0, 4.0), (0.5, 0.5), 0.25, 1))
        w = build_window(subs, 1.0, (0.0, 0.0, 6.0, 6.0))
        f = w.faces
        sub_l = w.sub_of_cell[f.s_left]
        sub_r = w.sub_of_cell[f.s_right]
        bundled = [i for b in w.bundles for i in b.faces]
        assert sorted(bundled) == list(np.nonzero(sub_l != sub_r)[0])
        for b in w.bundles:
            assert list(b.faces) == sorted(b.faces)
            ends = f.c_left if b.coarse_is_left else f.c_right
            assert set(ends[list(b.faces)]) == {b.coarse_cell}
            assert w.st_level[b.coarse_cell] == b.coarse_level
            assert w.sub_of_cell[w.st_spatial[b.coarse_cell]] == \
                b.coarse_sub
        assert w.bundles is w.bundles

    def test_temporal_only_refinement(self):
        # the ratio-3 line case: one coarse face level bundles 3 fine levels
        a = Subdomain((0.0, 0.0, 3.0, 1.0), (1.0, 1.0), 1.0)
        b = Subdomain((3.0, 0.0, 6.0, 1.0), (1.0, 1.0), 3.0)
        w = build_window([a, b], 3.0, (0.0, 0.0, 6.0, 1.0))
        assert [len(bd.faces) for bd in w.bundles] == [3]


class TestInterfaceValidation:
    """Each window breaks one rule of the faces between two subdomains."""

    @pytest.mark.parametrize("subs, reservoir, delta_t, exc", [
        # edge spacings 1.0 and 1.5 are not integer multiples
        ([((0.0, 0.0, 3.0, 3.0), (1.0, 1.0), 1.0),
          ((3.0, 0.0, 6.0, 3.0), (1.5, 1.5), 1.0)],
         (0.0, 0.0, 6.0, 3.0), 1.0, MisalignedInterface),
        # the coarse cell (0, 0)-(2, 2) borders two subdomains
        ([((0.0, 0.0, 2.0, 4.0), (2.0, 2.0), 1.0),
          ((2.0, 0.0, 4.0, 1.0), (1.0, 1.0), 1.0),
          ((2.0, 1.0, 4.0, 4.0), (1.0, 1.0), 1.0)],
         (0.0, 0.0, 4.0, 4.0), 1.0, MisalignedInterface),
        # the middle right grid is offset half a cell along the edge
        ([((0.0, 0.0, 2.0, 4.0), (1.0, 1.0), 1.0),
          ((2.0, 0.0, 4.0, 0.5), (0.5, 0.5), 1.0),
          ((2.0, 0.5, 4.0, 3.5), (1.0, 1.0), 1.0),
          ((2.0, 3.5, 4.0, 4.0), (0.5, 0.5), 1.0)],
         (0.0, 0.0, 4.0, 4.0), 1.0, MisalignedInterface),
        # dt 2 beside dt 3: both divide the window, neither the other
        ([((0.0, 0.0, 2.0, 2.0), (1.0, 1.0), 2.0),
          ((2.0, 0.0, 4.0, 2.0), (1.0, 1.0), 3.0)],
         (0.0, 0.0, 4.0, 2.0), 6.0, NonIntegerRatio),
    ], ids=["spacing", "straddle", "offset", "dt"])
    def test_single_fault_rejected(self, subs, reservoir, delta_t, exc):
        with pytest.raises(exc):
            build_window([Subdomain(*s) for s in subs], delta_t, reservoir)


def random_window(name, seed):
    """A window of a random tile map, with every identifier, over the
    toy table or one with space and time ratio 3."""
    if name == "toy":
        cfg = preset("toy")
        reservoir, tile, table = cfg.reservoir, cfg.tile, cfg.table
        delta_t = cfg.delta_t
    else:
        reservoir, tile, delta_t = (0.0, 0.0, 18.0, 9.0), (3.0, 3.0), 3.0
        table = {1: (1.0, 1.0, 1.0), 2: (1.0, 1.0, 3.0),
                 3: (3.0, 3.0, 1.0), 4: (3.0, 3.0, 3.0)}
    tiling = Tiling(reservoir, *tile)
    rng = np.random.default_rng(seed)
    ids = rng.integers(1, 5, size=tiling.shape)
    ids.flat[rng.choice(ids.size, 4, replace=False)] = [1, 2, 3, 4]
    z = np.zeros(tiling.shape)
    subs = decompose(IdentifierMap(ids, z, z, z), tiling, table)
    return build_window(subs, delta_t, reservoir)


class TestFaceCompleteness:
    """The interface faces are exactly those a brute-force search over
    every pair of spatial cells finds."""

    @staticmethod
    def expected_faces(w):
        """(axis, left st cell, right st cell) of every face between two
        cells of different subdomains whose edges overlap."""
        lo = np.stack([w.cell_cx - w.cell_hx / 2, w.cell_cy - w.cell_hy / 2])
        hi = np.stack([w.cell_cx + w.cell_hx / 2, w.cell_cy + w.cell_hy / 2])
        st = {(int(s), int(l)): c for c, (s, l) in
              enumerate(zip(w.st_spatial, w.st_level))}
        dt = np.array([s.dt for s in w.subdomains])[w.sub_of_cell]
        out = []
        for axis in (0, 1):
            # left cell i touches right cell j across axis, overlapping along it
            touch = np.abs(hi[axis][:, None] - lo[axis][None, :]) < 1e-9
            overlap = (np.minimum(hi[1 - axis][:, None], hi[1 - axis][None, :])
                       - np.maximum(lo[1 - axis][:, None],
                                    lo[1 - axis][None, :]))
            other = w.sub_of_cell[:, None] != w.sub_of_cell[None, :]
            for i, j in zip(*np.nonzero(touch & (overlap > 1e-9) & other)):
                dt_fine = min(dt[i], dt[j])
                for m in range(1, round(w.delta_t / dt_fine) + 1):
                    li, lj = (int(np.ceil(m * dt_fine / d - 1e-9))
                              for d in (dt[i], dt[j]))
                    out.append((axis, st[i, li], st[j, lj]))
        return sorted(out)

    @pytest.mark.parametrize("name", ["toy", "ratio3"])
    @pytest.mark.parametrize("seed", range(6))
    def test_interface_faces_are_complete(self, name, seed):
        w = random_window(name, seed)
        assert {s.identifier for s in w.subdomains} == {1, 2, 3, 4}
        f = w.faces
        between = np.flatnonzero(w.sub_of_cell[f.s_left]
                                 != w.sub_of_cell[f.s_right])
        got = sorted(zip(f.axis[between].tolist(), f.c_left[between].tolist(),
                         f.c_right[between].tolist()))
        assert got == self.expected_faces(w)
        # the interface ranges hold exactly these faces
        ranges = [i for a, b, _ in w._interfaces for i in range(a, b)]
        assert ranges == between.tolist()


def full_factor_order(n, rows, cols):
    """The oracle of `minimum_degree_order`: SuperLU's MMD column order
    of a full symmetric-mode factor of the graph's diagonally dominant
    matrix, which is what it returned before it used an incomplete
    factor."""
    off = rows != cols
    i = np.concatenate([rows[off], cols[off]])
    j = np.concatenate([cols[off], rows[off]])
    graph = sp.csc_matrix((np.ones(len(i)), (i, j)), shape=(n, n))
    graph.sum_duplicates()
    graph.data[:] = -1.0
    spd = (graph + sp.diags(np.diff(graph.indptr) + 1.0)).tocsc()
    lu = spla.splu(spd, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    return np.argsort(lu.perm_c)


class TestMinimumDegreeOrder:
    """The order is the one a full SuperLU factor takes, cell for cell."""

    @staticmethod
    def check(n, rows, cols):
        got = minimum_degree_order(n, np.asarray(rows), np.asarray(cols))
        assert np.array_equal(np.sort(got), np.arange(n))
        assert np.array_equal(got, full_factor_order(n, np.asarray(rows),
                                                     np.asarray(cols)))

    @pytest.mark.parametrize("mode", ["uniform-fine", "uniform-coarse",
                                      "static-dd"])
    def test_toy_windows(self, mode):
        cfg = preset("toy")
        tiling = Tiling(cfg.reservoir, *cfg.tile)
        shape = tiling.shape
        ids = np.full(shape, {"uniform-fine": 1, "uniform-coarse": 4,
                              "static-dd": 4}[mode])
        if mode == "static-dd":
            ids[shape[0] // 4:shape[0] // 2, shape[1] // 4:shape[1] // 2] = 1
        z = np.zeros(shape)
        w = build_window(decompose(IdentifierMap(ids, z, z, z), tiling,
                                   cfg.table), cfg.delta_t, cfg.reservoir)
        self.check(w.n_st, *w.jacobian_blocks)

    @pytest.mark.parametrize("name", ["toy", "ratio3"])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_decompositions(self, name, seed):
        w = random_window(name, seed)
        self.check(w.n_st, *w.jacobian_blocks)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_graphs(self, seed):
        """Repeated edges and self-loops included."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 80))
        m = int(rng.integers(0, 4 * n))
        self.check(n, np.concatenate([np.arange(n), rng.integers(0, n, m)]),
                   np.concatenate([np.arange(n), rng.integers(0, n, m)]))

    def test_disconnected_graph(self):
        """Two paths and an isolated cell."""
        rows = [0, 1, 2, 3, 4, 5, 6, 0, 1, 4, 5]
        cols = [0, 1, 2, 3, 4, 5, 6, 1, 2, 5, 6]
        self.check(7, rows, cols)

    def test_one_cell(self):
        self.check(1, [0], [0])
        assert minimum_degree_order(1, np.zeros(1, int),
                                    np.zeros(1, int)).tolist() == [0]


class TestBlockPattern:
    def test_repeated_cell_pair_raises(self):
        """A second block at one (row, column) pair of cells would sum
        into the first's positions."""
        w = two_subdomain_window()
        rows, cols = w.jacobian_blocks
        rows, cols = np.append(rows, rows[-1]), np.append(cols, cols[-1])
        with pytest.raises(MeshError,
                           match="two faces join the same pair of cells"):
            _block_pattern(rows, cols, np.arange(w.n_st))


def window_dump(w):
    """Plain-text adjacency listing of a window, for golden comparison."""
    lines = [
        f"window length={w.delta_t:g} reservoir={w.reservoir}",
    ]
    for k, sub in enumerate(w.subdomains):
        lines.append(
            f"sub {k} region={sub.region} h=({sub.cell_size[0]:g},"
            f"{sub.cell_size[1]:g}) dt={sub.dt:g} id={sub.identifier}"
            f" cells={sub.nx}x{sub.ny} levels={sub.n_steps(w.delta_t)}"
        )
    f = w.faces
    for i in range(w.n_faces):
        lines.append(
            f"face {i} axis={int(f.axis[i])} L=st{int(f.c_left[i])}"
            f" R=st{int(f.c_right[i])} area={f.area[i]:g} dt={f.dt[i]:g}"
        )
    for i, b in enumerate(w.bundles):
        side = "L" if b.coarse_is_left else "R"
        lines.append(
            f"bundle {i} coarse=st{b.coarse_cell}({side})"
            f" level={b.coarse_level} faces={list(b.faces)}"
        )
    return "\n".join(lines) + "\n"


class TestGoldenDump:
    def test_dump_regression(self, tmp_path):
        import pathlib
        w = two_subdomain_window()
        text = window_dump(w)
        golden = pathlib.Path(__file__).parent / "data" / "window_dump.txt"
        assert text == golden.read_text()
