"""Space-time windows: subdomain grids, non-matching interfaces, DOF numbering.

A window spans one matching step (t_start, t_end].  Each subdomain carries its
own cell size and time-step size; the only constraints are that subdomain
footprints tile the reservoir, every dt divides the window length, and cell
sizes of touching subdomains are integer multiples of each other along the
shared edge.  Flux unknowns on a non-matching interface live at the fine
granularity in both space and time: one unknown per fine face per fine time
level, and the coarse cell's divergence sums all of them, which is what makes
the scheme locally conservative across the interface.

A window keeps its Jacobian's CSC pattern in two cell numberings, built on
first use from the structure alone: natural (`jacobian_pattern`), which
`stdd.solver` factors with COLAMD, and minimum degree (`ordered_pattern`),
which it factors in symmetric mode once the window is swept.

Windows are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    MeshError,
    MisalignedInterface,
    NonIntegerRatio,
    TilingGap,
    TilingOverlap,
)

_TOL = 1.0e-9


def _int_ratio(num, den, exc, what):
    """num/den as an exact positive integer, or raise exc."""
    r = num / den
    n = int(round(r))
    if n < 1 or abs(r - n) > _TOL * max(1.0, abs(r)):
        raise exc(f"{what}: {num} / {den} is not a positive integer")
    return n


def _int_offset(num, den, exc, what):
    """num/den as an exact non-negative integer, or raise exc."""
    r = num / den
    n = int(round(r))
    if n < 0 or abs(r - n) > _TOL * max(1.0, abs(r)):
        raise exc(f"{what}: {num} / {den} is not a non-negative integer")
    return n


def _quantize(values, scale=1.0e6):
    """Map float coordinates to an integer lattice (micro-ft)."""
    q = np.round(np.asarray(values, dtype=float) * scale).astype(np.int64)
    err = np.abs(np.asarray(values) * scale - q)
    if np.any(err > 1.0e-3):
        raise MisalignedInterface("coordinates do not align to a 1e-6 ft lattice")
    return q


@dataclass(frozen=True)
class Subdomain:
    """Axis-aligned box with uniform cell size and time-step size."""

    region: tuple          # (x0, y0, x1, y1) ft
    cell_size: tuple       # (hx, hy) ft
    dt: float              # days
    identifier: int = 4    # refinement class 1..4

    def __post_init__(self):
        x0, y0, x1, y1 = self.region
        hx, hy = self.cell_size
        if hx <= 0 or hy <= 0 or self.dt <= 0:
            raise ValueError("cell sizes and dt must be positive")
        if x1 <= x0 or y1 <= y0:
            raise ValueError("degenerate region")
        if self.identifier not in (1, 2, 3, 4):
            raise ValueError("identifier must be one of 1..4")
        _int_ratio(x1 - x0, hx, MisalignedInterface, "region width / hx")
        _int_ratio(y1 - y0, hy, MisalignedInterface, "region height / hy")

    @property
    def nx(self):
        return _int_ratio(self.region[2] - self.region[0], self.cell_size[0],
                          MisalignedInterface, "nx")

    @property
    def ny(self):
        return _int_ratio(self.region[3] - self.region[1], self.cell_size[1],
                          MisalignedInterface, "ny")

    def n_steps(self, delta_t):
        return _int_ratio(delta_t, self.dt, NonIntegerRatio,
                          "window length / subdomain dt")


@dataclass(frozen=True)
class InterfaceBundle:
    """All fine space-time faces covering one coarse face at one coarse level.

    No coarse-face flux unknown exists; the coarse side's divergence sums the
    flux unknowns of `faces`.
    """

    coarse_sub: int        # subdomain index of the coarse side
    coarse_cell: int       # global space-time cell index on the coarse side
    coarse_level: int
    coarse_is_left: bool   # True if the coarse cell sits on the left of the faces
    coarse_extent: float   # coarse face space-time measure, ft*day (unit depth)
    faces: tuple           # global face indices, fine granularity


@dataclass
class FaceSet:
    """Flat arrays over every flux face of a window, at fine granularity.

    A face connects the left cell at `c_left` (its own time level) to the
    right cell at `c_right`.  At a non-matching interface the coarse side's
    index points at the coarse level whose time slab contains the face slab.
    """

    axis: np.ndarray       # 0 = x-face, 1 = y-face
    area: np.ndarray       # cross-section, ft^2 (edge length * dz)
    dt: np.ndarray         # face time-slab length, days
    s_left: np.ndarray     # spatial cell indices
    s_right: np.ndarray
    c_left: np.ndarray     # space-time cell indices
    c_right: np.ndarray
    h_left: np.ndarray     # cell extent along the face axis, ft
    h_right: np.ndarray

    def __len__(self):
        return len(self.axis)


@dataclass(frozen=True)
class JacobianPattern:
    """CSC sparsity of a window's flux-eliminated Jacobian.

    `pos[k]` holds the CSC data positions of the four entries of block k
    of `SpaceTimeWindow.jacobian_blocks`; no two blocks share a position.
    """

    indptr: np.ndarray
    indices: np.ndarray
    pos: np.ndarray          # (blocks, 4)

    @property
    def nnz(self):
        return len(self.indices)


def _block_pattern(n, rows, cols):
    """CSC pattern of an n-cell Jacobian with a 2x2 block at each
    (rows[k], cols[k]).

    Column 2j (p) and column 2j + 1 (s) of cell j hold the same rows:
    2i and 2i + 1 for each cell i coupled to j, in order of i.
    """
    pairs, block = np.unique(cols * n + rows, return_inverse=True)
    if len(pairs) != len(rows):
        raise MeshError("two faces join the same pair of cells")
    j, i = np.divmod(pairs, n)
    ptr = np.concatenate([[0], np.cumsum(np.bincount(j, minlength=n))])
    m = np.diff(ptr)                  # blocks in each column of cells
    first = 4 * ptr[j] + 2 * (np.arange(len(pairs)) - ptr[j])
    entry = (first[:, None] + np.array([0, 0, 1, 1])
             + 2 * m[j][:, None] * np.array([0, 1, 0, 1]))
    indices = np.empty(4 * len(pairs), dtype=np.int32)
    indices[entry] = 2 * i[:, None] + np.array([0, 0, 1, 1])
    indptr = np.empty(2 * n + 1, dtype=np.int32)
    indptr[0:-1:2] = 4 * ptr[:-1]
    indptr[1::2] = 4 * ptr[:-1] + 2 * m
    indptr[-1] = 4 * ptr[-1]
    pattern = JacobianPattern(indptr=indptr, indices=indices,
                              pos=entry[block.ravel()])
    for a in vars(pattern).values():
        a.setflags(write=False)
    return pattern


class SpaceTimeWindow:
    """Immutable mesh + DOF numbering for one matching step."""

    def __init__(self, subdomains, delta_t, reservoir, window_index, t_start,
                 dz, cells, st, faces, interfaces):
        self.subdomains = tuple(subdomains)
        self.delta_t = float(delta_t)
        self.reservoir = tuple(reservoir)
        self.window_index = int(window_index)
        self.t_start = float(t_start)
        self.t_end = float(t_start) + float(delta_t)
        self.dz = float(dz)

        (self.sub_of_cell, self.cell_cx, self.cell_cy, self.cell_hx,
         self.cell_hy, self.cell_vol, self.spatial_offset) = cells
        (self.st_spatial, self.st_level, self.st_dt, self.st_t_end,
         self.st_prev, self.st_offset) = st
        self.faces = faces
        # per interface: (first face, bundle groups, coarse-side subdomain)
        self._interfaces = tuple(interfaces)

        self.n_spatial = len(self.sub_of_cell)
        self.n_st = len(self.st_spatial)
        self.n_faces = len(faces)
        self.n_y = 2 * self.n_st

        for a in (self.sub_of_cell, self.cell_cx, self.cell_cy, self.cell_hx,
                  self.cell_hy, self.cell_vol, self.st_spatial, self.st_level,
                  self.st_dt, self.st_t_end, self.st_prev):
            a.setflags(write=False)
        for a in vars(self.faces).values():
            a.setflags(write=False)

    @cached_property
    def bundles(self):
        """Interface bundles, built on first read; Newton does not use
        them."""
        out = []
        for first, grp, ksub in self._interfaces:
            gid = np.asarray(grp["gid"]).ravel()
            faces = first + np.argsort(gid, kind="stable")
            ends = np.cumsum(np.bincount(gid, minlength=len(grp["keys"])))
            nc = self.spatial_offset[ksub + 1] - self.spatial_offset[ksub]
            for (local, level), idx in zip(grp["keys"],
                                           np.split(faces, ends[:-1])):
                out.append(InterfaceBundle(
                    coarse_sub=int(ksub),
                    coarse_cell=int(self.st_offset[ksub]
                                    + (level - 1) * nc + local),
                    coarse_level=int(level),
                    coarse_is_left=bool(grp["coarse_is_left"]),
                    coarse_extent=float(grp["coarse_extent"] * self.dz),
                    faces=tuple(idx.tolist()),
                ))
        return tuple(out)

    def jacobian_blocks(self):
        """(row cell, column cell) of every 2x2 block of the flux-eliminated
        Jacobian.

        The blocks are, in order: each cell against itself, each cell with
        a previous level against that level, each face's left cell against
        its right, then each face's right cell against its left.  A block's
        entries are ordered (total, p), (total, s), (water, p), (water, s).
        """
        hp = np.nonzero(self.st_prev >= 0)[0]
        cl, cr = self.faces.c_left, self.faces.c_right
        c = np.arange(self.n_st)
        return (np.concatenate([c, hp, cl, cr]),
                np.concatenate([c, self.st_prev[hp], cr, cl]))

    @cached_property
    def jacobian_pattern(self):
        """The Jacobian's CSC pattern in the natural cell numbering, built
        on first use."""
        return _block_pattern(self.n_st, *self.jacobian_blocks())

    @cached_property
    def cell_order(self):
        """Minimum-degree order of the symmetrized cell graph, whose edges
        are the blocks of `jacobian_blocks`: position k holds cell
        `cell_order[k]`.  SciPy exposes minimum degree only through
        SuperLU, so this factors a diagonally dominant matrix on the graph
        (-1 per edge, degree + 1 on the diagonal) with diagonal pivots;
        `perm_c[c]` is cell c's position."""
        n = self.n_st
        rows, cols = self.jacobian_blocks()
        off = rows != cols
        i = np.concatenate([rows[off], cols[off]])
        j = np.concatenate([cols[off], rows[off]])
        graph = sp.csc_matrix((np.ones(len(i)), (i, j)), shape=(n, n))
        graph.sum_duplicates()
        graph.data[:] = -1.0
        degree = np.diff(graph.indptr)
        spd = (graph + sp.diags(degree + 1.0)).tocsc()
        lu = spla.splu(spd, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
        return np.argsort(lu.perm_c)

    @cached_property
    def ordered_pattern(self):
        """`jacobian_pattern` with cell `cell_order[k]` numbered k, built
        on first use; a cell's p and s unknowns stay adjacent."""
        rank = np.empty(self.n_st, dtype=np.int64)
        rank[self.cell_order] = np.arange(self.n_st)
        rows, cols = self.jacobian_blocks()
        return _block_pattern(self.n_st, rank[rows], rank[cols])

    def final_level_cells(self):
        """Space-time indices of every spatial cell at the window's end time."""
        out = np.empty(self.n_spatial, dtype=np.int64)
        for k, sub in enumerate(self.subdomains):
            nc = sub.nx * sub.ny
            steps = sub.n_steps(self.delta_t)
            sl = slice(self.spatial_offset[k], self.spatial_offset[k] + nc)
            out[sl] = self.st_offset[k] + (steps - 1) * nc + np.arange(nc)
        return out


# ---------------------------------------------------------------------------
# construction helpers
# ---------------------------------------------------------------------------


def _check_tiling(subdomains, reservoir):
    """Footprints must partition the reservoir box exactly."""
    if not subdomains:
        raise TilingGap("empty decomposition")
    X0, Y0, X1, Y1 = reservoir
    xs = _quantize([X0, X1] + [v for s in subdomains for v in
                               (s.region[0], s.region[2], s.cell_size[0])])
    ys = _quantize([Y0, Y1] + [v for s in subdomains for v in
                               (s.region[1], s.region[3], s.cell_size[1])])
    ax = np.gcd.reduce(np.abs(xs[xs != 0]))
    ay = np.gcd.reduce(np.abs(ys[ys != 0]))
    nx = (xs[1] - xs[0]) // ax
    ny = (ys[1] - ys[0]) // ay
    if nx * ny > 50_000_000:
        raise MisalignedInterface("tiling check lattice too fine")
    occ = np.zeros((nx, ny), dtype=np.int8)
    for s in subdomains:
        q = _quantize(s.region)
        i0, i1 = (q[0] - xs[0]) // ax, (q[2] - xs[0]) // ax
        j0, j1 = (q[1] - ys[0]) // ay, (q[3] - ys[0]) // ay
        if i0 < 0 or j0 < 0 or i1 > nx or j1 > ny:
            raise TilingOverlap(f"subdomain {s.region} extends outside {reservoir}")
        occ[i0:i1, j0:j1] += 1
    if np.any(occ > 1):
        raise TilingOverlap("subdomain footprints overlap")
    if np.any(occ == 0):
        raise TilingGap("subdomain footprints leave gaps")


def shared_edge(a: Subdomain, b: Subdomain):
    """Shared edge between two boxes: (axis, a_is_left, lo, hi) or None.

    axis 0 means faces normal to x (the edge runs along y), axis 1 the
    converse.  `a_is_left` is True when `a` sits on the low-coordinate side.
    """
    ax0, ay0, ax1, ay1 = a.region
    bx0, by0, bx1, by1 = b.region
    tol = 1.0e-6
    if abs(ax1 - bx0) < tol:
        lo, hi = max(ay0, by0), min(ay1, by1)
        if hi - lo > tol:
            return (0, True, lo, hi)
    if abs(bx1 - ax0) < tol:
        lo, hi = max(ay0, by0), min(ay1, by1)
        if hi - lo > tol:
            return (0, False, lo, hi)
    if abs(ay1 - by0) < tol:
        lo, hi = max(ax0, bx0), min(ax1, bx1)
        if hi - lo > tol:
            return (1, True, lo, hi)
    if abs(by1 - ay0) < tol:
        lo, hi = max(ax0, bx0), min(ax1, bx1)
        if hi - lo > tol:
            return (1, False, lo, hi)
    return None


def enumerate_interface(sub_a, sub_b, edge, delta_t):
    """Enumerate the fine space-time faces of one subdomain interface.

    `edge` is `shared_edge(sub_a, sub_b)` and `delta_t` the window length.
    Returns (records, groups).  `records` is a dict of flat arrays, one entry
    per fine face, with the local cell index and time level on each side
    (`left` is the low-coordinate side).  `groups` assigns each face to the
    bundle of the space-time-coarser side: an array of group keys
    (coarse local cell, coarse level) and per-face group ids.

    The face granularity is the finer spacing of the two sides in space and
    the finer dt in time, so a side that is fine in space but coarse in time
    still resolves the other's fine levels.
    """
    axis, a_is_left, lo, hi = edge
    left, right = (sub_a, sub_b) if a_is_left else (sub_b, sub_a)

    # spacing along the edge
    perp = 1 - axis
    h_l = left.cell_size[perp]
    h_r = right.cell_size[perp]
    hf = min(h_l, h_r)
    for h, name in ((h_l, "left"), (h_r, "right")):
        _int_ratio(h, hf, MisalignedInterface, f"{name} edge spacing ratio")
    org_l = left.region[perp]
    org_r = right.region[perp]
    for org, h, name in ((org_l, h_l, "left"), (org_r, h_r, "right")):
        for p in (lo, hi):
            r = (p - org) / h
            if abs(r - round(r)) > _TOL * max(1.0, abs(r)):
                raise MisalignedInterface(
                    f"edge segment does not align with the {name} grid")
    dtf = min(left.dt, right.dt)
    _int_ratio(left.dt, dtf, NonIntegerRatio, "left dt ratio")
    _int_ratio(right.dt, dtf, NonIntegerRatio, "right dt ratio")

    n_seg = _int_ratio(hi - lo, hf, MisalignedInterface, "segment length / spacing")
    n_t = _int_ratio(delta_t, dtf, NonIntegerRatio, "window length / fine dt")

    k = np.repeat(np.arange(n_seg), n_t)          # position along edge
    m = np.tile(np.arange(1, n_t + 1), n_seg)     # fine time level
    pos = lo + (k + 0.5) * hf

    def side_cells(sub, at_high_end):
        nx, ny = sub.nx, sub.ny
        along = ((pos - sub.region[perp]) / sub.cell_size[perp]).astype(np.int64)
        if axis == 0:
            i = np.full_like(along, nx - 1 if at_high_end else 0)
            local = along * nx + i
        else:
            j = np.full_like(along, ny - 1 if at_high_end else 0)
            local = j * nx + along
        level = np.ceil(m * dtf / sub.dt - _TOL).astype(np.int64)
        return local, level

    local_l, level_l = side_cells(left, at_high_end=True)
    local_r, level_r = side_cells(right, at_high_end=False)

    records = {
        "axis": np.full(n_seg * n_t, axis, dtype=np.int8),
        "dt": np.full(n_seg * n_t, dtf),
        "hf_edge": hf,
        "local_left": local_l, "level_left": level_l,
        "local_right": local_r, "level_right": level_r,
        "t_end": np.asarray(m * dtf, dtype=float),
    }

    # bundle on the space-time-coarser side; ties go to the left side
    coarse_is_left = (h_l * left.dt) >= (h_r * right.dt)
    cl, lv = (local_l, level_l) if coarse_is_left else (local_r, level_r)
    keys = np.stack([cl, lv], axis=1)
    uniq, gid = np.unique(keys, axis=0, return_inverse=True)
    h_c = h_l if coarse_is_left else h_r
    dt_c = left.dt if coarse_is_left else right.dt
    groups = {
        "coarse_is_left": coarse_is_left,
        "keys": uniq,                 # (n_groups, 2): local cell, level
        "gid": gid,
        "coarse_extent": h_c * dt_c,  # per unit depth
    }
    return records, groups


def build_window(subdomains, delta_t, reservoir, *, window_index=0,
                 t_start=0.0, dz=1.0):
    """Assemble a validated SpaceTimeWindow from a box decomposition."""
    if delta_t <= 0:
        raise ValueError("window length must be positive")
    subdomains = tuple(subdomains)
    _check_tiling(subdomains, reservoir)

    n_sub = len(subdomains)
    steps = [s.n_steps(delta_t) for s in subdomains]

    # spatial cells
    spatial_offset = np.zeros(n_sub + 1, dtype=np.int64)
    cx_l, cy_l, hx_l, hy_l, sub_l = [], [], [], [], []
    for k, s in enumerate(subdomains):
        nx, ny = s.nx, s.ny
        spatial_offset[k + 1] = spatial_offset[k] + nx * ny
        i = np.tile(np.arange(nx), ny)
        j = np.repeat(np.arange(ny), nx)
        cx_l.append(s.region[0] + (i + 0.5) * s.cell_size[0])
        cy_l.append(s.region[1] + (j + 0.5) * s.cell_size[1])
        hx_l.append(np.full(nx * ny, s.cell_size[0]))
        hy_l.append(np.full(nx * ny, s.cell_size[1]))
        sub_l.append(np.full(nx * ny, k, dtype=np.int64))
    cell_cx = np.concatenate(cx_l)
    cell_cy = np.concatenate(cy_l)
    cell_hx = np.concatenate(hx_l)
    cell_hy = np.concatenate(hy_l)
    sub_of_cell = np.concatenate(sub_l)
    cell_vol = cell_hx * cell_hy * dz

    # space-time cells, level-major within each subdomain
    st_offset = np.zeros(n_sub + 1, dtype=np.int64)
    for k in range(n_sub):
        nc = spatial_offset[k + 1] - spatial_offset[k]
        st_offset[k + 1] = st_offset[k] + nc * steps[k]
    n_st = int(st_offset[-1])
    st_spatial = np.empty(n_st, dtype=np.int64)
    st_level = np.empty(n_st, dtype=np.int64)
    st_dt = np.empty(n_st)
    st_prev = np.empty(n_st, dtype=np.int64)
    for k, s in enumerate(subdomains):
        nc = int(spatial_offset[k + 1] - spatial_offset[k])
        for l in range(1, steps[k] + 1):
            sl = slice(st_offset[k] + (l - 1) * nc, st_offset[k] + l * nc)
            st_spatial[sl] = np.arange(spatial_offset[k], spatial_offset[k + 1])
            st_level[sl] = l
            st_dt[sl] = s.dt
            st_prev[sl] = -1 if l == 1 else np.arange(sl.start - nc, sl.stop - nc)
    st_t_end = t_start + st_level * st_dt

    # faces: interior per subdomain, then interfaces
    fa, far, fdt, fsl, fsr, fcl, fcr, fhl, fhr = ([] for _ in range(9))

    def push(axis, area, dt, sl_, sr_, cl_, cr_, hl_, hr_):
        n = len(sl_)
        fa.append(np.full(n, axis, dtype=np.int8))
        far.append(np.broadcast_to(np.asarray(area, dtype=float), (n,)).copy())
        fdt.append(np.broadcast_to(np.asarray(dt, dtype=float), (n,)).copy())
        fsl.append(np.asarray(sl_, dtype=np.int64))
        fsr.append(np.asarray(sr_, dtype=np.int64))
        fcl.append(np.asarray(cl_, dtype=np.int64))
        fcr.append(np.asarray(cr_, dtype=np.int64))
        fhl.append(np.broadcast_to(np.asarray(hl_, dtype=float), (n,)).copy())
        fhr.append(np.broadcast_to(np.asarray(hr_, dtype=float), (n,)).copy())

    n_faces = 0
    for k, s in enumerate(subdomains):
        nx, ny = s.nx, s.ny
        hx, hy = s.cell_size
        base = np.arange(spatial_offset[k], spatial_offset[k + 1]).reshape(ny, nx)
        for l in range(1, steps[k] + 1):
            stbase = (st_offset[k] + (l - 1) * nx * ny
                      + np.arange(nx * ny).reshape(ny, nx))
            if nx > 1:
                sl_ = base[:, :-1].ravel()
                sr_ = base[:, 1:].ravel()
                push(0, hy * dz, s.dt, sl_, sr_,
                     stbase[:, :-1].ravel(), stbase[:, 1:].ravel(), hx, hx)
                n_faces += (nx - 1) * ny
            if ny > 1:
                sl_ = base[:-1, :].ravel()
                sr_ = base[1:, :].ravel()
                push(1, hx * dz, s.dt, sl_, sr_,
                     stbase[:-1, :].ravel(), stbase[1:, :].ravel(), hy, hy)
                n_faces += (ny - 1) * nx

    interfaces = []
    for a in range(n_sub):
        for b in range(a + 1, n_sub):
            edge = shared_edge(subdomains[a], subdomains[b])
            if edge is None:
                continue
            rec, grp = enumerate_interface(subdomains[a], subdomains[b],
                                           edge, delta_t)
            axis, a_is_left, _, _ = edge
            kl, kr = (a, b) if a_is_left else (b, a)
            subl, subr = subdomains[kl], subdomains[kr]
            ncl, ncr = subl.nx * subl.ny, subr.nx * subr.ny
            sl_ = spatial_offset[kl] + rec["local_left"]
            sr_ = spatial_offset[kr] + rec["local_right"]
            cl_ = (st_offset[kl] + (rec["level_left"] - 1) * ncl
                   + rec["local_left"])
            cr_ = (st_offset[kr] + (rec["level_right"] - 1) * ncr
                   + rec["local_right"])
            hl_ = subl.cell_size[axis]
            hr_ = subr.cell_size[axis]
            first = n_faces
            push(axis, rec["hf_edge"] * dz, rec["dt"], sl_, sr_, cl_, cr_,
                 hl_, hr_)
            n_faces += len(sl_)
            interfaces.append((first, grp,
                               kl if grp["coarse_is_left"] else kr))

    if n_faces:
        faces = FaceSet(
            axis=np.concatenate(fa), area=np.concatenate(far),
            dt=np.concatenate(fdt), s_left=np.concatenate(fsl),
            s_right=np.concatenate(fsr), c_left=np.concatenate(fcl),
            c_right=np.concatenate(fcr), h_left=np.concatenate(fhl),
            h_right=np.concatenate(fhr),
        )
    else:
        z = np.zeros(0)
        zi = np.zeros(0, dtype=np.int64)
        faces = FaceSet(axis=np.zeros(0, dtype=np.int8), area=z, dt=z,
                        s_left=zi, s_right=zi, c_left=zi, c_right=zi,
                        h_left=z, h_right=z)

    return SpaceTimeWindow(
        subdomains, delta_t, reservoir, window_index, t_start, dz,
        cells=(sub_of_cell, cell_cx, cell_cy, cell_hx, cell_hy, cell_vol,
               spatial_offset),
        st=(st_spatial, st_level, st_dt, st_t_end, st_prev, st_offset),
        faces=faces, interfaces=interfaces,
    )
