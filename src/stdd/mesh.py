"""Space-time windows: subdomain grids, non-matching interfaces, DOF numbering.

A window is one matching step of length `delta_t`, and nothing but its
decomposition: each subdomain carries its own cell size and time-step size,
the subdomain footprints tile the reservoir, and every dt divides the window
length.  Times within a window count from its start: level l of a subdomain
ends at l * dt.

Interfaces are found on the decomposition's lattice, whose spacing divides
every coordinate and cell size, in the same pass that checks the tiling:
each pair of 4-neighbour lattice cells in two subdomains lies on a face
between their two spatial cells, and that face repeats at every level of
the finer dt of the two.  Each such face is checked for three things: the
two cells' edge lengths along the interface are integer multiples, each
cell edge borders one subdomain, and the two dt are integer multiples.  So
flux unknowns on a non-matching interface live at the fine granularity in
both space and time: one unknown per fine face per fine time level, and
the coarse cell's divergence sums all of them, which is what makes the
scheme locally conservative across the interface.

A face is its axis and its two space-time cells; its spatial cells, cell
extents, cross-section and time slab all follow from the window's cell
arrays, and so do the interface bundles.

A window keeps the cells of its Jacobian's 2x2 blocks (`jacobian_blocks`)
and one CSC pattern of the Jacobian (`jacobian_pattern`), both built on
first use from the structure alone, the pattern with the cells numbered in
the minimum-degree order of their graph (`minimum_degree_order`).  Windows
of one decomposition and length are equal, so a run solves consecutive
windows of one decomposition on the same window object, pattern included.

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


def _int_ratio(num, den, exc, what, least=1):
    """num/den as an exact integer of at least `least` (1 or 0), or raise
    exc."""
    r = num / den
    n = int(round(r))
    if n < least or abs(r - n) > _TOL * max(1.0, abs(r)):
        kind = "positive" if least else "non-negative"
        raise exc(f"{what}: {num} / {den} is not a {kind} integer")
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
    The face's edge and time slab are the finer of its two cells'.
    """

    axis: np.ndarray       # 0 = x-face, 1 = y-face
    area: np.ndarray       # cross-section, ft^2 (shorter cell edge * dz)
    dt: np.ndarray         # face time-slab length, the shorter cell dt
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

    The entry at CSC data position k is element `entry[k]` of the
    flattened (4, blocks) values of the blocks of
    `SpaceTimeWindow.jacobian_blocks`, whose row e holds each block's
    entry e; no two blocks share a position.  The first blocks are the
    cells' own, and `own[e, c]` is the position of entry e of cell c's.
    Row and column k is unknown `unknowns[k]` of the natural numbering.
    """

    indptr: np.ndarray
    indices: np.ndarray
    entry: np.ndarray
    own: np.ndarray          # (4, cells)
    unknowns: np.ndarray

    @property
    def nnz(self):
        return len(self.indices)


def minimum_degree_order(n, rows, cols):
    """Minimum-degree order of the symmetrized graph of n cells whose
    edges join rows[k] and cols[k]: position k holds cell `order[k]`.

    SciPy exposes minimum degree only through SuperLU, so this orders a
    diagonally dominant matrix on the graph (-1 per edge, degree + 1 on
    the diagonal) with diagonal pivots; `perm_c[c]` is cell c's position.
    An incomplete factor that drops every entry off the diagonal takes
    the same order as the full factor without computing it.
    """
    off = rows != cols
    i = np.concatenate([rows[off], cols[off]])
    j = np.concatenate([cols[off], rows[off]])
    graph = sp.csc_matrix((np.ones(len(i)), (i, j)), shape=(n, n))
    graph.sum_duplicates()
    graph.data[:] = -1.0
    degree = np.diff(graph.indptr)
    spd = (graph + sp.diags(degree + 1.0)).tocsc()
    lu = spla.spilu(spd, drop_tol=1.0e10, fill_factor=1,
                    permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True})
    return np.argsort(lu.perm_c)


def _block_pattern(rows, cols, order):
    """CSC pattern of a Jacobian with a 2x2 block at each cell pair
    (rows[k], cols[k]), the first of them the diagonal blocks of cells 0,
    1, ... in turn, with cell `order[k]` numbered k.

    Column 2k (p) and column 2k + 1 (s) of the cell numbered k hold the
    same rows: 2i and 2i + 1 for each cell numbered i coupled to it, in
    order of i.
    """
    n = len(order)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    rows, cols = rank[rows], rank[cols]
    pairs, block = np.unique(cols * n + rows, return_inverse=True)
    if len(pairs) != len(rows):
        raise MeshError("two faces join the same pair of cells")
    j, i = np.divmod(pairs, n)
    ptr = np.concatenate([[0], np.cumsum(np.bincount(j, minlength=n))])
    m = np.diff(ptr)                  # blocks in each column of cells
    first = 4 * ptr[j] + 2 * (np.arange(len(pairs)) - ptr[j])
    at = (first[:, None] + np.array([0, 0, 1, 1])
          + 2 * m[j][:, None] * np.array([0, 1, 0, 1]))
    indices = np.empty(4 * len(pairs), dtype=np.int32)
    indices[at] = 2 * i[:, None] + np.array([0, 0, 1, 1])
    indptr = np.empty(2 * n + 1, dtype=np.int32)
    indptr[0:-1:2] = 4 * ptr[:-1]
    indptr[1::2] = 4 * ptr[:-1] + 2 * m
    indptr[-1] = 4 * ptr[-1]
    pos = at[block.ravel()]
    entry = np.empty(len(indices), dtype=np.intp)
    entry[pos.T.ravel()] = np.arange(pos.size)
    pattern = JacobianPattern(
        indptr=indptr, indices=indices, entry=entry,
        own=np.ascontiguousarray(pos[:n].T),
        unknowns=(2 * order[:, None] + np.arange(2)).ravel())
    for a in vars(pattern).values():
        a.setflags(write=False)
    return pattern


class SpaceTimeWindow:
    """Immutable mesh + DOF numbering for one matching step."""

    def __init__(self, subdomains, delta_t, reservoir, dz, cells, st, faces,
                 interfaces):
        self.subdomains = tuple(subdomains)
        self.delta_t = float(delta_t)
        self.reservoir = tuple(reservoir)
        self.dz = float(dz)

        (self.sub_of_cell, self.cell_cx, self.cell_cy, self.cell_hx,
         self.cell_hy, self.cell_vol, self.spatial_offset) = cells
        (self.st_spatial, self.st_level, self.st_dt, self.st_prev,
         self.st_offset) = st
        self.faces = faces
        # per interface: (first face, end face, coarse_is_left)
        self._interfaces = tuple(interfaces)

        self.n_spatial = len(self.sub_of_cell)
        self.n_st = len(self.st_spatial)
        self.n_faces = len(faces)
        self.n_y = 2 * self.n_st

        for a in (self.sub_of_cell, self.cell_cx, self.cell_cy, self.cell_hx,
                  self.cell_hy, self.cell_vol, self.st_spatial, self.st_level,
                  self.st_dt, self.st_prev):
            a.setflags(write=False)
        for a in vars(self.faces).values():
            a.setflags(write=False)

    @cached_property
    def bundles(self):
        """Interface bundles, by coarse cell and then level, grouped from
        the faces on first read; Newton does not use them."""
        f = self.faces
        h_edge = np.stack([self.cell_hy, self.cell_hx])    # by face axis
        out = []
        for first, end, coarse_is_left in self._interfaces:
            cells = (f.c_left if coarse_is_left else f.c_right)[first:end]
            order = np.lexsort((self.st_level[cells], self.st_spatial[cells]))
            cuts = 1 + np.flatnonzero(np.diff(cells[order]))
            for group in np.split(order, cuts):
                c = int(cells[group[0]])
                s = self.st_spatial[c]
                out.append(InterfaceBundle(
                    coarse_sub=int(self.sub_of_cell[s]),
                    coarse_cell=c,
                    coarse_level=int(self.st_level[c]),
                    coarse_is_left=bool(coarse_is_left),
                    coarse_extent=float(h_edge[f.axis[first], s]
                                        * self.st_dt[c] * self.dz),
                    faces=tuple((first + group).tolist()),
                ))
        return tuple(out)

    @cached_property
    def jacobian_blocks(self):
        """(row cell, column cell) of every 2x2 block of the flux-eliminated
        Jacobian, computed on first read.

        The blocks are, in order: each cell against itself, each cell with
        a previous level against that level, each face's left cell against
        its right, then each face's right cell against its left.  A block's
        entries are ordered (total, p), (total, s), (water, p), (water, s).
        """
        hp = np.nonzero(self.st_prev >= 0)[0]
        cl, cr = self.faces.c_left, self.faces.c_right
        c = np.arange(self.n_st)
        blocks = (np.concatenate([c, hp, cl, cr]),
                  np.concatenate([c, self.st_prev[hp], cr, cl]))
        for a in blocks:
            a.setflags(write=False)
        return blocks

    @cached_property
    def jacobian_pattern(self):
        """The Jacobian's CSC pattern, its cells numbered in the
        minimum-degree order of the graph whose edges are the blocks; a
        cell's p and s unknowns stay adjacent."""
        rows, cols = self.jacobian_blocks
        return _block_pattern(rows, cols,
                              minimum_degree_order(self.n_st, rows, cols))

    def final_level_cells(self):
        """Space-time indices of every spatial cell at the window's end
        time: the levels that are no other level's previous one."""
        last = np.ones(self.n_st, dtype=bool)
        last[self.st_prev[self.st_prev >= 0]] = False
        return np.flatnonzero(last)


# ---------------------------------------------------------------------------
# construction helpers
# ---------------------------------------------------------------------------


def _raster(subdomains, corners, shape):
    """The window's cell numbering on a lattice of `shape`.

    Subdomain k covers lattice cells [i0, i1) x [j0, j1) of `corners[k]`,
    an exact block of lattice cells per spatial cell, and numbers its
    cells x fastest after those of the subdomains before it.  Returns
    the subdomain and the spatial cell of every lattice cell (int32, -1
    where none covers it; a later subdomain overwrites an earlier one).
    """
    sub = np.full(shape, -1, dtype=np.int32)
    cell = np.full(shape, -1, dtype=np.int32)
    offset = 0
    for k, (s, (i0, j0, i1, j1)) in enumerate(zip(subdomains, corners)):
        nx, ny = s.nx, s.ny
        ii = np.arange(i1 - i0, dtype=np.int32)[:, None] // ((i1 - i0) // nx)
        jj = np.arange(j1 - j0, dtype=np.int32)[None, :] // ((j1 - j0) // ny)
        sub[i0:i1, j0:j1] = k
        cell[i0:i1, j0:j1] = offset + ii + jj * nx
        offset += nx * ny
    return sub, cell


def _lattice(subdomains, reservoir):
    """Lay the footprints on the lattice whose spacing divides every
    coordinate and cell size, and check that they partition the
    reservoir box.  Returns the rasters of `_raster`."""
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
    corners = []
    for s in subdomains:
        q = _quantize(s.region)
        i0, i1 = (q[0] - xs[0]) // ax, (q[2] - xs[0]) // ax
        j0, j1 = (q[1] - ys[0]) // ay, (q[3] - ys[0]) // ay
        if i0 < 0 or j0 < 0 or i1 > nx or j1 > ny:
            raise TilingOverlap(f"subdomain {s.region} extends outside {reservoir}")
        corners.append((int(i0), int(j0), int(i1), int(j1)))
    sub, cell = _raster(subdomains, corners, (int(nx), int(ny)))
    covered = np.count_nonzero(sub >= 0)
    if sum((i1 - i0) * (j1 - j0) for i0, j0, i1, j1 in corners) > covered:
        raise TilingOverlap("subdomain footprints overlap")
    if covered < nx * ny:
        raise TilingGap("subdomain footprints leave gaps")
    return sub, cell


def _interface_faces(sub, cell):
    """The fine faces in space between two subdomains, from the rasters
    of `_lattice`.

    Each pair of 4-neighbour lattice cells in two subdomains lies on one
    fine face, between their two spatial cells.  Returns the faces'
    (axis, left cell, right cell, left subdomain, right subdomain), left
    the low-coordinate side, ordered by subdomain pair (lower index
    first) and then by position along the shared edge.  Raises unless
    each cell edge borders one subdomain.
    """
    parts = []      # y-faces are the x-faces of the transposed rasters
    for axis, (s, c) in enumerate(((sub, cell), (sub.T, cell.T))):
        across, along = np.nonzero(s[:-1] != s[1:])
        parts.append((np.full(len(along), axis, dtype=np.int8), along,
                      c[across, along], c[across + 1, along],
                      s[across, along], s[across + 1, along]))
    axis, along, cl, cr, sl, sr = map(np.concatenate, zip(*parts))
    order = np.lexsort((along, np.maximum(sl, sr), np.minimum(sl, sr)))
    axis, cl, cr, sl, sr = (a[order] for a in (axis, cl, cr, sl, sr))
    # the lattice pairs of one face are consecutive
    first = (np.diff(cl, prepend=-1) != 0) | (np.diff(cr, prepend=-1) != 0)
    axis, cl, cr, sl, sr = (a[first] for a in (axis, cl, cr, sl, sr))
    edges = 2 * (cell.max() + 1)      # a slot per cell and axis
    for edge, other in ((2 * cl + axis, sr), (2 * cr + axis, sl)):
        neighbour = np.empty(edges, dtype=np.int32)
        neighbour[edge] = other
        if np.any(neighbour[edge] != other):
            raise MisalignedInterface("a cell edge borders two subdomains")
    return axis, cl, cr, sl, sr


def _check_multiples(a, b, exc, what):
    """Raise exc unless a and b are elementwise integer multiples."""
    r = np.maximum(a, b) / np.minimum(a, b)
    if np.any(np.abs(r - np.round(r)) > _TOL * r):
        raise exc(f"{what} are not integer multiples")


def build_window(subdomains, delta_t, reservoir, *, dz=1.0):
    """Assemble a validated SpaceTimeWindow from a box decomposition."""
    if delta_t <= 0:
        raise ValueError("window length must be positive")
    subdomains = tuple(subdomains)
    sub, cell = _lattice(subdomains, reservoir)

    n_sub = len(subdomains)
    steps = np.array([s.n_steps(delta_t) for s in subdomains])
    dts = np.array([s.dt for s in subdomains], dtype=float)
    size = np.array([s.cell_size for s in subdomains], dtype=float)

    # spatial cells, x fastest within each subdomain
    shape = np.array([(s.nx, s.ny) for s in subdomains])
    n_cells = shape.prod(axis=1)
    spatial_offset = np.concatenate([[0], np.cumsum(n_cells)])
    sub_of_cell = np.repeat(np.arange(n_sub), n_cells)
    local = np.arange(spatial_offset[-1]) - spatial_offset[sub_of_cell]
    origin = np.array([s.region[:2] for s in subdomains], dtype=float)
    cell_hx, cell_hy = size[sub_of_cell, 0], size[sub_of_cell, 1]
    j, i = np.divmod(local, shape[sub_of_cell, 0])
    cell_cx = origin[sub_of_cell, 0] + (i + 0.5) * cell_hx
    cell_cy = origin[sub_of_cell, 1] + (j + 0.5) * cell_hy
    cell_vol = cell_hx * cell_hy * dz

    # space-time cells, level-major within each subdomain
    st_offset = np.concatenate([[0], np.cumsum(n_cells * steps)])
    st_sub = np.repeat(np.arange(n_sub), n_cells * steps)
    nc = n_cells[st_sub]
    st_level, local = np.divmod(np.arange(st_offset[-1]) - st_offset[st_sub], nc)
    st_level += 1
    st_spatial = spatial_offset[st_sub] + local
    st_dt = dts[st_sub]
    st_prev = np.where(st_level > 1, np.arange(len(st_sub)) - nc, -1)

    # each face's axis and its two space-time cells: interior faces per
    # subdomain, level by level, x-faces then y-faces; then interfaces
    axis, c_left, c_right = [], [], []
    for k, s in enumerate(subdomains):
        nx, ny = s.nx, s.ny
        c = np.arange(st_offset[k], st_offset[k + 1]).reshape(steps[k], ny, nx)
        axis.append(np.tile(np.repeat(np.arange(2, dtype=np.int8),
                                      [(nx - 1) * ny, nx * (ny - 1)]),
                            steps[k]))
        for out, x, y in ((c_left, c[:, :, :-1], c[:, :-1, :]),
                          (c_right, c[:, :, 1:], c[:, 1:, :])):
            out.append(np.concatenate([x.reshape(steps[k], -1),
                                       y.reshape(steps[k], -1)], axis=1)
                       .ravel())

    # interface faces: each fine face in space at every level of the
    # finer dt of its two cells, levels counted on that dt
    f_axis, f_cl, f_cr, f_sl, f_sr = _interface_faces(sub, cell)
    _check_multiples(size[f_sl, 1 - f_axis], size[f_sr, 1 - f_axis],
                     MisalignedInterface, "interface edge lengths")
    _check_multiples(dts[f_sl], dts[f_sr], NonIntegerRatio,
                     "interface time steps")
    dtf = np.minimum(dts[f_sl], dts[f_sr])
    n_t = np.maximum(steps[f_sl], steps[f_sr])
    f = np.repeat(np.arange(len(n_t)), n_t)
    starts = np.concatenate([[0], np.cumsum(n_t)])
    m = np.arange(len(f)) - starts[f] + 1
    for out, s, k in ((c_left, f_cl[f], f_sl[f]), (c_right, f_cr[f], f_sr[f])):
        level = np.ceil(m * dtf[f] / dts[k] - _TOL).astype(np.int64)
        out.append(st_offset[k] + (level - 1) * n_cells[k] + s
                   - spatial_offset[k])

    # one interface per subdomain pair: (first face, end face,
    # coarse_is_left), the coarse side the larger edge length x dt
    first = np.flatnonzero(np.diff(f_sl * n_sub + f_sr, prepend=-1))
    sl, sr, perp = f_sl[first], f_sr[first], 1 - f_axis[first]
    coarse_is_left = size[sl, perp] * dts[sl] >= size[sr, perp] * dts[sr]
    bounds = sum(map(len, axis)) + starts[[*first, len(n_t)]]
    interfaces = list(zip(bounds[:-1].tolist(), bounds[1:].tolist(),
                          coarse_is_left.tolist()))
    axis.append(f_axis[f])

    axis = np.concatenate(axis)
    c_left = np.concatenate(c_left)
    c_right = np.concatenate(c_right)
    s_left, s_right = st_spatial[c_left], st_spatial[c_right]
    cell_h = np.stack([cell_hx, cell_hy])
    faces = FaceSet(
        axis=axis,
        area=np.minimum(cell_h[1 - axis, s_left],
                        cell_h[1 - axis, s_right]) * dz,
        dt=np.minimum(st_dt[c_left], st_dt[c_right]),
        s_left=s_left, s_right=s_right, c_left=c_left, c_right=c_right,
        h_left=cell_h[axis, s_left], h_right=cell_h[axis, s_right])

    return SpaceTimeWindow(
        subdomains, delta_t, reservoir, dz,
        cells=(sub_of_cell, cell_cx, cell_cy, cell_hx, cell_hy, cell_vol,
               spatial_offset),
        st=(st_spatial, st_level, st_dt, st_prev, st_offset),
        faces=faces, interfaces=interfaces,
    )
