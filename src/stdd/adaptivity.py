"""Between-window adaptivity: indicators, classification, rebuild, transfer.

Regions are classified on a fixed coarse tiling of the reservoir.  A tile
is an exact block of base cells, so every per-tile quantity is a block
reduction of a base-grid field.  Each tile receives an identifier
selecting its space and time resolution:

    1: fine in space and time        2: fine in space, coarse in time
    3: coarse in space, fine in time 4: coarse in space and time

Classification combines saturation delta-changes in space and time with the
normalized nonlinear residual of a cheap coarse predictor.  Solution
transfer between decompositions goes through the fine base grid with
pore-volume weighting, which preserves total water pore volume exactly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import solveh_banded

from .errors import NonIntegerRatio
from .mesh import Subdomain, _int_ratio, _raster
from .physics import finite_number


@dataclass(frozen=True)
class Tiling:
    """Fixed coarse tiling used as the classification granularity."""

    reservoir: tuple          # (x0, y0, x1, y1) in ft
    tile_hx: float
    tile_hy: float

    def __post_init__(self):
        x0, y0, x1, y1 = self.reservoir
        _int_ratio(x1 - x0, self.tile_hx, NonIntegerRatio, "tiles in x")
        _int_ratio(y1 - y0, self.tile_hy, NonIntegerRatio, "tiles in y")

    @property
    def shape(self):
        x0, y0, x1, y1 = self.reservoir
        return (_int_ratio(x1 - x0, self.tile_hx, NonIntegerRatio, "x"),
                _int_ratio(y1 - y0, self.tile_hy, NonIntegerRatio, "y"))

    def blocks(self, base_field):
        """A base-grid field viewed as (ntx, mx, nty, my): tile (i, j) is
        its block [i, :, j, :] of mx x my base cells."""
        ntx, nty = self.shape
        nx, ny = np.shape(base_field)
        return np.reshape(base_field, (ntx, nx // ntx, nty, ny // nty))

    def tile_max(self, base_field):
        """Per-tile max of a base-grid field."""
        return self.blocks(base_field).max(axis=(1, 3))

    def inside(self, box):
        """The (ntx, nty) mask of the tiles whose centres lie strictly
        inside `box`, (x0, y0, x1, y1) in ft."""
        x0, y0, _, _ = self.reservoir
        bx0, by0, bx1, by1 = box
        ntx, nty = self.shape
        cx = x0 + (np.arange(ntx) + 0.5) * self.tile_hx
        cy = y0 + (np.arange(nty) + 0.5) * self.tile_hy
        return np.outer((bx0 < cx) & (cx < bx1), (by0 < cy) & (cy < by1))


@dataclass
class IdentifierMap:
    """Per-tile identifiers with the indicator values that produced them."""

    identifiers: np.ndarray   # (ntx, nty) int, values in {1,2,3,4}
    eta: np.ndarray
    delta_s: np.ndarray
    delta_t: np.ndarray


@dataclass(frozen=True)
class Thresholds:
    """Classification thresholds in saturation units / normalized residual.

    These values are a config's `thresholds` defaults, calibrated so
    dynamic refinement tracks the front (accuracy) at a small fraction of
    the uniformly fine cost.
    """

    theta_ds: float = 0.04
    theta_dt: float = 0.04
    theta_eta: float = 0.5

    def __post_init__(self):
        if not all(finite_number(v) and v >= 0 for v in vars(self).values()):
            raise ValueError("thresholds must be non-negative numbers")


@dataclass(frozen=True)
class OwnerMap:
    """Where one decomposition's spatial cells sit on the base grid."""

    cells: np.ndarray   # (nx, ny) window spatial cell owning each base cell
    blocks: tuple       # per subdomain: (i0, j0, mi, mj) in base cells


class BaseGrid:
    """Uniform fine reference grid carrying rock properties.

    All subdomain cells are axis-aligned unions of base cells, so every
    transfer between decompositions can be expressed as rasterize to the
    base grid followed by block averaging, both through the owner map of
    the decomposition.
    """

    def __init__(self, reservoir, cell_size, dz=1.0):
        self.reservoir = tuple(float(v) for v in reservoir)
        self.hx, self.hy = float(cell_size[0]), float(cell_size[1])
        self.dz = float(dz)
        x0, y0, x1, y1 = self.reservoir
        self.nx = _int_ratio(x1 - x0, self.hx, NonIntegerRatio, "base nx")
        self.ny = _int_ratio(y1 - y0, self.hy, NonIntegerRatio, "base ny")
        self._owner_maps = functools.lru_cache(maxsize=8)(self._build_owner)

    @property
    def shape(self):
        return (self.nx, self.ny)

    @property
    def cell_volume(self):
        return self.hx * self.hy * self.dz

    def owner(self, window):
        """The OwnerMap of the window's decomposition, built once."""
        return self._owner_maps(window.subdomains)

    def _build_owner(self, subdomains):
        x0, y0, _, _ = self.reservoir
        blocks, corners = [], []
        for sub in subdomains:
            hx, hy = sub.cell_size
            i0 = _int_ratio(sub.region[0] - x0, self.hx, NonIntegerRatio,
                            "cell/base alignment in x", least=0)
            j0 = _int_ratio(sub.region[1] - y0, self.hy, NonIntegerRatio,
                            "cell/base alignment in y", least=0)
            mi = _int_ratio(hx, self.hx, NonIntegerRatio,
                            "cell/base ratio in x")
            mj = _int_ratio(hy, self.hy, NonIntegerRatio,
                            "cell/base ratio in y")
            blocks.append((i0, j0, mi, mj))
            corners.append((i0, j0, i0 + sub.nx * mi, j0 + sub.ny * mj))
        # intp, so that each map through it indexes without a cast
        cells = _raster(subdomains, corners, self.shape)[1].astype(np.intp)
        cells.setflags(write=False)
        return OwnerMap(cells, tuple(blocks))

    def rasterize(self, window, values):
        """Spread per-spatial-cell values onto the base grid by injection."""
        return np.asarray(values, dtype=float)[self.owner(window).cells]

    def average_to(self, window, base_field, weights=None):
        """Weighted block average of a base field onto a window's cells."""
        owner = self.owner(window).cells.ravel()
        f = np.asarray(base_field, dtype=float).ravel()
        w = (np.ones_like(f) if weights is None
             else np.asarray(weights, dtype=float).ravel())
        n = window.n_spatial
        return np.bincount(owner, w * f, n) / np.bincount(owner, w, n)


def final_spatial(window, state):
    """Final-time-level (P, S) of a window as per-spatial-cell arrays."""
    fin = window.final_level_cells()
    p = np.empty(window.n_spatial)
    s = np.empty(window.n_spatial)
    p[window.st_spatial[fin]] = state.p[fin]
    s[window.st_spatial[fin]] = state.s[fin]
    return p, s


def residual_indicator(window, r_norm, base: BaseGrid, tiling: Tiling):
    """Per-tile max of |normalized residual| over cells, levels, equations.

    `r_norm` is the interleaved normalized conservation residual of one
    assembly of `window`, any decomposition on the base grid.
    """
    mag = np.maximum(np.abs(r_norm[0::2]), np.abs(r_norm[1::2]))
    cell_max = np.zeros(window.n_spatial)
    np.maximum.at(cell_max, window.st_spatial, mag)
    return tiling.tile_max(base.rasterize(window, cell_max))


def delta_change(s_start, s_end, tiling: Tiling):
    """Per-tile saturation deltas of base-grid fields.

    Returns (delta_s, delta_t): delta_t is the max per-cell change over the
    window; delta_s is the max absolute face difference of the final field,
    counting faces inside the tile and on its boundary.
    """
    dx = np.abs(np.diff(s_end, axis=0))        # face between (i, j), (i+1, j)
    dy = np.abs(np.diff(s_end, axis=1))
    # each base cell's largest jump across its four faces
    jump = np.zeros(np.shape(s_end))
    jump[:-1] = dx
    jump[1:] = np.maximum(jump[1:], dx)
    jump[:, :-1] = np.maximum(jump[:, :-1], dy)
    jump[:, 1:] = np.maximum(jump[:, 1:], dy)
    return tiling.tile_max(jump), tiling.tile_max(np.abs(s_end - s_start))


def classify(eta, delta_s, delta_t, thresholds: Thresholds):
    """Assign Table-style identifiers from the per-tile indicators.

    Large delta in both space and time -> 1; space only -> 2; time only
    -> 3; neither -> 4.  A residual indicator above theta_eta forces 1.
    The 8-neighborhood of every identifier-1 tile is promoted to at least
    2 so a moving front cannot leave the fine region within one window.
    """
    big_s = delta_s > thresholds.theta_ds
    big_t = delta_t > thresholds.theta_dt
    ids = np.full(eta.shape, 4, dtype=int)
    ids[big_t] = 3
    ids[big_s] = 2
    ids[big_s & big_t] = 1
    ids[eta > thresholds.theta_eta] = 1

    # the 3x3 OR of the identifier-1 mask, with no tiles past the edge:
    # over the rows of the padded mask, then over its columns
    pad = np.zeros(np.add(ids.shape, 2), bool)
    pad[1:-1, 1:-1] = ids == 1
    rows = pad[:-2] | pad[1:-1] | pad[2:]
    near = rows[:, :-2] | rows[:, 1:-1] | rows[:, 2:]
    ids[near] = np.minimum(ids[near], 2)
    return IdentifierMap(ids, np.asarray(eta, dtype=float),
                         np.asarray(delta_s, dtype=float),
                         np.asarray(delta_t, dtype=float))


def decompose(idmap: IdentifierMap, tiling: Tiling, table: dict):
    """Tile the reservoir with rectangular subdomains of uniform identifier.

    `table` maps each identifier to its (hx, hy, dt).

    Greedy maximal rectangles in row-major tile order: extend right while
    the identifier matches, then extend down while the whole span matches.
    """
    ids = idmap.identifiers
    ntx, nty = ids.shape
    taken = np.zeros_like(ids, dtype=bool)
    x0, y0, _, _ = tiling.reservoir
    subs = []
    for j in range(nty):
        for i in range(ntx):
            if taken[i, j]:
                continue
            k = ids[i, j]
            i1 = i + 1
            while i1 < ntx and not taken[i1, j] and ids[i1, j] == k:
                i1 += 1
            j1 = j + 1
            while j1 < nty and np.all(~taken[i:i1, j1]) \
                    and np.all(ids[i:i1, j1] == k):
                j1 += 1
            taken[i:i1, j:j1] = True
            hx, hy, dt = table[int(k)]
            subs.append(Subdomain(
                region=(x0 + i * tiling.tile_hx, y0 + j * tiling.tile_hy,
                        x0 + i1 * tiling.tile_hx, y0 + j1 * tiling.tile_hy),
                cell_size=(hx, hy), dt=dt, identifier=int(k)))
    return subs


def transfer_state(old_window, final_p, final_s, new_window, base: BaseGrid,
                   phi_base):
    """Map a final window state onto a new decomposition's spatial cells,
    each half by `transfer_field`.

    Pore-volume weights exactly conserve water pore volume in the
    saturation; for pressure they are a smoothness heuristic.
    """
    return (transfer_field(old_window, final_p, new_window, base, phi_base),
            transfer_field(old_window, final_s, new_window, base, phi_base))


def transfer_field(old_window, values, new_window, base: BaseGrid,
                   phi_base):
    """Map per-spatial-cell `values` of one decomposition onto another's:
    coarse-to-fine is constant injection, fine-to-coarse averages with
    pore-volume weights."""
    pv = phi_base * base.cell_volume
    return base.average_to(new_window, base.rasterize(old_window, values),
                           pv)


def upscale_blocks(k_blocks, hx, hy, direction):
    """Effective directional permeability of each of a stack of blocks.

    `k_blocks` is (blocks, mx, my): each block's fine permeability for
    the flow direction.  Impose a unit pressure drop across the block in
    `direction` with no-flow lateral boundaries, solve the single-phase
    two-point flux problem, and return the flux-equivalent permeability;
    the blocks' problems are stacked uncoupled into one banded system and
    solved in one call.
    """
    k = np.asarray(k_blocks, dtype=float)
    if direction == "y":
        return upscale_blocks(k.transpose(0, 2, 1), hy, hx, "x")
    nb, mx, my = k.shape
    if mx == 1:
        return np.mean(k, axis=(1, 2))

    # Two-point flux problem: p = 1 on the left edge, 0 on the right,
    # no-flow top/bottom.  Unit conversion constants cancel in K_eff.
    kl, kr = k[:, :-1, :], k[:, 1:, :]
    tx = (hy / hx) * 2.0 * kl * kr / (kl + kr)
    kl, kr = k[:, :, :-1], k[:, :, 1:]
    ty = (hx / hy) * 2.0 * kl * kr / (kl + kr)
    # half-cell transmissibilities tie the edge columns to the boundary
    tb_l = (hy / hx) * 2.0 * k[:, 0, :]
    tb_r = (hy / hx) * 2.0 * k[:, -1, :]
    # each diagonal sums its faces low-x, high-x, low-y, high-y, boundary
    diag = np.zeros((nb, mx, my))
    diag[:, 1:, :] += tx
    diag[:, :-1, :] += tx
    diag[:, :, 1:] += ty
    diag[:, :, :-1] += ty
    diag[:, 0, :] += tb_l
    diag[:, -1, :] += tb_r
    # the matrix is symmetric positive definite and banded: with cell
    # (i, j) of block b as unknown (b * mx + i) * my + j, y-neighbours sit
    # 1 apart and x-neighbours my apart, and no entry couples two blocks.
    # Upper band storage: row my - d of `band` holds diagonal d, entry
    # (k, k + d) in column k + d.
    band = np.zeros((my + 1, nb, mx, my))
    band[my] = diag
    band[my - 1, :, :, 1:] = -ty
    band[0, :, 1:, :] = -tx
    rhs = np.zeros((nb, mx, my))
    rhs[:, 0, :] = tb_l
    p = solveh_banded(band.reshape(my + 1, nb * mx * my),
                      rhs.ravel()).reshape(nb, mx, my)
    q_in = np.sum(tb_l * (1.0 - p[:, 0, :]), axis=1)
    # q = K_eff * (my * hy) * (dp=1) / (mx * hx), same face scaling
    return q_in * (mx * hx) / (my * hy)


def block_permeability(base: BaseGrid, kx_base, ky_base, mi, mj):
    """(kx, ky) of every block of mi x mj base cells on their lattice, as
    (nx // mi, ny // mj) arrays: one `upscale_blocks` call per direction,
    or the base fields themselves for (1, 1)."""
    if (mi, mj) == (1, 1):
        return kx_base, ky_base
    out = []
    for k, direction in ((kx_base, "x"), (ky_base, "y")):
        blocks = sliding_window_view(k, (mi, mj))[::mi, ::mj]
        out.append(upscale_blocks(blocks.reshape(-1, mi, mj), base.hx,
                                  base.hy, direction).reshape(len(blocks), -1))
    return tuple(out)


def cell_permeability(window, base: BaseGrid, by_shape):
    """Per-cell (kx, ky) for a window: each subdomain takes one slice of
    `by_shape(mi, mj)`, the `block_permeability` of its cells' shape of mi
    x mj base cells.  A subdomain off that shape's block lattice raises
    NonIntegerRatio."""
    kx, ky = np.empty((2, window.n_spatial))
    for k, (sub, (i0, j0, mi, mj)) in enumerate(
            zip(window.subdomains, base.owner(window).blocks)):
        bi = _int_ratio(i0, mi, NonIntegerRatio, "block lattice in x", least=0)
        bj = _int_ratio(j0, mj, NonIntegerRatio, "block lattice in y", least=0)
        cells = slice(window.spatial_offset[k], window.spatial_offset[k + 1])
        for out, field in zip((kx, ky), by_shape(mi, mj)):
            # window cells run x-fastest, block arrays are (x, y)
            out[cells] = field[bi:bi + sub.nx, bj:bj + sub.ny].ravel(order="F")
    return kx, ky
