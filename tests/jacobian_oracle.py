"""The unreduced Jacobian as a matrix and the CSC structural test of its
local saturations: the oracles of the elimination tests.

`stdd.assembly.CellSystem.jacobian` finds and eliminates the local
saturations on the block values while it fills the matrix; these helpers
rebuild what it leaves out.  `full_jacobian` assembles the exact
Jacobian, and `newton_jacobian` the one that Newton factors.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def full_jacobian(sys_, vals=None):
    """The unreduced Jacobian of the linearization `sys_` as CSC in the
    natural numbering, with no stored zeros, assembled entry by entry
    from its blocks `vals`, by default the exact `sys_.blocks`: entry e
    of the block at (row cell i, column cell j) sits at row 2i + e // 2
    and column 2j + e % 2."""
    w = sys_.window
    rows, cols = w.jacobian_blocks
    e = np.arange(4)[:, None]
    vals = sys_.blocks if vals is None else vals
    jac = sp.coo_matrix(
        (vals.ravel(),
         ((2 * rows + e // 2).ravel(), (2 * cols + e % 2).ravel())),
        shape=(w.n_y, w.n_y)).tocsc()
    jac.eliminate_zeros()
    return jac


def newton_jacobian(sys_):
    """`full_jacobian` of the blocks that Newton factors, with the front
    slope (`sys_.newton_blocks`)."""
    return full_jacobian(sys_, sys_.newton_blocks)


def window_jacobian(sys_):
    """`newton_jacobian(sys_)` in the window's numbering: its row and
    column k is natural unknown `jacobian_pattern.unknowns[k]`."""
    u = sys_.window.jacobian_pattern.unknowns
    jac = newton_jacobian(sys_)[u][:, u].tocsc()
    jac.sort_indices()
    return jac


class PlainJacobian:
    """A matrix with nothing eliminated, in the form `linear_solve` takes."""

    def __init__(self, a):
        self.matrix = sp.csc_matrix(a)
        self.nnz = self.matrix.nnz

    def _reduce(self, r):
        return r

    def _expand(self, x, r):
        return x

    def _dot(self, dy):
        return self.matrix @ dy


def local_saturations(jac):
    """The local saturations of the square canonical CSC matrix `jac`.

    With cell c's pressure at unknown 2c and its saturation at 2c + 1,
    the saturation is local when its row and its column hold entries
    only in the cell's 2x2 block.  Stored entries are nonzero, so the
    test is on the structure: a local saturation's column holds rows 2c
    and 2c + 1 at most, and its (s, p) entry, if stored, directly follows
    the pressure diagonal in column 2c.  Returns the local saturation
    unknowns and the data positions of their a_ss, a_ps and a_sp entries,
    -1 where a_ps or a_sp is not stored.
    """
    ptr, idx = jac.indptr, jac.indices
    n = jac.shape[0]
    if not jac.nnz:
        return (np.zeros(0, dtype=int),) * 4
    # `take`, not fancy indexing: the index arrays are int32
    last = ptr[2:n + 1:2].astype(np.intp) - 1
    cnt = last + 1 - ptr[1:n:2]
    s = np.arange(1, n, 2)
    local = np.zeros(n, dtype=bool)
    local[1::2] = ((idx.take(last, mode="clip") == s)
                   & (jac.data.take(last, mode="clip") != 0)
                   & ((cnt == 1) | (cnt == 2)
                      & (idx.take(last - 1, mode="clip") == s - 1)))
    # each entry of a candidate's row must be its diagonal or its (s, p)
    # entry, below a stored pressure diagonal
    pos = np.flatnonzero(local.take(idx))
    row = idx.take(pos).astype(np.intp)
    start = ptr.take(row)
    sp_ = ((pos < start) & (pos > ptr.take(row - 1))
           & (idx.take(pos - 1, mode="clip") == row - 1))
    local[row[(pos < start) & ~sp_ | (pos >= ptr.take(row + 1))]] = False
    at_sp = np.full(n, -1)
    at_sp[row[sp_]] = pos[sp_]
    s = np.flatnonzero(local)
    at_ss = last.take(s // 2)
    return (s, at_ss, np.where(cnt.take(s // 2) == 2, at_ss - 1, -1),
            at_sp.take(s))
