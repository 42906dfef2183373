"""Artifact writers (CSV grids, legacy VTK, ledgers, summaries) and the
readers `compare` needs.

All writers format floats with `%.17g` so serial reruns are byte-identical
and round trips through the readers are exact.  A window's snapshot goes
through `write_snapshot`, which formats each value once for its CSV and
its VTK file.
"""

from __future__ import annotations

import csv
import functools
import json
import os

import numpy as np


def _fmt(v):
    return "%.17g" % float(v)


@functools.lru_cache(maxsize=4)
def _row_heads(shape, origin, cell_size):
    """The `i,j,x,y,` head of every row of a grid CSV, i fastest, each
    but the first after the line end of the row before it."""
    nx, ny = shape
    x0, y0 = origin
    hx, hy = cell_size
    xs = (x0 + (np.arange(nx) + 0.5) * hx).tolist()
    ys = (y0 + (np.arange(ny) + 0.5) * hy).tolist()
    heads = ["\r\n%d,%d,%.17g,%.17g," % (i, j, x, y)
             for j, y in enumerate(ys) for i, x in enumerate(xs)]
    if heads:
        heads[0] = heads[0][2:]
    return heads


def _format(array):
    """`%.17g` of each value of an array, in C order.  Each distinct
    value is formatted once: a coarse cell covers many base cells.
    Values are told apart by their bits, so -0.0 is not 0.0."""
    bits, inverse = np.unique(
        np.asarray(array, dtype=float).ravel().view(np.int64),
        return_inverse=True)
    values = bits.view(float).tolist()
    text = ("\n".join(["%.17g"] * len(values)) % tuple(values)).split("\n")
    return [text[k] for k in inverse.tolist()]


def write_snapshot(fields, origin, cell_size, csv_paths=(), vtk_path=None,
                   title="snapshot"):
    """Cell-centered scalar fields of one grid, as CSV and legacy VTK.

    `fields` maps names to (nx, ny) arrays.  Each name in `csv_paths` is
    written to its path as a long-format CSV (i fastest); with `vtk_path`,
    every field goes into one VTK rectilinear grid, extruded one cell in
    z so standard viewers accept it.  A value is formatted once for all
    the files it goes to, and the CSV row heads once per grid geometry.
    """
    first = next(iter(fields.values()))
    nx, ny = np.shape(first)
    # both formats list the cells x fastest, then y
    text = {name: _format(np.transpose(field))
            for name, field in fields.items()}
    if csv_paths:
        heads = _row_heads((nx, ny), tuple(origin), tuple(cell_size))
        rows = [None] * (2 * len(heads))
        rows[0::2] = heads
    for name, path in dict(csv_paths).items():
        rows[1::2] = text[name]
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow(["i", "j", "x", "y", name])
            # the rows csv.writer would write: no field needs quoting
            fh.write("".join(rows) + "\r\n")
    if vtk_path is None:
        return
    x0, y0 = origin
    hx, hy = cell_size
    with open(vtk_path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(f"{title}\n")
        fh.write("ASCII\nDATASET RECTILINEAR_GRID\n")
        fh.write(f"DIMENSIONS {nx + 1} {ny + 1} 2\n")
        fh.write(f"X_COORDINATES {nx + 1} double\n")
        fh.write(" ".join(_fmt(x0 + i * hx) for i in range(nx + 1)) + "\n")
        fh.write(f"Y_COORDINATES {ny + 1} double\n")
        fh.write(" ".join(_fmt(y0 + j * hy) for j in range(ny + 1)) + "\n")
        fh.write("Z_COORDINATES 2 double\n0 1\n")
        fh.write(f"CELL_DATA {nx * ny}\n")
        for name, values in text.items():
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            fh.write("".join(" ".join(values[j * nx:(j + 1) * nx]) + "\n"
                             for j in range(ny)))


def read_grid_csv(path):
    """The (nx, ny) field of a file written by write_snapshot."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    ii = np.array([int(r[0]) for r in rows])
    jj = np.array([int(r[1]) for r in rows])
    field = np.empty((ii.max() + 1, jj.max() + 1))
    field[ii, jj] = [float(r[4]) for r in rows]
    return field


def write_ledger_csv(path, ledger):
    """Per-iteration solver statistics (window, iteration, norm, dofs)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["window", "iteration", "norm", "reduced_dofs",
                    "wall_ms"])
        for row in ledger.iteration_rows():
            w.writerow([row[0], row[1], _fmt(row[2]), row[3], _fmt(row[4])])


def write_idmap_csv(path, idmap):
    """One row per tile (tile_j fastest): its indices, identifier and
    indicators.  Each column is formatted in one pass."""
    ids = idmap.identifiers
    columns = [[str(v) for v in a.ravel().tolist()]
               for a in (*np.indices(ids.shape), ids)]
    columns += [_format(f) for f in (idmap.eta, idmap.delta_s,
                                     idmap.delta_t)]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["tile_i", "tile_j", "identifier", "eta",
                                 "delta_s", "delta_t"])
        # the rows csv.writer would write: no field needs quoting
        fh.write("".join(",".join(row) + "\r\n" for row in zip(*columns)))


def write_curves_csv(path, curves):
    """(n, 4) property-curve table [S_w, k_rw, k_ro, p_c]."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sw", "krw", "kro", "pc"])
        for row in curves:
            w.writerow([_fmt(v) for v in row])


def write_summary(path, summary):
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_summary(path):
    with open(path) as fh:
        return json.load(fh)


def mark_failure(outdir, message):
    """Drop a failure marker so partial artifacts are recognizable."""
    with open(os.path.join(outdir, "FAILED"), "w") as fh:
        fh.write(message + "\n")
