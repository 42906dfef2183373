"""Artifact writers (CSV grids, legacy VTK, ledgers, summaries) and the
readers `compare` needs.

All writers format floats with `%.17g` so serial reruns are byte-identical
and round trips through the readers are exact.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np


def _fmt(v):
    return "%.17g" % float(v)


def write_grid_csv(path, field2d, origin, cell_size, name="value"):
    """Cell-centered scalar field as long-format CSV (i fastest)."""
    nx, ny = field2d.shape
    x0, y0 = origin
    hx, hy = cell_size
    xs = (x0 + (np.arange(nx) + 0.5) * hx).tolist()
    ys = (y0 + (np.arange(ny) + 0.5) * hy).tolist()
    by_j = np.asarray(field2d, dtype=float).T.tolist()
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["i", "j", "x", "y", name])
        # the rows csv.writer would write: no field needs quoting
        fh.write("".join(
            "%d,%d,%.17g,%.17g,%.17g\r\n" % (i, j, x, y, v)
            for j, (y, row) in enumerate(zip(ys, by_j))
            for i, (x, v) in enumerate(zip(xs, row))))


def read_grid_csv(path):
    """The (nx, ny) field of a file written by write_grid_csv."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    ii = np.array([int(r[0]) for r in rows])
    jj = np.array([int(r[1]) for r in rows])
    field = np.empty((ii.max() + 1, jj.max() + 1))
    field[ii, jj] = [float(r[4]) for r in rows]
    return field


def write_vtk_rectilinear(path, fields, origin, cell_size, title="snapshot"):
    """Legacy-format VTK rectilinear grid with cell data.

    `fields` maps names to (nx, ny) arrays; the grid is extruded one cell
    in z so standard viewers accept it.
    """
    first = next(iter(fields.values()))
    nx, ny = first.shape
    x0, y0 = origin
    hx, hy = cell_size
    with open(path, "w") as fh:
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
        for name, field in fields.items():
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            # VTK cell order: x fastest, then y
            row = " ".join(["%.17g"] * field.shape[0]) + "\n"
            fh.write("".join(row % tuple(by_j) for by_j in
                             np.asarray(field, dtype=float).T.tolist()))


def write_ledger_csv(path, ledger):
    """Per-iteration solver statistics (window, iteration, norm, dofs)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["window", "iteration", "norm", "reduced_dofs",
                    "wall_ms"])
        for row in ledger.iteration_rows():
            w.writerow([row[0], row[1], _fmt(row[2]), row[3], _fmt(row[4])])


def write_idmap_csv(path, idmap):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["tile_i", "tile_j", "identifier", "eta", "delta_s",
                    "delta_t"])
        for i, j, k, eta, ds, dt in idmap.rows():
            w.writerow([i, j, k, _fmt(eta), _fmt(ds), _fmt(dt)])


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
