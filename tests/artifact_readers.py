"""Readers of run artifacts that only the tests need."""

import csv

import numpy as np


def read_vtk_cell_scalars(path):
    """Cell scalar fields of a legacy rectilinear VTK file, by name."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    dims = None
    fields = {}
    k = 0
    while k < len(lines):
        line = lines[k]
        if line.startswith("DIMENSIONS"):
            dims = [int(v) for v in line.split()[1:]]
        elif line.startswith("SCALARS"):
            name = line.split()[1]
            nx, ny = dims[0] - 1, dims[1] - 1
            vals = []
            k += 2
            while len(vals) < nx * ny:
                vals.extend(float(v) for v in lines[k].split())
                k += 1
            fields[name] = np.array(vals).reshape(ny, nx).T.copy()
            continue
        k += 1
    return fields


def read_ledger_csv(path):
    """Rows of (window, iteration, norm, reduced_dofs, wall_ms)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [(int(r[0]), int(r[1]), float(r[2]), int(r[3]), float(r[4]))
            for r in rows[1:]]
