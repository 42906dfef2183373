"""Artifact writers/readers: exact round trips and cross-format agreement."""

import csv

import numpy as np
import pytest

from artifact_readers import read_ledger_csv, read_vtk_cell_scalars
from stdd import output
from stdd.solver import LedgerEntry, RunLedger


@pytest.fixture
def field():
    rng = np.random.default_rng(0)
    return rng.uniform(0.0, 1.0, (6, 4))


class TestGridCsv:
    def test_round_trip_exact(self, tmp_path, field):
        p = tmp_path / "f.csv"
        # the second grid is one cell wide in x, away from the origin
        for f, origin in ((field, (0.0, 0.0)),
                          (np.arange(3.0).reshape(1, 3), (10.0, 0.0))):
            output.write_grid_csv(p, f, origin, (0.5, 0.5), name="sw")
            assert np.array_equal(output.read_grid_csv(p), f)

    def test_header_and_ordering(self, tmp_path, field):
        p = tmp_path / "f.csv"
        output.write_grid_csv(p, field, (1.0, 2.0), (0.5, 0.25), name="p")
        lines = p.read_text().splitlines()
        assert lines[0] == "i,j,x,y,p"
        # i varies fastest within each j
        first = lines[1].split(",")
        second = lines[2].split(",")
        assert first[:2] == ["0", "0"] and second[:2] == ["1", "0"]
        assert len(lines) == 1 + field.size

    def test_write_is_deterministic(self, tmp_path, field):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        output.write_grid_csv(a, field, (0.0, 0.0), (0.5, 0.5))
        output.write_grid_csv(b, field, (0.0, 0.0), (0.5, 0.5))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("origin, cell", [
        ((0.0, 0.0), (0.5, 0.5)), ((10.0, -5.0), (2.0, 1.0)),
        ((3, 1), (2, 7)), ((-1.0e5, 0.1), (1.0 / 3.0, 0.1))])
    def test_bytes_match_csv_writer(self, tmp_path, field, origin, cell):
        field = field.copy()
        field[0, :] = [0.0, -0.0, 1.0e-300, 1.0e17]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        output.write_grid_csv(a, field, origin, cell, name="s,w")
        ref_write_grid_csv(b, field, origin, cell, name="s,w")
        assert a.read_bytes() == b.read_bytes()

    def test_nonzero_origin_round_trip(self, tmp_path, field):
        p = tmp_path / "f.csv"
        output.write_grid_csv(p, field, (10.0, -5.0), (2.0, 1.0))
        assert np.array_equal(output.read_grid_csv(p), field)


def ref_write_grid_csv(path, field2d, origin, cell_size, name="value"):
    """The grid CSV written row by row through csv.writer."""
    nx, ny = field2d.shape
    x0, y0 = origin
    hx, hy = cell_size

    def fmt(v):
        return "%.17g" % float(v)

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["i", "j", "x", "y", name])
        for j in range(ny):
            for i in range(nx):
                w.writerow([i, j, fmt(x0 + (i + 0.5) * hx),
                            fmt(y0 + (j + 0.5) * hy), fmt(field2d[i, j])])


def ref_write_vtk_rectilinear(path, fields, origin, cell_size,
                              title="snapshot"):
    """The VTK snapshot with every value formatted on its own."""
    nx, ny = next(iter(fields.values())).shape
    x0, y0 = origin
    hx, hy = cell_size

    def fmt(v):
        return "%.17g" % float(v)

    with open(path, "w") as fh:
        fh.write(f"# vtk DataFile Version 3.0\n{title}\n")
        fh.write("ASCII\nDATASET RECTILINEAR_GRID\n")
        fh.write(f"DIMENSIONS {nx + 1} {ny + 1} 2\n")
        fh.write(f"X_COORDINATES {nx + 1} double\n")
        fh.write(" ".join(fmt(x0 + i * hx) for i in range(nx + 1)) + "\n")
        fh.write(f"Y_COORDINATES {ny + 1} double\n")
        fh.write(" ".join(fmt(y0 + j * hy) for j in range(ny + 1)) + "\n")
        fh.write("Z_COORDINATES 2 double\n0 1\n")
        fh.write(f"CELL_DATA {nx * ny}\n")
        for name, field in fields.items():
            fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
            for j in range(field.shape[1]):
                fh.write(" ".join(fmt(field[i, j])
                                  for i in range(field.shape[0])) + "\n")


class TestVtk:
    @pytest.mark.parametrize("origin, cell", [
        ((0.0, 0.0), (0.5, 0.5)), ((10.0, -5.0), (2.0, 1.0)),
        ((3, 1), (2, 7)), ((-1.0e5, 0.1), (1.0 / 3.0, 0.1))])
    def test_bytes_match_per_value_writer(self, tmp_path, field, origin,
                                          cell):
        field = field.copy()
        field[0, :] = [0.0, -0.0, 1.0e-300, 1.0e17]
        fields = {"sw": field, "p": np.arange(field.size).reshape(
            field.shape)}
        a, b = tmp_path / "a.vtk", tmp_path / "b.vtk"
        output.write_vtk_rectilinear(a, fields, origin, cell, title="t=1")
        ref_write_vtk_rectilinear(b, fields, origin, cell, title="t=1")
        assert a.read_bytes() == b.read_bytes()

    def test_cell_scalars_round_trip(self, tmp_path, field):
        p = tmp_path / "snap.vtk"
        other = field * 3.0 + 1.0
        output.write_vtk_rectilinear(p, {"sw": field, "p": other},
                                     (0.0, 0.0), (0.5, 0.5))
        got = read_vtk_cell_scalars(p)
        assert set(got) == {"sw", "p"}
        assert np.array_equal(got["sw"], field)
        assert np.array_equal(got["p"], other)

    def test_structure(self, tmp_path, field):
        p = tmp_path / "snap.vtk"
        output.write_vtk_rectilinear(p, {"sw": field}, (0.0, 0.0),
                                     (0.5, 0.5), title="t=4 days")
        text = p.read_text()
        assert text.startswith("# vtk DataFile Version 3.0\nt=4 days\n")
        assert "DATASET RECTILINEAR_GRID" in text
        assert "DIMENSIONS 7 5 2" in text
        assert f"CELL_DATA {field.size}" in text

    def test_vtk_agrees_with_csv(self, tmp_path, field):
        """The same snapshot written both ways must agree cell for cell."""
        pc = tmp_path / "f.csv"
        pv = tmp_path / "f.vtk"
        output.write_grid_csv(pc, field, (0.0, 0.0), (0.5, 0.5), name="sw")
        output.write_vtk_rectilinear(pv, {"sw": field}, (0.0, 0.0),
                                     (0.5, 0.5))
        from_csv = output.read_grid_csv(pc)
        from_vtk = read_vtk_cell_scalars(pv)["sw"]
        assert np.array_equal(from_csv, from_vtk)


class TestLedger:
    def ledger(self):
        led = RunLedger()
        led.entries.append(LedgerEntry(0, 0.0, 2.0, 2, [1.0, 0.1, 1e-7],
                                       100, 12.5, True))
        led.entries.append(LedgerEntry(1, 2.0, 4.0, 1, [0.5, 1e-8],
                                       100, 8.0, True))
        return led

    def test_round_trip(self, tmp_path):
        p = tmp_path / "ledger.csv"
        led = self.ledger()
        output.write_ledger_csv(p, led)
        rows = read_ledger_csv(p)
        assert rows == [(0, 0, 1.0, 100, 12.5), (0, 1, 0.1, 100, 12.5),
                        (0, 2, 1e-7, 100, 12.5), (1, 0, 0.5, 100, 8.0),
                        (1, 1, 1e-8, 100, 8.0)]

    def test_cost_metric(self):
        assert self.ledger().cost_metric == 2 * 100 + 1 * 100


class TestSummaries:
    def test_json_round_trip(self, tmp_path):
        p = tmp_path / "s.json"
        data = {"label": "x", "cost_metric": 123,
                "mass_balance": {"relative_error": 1.5e-9}}
        output.write_summary(p, data)
        assert output.read_summary(p) == data

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        data = {"b": 1, "a": [1.0, 2.0]}
        output.write_summary(a, data)
        output.write_summary(b, data)
        assert a.read_bytes() == b.read_bytes()


class TestCurvesAndMarkers:
    def test_curves_csv(self, tmp_path):
        from stdd.physics import (BrooksCoreyModel, FluidModel,
                                  FluidRockModel, property_curves)
        m = FluidRockModel(FluidModel(), BrooksCoreyModel())
        p = tmp_path / "curves.csv"
        output.write_curves_csv(p, property_curves(m))
        lines = p.read_text().splitlines()
        assert lines[0] == "sw,krw,kro,pc"
        assert len(lines) == 82
        last = lines[-1].split(",")
        assert float(last[0]) == 1.0 and float(last[3]) == 10.0

    def test_failure_marker(self, tmp_path):
        output.mark_failure(tmp_path, "window 3 diverged")
        assert (tmp_path / "FAILED").read_text() == "window 3 diverged\n"
