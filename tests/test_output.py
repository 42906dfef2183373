"""Artifact writers/readers: exact round trips and cross-format agreement."""

import csv
from dataclasses import replace

import numpy as np
import pytest

from artifact_readers import read_ledger_csv, read_vtk_cell_scalars
from stdd import IdentifierMap, Thresholds, classify, output, preset
from stdd.run import run
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
            write_csv(p, f, origin, (0.5, 0.5), name="sw")
            assert np.array_equal(output.read_grid_csv(p), f)

    def test_header_and_ordering(self, tmp_path, field):
        p = tmp_path / "f.csv"
        write_csv(p, field, (1.0, 2.0), (0.5, 0.25), name="p")
        lines = p.read_text().splitlines()
        assert lines[0] == "i,j,x,y,p"
        # i varies fastest within each j
        first = lines[1].split(",")
        second = lines[2].split(",")
        assert first[:2] == ["0", "0"] and second[:2] == ["1", "0"]
        assert len(lines) == 1 + field.size

    def test_write_is_deterministic(self, tmp_path, field):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, field, (0.0, 0.0), (0.5, 0.5))
        write_csv(b, field, (0.0, 0.0), (0.5, 0.5))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("origin, cell", [
        ((0.0, 0.0), (0.5, 0.5)), ((10.0, -5.0), (2.0, 1.0)),
        ((3, 1), (2, 7)), ((-1.0e5, 0.1), (1.0 / 3.0, 0.1))])
    def test_bytes_match_csv_writer(self, tmp_path, field, origin, cell):
        field = field.copy()
        field[0, :] = [0.0, -0.0, 1.0e-300, 1.0e17]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, field, origin, cell, name="s,w")
        ref_write_grid_csv(b, field, origin, cell, name="s,w")
        assert a.read_bytes() == b.read_bytes()

    def test_nonzero_origin_round_trip(self, tmp_path, field):
        p = tmp_path / "f.csv"
        write_csv(p, field, (10.0, -5.0), (2.0, 1.0))
        assert np.array_equal(output.read_grid_csv(p), field)


def write_csv(path, field, origin, cell_size, name="value"):
    """One field written as a snapshot CSV."""
    output.write_snapshot({name: field}, origin, cell_size,
                          csv_paths={name: path})


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
        output.write_snapshot(fields, origin, cell, vtk_path=a, title="t=1")
        ref_write_vtk_rectilinear(b, fields, origin, cell, title="t=1")
        assert a.read_bytes() == b.read_bytes()

    def test_cell_scalars_round_trip(self, tmp_path, field):
        p = tmp_path / "snap.vtk"
        other = field * 3.0 + 1.0
        output.write_snapshot({"sw": field, "p": other}, (0.0, 0.0),
                              (0.5, 0.5), vtk_path=p)
        got = read_vtk_cell_scalars(p)
        assert set(got) == {"sw", "p"}
        assert np.array_equal(got["sw"], field)
        assert np.array_equal(got["p"], other)

    def test_structure(self, tmp_path, field):
        p = tmp_path / "snap.vtk"
        output.write_snapshot({"sw": field}, (0.0, 0.0), (0.5, 0.5),
                              vtk_path=p, title="t=4 days")
        text = p.read_text()
        assert text.startswith("# vtk DataFile Version 3.0\nt=4 days\n")
        assert "DATASET RECTILINEAR_GRID" in text
        assert "DIMENSIONS 7 5 2" in text
        assert f"CELL_DATA {field.size}" in text

    def test_vtk_agrees_with_csv(self, tmp_path, field):
        """The same snapshot written both ways must agree cell for cell."""
        pc = tmp_path / "f.csv"
        pv = tmp_path / "f.vtk"
        write_csv(pc, field, (0.0, 0.0), (0.5, 0.5), name="sw")
        output.write_snapshot({"sw": field}, (0.0, 0.0), (0.5, 0.5),
                              vtk_path=pv)
        from_csv = output.read_grid_csv(pc)
        from_vtk = read_vtk_cell_scalars(pv)["sw"]
        assert np.array_equal(from_csv, from_vtk)


class TestSnapshot:
    """`write_snapshot` against the per-value reference writers."""

    @staticmethod
    def fields(shape, seed):
        rng = np.random.default_rng(seed)
        sw = rng.uniform(0.0, 1.0, shape)
        sw.flat[:4] = [0.0, -0.0, 1.0e-300, 1.0e17]
        return {"sw": sw, "p": rng.uniform(900.0, 1100.0, shape)}

    def check(self, tmp_path, fields, origin, cell, vtk=True):
        csvs = {name: tmp_path / f"{name}.csv" for name in fields}
        vtk_path = tmp_path / "snap.vtk" if vtk else None
        output.write_snapshot(fields, origin, cell, csv_paths=csvs,
                              vtk_path=vtk_path, title="t=2 days")
        ref = tmp_path / "ref"
        for name, field in fields.items():
            ref_write_grid_csv(ref, field, origin, cell, name=name)
            assert csvs[name].read_bytes() == ref.read_bytes()
        if vtk:
            ref_write_vtk_rectilinear(ref, fields, origin, cell,
                                      title="t=2 days")
            assert vtk_path.read_bytes() == ref.read_bytes()

    def test_bytes_match_reference_writers(self, tmp_path):
        self.check(tmp_path, self.fields((6, 4), 0), (1.0, 2.0), (0.5, 0.25))

    def test_repeated_values(self, tmp_path):
        """A value repeated over the cells of a coarse block is formatted
        once; distinct bits keep their own strings, so -0.0 is not 0.0."""
        base = np.array([[0.0, -0.0, np.nan], [0.25, 0.25, -0.0]])
        field = np.repeat(np.repeat(base, 3, axis=0), 2, axis=1)
        self.check(tmp_path, {"sw": field, "p": -field}, (0.0, 0.0),
                   (0.5, 0.5))

    def test_row_heads_follow_the_grid(self, tmp_path):
        """Grids that differ in shape, origin or cell size alone, written
        in turn in one process, each get their own row heads."""
        grids = [((6, 4), (0.0, 0.0), (0.5, 0.5)),
                 ((4, 6), (0.0, 0.0), (0.5, 0.5)),
                 ((6, 4), (10.0, -5.0), (0.5, 0.5)),
                 ((6, 4), (0.0, 0.0), (2.0, 1.0))]
        for seed, (shape, origin, cell) in enumerate(grids + grids):
            self.check(tmp_path, self.fields(shape, seed), origin, cell,
                       vtk=seed % 2 == 0)

    def test_only_the_named_csvs(self, tmp_path):
        fields = self.fields((3, 5), 1)
        output.write_snapshot(fields, (0.0, 0.0), (1.0, 1.0),
                              csv_paths={"p": tmp_path / "p.csv"})
        assert [f.name for f in tmp_path.iterdir()] == ["p.csv"]
        assert np.array_equal(output.read_grid_csv(tmp_path / "p.csv"),
                              fields["p"])


class TestRunSnapshots:
    """A run's snapshots, written in the cached row-head path, against
    the reference writers on the values read back."""

    def test_fine_levels_and_vtk(self, tmp_path):
        cfg = replace(preset("toy"), horizon=4.0, emit_fine_levels=True)
        a, b = tmp_path / "a", tmp_path / "b"
        run(cfg, a, emit_vtk=False)
        run(replace(cfg, emit_fine_levels=False), b)
        assert not list(a.glob("*.vtk"))
        fine = sorted(a.glob("fine_sw_*.csv"))
        assert len(fine) > 2
        origin, cell = cfg.reservoir[:2], cfg.base_cell
        ref = tmp_path / "ref"
        for path in fine + sorted(a.glob("snap_*.csv")):
            name = path.read_text().split("\n", 1)[0].split(",")[-1].strip()
            ref_write_grid_csv(ref, output.read_grid_csv(path), origin,
                               cell, name=name)
            assert path.read_bytes() == ref.read_bytes()
            other = b / path.name
            if path.name.startswith("snap_"):
                assert path.read_bytes() == other.read_bytes()
            else:
                assert not other.exists()
        for k in range(2):
            fields = {f: output.read_grid_csv(b / f"snap_{f}_{k:03d}.csv")
                      for f in ("sw", "p")}
            ref_write_vtk_rectilinear(ref, fields, origin, cell,
                                      title=f"t={2 * k + 2:g} days")
            assert (b / f"snap_{k:03d}.vtk").read_bytes() == ref.read_bytes()


def ref_write_idmap_csv(path, idmap):
    """The identifier map written row by row through csv.writer."""
    def fmt(v):
        return "%.17g" % float(v)

    ntx, nty = idmap.identifiers.shape
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["tile_i", "tile_j", "identifier", "eta", "delta_s",
                    "delta_t"])
        for i in range(ntx):
            for j in range(nty):
                w.writerow([i, j, int(idmap.identifiers[i, j]),
                            fmt(idmap.eta[i, j]), fmt(idmap.delta_s[i, j]),
                            fmt(idmap.delta_t[i, j])])


class TestIdmapCsv:
    @staticmethod
    def check(tmp_path, idmap):
        got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
        output.write_idmap_csv(got, idmap)
        ref_write_idmap_csv(ref, idmap)
        assert got.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (44, 12)])
    def test_bytes_match_row_writer(self, tmp_path, shape):
        rng = np.random.default_rng(sum(shape))
        ids = rng.integers(1, 5, shape)
        # repeated, signed-zero, tiny and huge indicator values
        pool = np.array([0.0, -0.0, 1e-300, 0.1, 1 / 3, 2.5e7, -1.0])
        eta, ds, dt = (np.where(rng.random(shape) < 0.5,
                                rng.choice(pool, shape),
                                rng.uniform(-1, 1, shape)) for _ in range(3))
        self.check(tmp_path, IdentifierMap(ids, eta, ds, dt))

    def test_classified_map(self, tmp_path):
        rng = np.random.default_rng(4)
        eta, ds, dt = rng.uniform(0, 0.7, (3, 22, 6))
        self.check(tmp_path, classify(eta, ds, dt, Thresholds()))


class TestLedger:
    def ledger(self):
        led = RunLedger()
        # an entry's window is its position
        led.entries.append(LedgerEntry(2, [1.0, 0.1, 1e-7], 100, 12.5))
        led.entries.append(LedgerEntry(1, [0.5, 1e-8], 100, 8.0))
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
        """Iterations x reduced DOFs over the accepted windows; the all-in
        cost, the fill and the wall add the predictor's and failed solves."""
        led = self.ledger()
        led.predictor.append(LedgerEntry(3, [1.0] * 4, 10, 1.0, 7))
        led.failed.append(LedgerEntry(5, [1.0] * 6, 20, 2.0, 11))
        costs = led.costs()
        assert costs["cost_metric"] == 2 * 100 + 1 * 100
        assert costs["iterations"] == 3
        assert (costs["predictor_cost"], costs["failed_cost"]) == (30, 100)
        assert led.failed_cost == 100
        assert costs["all_in_cost"] == 300 + 30 + 100
        assert costs["lu_cost"] == 7 + 11
        assert costs["total_wall_ms"] == 12.5 + 8.0 + 1.0 + 2.0


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
