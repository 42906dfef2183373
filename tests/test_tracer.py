"""The benchmark's span tracer (`perfbench/spans.py`) still reads the
package: its counters equal what a traced run builds and solves."""

import importlib.util
import pathlib
import sys

from stdd.config import preset

SPANS = pathlib.Path(__file__).parents[1] / "perfbench" / "spans.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.Tracer()


def test_toy_run_counters(tmp_path):
    driver, mesh = sys.modules["stdd.run"], sys.modules["stdd.mesh"]
    built = []
    build = driver.build_window

    def collect(*args, **kwargs):
        window = mesh.build_window(*args, **kwargs)   # the traced one
        built.append(window)
        return window

    driver.build_window = collect
    tracer = load_tracer()
    tracer.install()
    try:
        summary = driver.run(preset("toy"), tmp_path, emit_vtk=False)
    finally:
        tracer.uninstall()
        driver.build_window = build

    assert not tracer.failed
    m = tracer.layer_metrics(1)
    # the predictor's trial once, then each window's decomposition when
    # it changes
    assert len(built) == len({w.subdomains for w in built}) > 1
    assert m["mesh.build_window.calls"] == len(built)
    assert m["mesh.st_cells"] == sum(w.n_st for w in built)
    assert m["mesh.faces"] == sum(w.n_faces for w in built)
    assert m["mesh.bundles"] == sum(len(w.bundles) for w in built) > 0
    assert m["solver.lu_fill"] == summary["lu_cost"] > 0
    # a window orders its cells on its first Jacobian fill, as a span of
    # its own
    assert 0 < m["mesh.minimum_degree_order.calls"] <= len(built)
