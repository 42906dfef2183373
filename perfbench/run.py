"""Desk-grid benchmark of the stdd simulator.

Runs one workload (a prefix of a desk preset) through `stdd.run.run` for a
set time, in whole rounds of one simulation per permeability field, checks
each run's artifacts, and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json,
measured with tracing off.  With `--trace 1` they are the per-layer ones,
from spans recorded around every public function of each `stdd` module
(see spans.py); the spans are written to .perfbench/.  Usage:

    python3 perfbench/run.py --workload dynamic-dd --seed 0 --seconds 40 \
        --trace 0
"""

import os

# One BLAS thread, set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 5
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from checks import check_run, load_reference  # noqa: E402
from spans import Tracer  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0,
                   help="sets which permeability field each round starts "
                        "with; 0 starts with the presets' seed 7")
    p.add_argument("--seconds", type=float, default=40.0,
                   help="measure for at most this long, in whole rounds "
                        "(at least one)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Bench:
    """Runs and checks simulations of one workload, one per field a round."""

    def __init__(self, name, seed):
        import stdd  # noqa: F401  (loads the modules the tracer patches)
        from stdd.errors import StddError

        self.error = StddError
        self.name = name
        self.fields = workloads.field_order(seed)
        self.cfgs = {f: workloads.config(name, f) for f in self.fields}
        self.references = {f: None for f in self.fields}
        if name == "dynamic-dd":
            self.references = {
                f: load_reference(HERE / "reference"
                                  / f"dynamic-dd-field{f}.npz")
                for f in self.fields}
        self.outdir = OUT / "runs" / f"{name}-{os.getpid()}"
        self.solver = sys.modules["stdd.solver"]
        self.attempted = 0
        self.failed = 0
        self.problems = []       # failed checks, as messages
        self.counts = {}         # field -> set of count tuples seen

    def simulate(self, field):
        """One simulation, timed from entering run() to its return."""
        cfg = self.cfgs[field]
        shutil.rmtree(self.outdir, ignore_errors=True)
        run = sys.modules["stdd.run"].run
        self.attempted += 1
        dofs = []
        real = self.solver.linear_solve

        def counted(jacobian, residual, *args, **kwargs):
            dofs.append(len(residual))
            return real(jacobian, residual, *args, **kwargs)

        self.solver.linear_solve = counted
        try:
            t0 = time.perf_counter()
            run(cfg, str(self.outdir))
            wall = time.perf_counter() - t0
        except self.error as exc:
            self.failed += 1
            print(f"field {field}: simulation failed: {exc}", file=sys.stderr)
            return None
        finally:
            self.solver.linear_solve = real
        fails, summary = check_run(self.outdir, cfg, self.references[field])
        self.problems += [f"field {field}: {msg}" for msg in fails]
        nbytes = sum(f.stat().st_size for f in self.outdir.iterdir())
        shutil.rmtree(self.outdir)
        result = {"wall_s": wall, "iterations": summary["iterations"],
                  "cost_metric": summary["cost_metric"],
                  "all_in_cost": sum(dofs),
                  "newton_wall_s": summary["total_wall_ms"] / 1.0e3,
                  "bytes": nbytes}
        self.counts.setdefault(field, set()).add(
            (result["iterations"], result["cost_metric"],
             result["all_in_cost"]))
        return result

    def round(self):
        """One simulation per field; None if any failed."""
        results = [self.simulate(f) for f in self.fields]
        return None if None in results else results

    def check_repeats(self):
        """Counts must repeat exactly across rounds."""
        for field, seen in self.counts.items():
            if len(seen) > 1:
                self.problems.append(
                    f"field {field}: counts differ between rounds: {seen}")


def room_for_another(start, last, seconds):
    """Whether a step as long as the one begun at `last` still fits."""
    now = time.perf_counter()
    return now + (now - last) - start <= seconds


def mean(results, key):
    return sum(r[key] for r in results) / len(results)


def setup_time(bench):
    """Set-up seconds measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), bench.name,
         *map(str, bench.fields)],
        capture_output=True, text=True, check=True, timeout=120)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end(bench, seconds):
    """Per-simulation means over the run; set-up is its probes' median.

    The machine's speed drifts over seconds to minutes.  A mean over all
    rounds averages that drift where a median snaps to one side of it, and
    the set-up probes are spread over the run: one before each round, the
    rest after the last.
    """
    setup, rounds = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        setup.append(setup_time(bench))
        rounds.append(bench.round())
        if not room_for_another(start, t0, seconds):
            break
    while len(setup) < SETUP_PROBES:
        setup.append(setup_time(bench))
    rounds = [r for r in rounds if r is not None]
    if not rounds:
        return {}
    print(f"set-up probes {setup}; round walls "
          f"{[mean(r, 'wall_s') for r in rounds]}", file=sys.stderr)
    return {
        "wall_s": statistics.fmean(mean(r, "wall_s") for r in rounds),
        "setup_s": statistics.median(setup),
        "newton_iterations": mean(rounds[0], "iterations"),
        "cost_metric": mean(rounds[0], "cost_metric"),
        "all_in_cost": mean(rounds[0], "all_in_cost"),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(bench, seconds, trace_path):
    """Traced rounds, alternating with untraced ones for the overhead."""
    tracer = Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        untraced.append(bench.round())
        tracer.install()
        try:
            traced.append(bench.round())
        finally:
            tracer.uninstall()
        if not room_for_another(start, t0, seconds):
            break
    tracer.write(trace_path)
    if None in untraced or None in traced:
        return {}
    sims = [r for rnd in traced for r in rnd]
    own = tracer.self_times()
    for (a, b), r in zip(tracer.roots(), sims):
        if sum(own[a:b]) > r["wall_s"]:
            bench.problems.append(
                f"layer self times {sum(own[a:b])!r} exceed the traced "
                f"wall {r['wall_s']!r}")
    m = tracer.layer_metrics(len(sims))
    wall = statistics.fmean(mean(r, "wall_s") for r in traced)
    base = statistics.fmean(mean(r, "wall_s") for r in untraced)
    m.update({
        "solver.newton_wall_s": mean(sims, "newton_wall_s"),
        "output.bytes": mean(sims, "bytes"),
        "trace.wall_s": wall,
        "trace.untraced_wall_s": base,
        "trace.overhead_s": wall - base,
    })
    return m


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "stdd" / "__init__.py").is_file():
        print(f"no stdd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    bench = Bench(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    if args.trace:
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.csv"
        values = per_layer(bench, args.seconds, trace_path)
    else:
        values = end_to_end(bench, args.seconds)
    bench.check_repeats()
    for msg in bench.problems:
        print(f"check failed: {msg}", file=sys.stderr)

    metrics = {}
    if values:
        metrics = {m["name"]: {"value": values.get(m["name"], 0),
                               "unit": m["unit"]} for m in wanted}
    correct = not bench.problems and bool(values)
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
