"""Command-line entry point.

Subcommands: simulate, compare, curves.  Exit codes: 0 success, 2 config
error, 3 convergence failure, 4 I/O error.

The environment variable STDD_THREADS caps the thread count of the BLAS
libraries backing the sparse solves; it must be read before numpy loads,
so the heavy modules are imported lazily inside main().
"""

from __future__ import annotations

import argparse
import os
import sys

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3
EXIT_IO = 4


def _apply_thread_cap():
    cap = os.environ.get("STDD_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, cap)


def build_parser():
    p = argparse.ArgumentParser(
        prog="stdd",
        description="Two-phase reservoir simulator with space-time "
                    "domain decomposition and adaptive local refinement.")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a configured simulation")
    sim.add_argument("--config", required=True,
                     help="path to a JSON or INI run configuration, or "
                          "'preset:<name>' for a built-in experiment")
    sim.add_argument("--mode", default=None,
                     choices=["uniform-fine", "uniform-coarse",
                              "static-dd", "dynamic-dd"],
                     help="override the configured mode")
    sim.add_argument("--scale", default="desk", choices=["desk", "paper"],
                     help="horizon scale for presets")
    sim.add_argument("--emit-fine-levels", action="store_true",
                     help="emit saturation rasters at every fine time level")
    sim.add_argument("--out", default="out", help="output directory")

    cmp_ = sub.add_parser("compare", help="compare two finished runs")
    cmp_.add_argument("--a", required=True, help="first run directory")
    cmp_.add_argument("--b", required=True, help="second run directory")

    cur = sub.add_parser("curves", help="print property curves as CSV")
    cur.add_argument("--config", required=True,
                     help="config path or 'preset:<name>'")
    return p


def _load_config(spec, scale):
    from .config import load_config, preset
    if spec.startswith("preset:"):
        return preset(spec.split(":", 1)[1], scale)
    return load_config(spec)


def main(argv=None):
    _apply_thread_cap()
    args = build_parser().parse_args(argv)

    from dataclasses import replace

    from .errors import (ConfigError, MismatchedProblem, NonConvergence,
                         StddError)

    try:
        if args.command == "simulate":
            from .run import run
            cfg = _load_config(args.config, args.scale)
            if args.mode:
                cfg = replace(cfg, mode=args.mode)
            if args.emit_fine_levels:
                cfg = replace(cfg, emit_fine_levels=True)
            summary = run(cfg, args.out)
            print(f"completed: {summary['windows']} windows, "
                  f"{summary['iterations']} Newton iterations, "
                  f"cost metric {summary['cost_metric']}")
            print(f"artifacts in {args.out}")
            return EXIT_OK

        if args.command == "compare":
            from .run import compare
            rep = compare(args.a, args.b)
            _print_report(rep)
            return EXIT_OK

        if args.command == "curves":
            import io

            from .physics import property_curves
            from .run import Problem
            cfg = _load_config(args.config, "desk")
            pb = Problem(cfg)
            buf = io.StringIO()
            _write_curves_to(buf, property_curves(pb.model))
            sys.stdout.write(buf.getvalue())
            return EXIT_OK
    except (ConfigError, MismatchedProblem) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonConvergence as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except StddError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    return EXIT_OK


def _write_curves_to(fh, curves):
    fh.write("sw,krw,kro,pc\n")
    for row in curves:
        fh.write(",".join("%.17g" % v for v in row) + "\n")


def _print_report(rep):
    def known(v, fmt=""):
        return "n/a" if v is None else format(v, fmt)

    print(f"{'':12s}{'cost metric':>16s}{'all-in cost':>16s}"
          f"{'LU cost':>16s}{'wall ms':>14s}")
    for r in (rep["a"], rep["b"]):
        print(f"{r['label']:12s}{r['cost_metric']:>16d}"
              f"{known(r['all_in_cost']):>16s}{known(r['lu_cost']):>16s}"
              f"{r['wall_ms']:>14.1f}")
    print(f"cost ratio (a/b): {rep['cost_ratio']:.4f}")
    print(f"all-in cost ratio (a/b): "
          f"{known(rep['all_in_cost_ratio'], '.4f')}")
    print(f"LU cost ratio (a/b): {known(rep['lu_cost_ratio'], '.4f')}")
    print(f"Newton wall ratio (a/b): {rep['wall_ratio']:.4f}")
    print(f"{'time (d)':>10s}{'L_inf dS':>12s}{'L2 dS':>12s}")
    for d in rep["saturation_differences"]:
        print(f"{d['time']:>10.3f}{d['linf']:>12.5f}{d['l2']:>12.5f}")


if __name__ == "__main__":
    sys.exit(main())
