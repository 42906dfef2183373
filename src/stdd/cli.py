"""Command-line entry point.

Subcommands: simulate, compare, curves.  Exit codes: 0 success, 2 config
error, 3 convergence failure, 4 I/O error.  STDD_THREADS is applied when
the package loads (see `stdd`).
"""

from __future__ import annotations

import argparse
import sys

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3
EXIT_IO = 4


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
            from .physics import property_curves
            cfg = _load_config(args.config, "desk")
            _write_curves_to(sys.stdout,
                             property_curves(cfg.fluid_rock_model()))
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
    from .run import COST_RATIO_BUDGET

    def flag(key):
        return (f"  (above {COST_RATIO_BUDGET})"
                if key in rep["over_budget"] else "")

    print(f"{'':12s}{'cost metric':>16s}{'predictor cost':>16s}"
          f"{'local cost':>16s}{'all-in cost':>16s}{'LU cost':>16s}"
          f"{'Newton ms':>14s}{'run ms':>14s}")
    for r in (rep["a"], rep["b"]):
        print(f"{r['label']:12s}{r['cost_metric']:>16d}"
              f"{r['predictor_cost']:>16}{r['local_cost']:>16}"
              f"{r['all_in_cost']:>16}{r['lu_cost']:>16}"
              f"{r['total_wall_ms']:>14.1f}{r['run_wall_ms']:>14.1f}")
    print(f"cost ratio (a/b): {rep['cost_ratio']:.4f}")
    print(f"all-in cost ratio (a/b): {rep['all_in_cost_ratio']:.4f}"
          f"{flag('all_in_cost_ratio')}")
    print(f"LU cost ratio (a/b): {rep['lu_cost_ratio']:.4f}"
          f"{flag('lu_cost_ratio')}")
    print(f"Newton wall ratio (a/b): {rep['wall_ratio']:.4f}")
    print(f"end-to-end wall ratio (a/b): {rep['run_wall_ratio']:.4f}")
    print(f"{'time (d)':>10s}{'L_inf dS':>12s}{'L2 dS':>12s}")
    for d in rep["saturation_differences"]:
        print(f"{d['time']:>10.3f}{d['linf']:>12.5f}{d['l2']:>12.5f}")


if __name__ == "__main__":
    sys.exit(main())
