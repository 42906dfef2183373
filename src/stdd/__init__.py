"""Fully implicit two-phase reservoir simulator with space-time domain
decomposition, non-matching space-time interfaces, and adaptive local
refinement driven by residual and delta-change indicators.

The environment variable STDD_THREADS caps the thread count of the BLAS
libraries backing the sparse solves.  It is applied here, before the
first submodule loads numpy, and never overrides a variable already set.
"""

import os


def _apply_thread_cap():
    cap = os.environ.get("STDD_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, cap)


_apply_thread_cap()

from .adaptivity import (BaseGrid, IdentifierMap, Thresholds,  # noqa: E402
                         Tiling, classify, decompose, delta_change,
                         residual_indicator, transfer_state)
from .assembly import (CellProperties, CellSystem,  # noqa: E402
                       ResolvedWells, StateField, WindowTerms, linearize,
                       window_terms)
from .config import RunConfig, WellSpec, load_config, preset  # noqa: E402
from .errors import (ConfigError, MeshError,  # noqa: E402
                     MismatchedProblem, NonConvergence, SingularMatrix,
                     StddError)
from .mesh import SpaceTimeWindow, Subdomain, build_window  # noqa: E402
from .physics import (BETA_C, STB_TO_FT3, BrooksCoreyModel,  # noqa: E402
                      FluidModel, FluidRockModel, property_curves)
from .run import Problem, compare  # noqa: E402
from .solver import (LedgerEntry, NewtonConfig, RunLedger,  # noqa: E402
                     newton_solve_window)

__version__ = "0.1.0"
