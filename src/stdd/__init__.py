"""Fully implicit two-phase reservoir simulator with space-time domain
decomposition, non-matching space-time interfaces, and adaptive local
refinement driven by residual and delta-change indicators."""

from .adaptivity import (BaseGrid, IdentifierMap, Thresholds, Tiling,
                         classify, decompose, delta_change,
                         residual_indicator, transfer_state,
                         upscale_permeability)
from .assembly import (CellProperties, CellSystem, ResolvedWells,
                       StateField, linearize)
from .config import RunConfig, WellSpec, load_config, preset
from .errors import (ConfigError, MeshError, MismatchedProblem,
                     NonConvergence, SingularMatrix, StddError)
from .mesh import SpaceTimeWindow, Subdomain, build_window
from .physics import (BETA_C, STB_TO_FT3, BrooksCoreyModel, FluidModel,
                      FluidRockModel, property_curves)
from .run import Problem, compare, run
from .solver import (LedgerEntry, NewtonConfig, RunLedger,
                     newton_solve_window)

__version__ = "0.1.0"
