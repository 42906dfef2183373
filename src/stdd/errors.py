"""Exception hierarchy shared across the package."""


class StddError(Exception):
    """Base class for all simulator errors."""


class MeshError(StddError):
    pass


class NonIntegerRatio(MeshError):
    """A time-step or refinement ratio that must be an integer is not."""


class TilingGap(MeshError):
    """Subdomain footprints leave part of the reservoir uncovered."""


class TilingOverlap(MeshError):
    """Subdomain footprints overlap (or extend outside the reservoir)."""


class MisalignedInterface(MeshError):
    """Neighboring cell sizes are not integer multiples along a shared edge."""


class MissingPrevTrace(StddError):
    """No previous-level state available for an accumulation term."""


class ZeroPermeability(StddError):
    """A cell permeability is zero or negative."""


class SingularFluxBlock(StddError):
    """A flux-relation diagonal entry is zero; elimination impossible."""


class SingularMatrix(StddError):
    """The reduced linear system could not be solved."""


class NonConvergence(StddError):
    """Newton failed to reach tolerance within the iteration budget."""

    def __init__(self, iterations, final_norm, message=None, lu_nnz=0,
                 wall_ms=0.0):
        self.iterations = iterations
        self.final_norm = final_norm
        self.lu_nnz = lu_nnz     # SuperLU's stored entries over its solves
        self.wall_ms = wall_ms   # the attempt's Newton wall time
        super().__init__(
            message
            or f"Newton did not converge: {iterations} iterations, "
            f"final norm {final_norm:.3e}"
        )


class ConfigError(StddError):
    """Invalid or inconsistent run configuration."""


class DimensionMismatch(ConfigError):
    """A property field does not match the declared grid dimensions."""


class NonPositivePermeability(ConfigError):
    """A loaded permeability value is zero or negative."""


class MismatchedProblem(StddError):
    """Two run directories do not describe the same physical problem."""
