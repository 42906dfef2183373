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
    """Newton missed its tolerance; `entry` is the solve's `LedgerEntry`."""

    def __init__(self, entry, message=None):
        self.entry = entry
        super().__init__(message or "Newton did not converge: "
                         f"{entry.iterations} iterations, final norm "
                         f"{entry.norms[-1]:.3e}")


class ConfigError(StddError):
    """Invalid or inconsistent run configuration."""


class DimensionMismatch(ConfigError):
    """A property field does not match the declared grid dimensions."""


class NonPositivePermeability(ConfigError):
    """A loaded permeability value is zero or negative."""


class MismatchedProblem(StddError):
    """Two runs' problems differ, or a run summary is incomplete."""
