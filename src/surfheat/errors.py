"""Exception types shared across the package."""


class SurfheatError(Exception):
    """Base class for all package-specific errors."""


# --- geometry ---------------------------------------------------------------

class NonConvergence(SurfheatError):
    """Closest-point iteration failed to converge."""


class OutsideTube(SurfheatError):
    """Point is too far from the surface for a reliable closest-point lift."""


class DegenerateTriangle(SurfheatError):
    """Triangle with (numerically) zero area."""


class SingularShapeOperator(SurfheatError):
    """(I - d*Weingarten) is singular at an evaluation point."""


# --- mesh -------------------------------------------------------------------

class NonManifold(SurfheatError):
    """An edge is shared by a number of triangles different from two."""


class InconsistentOrientation(SurfheatError):
    """Adjacent triangles disagree on orientation."""


# --- refinement -------------------------------------------------------------

class MetadataMissing(SurfheatError):
    """Refinement metadata required by the operation is absent."""


class GenerationMismatch(SurfheatError):
    """A nodal vector belongs to a different mesh generation."""


class StrategyMismatch(SurfheatError):
    """Refinement/coarsening strategy differs from the one recorded on the mesh."""


# --- fem --------------------------------------------------------------------

class SolverDivergence(SurfheatError):
    """Conjugate gradients exceeded the iteration budget."""


class NonFiniteValue(SurfheatError):
    """A NaN or an infinity reached the linear solver."""


# --- adaptive ---------------------------------------------------------------

class TauUnderflow(SurfheatError):
    """Time step was halved below the configured minimum."""


class DofCapExceeded(SurfheatError):
    """Refinement pushed the number of unknowns above the configured cap."""


class SpatialStagnation(SurfheatError):
    """Spatial refinement loop hit its iteration cap without reaching tolerance."""
