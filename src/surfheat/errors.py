"""Exception types shared across the package."""


class SurfheatError(Exception):
    """Base class for all package-specific errors."""


# --- geometry ---------------------------------------------------------------

class NonConvergence(SurfheatError):
    """A lifted point is off the surface: the distance and gradient
    callbacks are not an exact signed distance and its gradient."""


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
    """Refinement strategy differs from the one recorded on the mesh."""


# --- fem --------------------------------------------------------------------

class SolverDivergence(SurfheatError):
    """Conjugate gradients exceeded the iteration budget, or found that the
    matrix is not positive definite (a diagonal entry or a curvature
    ``p . A p`` that is not positive)."""


class NonFiniteValue(SurfheatError):
    """A NaN or an infinity reached the solver, the marking or a mesh node."""


# --- adaptive ---------------------------------------------------------------

class TauUnderflow(SurfheatError):
    """Time step was halved below the configured minimum."""


class DofCapExceeded(SurfheatError):
    """Refinement pushed the number of unknowns above the configured cap."""


class SpatialStagnation(SurfheatError):
    """Spatial refinement loop hit its iteration cap without reaching tolerance."""
