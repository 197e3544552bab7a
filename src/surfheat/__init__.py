"""surfheat: adaptive finite elements for the heat equation on closed surfaces.

The package solves the linear heat equation on a smooth closed surface with
piecewise-linear finite elements on a triangulated approximation, implicit
Euler time stepping, residual-type error indicators, and a space-time
adaptive loop with conforming refinement and coarsening.

Public layers
-------------
``geometry``    signed-distance surfaces, closest-point lift, geometric
                operators of the lifted setting
``mesh``        oriented triangulations, the lazily cached half-edge sort
                and metrics (with squared edge lengths), closed-surface
                validation, the genealogy arena of refinement, VTK output
``refinement``  marking (sorted element-id arrays), bisection/red-green-blue
                refinement and coarsening of any such ids, nodal transfer
``fem``         the per-mesh P1 bundle (``Csr`` mass and stiffness on scipy's
                compiled CSR product, half-cotangent weights), implicit Euler
                step, preconditioned CG, the degree-4 quadrature rule, lifted
                error norms (``ErrorEvaluator`` against an exact solution,
                ``lifted_l2_distance`` against a field)
``estimator``   per-element spatial/temporal/coarsening indicators in one
                element-local pass on the half-cotangent weights
                (``compute_indicators``); ``coarsening_indicator`` for
                coarsening trials
``adaptive``    the space-time adaptive driver
``problems``    benchmark problems (namedtuple ``Problem``), mesh generators
``cli``         experiment drivers (``surfheat`` console script)
"""

__version__ = "0.1.0"

from . import errors  # noqa: F401
from .adaptive import AdaptiveConfig, RunLog, StepRecord, run  # noqa: F401
from .errors import (  # noqa: F401
    DofCapExceeded, GenerationMismatch, MetadataMissing, NonConvergence,
    NonFiniteValue, NonManifold, OutsideTube, SpatialStagnation,
    SurfheatError, TauUnderflow)
from .estimator import (  # noqa: F401
    Indicators, coarsening_indicator, combined, compute_indicators)
from .fem import (  # noqa: F401
    ErrorEvaluator, FeFunction, assemble, backward_euler_step, interpolate,
    jacobi_cg, lifted_l2_distance, p1_operators, quadrature_points)
from .geometry import (  # noqa: F401
    GeometricOperators, LevelSetSurface, geometric_operators, lift, torus,
    unit_sphere)
from .mesh import SurfaceMesh, validate_mesh, write_vtk  # noqa: F401
from .problems import (  # noqa: F401
    Problem, get_problem, icosphere, torus_grid)
from .refinement import (  # noqa: F401
    coarsen, init_reference_edges, lift_new_nodes, mark_coarsen, mark_refine,
    refine, transfer)
