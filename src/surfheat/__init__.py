"""surfheat: adaptive finite elements for the heat equation on closed surfaces.

The package solves the linear heat equation on a smooth closed surface with
piecewise-linear finite elements on a triangulated approximation, implicit
Euler time stepping, residual-type error indicators, and a space-time
adaptive loop with conforming refinement and coarsening.

Public layers
-------------
``geometry``    signed-distance surfaces, closest-point lift, geometric
                operators of the lifted setting
``mesh``        oriented triangulations, lazily cached adjacency and metrics,
                OFF/VTK I/O
``refinement``  bisection/red-green-blue refinement, coarsening, marking,
                nodal transfer
``fem``         the per-mesh P1 operator cache, implicit Euler step,
                preconditioned CG, lifted error norms
``estimator``   per-element spatial/temporal/coarsening indicators
``adaptive``    the space-time adaptive driver
``problems``    benchmark problems and structured mesh generators
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
    Indicators, coarsening_indicator, combined, compute_indicators,
    spatial_indicator, temporal_indicator)
from .fem import (  # noqa: F401
    ErrorEvaluator, FeFunction, QuadratureRule, assemble,
    backward_euler_step, errors_vs_exact, interpolate, jacobi_cg,
    lifted_l2_distance, lifted_l2_norm, p1_operators)
from .geometry import (  # noqa: F401
    GeometricOperators, LevelSetSurface, geometric_operators, lift,
    measure_ratio, torus, unit_sphere)
from .mesh import (  # noqa: F401
    SurfaceMesh, read_off, validate_mesh, write_off, write_vtk)
from .problems import (  # noqa: F401
    Problem, get_problem, icosphere, torus_grid)
from .refinement import (  # noqa: F401
    MarkSet, coarsen, init_reference_edges, lift_new_nodes, mark_coarsen,
    mark_refine, refine, transfer)
