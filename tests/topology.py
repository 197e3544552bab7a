"""Topological invariants of a mesh, and a surface that refinement lifts
nothing onto, read by the tests only."""

import numpy as np

from surfheat.geometry import LevelSetSurface


def euler_characteristic(mesh):
    """V - E + F (2 for a sphere, 0 for a torus)."""
    return mesh.n_nodes - len(mesh.half_edges.edges) + mesh.n_triangles


# Distance 0 everywhere: every point is on it, so ``refine`` leaves the nodes
# it adds at the flat midpoints and its result is the connectivity alone.
NO_LIFT = LevelSetSurface(
    distance=lambda p: np.zeros(np.shape(p)[:-1]),
    gradient=lambda p: np.zeros(np.shape(p)),
    hessian=lambda p: np.zeros(np.shape(p) + (3,)),
    bounding_radius=np.inf, name="no-lift")
