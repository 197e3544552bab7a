"""Benchmark problems and structured mesh generators.

The solver itself is problem-agnostic; everything experiment-specific lives
here: the surface, the data ``f`` and ``u0``, the exact solution when one is
known, and reproducible initial meshes (icosphere family for the sphere, a
parametric grid for the torus).
"""

from collections import namedtuple

import numpy as np

from .geometry import TORUS_RADII, unit_sphere
from .mesh import SurfaceMesh, sort_half_edges
from .refinement import _RED_TABLE, init_reference_edges


# A heat-equation benchmark on a closed surface: data ``f(x, t)`` and
# ``u0(x)`` on ``surface`` up to ``t_end``, and optionally the exact solution
# ``u(x, t)`` and its tangential gradient ``grad_u(x, t)``; error measurement
# needs both.  Every callable is vectorized over points: ``(..., 3)`` to
# ``(...,)``, or to ``(..., 3)`` for ``grad_u``, at scalar ``t``.
Problem = namedtuple("Problem", "name surface f u0 t_end u grad_u",
                     defaults=(None, None))


def sphere_decay():
    """Decaying product-of-coordinates solution on the unit sphere.

    The solution ``u = e^(-t) x1 x2`` is a degree-2 spherical harmonic
    (eigenvalue 6 of the surface Laplacian), so the source reduces to
    ``f = 5 u``.
    """

    def u(x, t):
        return np.exp(-t) * x[..., 0] * x[..., 1]

    def f(x, t):
        return 5.0 * u(x, t)

    def grad_u(x, t):
        # e^(-t) ((x2, x1, 0) - 2 x1 x2 x), with no full-size temporary
        decay = np.exp(-t)
        g = x * (-2.0 * decay * x[..., 0] * x[..., 1])[..., None]
        g[..., 0] += decay * x[..., 1]
        g[..., 1] += decay * x[..., 0]
        return g

    return Problem("sphere-decay", unit_sphere(), f=f,
                   u0=lambda x: u(x, 0.0), t_end=1.0, u=u, grad_u=grad_u)


def moving_peak(a=25.0, b=400.0, revolutions=2.0, name="moving-peak"):
    """Gaussian bump travelling along the equator of the unit sphere.

    ``u = A(t) exp(-a |x - c(t)|^2)`` up to t = 1, with amplitude
    ``A = 1 - exp(-b (t - 1/2)^2)`` vanishing at t = 1/2 and center
    ``c(t) = (cos(t pi / revolutions), sin(t pi / revolutions), 0)``.  On the
    sphere the exponent collapses to ``2a (x . c - 1)``; the source ``f`` is
    the closed form of ``du/dt - Lap_surface(u)`` obtained from the ambient
    Laplacian minus its normal components (mean curvature 2).
    """
    omega = np.pi / revolutions
    t_peak = 0.5

    def center(t):
        return np.array([np.cos(omega * t), np.sin(omega * t), 0.0])

    def amplitude(t):
        return 1.0 - np.exp(-b * (t - t_peak) ** 2)

    def u(x, t):
        s = x @ center(t)
        return amplitude(t) * np.exp(2.0 * a * (s - 1.0))

    def grad_u(x, t):
        c = center(t)
        s = x @ c
        phi = np.exp(2.0 * a * (s - 1.0))
        return (2.0 * a * amplitude(t) * phi)[..., None] * (c - s[..., None] * x)

    def f(x, t):
        c = center(t)
        c_dot = omega * np.array([-np.sin(omega * t), np.cos(omega * t), 0.0])
        s = x @ c
        phi = np.exp(2.0 * a * (s - 1.0))
        amp = amplitude(t)
        amp_dot = 2.0 * b * (t - t_peak) * np.exp(-b * (t - t_peak) ** 2)
        lap = 4.0 * a * a * (1.0 - s ** 2) - 4.0 * a * s
        return phi * (amp_dot + 2.0 * a * amp * (x @ c_dot) - amp * lap)

    return Problem(name, unit_sphere(), f=f, u0=lambda x: u(x, 0.0),
                   t_end=1.0, u=u, grad_u=grad_u)


def zero_problem():
    """Identically-zero solution (driver sanity checks)."""
    zero = lambda x, t: np.zeros(x.shape[:-1])
    zero_vec = lambda x, t: np.zeros(x.shape)
    return Problem("zero", unit_sphere(), f=zero,
                   u0=lambda x: np.zeros(x.shape[:-1]), t_end=1.0,
                   u=zero, grad_u=zero_vec)


REGISTRY = {
    "sphere-decay": sphere_decay,
    "moving-peak": moving_peak,
    "moving-peak-timing": lambda: moving_peak(
        a=50.0, b=100.0, revolutions=0.5, name="moving-peak-timing"),
    "zero": zero_problem,
}


def get_problem(name):
    try:
        factory = REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise ValueError(f"unknown problem {name!r} (known: {known})") from None
    return factory()


# ----------------------------------------------------------------- generators

_PHI = (1.0 + np.sqrt(5.0)) / 2.0

_ICO_VERTS = np.array([
    (-1, _PHI, 0), (1, _PHI, 0), (-1, -_PHI, 0), (1, -_PHI, 0),
    (0, -1, _PHI), (0, 1, _PHI), (0, -1, -_PHI), (0, 1, -_PHI),
    (_PHI, 0, -1), (_PHI, 0, 1), (-_PHI, 0, -1), (-_PHI, 0, 1),
], dtype=float)

# oriented outward: the right-hand normal of every face points away from 0
_ICO_FACES = np.array([
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
], dtype=np.int64)


def icosahedron():
    """Regular icosahedron inscribed in the unit sphere (raw mesh)."""
    nodes = _ICO_VERTS / np.linalg.norm(_ICO_VERTS[0])
    return SurfaceMesh(nodes, _ICO_FACES.copy())


def red_subdivide(nodes, triangles):
    """One uniform 1-to-4 subdivision with shared flat edge midpoints.

    Genealogy-free helper for generating initial meshes; returns the new node
    and triangle arrays (orientation preserved, midpoints not projected).
    Midpoints are numbered in the edge order of :func:`mesh.sort_half_edges`.
    """
    tri = np.asarray(triangles, dtype=np.int64)
    n = len(nodes)
    edges, tri_edges = sort_half_edges(tri, n)
    mids = 0.5 * (nodes[edges[:, 0]] + nodes[edges[:, 1]])
    children = np.hstack([tri, n + tri_edges])[:, _RED_TABLE]
    return np.vstack([nodes, mids]), children.reshape(-1, 3)


def icosphere(level):
    """Icosahedral sphere mesh: ``level`` subdivision rounds, all nodes on
    the unit sphere (10 * 4**level + 2 nodes).

    The mesh is built fresh (no refinement genealogy), so adaptive runs
    cannot coarsen below it, and it is reference-edge initialized, so they
    can refine it directly.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    base = icosahedron()
    nodes, tris = base.nodes, base.triangles
    for _ in range(level):
        nodes, tris = red_subdivide(nodes, tris)
        nodes /= np.linalg.norm(nodes, axis=1, keepdims=True)
    return init_reference_edges(SurfaceMesh(nodes, tris))


def torus_grid(n_minor):
    """Structured mesh of ``geometry.torus()`` from a periodic parameter grid.

    ``n_minor`` nodes around the tube cross-section and ``4 * n_minor``
    around the central axis (roughly uniform elements for ``TORUS_RADII``).
    Nodes lie exactly on the torus; triangles are oriented outward.
    """
    if n_minor < 3:
        raise ValueError("n_minor must be >= 3")
    n_major = 4 * n_minor
    theta = 2.0 * np.pi * np.arange(n_major) / n_major
    phi = 2.0 * np.pi * np.arange(n_minor) / n_minor
    th, ph = np.meshgrid(theta, phi, indexing="ij")
    major, minor = TORUS_RADII
    ring = major + minor * np.cos(ph)
    nodes = np.stack([ring * np.cos(th), ring * np.sin(th),
                      minor * np.sin(ph)], axis=-1).reshape(-1, 3)

    i = np.arange(n_major)[:, None]
    j = np.arange(n_minor)[None, :]
    n00 = (i * n_minor + j).ravel()
    n10 = ((i + 1) % n_major * n_minor + j).ravel()
    n01 = (i * n_minor + (j + 1) % n_minor).ravel()
    n11 = ((i + 1) % n_major * n_minor + (j + 1) % n_minor).ravel()
    tris = np.vstack([np.stack([n00, n10, n11], axis=1),
                      np.stack([n00, n11, n01], axis=1)])
    return init_reference_edges(SurfaceMesh(nodes, tris))
