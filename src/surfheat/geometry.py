"""Signed-distance level-set surfaces, closest-point lifting, and the
geometric operators that relate quantities on a polyhedral interpolation
surface to their counterparts on the exact surface.

The lift and the measure ratio both assume an exact signed distance:
``|grad d| = 1`` and ``A nu = 0``.  Then the closest point is one
projection step, ``x - d(x) nu(x)``.

Conventions
-----------
All point-based functions are vectorized: ``points`` may have any shape
``(..., 3)`` and results broadcast accordingly.  ``nu_h`` denotes the unit
normal of a flat element, ``nu`` the exact surface normal (the gradient of
the signed distance).
"""

from collections import namedtuple

import numpy as np

from .errors import (NonConvergence, NonFiniteValue, OutsideTube,
                     SingularShapeOperator)

_EYE3 = np.eye(3)

# |d| up to which a point is on the surface: mesh nodes and lifted points
ON_SURFACE_TOL = 1e-10
# (major, minor) radius of torus() and of its mesh, problems.torus_grid
TORUS_RADII = (2.0, 0.5)


# A closed surface described by a signed distance function.  ``distance``,
# ``gradient`` and ``hessian`` take points of shape ``(..., 3)`` and return
# the signed distance (negative inside) of shape ``(...,)``, its gradient
# (a unit vector for an exact signed distance) of shape ``(..., 3)`` and its
# Hessian (the extended Weingarten map) of shape ``(..., 3, 3)``.
# ``bounding_radius`` is the radius of a ball around the origin containing
# the surface: the closest-point lift refuses points with
# ``|d| >= bounding_radius / 4``.  ``name`` identifies it in diagnostics.
LevelSetSurface = namedtuple(
    "LevelSetSurface", "distance gradient hessian bounding_radius name",
    defaults=("",))


def unit_sphere():
    """Unit sphere centred at the origin, with analytic derivatives."""

    def distance(p):
        p = np.asarray(p, dtype=float)
        return np.linalg.norm(p, axis=-1) - 1.0

    def gradient(p):
        p = np.asarray(p, dtype=float)
        r = np.linalg.norm(p, axis=-1, keepdims=True)
        return p / r

    def hessian(p):
        p = np.asarray(p, dtype=float)
        r = np.linalg.norm(p, axis=-1, keepdims=True)
        n = p / r
        hess = n[..., :, None] * n[..., None, :]
        np.subtract(_EYE3, hess, out=hess)
        hess /= r[..., None]
        return hess

    return LevelSetSurface(distance, gradient, hessian, bounding_radius=1.0,
                           name="unit-sphere")


def torus():
    """Torus of radii ``TORUS_RADII`` around the z-axis, exact signed distance.

    The distance is ``hypot(hypot(x, y) - R0, z) - r0``, which is the true
    signed distance away from the axis of symmetry.  With ``rho = hypot(x,
    y)``, ``D = hypot(rho - R0, z)``, the gradient ``n`` and the unit
    tangent ``e = (-y, x, 0) / rho`` of the circles around the axis, the
    Hessian is ``(I - n n^T) / D - R0 / (rho D) e e^T``: the curvature is
    ``1 / D`` across the tube and ``(rho - R0) / (rho D)`` along it.
    """
    R0, r0 = TORUS_RADII

    def distance(p):
        p = np.asarray(p, dtype=float)
        rho = np.hypot(p[..., 0], p[..., 1])
        return np.hypot(rho - R0, p[..., 2]) - r0

    def gradient(p):
        p = np.asarray(p, dtype=float)
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        rho = np.hypot(x, y)
        q = rho - R0
        D = np.hypot(q, z)
        g = np.empty_like(p)
        g[..., 0] = q * x / (rho * D)
        g[..., 1] = q * y / (rho * D)
        g[..., 2] = z / D
        return g

    def hessian(p):
        p = np.asarray(p, dtype=float)
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        rho = np.hypot(x, y)
        n = gradient(p)
        hess = n[..., :, None] * n[..., None, :]  # formed in place
        np.subtract(_EYE3, hess, out=hess)
        e = np.stack([-y, x, np.zeros_like(x)], axis=-1) / rho[..., None]
        along = (R0 / rho)[..., None] * e
        for i in range(3):  # minus (R0 / rho) e e^T, row by row
            hess[..., i, :] -= along[..., i, None] * e
        hess /= np.hypot(rho - R0, z)[..., None, None]
        return hess

    return LevelSetSurface(distance, gradient, hessian,
                           bounding_radius=R0 + r0,
                           name=f"torus-{R0}-{r0}")


def check_finite(points, what="point"):
    """Raise ``NonFiniteValue`` naming the first of the ``(..., 3)`` points,
    in flat order, with a NaN or an infinity among its coordinates."""
    flat = points.reshape(-1, 3)
    bad = np.flatnonzero(~np.isfinite(flat).all(axis=1))
    if bad.size:
        raise NonFiniteValue(f"{what} {bad[0]} has a non-finite coordinate: "
                             f"{flat[bad[0]].tolist()}")


def lift(surface, points):
    """Closest-point lift onto the surface: ``x - d(x) grad d / |grad d|``.

    For an exact signed distance this is the closest point.  For any other
    level set the result can miss the surface, which the residual check
    reports.

    Raises
    ------
    NonFiniteValue
        If a point has a non-finite coordinate (``check_finite``).
    OutsideTube
        If ``|d(x)| >= bounding_radius / 4`` for any point.
    NonConvergence
        If a lifted point is off the surface by more than ``ON_SURFACE_TOL``,
        that is, the distance and gradient callbacks are not an exact signed
        distance and its gradient.
    """
    x = np.asarray(points, dtype=float)
    check_finite(x)
    d = surface.distance(x)
    guard = surface.bounding_radius / 4.0
    if not np.all(np.abs(d) < guard):  # a NaN distance fails it too
        worst = float(np.max(np.abs(d)))
        raise OutsideTube(
            f"point with |d| = {worst:.3g} outside lift tube (limit {guard:.3g})")
    g = surface.gradient(x)
    y = x - d[..., None] * (g / np.linalg.norm(g, axis=-1, keepdims=True))
    residual = np.max(np.abs(surface.distance(y)), initial=0.0)
    if not residual <= ON_SURFACE_TOL:
        raise NonConvergence(
            f"lifted point off-surface by {residual:.3g}; distance callbacks inconsistent?")
    return y


# Pointwise geometric quantities, batched over the leading point axes:
# ``distance`` the signed distance d; ``mu`` the measure ratio
# ``(nu_h . nu) det(I - d A)`` of the closest-point map on the element
# plane; ``grad_transform`` ``B Q`` with ``B = (I - d A)^{-1}`` and
# ``Q = I - nu_h nu^T / (nu_h . nu)``, mapping flat tangential gradients to
# lifted surface gradients.  ``B`` is symmetric, so the Dirichlet integrand
# ``mu |B Q g|^2`` of the lifted function is the quadratic form of
# ``mu (B Q)^T (B Q)``.
GeometricOperators = namedtuple("GeometricOperators",
                                "distance mu grad_transform")


def geometric_operators(surface, points, nu_h):
    """Evaluate the geometric operators at points of a flat element.

    Parameters
    ----------
    surface : LevelSetSurface
    points : array, shape (..., 3)
        Evaluation points on (or near) the flat element.
    nu_h : array, shape (..., 3) or (3,)
        Unit normal of the element, broadcast over the points.

    The measure ratio is the area distortion ``|Dp t1 x Dp t2| / |t1 x t2|``
    of the closest-point map, ``Dp = I - nu nu^T - d A``, on the element
    plane spanned by ``t1, t2``.  Like :func:`lift`, it assumes an exact
    signed distance, ``|grad d| = 1`` and ``A nu = 0``; then
    ``Dp = (I - d A) P`` and the ratio is ``(nu_h . nu) det(I - d A)``.

    Raises
    ------
    NonFiniteValue
        If a point or an element normal has a non-finite coordinate
        (``check_finite``).
    SingularShapeOperator
        If ``I - d*Weingarten`` is singular at some point.
    ValueError
        Unless ``nu_h . nu > 0`` everywhere (inadmissible element).
    """
    p = np.asarray(points, dtype=float)
    check_finite(p)
    check_finite(np.asarray(nu_h, dtype=float), "element normal")
    nu_h = np.broadcast_to(np.asarray(nu_h, dtype=float), p.shape)
    d = surface.distance(p)
    nu = surface.gradient(p)
    nu = nu / np.linalg.norm(nu, axis=-1, keepdims=True)
    dot = np.sum(nu_h * nu, axis=-1)
    if not np.all(dot > 0.0):  # a NaN dot fails it too
        raise ValueError("element normal points away from the surface normal")
    # each (..., 3, 3) array is formed in place: fewer block temporaries
    IdA = d[..., None, None] * surface.hessian(p)
    np.subtract(_EYE3, IdA, out=IdA)
    det = np.linalg.det(IdA)
    if np.any(np.abs(det) < 1e-12):
        raise SingularShapeOperator("I - d*Weingarten is singular")
    # B = adj / det: column k of the adjugate is the cross product of rows
    # k + 1 and k + 2 (mod 3).  B Q = B - (B nu_h) nu^T / dot.
    adj = np.empty_like(IdA)
    for k in range(3):
        adj[..., k] = np.cross(IdA[..., k - 2, :], IdA[..., k - 1, :])
    adj_nu_h = np.einsum("...kj,...j->...k", adj, nu_h)
    nu /= dot[..., None]
    for j in range(3):
        adj[..., j] -= adj_nu_h * nu[..., j, None]
    adj /= det[..., None, None]
    return GeometricOperators(distance=d, mu=dot * det, grad_transform=adj)
