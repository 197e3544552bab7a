"""Piecewise-linear finite elements on surface triangulations.

Element matrices use exact closed forms (the integrands are polynomial on
flat triangles); quadrature enters only for error norms against an exact
solution, where integrands live on the curved surface via the closest-point
lift.

Everything that depends on the mesh alone is built once per mesh and cached
on it (meshes are immutable):

- ``p1_operators`` builds the P1 operator bundle on the first assembly,
  indicator pass or error evaluation of a mesh: basis gradients, element
  stiffness blocks, mass and stiffness, and a sparse gradient operator.  The
  co-normal jump and half-incidence operators, which need the closed-surface
  adjacency, join it on the first indicator pass.  ``assemble`` is a lookup.
- the lifted quadrature of a rule on a surface is built on the first lifted
  norm or ``ErrorEvaluator`` of a mesh and shared by all later ones.
"""

import math

import numpy as np
import scipy.sparse as sp

from .errors import (DegenerateTriangle, GenerationMismatch, NonFiniteValue,
                     SolverDivergence)
from .geometry import geometric_operators, lift


class FeFunction:
    """Nodal coefficient vector bound to one mesh generation.

    Parameters
    ----------
    generation : int
        Generation id of the mesh the coefficients refer to.
    coefficients : (N,) array
        One value per mesh node.
    """

    __slots__ = ("generation", "coefficients")

    def __init__(self, generation, coefficients):
        self.generation = int(generation)
        self.coefficients = np.asarray(coefficients, dtype=float)

    @classmethod
    def on_mesh(cls, mesh, coefficients):
        c = np.asarray(coefficients, dtype=float)
        if c.shape != (mesh.n_nodes,):
            raise ValueError(
                f"expected {mesh.n_nodes} coefficients, got {c.shape}")
        return cls(mesh.generation, c)

    def copy(self):
        return FeFunction(self.generation, self.coefficients.copy())

    def __len__(self):
        return len(self.coefficients)

    def check(self, mesh):
        """Raise GenerationMismatch unless bound to ``mesh``."""
        if self.generation != mesh.generation:
            raise GenerationMismatch(
                f"function generation {self.generation} vs mesh generation "
                f"{mesh.generation}")
        if len(self.coefficients) != mesh.n_nodes:
            raise GenerationMismatch(
                f"{len(self.coefficients)} coefficients on a mesh with "
                f"{mesh.n_nodes} nodes")
        return self


class QuadratureRule:
    """Symmetric barycentric quadrature on the reference triangle.

    Weights are normalized to sum to one, so an integral is approximated by
    ``area * sum_q w_q f(x_q)``.
    """

    __slots__ = ("points", "weights", "degree")

    def __init__(self, points, weights, degree):
        self.points = np.asarray(points, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.degree = int(degree)
        if not np.isclose(self.weights.sum(), 1.0, atol=1e-14):
            raise ValueError("quadrature weights must sum to 1")

    @classmethod
    def edge_midpoints(cls):
        """Three-point edge-midpoint rule, exact for degree 2."""
        pts = [(0.5, 0.5, 0.0), (0.0, 0.5, 0.5), (0.5, 0.0, 0.5)]
        return cls(pts, [1.0 / 3.0] * 3, degree=2)

    @classmethod
    def degree4(cls):
        """Six-point symmetric rule, exact for degree 4."""
        a1, w1 = 0.445948490915965, 0.223381589678011
        a2, w2 = 0.091576213509771, 0.109951743655322
        pts, wts = [], []
        for a, w in ((a1, w1), (a2, w2)):
            b = 1.0 - 2.0 * a
            pts += [(b, a, a), (a, b, a), (a, a, b)]
            wts += [w, w, w]
        return cls(pts, wts, degree=4)

    def physical_points(self, mesh):
        """Map the rule onto every triangle: returns (M, Q, 3) coordinates."""
        corners = mesh.nodes[mesh.triangles]  # (M, 3, 3)
        return np.einsum("qi,mij->mqj", self.points, corners)


def basis_gradients(mesh):
    """Tangential gradients of the three nodal basis functions per triangle.

    Returns
    -------
    (M, 3, 3) array ``G`` with ``G[t, i]`` the (constant) surface gradient of
    the barycentric basis function of local vertex i on triangle t.
    """
    p = mesh.nodes[mesh.triangles]
    met = mesh.metrics
    two_area = (2.0 * met.area)[:, None]
    G = np.empty((mesh.n_triangles, 3, 3))
    for i in range(3):
        edge_opp = p[:, (i + 2) % 3] - p[:, (i + 1) % 3]
        G[:, i] = np.cross(met.normal, edge_opp) / two_area
    return G


def element_gradient(corners, values):
    """Constant tangential gradient of a P1 function on one flat triangle.

    Parameters
    ----------
    corners : (3, 3) array of vertex coordinates.
    values : (3,) nodal values.
    """
    corners = np.asarray(corners, dtype=float)
    values = np.asarray(values, dtype=float)
    cr = np.cross(corners[1] - corners[0], corners[2] - corners[0])
    two_area = np.linalg.norm(cr)
    if two_area <= 1e-14 * max(np.linalg.norm(corners[1] - corners[0]),
                               np.linalg.norm(corners[2] - corners[0])) ** 2:
        raise DegenerateTriangle("triangle with (near) zero area")
    n = cr / two_area
    g = np.zeros(3)
    for i in range(3):
        edge_opp = corners[(i + 2) % 3] - corners[(i + 1) % 3]
        g += values[i] * np.cross(n, edge_opp) / two_area
    return g


class P1Operators:
    """The P1 operators of one mesh, built by :func:`p1_operators`.

    Attributes
    ----------
    grads : (M, 3, 3) array
        Basis gradients, see :func:`basis_gradients`.
    blocks : (M, 3, 3) array
        Element stiffness blocks ``A_T = |T| G_T G_T^T``.
    mass, stiffness : (N, N) csr_array
        The assembled matrices.
    grad : (3M, N) csr_array
        ``(grad @ u).reshape(3, M)`` holds component k of the tangential
        gradient of ``u`` on every triangle in row k.
    jump : (E, N) csr_array or None
        ``jump @ u`` is the length-weighted co-normal flux jump
        ``|e| [d_n u]`` of every edge, in edge-id order.
    half_incidence : (M, E) csr_array or None
        ``half_incidence @ q`` gives every element half of the edge quantity
        ``q`` of each of its three edges.

    ``jump`` and ``half_incidence`` need the closed-surface adjacency; they
    stay None until ``p1_operators(mesh, edges=True)`` asks for them, so the
    element part also works on open triangle sets.
    """

    __slots__ = ("grads", "blocks", "mass", "stiffness", "grad", "jump",
                 "half_incidence")


def _fixed_width_csr(data, indices, shape):
    """CSR array with ``indices.shape[1]`` entries in every row, built from
    its arrays directly (no COO conversion, no sort)."""
    rows, width = indices.shape
    indptr = np.arange(0, rows * width + 1, width)
    return sp.csr_array((data.ravel(), indices.ravel(), indptr), shape=shape)


def p1_operators(mesh, edges=False):
    """The cached :class:`P1Operators` of ``mesh``, built on first use.

    Meshes are immutable, so the bundle lives as long as the mesh and never
    needs invalidating.  ``edges=True`` also builds the edge operators.
    """
    ops = mesh._operators
    if ops is None:
        ops = P1Operators()
        tri = mesh.triangles
        m, n = mesh.n_triangles, mesh.n_nodes
        area = mesh.metrics.area
        G = basis_gradients(mesh)
        ops.grads = G
        ops.blocks = area[:, None, None] * np.einsum("mik,mjk->mij", G, G)
        m_loc = (area / 12.0)[:, None, None] * (np.ones((3, 3)) + np.eye(3))
        rows = np.repeat(tri, 3, axis=1).ravel()
        cols = np.tile(tri, (1, 3)).ravel()
        ops.mass, ops.stiffness = (
            sp.csr_array(sp.coo_array((loc.ravel(), (rows, cols)),
                                      shape=(n, n)))
            for loc in (m_loc, ops.blocks))
        # row k M + t holds G[t, i, k] at column tri[t, i]
        ops.grad = _fixed_width_csr(G.transpose(2, 0, 1),
                                    np.tile(tri, (3, 1)), (3 * m, n))
        ops.jump = ops.half_incidence = None
        mesh._operators = ops
    if edges and ops.jump is None:
        # The outward co-normal of edge e in triangle T is
        # -2 |T| grad(phi_o) / |e|, o the vertex opposite e, so
        # |e| d_n u = -2 sum_i A_T[o, i] u_i; the jump sums both sides.  The
        # edge's two nodes appear once per side, and products sum duplicates.
        et = mesh.edge_tris
        opposite = (mesh.edge_local + 2) % 3
        ops.jump = _fixed_width_csr(
            -2.0 * ops.blocks[et, opposite],
            mesh.triangles[et].reshape(len(et), 6), (len(et), mesh.n_nodes))
        ops.half_incidence = _fixed_width_csr(
            np.full(mesh.tri_edges.shape, 0.5), mesh.tri_edges,
            (mesh.n_triangles, len(et)))
    return ops


def all_element_gradients(mesh, u):
    """Tangential gradient of ``u`` on every triangle, shape (M, 3)."""
    u.check(mesh)
    return (p1_operators(mesh).grad @ u.coefficients).reshape(3, -1).T


def assemble(mesh):
    """Mass and stiffness matrices of the P1 space on the flat triangulation.

    The matrices are built once per mesh (see :func:`p1_operators`); later
    calls return the same objects, which callers must not modify.

    Returns
    -------
    (mass, stiffness) : scipy.sparse.csr_array
        ``mass[i, j] = integral(phi_i phi_j)``,
        ``stiffness[i, j] = integral(grad phi_i . grad phi_j)``;
        both symmetric, mass positive definite, stiffness with constants in
        its kernel.
    """
    ops = p1_operators(mesh)
    return ops.mass, ops.stiffness


def interpolate(mesh, field, time=None):
    """Nodal interpolant of a scalar field.

    ``field`` is called as ``field(points)`` or ``field(points, time)`` with
    a vectorized ``(N, 3)`` argument.
    """
    if time is None:
        values = field(mesh.nodes)
    else:
        values = field(mesh.nodes, time)
    values = np.broadcast_to(np.asarray(values, dtype=float),
                             (mesh.n_nodes,))
    return FeFunction.on_mesh(mesh, values.copy())


def jacobi_cg(matrix, b, x0=None, rtol=1e-10, max_iter=None):
    """Conjugate gradients with diagonal preconditioning.

    Solves ``matrix @ x = b`` for a symmetric positive definite sparse
    matrix.  Returns ``(x, iterations)``; iteration 0 means the start vector
    already satisfied the residual test (in particular ``b = 0``).

    Raises
    ------
    NonFiniteValue
        As soon as the right-hand side or the residual holds a NaN or an
        infinity, before any further iteration is spent.
    SolverDivergence
        If the relative residual does not reach ``rtol`` within
        ``max_iter`` iterations (default ``10 n``).
    """
    b = np.asarray(b, dtype=float)
    n = len(b)
    if max_iter is None:
        max_iter = 10 * n
    b_norm = np.linalg.norm(b)
    if not math.isfinite(b_norm):
        raise NonFiniteValue("PCG right-hand side is not finite "
                             "(0 iterations spent)")
    if b_norm == 0.0:
        return np.zeros(n), 0
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    r = b - matrix @ x
    inv_diag = 1.0 / matrix.diagonal()
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    for k in range(max_iter + 1):
        r_norm = math.sqrt(r @ r)  # what np.linalg.norm computes, less overhead
        if r_norm <= rtol * b_norm:
            return x, k
        if not math.isfinite(r_norm):
            raise NonFiniteValue(f"PCG residual is not finite after {k} "
                                 "iterations")
        if k == max_iter:
            break
        q = matrix @ p
        alpha = rz / float(p @ q)
        x += alpha * p
        r -= alpha * q
        z = inv_diag * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverDivergence(
        f"PCG did not reach rtol={rtol:g} within {max_iter} iterations "
        f"(relative residual {r_norm / b_norm:.3g})")


def backward_euler_step(mass, stiffness, u_prev, f_n, tau):
    """One implicit Euler step of the discrete heat equation.

    Solves ``(mass + tau * stiffness) u = mass (u_prev + tau * f_n)`` with
    diagonally preconditioned CG started from ``u_prev``.

    Returns
    -------
    (FeFunction, int)
        The new solution (same generation as the inputs) and the number of
        CG iterations spent.
    """
    if u_prev.generation != f_n.generation:
        raise GenerationMismatch("u_prev and f_n live on different meshes")
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    system = (mass + tau * stiffness).tocsr()
    rhs = mass @ (u_prev.coefficients + tau * f_n.coefficients)
    x, iters = jacobi_cg(system, rhs, x0=u_prev.coefficients)
    return FeFunction(u_prev.generation, x), iters


# ------------------------------------------------------------- lifted norms

def _lifted_quadrature(mesh, surface, rule):
    """A quadrature rule lifted to the exact surface, cached on the mesh.

    Returns per-(triangle, point): the lifted points ``y`` (M, Q, 3), the
    weights ``w[m, q] = area_m * w_q * mu[m, q]`` integrating over the exact
    surface (``mu`` the measure ratio), and the lifted-gradient transforms
    (M, Q, 3, 3).  One entry per surface and rule lives in the mesh's
    ``_lifted`` dictionary and dies with the mesh.
    """
    key = (surface, rule.degree, rule.points.tobytes(),
           rule.weights.tobytes())
    cached = mesh._lifted.get(key)
    if cached is None:
        x = rule.physical_points(mesh)
        m, q = x.shape[:2]
        y = lift(surface, x.reshape(-1, 3)).reshape(m, q, 3)
        nu_h = np.broadcast_to(mesh.metrics.normal[:, None, :], x.shape)
        ops = geometric_operators(surface, x.reshape(-1, 3),
                                  nu_h.reshape(-1, 3))
        w = mesh.metrics.area[:, None] * rule.weights[None, :] \
            * ops.mu.reshape(m, q)
        cached = (y, w, ops.grad_transform.reshape(m, q, 3, 3))
        mesh._lifted[key] = cached
    return cached


def _point_values(mesh, rule, u):
    """Values of ``u`` at the rule's points of every triangle, (M, Q)."""
    return u.coefficients[mesh.triangles] @ rule.points.T


def lifted_l2_norm(mesh, surface, u, rule=None):
    """L2 norm of the lifted finite element function over the exact surface."""
    return lifted_l2_distance(mesh, surface, u, lambda y: 0.0, rule=rule)


def flat_l2_norm(mass, u):
    """Exact L2 norm over the flat triangulation via the mass matrix."""
    c = u.coefficients
    return float(np.sqrt(c @ (mass @ c)))


def flat_h1_seminorm(stiffness, u):
    """Exact H1 seminorm over the flat triangulation."""
    c = u.coefficients
    return float(np.sqrt(max(c @ (stiffness @ c), 0.0)))


class ErrorEvaluator:
    """Lifted-quadrature context for error norms on a fixed mesh.

    Lifting the quadrature points and building the geometric operators
    dominates the cost of an error evaluation; a time march on a fixed mesh
    would repeat it identically every step.  The lifted quadrature and the
    basis gradients come from the mesh's caches, so construction after the
    first is cheap and repeated evaluations pay only for the integrand
    arithmetic.  Works on open triangle sets too: nothing here needs the
    adjacency.
    """

    __slots__ = ("mesh", "rule", "_y", "_w", "_trans", "_grad")

    def __init__(self, mesh, surface, rule=None):
        self.mesh = mesh
        self.rule = rule or QuadratureRule.degree4()
        self._y, self._w, self._trans = _lifted_quadrature(mesh, surface,
                                                           self.rule)
        self._grad = p1_operators(mesh).grad

    def errors(self, u_h, exact_u, exact_grad, time):
        """L2 and H1-seminorm errors of the lifted discrete solution.

        The exact solution and its tangential gradient are evaluated at
        lifted quadrature points; the discrete tangential gradient is mapped
        to the exact surface with the lifted-gradient transform, and all
        integrals are weighted with the surface-measure ratio.

        Returns
        -------
        (l2_error, h1_semi_error)
        """
        u_h.check(self.mesh)
        diff = (_point_values(self.mesh, self.rule, u_h)
                - exact_u(self._y, time))
        l2_sq = float(np.sum(self._w * diff ** 2))
        m, q = self._w.shape
        grads = (self._grad @ u_h.coefficients).reshape(3, m)  # flat
        lifted_grad = self._trans.reshape(m, 3 * q, 3) @ grads.T[:, :, None]
        gdiff = lifted_grad.reshape(m, q, 3) - exact_grad(self._y, time)
        h1_sq = float(np.sum(self._w * np.einsum("mqi,mqi->mq",
                                                 gdiff, gdiff)))
        return np.sqrt(l2_sq), np.sqrt(h1_sq)


def errors_vs_exact(mesh, surface, u_h, exact_u, exact_grad, time,
                    rule=None):
    """One-shot form of ``ErrorEvaluator.errors`` (see there)."""
    return ErrorEvaluator(mesh, surface, rule).errors(u_h, exact_u,
                                                      exact_grad, time)


def lifted_l2_distance(mesh, surface, u_h, field, time=None, rule=None):
    """L2(Gamma) distance between the lifted discrete function and a field.

    ``field`` takes ``(points)`` when ``time`` is None, else ``(points, t)``.
    Works on open triangle sets: nothing here needs the adjacency.
    """
    u_h.check(mesh)
    rule = rule or QuadratureRule.degree4()
    y, w, _ = _lifted_quadrature(mesh, surface, rule)
    exact = field(y) if time is None else field(y, time)
    diff = _point_values(mesh, rule, u_h) - exact
    return float(np.sqrt(np.sum(w * diff ** 2)))
