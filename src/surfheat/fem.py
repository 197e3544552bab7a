"""Piecewise-linear finite elements on surface triangulations.

Element matrices use exact closed forms (the integrands are polynomial on
flat triangles); quadrature enters only for error norms against an exact
solution, where integrands live on the curved surface via the closest-point
lift.

Everything that depends on the mesh alone is built once per mesh and cached
on it (meshes are immutable):

- ``p1_operators`` builds the P1 bundle on the first assembly or indicator
  pass of a mesh from its half-edge sort and squared edge lengths: the
  (3, M) half-cotangent weights the indicators run on, and mass and
  stiffness written straight into CSR on the sort's pattern.  Nothing in it
  needs a closed surface or basis gradients.  ``assemble`` is a lookup.
- the lifted degree-4 quadrature on a surface is built on the first
  ``ErrorEvaluator`` or ``lifted_l2_distance`` of a mesh and shared by all
  later ones.

The time step solves ``(M + tau A) u = M (u_prev + tau f)``.  Mass and
stiffness share one CSR pattern, so the system is one ``data`` vector on it.
``jacobi_cg`` takes the CSR arrays once and makes one raw ``csr_matvec`` per
iteration into a preallocated vector: scipy's per-call dispatch of
``matrix @ p`` costs about as much as the product on the small systems of an
adaptive run.  Its vector updates are in place and in the order of the
textbook loop, so iterates and iteration counts are those of ``matrix @ p``
with fresh vectors, bit for bit.
"""

import math
from collections import namedtuple

import numpy as np
import scipy.sparse as sp
# Private: the routine ``csr_array @ vector`` ends in, called without the
# dispatch (module docstring); tests/test_fem.py checks it against ``@``.
from scipy.sparse._sparsetools import csr_matvec

from .errors import GenerationMismatch, NonFiniteValue, SolverDivergence
from .geometry import geometric_operators, lift
from .mesh import cross_rows, edge_rows


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


# The six-point symmetric rule on the reference triangle, exact for degree 4:
# barycentric points and weights summing to one, so an integral over a
# triangle is ``area * sum_q w_q f(x_q)``.  Every lifted error norm uses it.
QUAD_POINTS = np.array([np.roll((1.0 - 2.0 * a, a, a), k)
                        for a in (0.445948490915965, 0.091576213509771)
                        for k in range(3)])
QUAD_WEIGHTS = np.repeat([0.223381589678011, 0.109951743655322], 3)


def quadrature_points(mesh):
    """The rule's points on every triangle: (M, Q, 3) coordinates."""
    corners = mesh.nodes[mesh.triangles]  # (M, 3, 3)
    return np.einsum("qi,mij->mqj", QUAD_POINTS, corners)


def basis_gradients(mesh):
    """Tangential gradients of the three nodal basis functions per triangle.

    Returns
    -------
    (M, 3, 3) array ``G`` with ``G[t, i]`` the (constant) surface gradient of
    the barycentric basis function of local vertex i on triangle t, a view
    of the contiguous rows ``G.transpose(2, 1, 0)[k, i]``.
    """
    met = mesh.metrics
    # grad(phi_i) = n x (edge opposite vertex i) / (2 |T|)
    opposite = np.roll(edge_rows(mesh), -1, axis=1)
    G = cross_rows(met.normal.T[:, None], opposite) / (2.0 * met.area)
    return G.transpose(2, 1, 0)


# The P1 operators of one mesh, built by :func:`p1_operators`:
#   mass, stiffness : (N, N) csr_array
#       the assembled matrices; they share one ``indptr`` and ``indices``;
#   cot : (3, M) array
#       the half-cotangent weights: ``cot[j, t]`` is half the cotangent of
#       the angle of triangle t opposite its local edge j (vertex j to
#       j + 1), so ``|T| |grad u|^2 = sum_j cot[j] (u[j + 1] - u[j])^2``.
P1Operators = namedtuple("P1Operators", "mass stiffness cot")


def _p1_pattern(edges, n):
    """Sorted CSR pattern of the P1 matrices: the diagonal plus both
    orientations of the lexicographically sorted edges ``lo < hi``.

    Returns ``indptr``, ``indices`` and ``source``; the entries of a matrix
    with diagonal ``d`` and edge values ``v`` are ``concat(d, v, v)[source]``.
    """
    lo, hi = edges.T
    n_edges = len(lo)
    below = np.cumsum(np.bincount(hi, minlength=n))  # edges with hi <= i
    above = np.searchsorted(lo, np.arange(n + 1))    # edges with lo < i
    # row i: lower neighbours (edges (j, i), in the transpose order of the
    # unique keys hi N + lo < N^2), i, then upper neighbours (edge order)
    by_hi = np.argsort(hi * np.int64(n) + lo)
    slot = np.empty(n + 2 * n_edges, dtype=np.int64)
    slot[:n] = np.arange(n) + below + above[:-1]
    slot[n:n + n_edges] = lo + below[lo] + np.arange(1, n_edges + 1)
    slot[n + n_edges + by_hi] = (hi[by_hi] + above[hi[by_hi]]
                                 + np.arange(n_edges))
    source = np.empty_like(slot)
    source[slot] = np.arange(len(slot))
    indptr = np.arange(n + 1) + np.concatenate(([0], below)) + above
    return indptr, np.concatenate((np.arange(n), hi, lo))[source], source


def p1_operators(mesh):
    """The cached :class:`P1Operators` of ``mesh``, built on first use.

    Meshes are immutable, so the bundle lives as long as the mesh and never
    needs invalidating.  With ``s[j]`` the squared length of local edge j,
    ``cot[j] = (s[j + 1] + s[j + 2] - s[j]) / (8 |T|)``.  A stiffness entry
    of an edge is minus the sum of ``cot`` over its half-edges, a diagonal
    entry of node i the sum of ``cot[j] + cot[j - 1]`` over the corners
    where i is vertex j.
    """
    if mesh._operators is not None:
        return mesh._operators
    n = mesh.n_nodes
    met = mesh.metrics
    s = met.edge_sq
    cot = (s[[1, 2, 0]] + s[[2, 0, 1]] - s) / (8.0 * met.area)
    # (t, j) order, as in triangles.ravel() and tri_edges.ravel()
    corners, half = mesh.triangles.ravel(), mesh.tri_edges.ravel()
    n_edges = mesh.n_edges
    indptr, indices, source = _p1_pattern(mesh.edges, n)

    def on_pattern(diag, off):
        data = np.concatenate((diag, off, off))[source]
        return sp.csr_array((data, indices, indptr), shape=(n, n))

    weights = np.repeat(met.area, 3)
    mass = on_pattern(
        np.bincount(corners, weights, minlength=n) / 6.0,
        np.bincount(half, weights, minlength=n_edges) / 12.0)
    stiffness = on_pattern(
        np.bincount(corners, (cot + cot[[2, 0, 1]]).T.ravel(), minlength=n),
        -np.bincount(half, cot.T.ravel(), minlength=n_edges))
    # csr_array keeps its own view of ``indices``; one object for both lets
    # backward_euler_step see the shared pattern without comparing
    stiffness.indices = mass.indices
    mesh._operators = P1Operators(mass, stiffness, cot)
    return mesh._operators


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

    Solves ``matrix @ x = b`` for a symmetric positive definite matrix,
    given as a CSR array or as anything ``scipy.sparse.csr_array`` accepts
    (converted once).  Returns ``(x, iterations)``; iteration 0 means the
    start vector already satisfied the residual test (in particular
    ``b = 0``).  The loop is dispatch-free and in place (module docstring).

    Raises
    ------
    NonFiniteValue
        As soon as the right-hand side, the diagonal or the residual holds
        a NaN or an infinity, before any further iteration is spent.
    SolverDivergence
        If the matrix is found not to be positive definite (a diagonal
        entry or a curvature ``p . A p`` that is not positive), or if the
        relative residual does not reach ``rtol`` within ``max_iter``
        iterations (default ``10 n``).
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
    if not (isinstance(matrix, (sp.csr_array, sp.csr_matrix))
            and matrix.dtype == np.float64):
        matrix = sp.csr_array(matrix, dtype=float)
    if matrix.shape != (n, n):
        raise ValueError(f"PCG matrix of shape {matrix.shape} for a "
                         f"right-hand side of length {n}")
    diag = matrix.diagonal()
    if not np.isfinite(diag).all():
        raise NonFiniteValue("PCG matrix diagonal is not finite "
                             "(0 iterations spent)")
    if not (diag > 0.0).all():
        i = int(np.argmin(diag > 0.0))
        raise SolverDivergence(
            f"PCG matrix is not positive definite: diagonal entry {i} is "
            f"{diag[i]:.3g} (0 iterations spent)")
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    q = np.zeros(n)
    csr_matvec(n, n, indptr, indices, data, x, q)
    r = b - q
    inv_diag = 1.0 / diag
    z = inv_diag * r
    p = z.copy()
    step = np.empty(n)
    rz = float(r.dot(z))
    for k in range(max_iter + 1):
        # ndarray.dot: the BLAS dot of ``@`` and np.linalg.norm, less overhead
        r_norm = math.sqrt(r.dot(r))
        if r_norm <= rtol * b_norm:
            return x, k
        if not math.isfinite(r_norm):
            raise NonFiniteValue(f"PCG residual is not finite after {k} "
                                 "iterations")
        if k == max_iter:
            break
        q.fill(0.0)
        csr_matvec(n, n, indptr, indices, data, p, q)
        curvature = float(p.dot(q))
        if curvature <= 0.0:  # a NaN passes on to the residual test
            raise SolverDivergence(
                f"PCG matrix is not positive definite: p.Ap = "
                f"{curvature:.3g} at iteration {k}")
        alpha = rz / curvature
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, q, out=step)
        np.multiply(inv_diag, r, out=z)
        rz_new = float(r.dot(z))
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise SolverDivergence(
        f"PCG did not reach rtol={rtol:g} within {max_iter} iterations "
        f"(relative residual {r_norm / b_norm:.3g})")


def backward_euler_step(mass, stiffness, u_prev, f_n, tau):
    """One implicit Euler step of the discrete heat equation.

    Solves ``(mass + tau * stiffness) u = mass (u_prev + tau * f_n)`` with
    diagonally preconditioned CG started from ``u_prev``.  The two CSR
    matrices must share one pattern, as those of :func:`assemble` do; the
    system is then one ``data`` vector on that pattern.

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
    if not all(a is b or np.array_equal(a, b) for a, b in (
            (mass.indptr, stiffness.indptr), (mass.indices, stiffness.indices))):
        raise ValueError("mass and stiffness do not share one CSR pattern")
    system = sp.csr_array((mass.data + tau * stiffness.data, mass.indices,
                           mass.indptr), shape=mass.shape)
    rhs = mass @ (u_prev.coefficients + tau * f_n.coefficients)
    x, iters = jacobi_cg(system, rhs, x0=u_prev.coefficients)
    return FeFunction(u_prev.generation, x), iters


# ------------------------------------------------------------- lifted norms

def _lifted_quadrature(mesh, surface):
    """The degree-4 rule lifted to the exact surface, cached on the mesh.

    Returns per-(triangle, point): the lifted points ``y`` (M, Q, 3), the
    square roots of the weights ``w[m, q] = area_m * w_q * mu[m, q]``
    integrating over the exact surface (``mu`` the measure ratio), and the
    lifted-gradient transforms (M, Q, 3, 3).  One entry per surface lives in the mesh's ``_lifted``
    dictionary and dies with the mesh.
    """
    cached = mesh._lifted.get(surface)
    if cached is None:
        x = quadrature_points(mesh)
        m, q = x.shape[:2]
        y = lift(surface, x.reshape(-1, 3)).reshape(m, q, 3)
        nu_h = np.broadcast_to(mesh.metrics.normal[:, None, :], x.shape)
        ops = geometric_operators(surface, x.reshape(-1, 3),
                                  nu_h.reshape(-1, 3))
        w = mesh.metrics.area[:, None] * QUAD_WEIGHTS[None, :] \
            * ops.mu.reshape(m, q)
        cached = (y, np.sqrt(w), ops.grad_transform.reshape(m, q, 3, 3))
        mesh._lifted[surface] = cached
    return cached


def _point_values(mesh, u):
    """Values of ``u`` at the rule's points of every triangle, (M, Q)."""
    return u.coefficients[mesh.triangles] @ QUAD_POINTS.T


def _weighted_sum_sq(diff, sqrt_w):
    """``sum w |diff|^2`` over the quadrature points as one BLAS dot;
    ``diff`` (M, Q) or (M, Q, 3) is overwritten with ``sqrt(w) diff``."""
    diff *= sqrt_w.reshape(sqrt_w.shape + (1,) * (diff.ndim - 2))
    flat = diff.ravel()
    return float(flat @ flat)


class ErrorEvaluator:
    """Lifted-quadrature context for error norms on a fixed mesh.

    Lifting the quadrature points and building the geometric operators
    dominates the cost of an error evaluation; a time march on a fixed mesh
    would repeat it identically every step.  The lifted quadrature comes
    from the mesh's cache, and the evaluator builds its sparse gradient
    operator once, so repeated evaluations pay only for the integrand
    arithmetic.  Works on open triangle sets too: nothing here needs the
    adjacency.
    """

    __slots__ = ("mesh", "_y", "_sqrt_w", "_trans", "_grad")

    def __init__(self, mesh, surface):
        self.mesh = mesh
        self._y, self._sqrt_w, self._trans = _lifted_quadrature(mesh, surface)
        # row k M + t holds G[t, i, k] at column tri[t, i]
        m = mesh.n_triangles
        self._grad = sp.csr_array(
            (basis_gradients(mesh).transpose(2, 0, 1).ravel(),
             np.tile(mesh.triangles, (3, 1)).ravel(),
             np.arange(0, 9 * m + 1, 3)), shape=(3 * m, mesh.n_nodes))

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
        diff = _point_values(self.mesh, u_h)
        diff -= exact_u(self._y, time)
        l2_sq = _weighted_sum_sq(diff, self._sqrt_w)
        m, q = self._sqrt_w.shape
        grads = (self._grad @ u_h.coefficients).reshape(3, m)  # flat
        gdiff = (self._trans.reshape(m, 3 * q, 3)
                 @ grads.T[:, :, None]).reshape(m, q, 3)
        gdiff -= exact_grad(self._y, time)
        h1_sq = _weighted_sum_sq(gdiff, self._sqrt_w)
        return np.sqrt(l2_sq), np.sqrt(h1_sq)


def lifted_l2_distance(mesh, surface, u_h, field, time=None):
    """L2(Gamma) distance between the lifted discrete function and a field.

    ``field`` takes ``(points)`` when ``time`` is None, else ``(points, t)``.
    Works on open triangle sets: nothing here needs the adjacency.
    """
    u_h.check(mesh)
    y, sqrt_w, _ = _lifted_quadrature(mesh, surface)
    diff = _point_values(mesh, u_h)
    diff -= field(y) if time is None else field(y, time)
    return math.sqrt(_weighted_sum_sq(diff, sqrt_w))
