"""Piecewise-linear finite elements on surface triangulations.

Element matrices use exact closed forms (the integrands are polynomial on
flat triangles); quadrature enters only for error norms against an exact
solution, where integrands live on the curved surface via the closest-point
lift.

The P1 bundle depends on the mesh alone, so ``p1_operators`` builds it once
per mesh from the half-edge sort and squared edge lengths and caches it on
the mesh (meshes are immutable): the (3, M) half-cotangent weights the
indicators run on, and mass and stiffness written straight into CSR on the
sort's pattern, with no basis gradients.  ``assemble`` is a lookup.

The lifted rule of the error norms is not cached on the mesh; its users
lift it in blocks of ``BLOCK`` triangles.  An ``ErrorEvaluator`` keeps 10
floats per point and sums both norms in one block buffer (class
docstring); ``lifted_l2_distance`` keeps only its differences and weights.

Matrices are :class:`Csr` records: ``data``, int32 ``indices`` and
``indptr``, ``shape`` and the intp positions ``diag`` of the diagonal in
``data`` (numpy converts a non-intp gather index on every use).  Their
one kernel, scipy's compiled ``csr_matvec``, is loaded from its extension
file alone: importing ``scipy.sparse`` would cost each process 0.2 s and
13-20 MB.  Each product checks the vector's length, as the kernel has no
bounds check.  A time step solves ``(M + tau A) u = M (u_prev + tau f)``,
one ``data`` vector on the pattern ``assemble``'s two matrices share.
``jacobi_cg`` makes one raw ``csr_matvec`` per iteration into a
preallocated vector and updates in place in textbook order: bitwise
``csr_array @ p`` with fresh vectors.
"""

import math
import os
from collections import namedtuple
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import find_spec, module_from_spec, spec_from_file_location

import numpy as np

from .errors import GenerationMismatch, NonFiniteValue, SolverDivergence
from .geometry import geometric_operators, lift
from .mesh import cross_rows, edge_rows


def _load_csr_matvec():
    """scipy's compiled CSR product, loaded from its extension file alone
    under its scipy name, so that a later ``scipy.sparse`` shares it."""
    root = find_spec("scipy").submodule_search_locations[0]
    stem = os.path.join(root, "sparse", "_sparsetools")
    for path in (stem + suffix for suffix in EXTENSION_SUFFIXES):
        if os.path.exists(path):
            spec = spec_from_file_location("scipy.sparse._sparsetools", path)
            module = module_from_spec(spec)
            spec.loader.exec_module(module)
            return module.csr_matvec
    raise ImportError(f"scipy's CSR kernel {stem}.* is missing")


csr_matvec = _load_csr_matvec()


class Csr(namedtuple("Csr", "data indices indptr shape diag")):
    """An immutable CSR matrix (module docstring)."""

    __slots__ = ()

    def diagonal(self):
        return self.data[self.diag]

    def __matmul__(self, vector):
        x, (m, n) = np.asarray(vector, dtype=float), self.shape
        if x.shape != (n,):
            raise ValueError(f"{m} x {n} matrix times vector {x.shape}")
        y = np.zeros(m)
        csr_matvec(m, n, self.indptr, self.indices, self.data, x, y)
        return y


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


# Triangles per lifted-quadrature block (module docstring): 1024 slowed the
# convergence sweep; 6144-12288 raised its peak memory and gained nothing.
BLOCK = 4096


def quadrature_points(mesh, block=slice(None)):
    """The rule's points on the triangles ``block``: (k, Q, 3) coordinates."""
    corners = mesh.nodes[mesh.triangles[block]]  # (k, 3, 3)
    return np.einsum("qi,mij->mqj", QUAD_POINTS, corners)


def quadrature_blocks(mesh):
    """Yield ``(block, x, nu_h)`` for each slice of ``BLOCK`` triangles (the
    last may be shorter): the (k Q, 3) points and their element normals."""
    for start in range(0, mesh.n_triangles, BLOCK):
        block = slice(start, start + BLOCK)
        yield block, quadrature_points(mesh, block).reshape(-1, 3), np.repeat(
            mesh.metrics.normal[block], len(QUAD_WEIGHTS), axis=0)


def basis_gradients(mesh, block=slice(None)):
    """Tangential gradients of the three nodal basis functions per triangle.

    Returns
    -------
    (k, 3, 3) array ``G`` on the k triangles ``block``: ``G[t, i]`` is the
    (constant) surface gradient of the basis function of local vertex i on
    triangle t, a view of the contiguous rows ``G.transpose(2, 1, 0)[c, i]``.
    """
    met = mesh.metrics
    # grad(phi_i) = n x (edge opposite vertex i) / (2 |T|)
    opposite = np.roll(edge_rows(mesh.nodes, mesh.triangles[block]), -1,
                       axis=1)
    G = cross_rows(met.normal.T[:, None, block], opposite) / (
        2.0 * met.area[block])
    return G.transpose(2, 1, 0)


# The P1 operators of one mesh, built by :func:`p1_operators`:
#   mass, stiffness : the (N, N) Csr matrices, on one pattern;
#   cot : (3, M) array
#       the half-cotangent weights: ``cot[j, t]`` is half the cotangent of
#       the angle of triangle t opposite its local edge j (vertex j to
#       j + 1), so ``|T| |grad u|^2 = sum_j cot[j] (u[j + 1] - u[j])^2``.
P1Operators = namedtuple("P1Operators", "mass stiffness cot")


def _p1_pattern(edges, n):
    """Sorted CSR pattern of the P1 matrices: the diagonal plus both
    orientations of the edges ``lo < hi``, given in any edge order.

    Returns int32 ``indptr`` and ``indices``, and ``source``: the entries
    of diagonal ``d`` and edge values ``v`` are ``concat(d, v, v)[source]``.
    """
    if n + 2 * len(edges) > np.iinfo(np.int32).max:
        raise ValueError(f"P1 pattern with {n + 2 * len(edges)} entries does "
                         "not fit int32 CSR indices")
    lo, hi = edges.T
    diag = np.arange(n)
    rows = np.concatenate((diag, lo, hi))
    cols = np.concatenate((diag, hi, lo))
    source = np.argsort(rows * np.int64(n) + cols)  # the keys are unique
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    return indptr.astype(np.int32), cols[source].astype(np.int32), source


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
    diag = np.flatnonzero(source < n)

    def on_pattern(on_diag, off):
        data = np.concatenate((on_diag, off, off))[source]
        return Csr(data, indices, indptr, (n, n), diag)

    weights = np.repeat(met.area, 3)
    mass = on_pattern(
        np.bincount(corners, weights, minlength=n) / 6.0,
        np.bincount(half, weights, minlength=n_edges) / 12.0)
    stiffness = on_pattern(
        np.bincount(corners, (cot + cot[[2, 0, 1]]).T.ravel(), minlength=n),
        -np.bincount(half, cot.T.ravel(), minlength=n_edges))
    mesh._operators = P1Operators(mass, stiffness, cot)
    return mesh._operators


def assemble(mesh):
    """Mass and stiffness matrices of the P1 space on the flat triangulation.

    The matrices are built once per mesh (see :func:`p1_operators`); later
    calls return the same objects, which callers must not modify.

    Returns
    -------
    (mass, stiffness) : Csr
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

    Solves ``matrix @ x = b`` for a symmetric positive definite CSR matrix:
    a :class:`Csr` or anything with its arrays, ``shape`` and ``diagonal()``
    (a scipy ``csr_array``).  Returns ``(x, iterations)``; iteration 0 means
    the start vector already satisfied the residual test (in particular
    ``b = 0``).  The loop is dispatch-free and in place (module docstring).

    Raises
    ------
    ValueError
        Unless 0 < rtol < 1, the matrix is n x n and the start vector of
        length n.
    NonFiniteValue
        As soon as the right-hand side, start vector, diagonal or residual
        holds a NaN or an infinity, before any further iteration is spent.
    SolverDivergence
        If the matrix is found not to be positive definite (a diagonal
        entry or a curvature ``p . A p`` that is not positive), or if the
        relative residual does not reach ``rtol`` within ``max_iter``
        iterations (default ``10 n``).
    """
    if not 0.0 < rtol < 1.0:  # a NaN fails it too
        raise ValueError(f"PCG rtol must lie in (0, 1), got {rtol}")
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
    if matrix.shape != (n, n) or x.shape != (n,):
        raise ValueError(f"PCG shapes: matrix {matrix.shape}, start vector "
                         f"{x.shape}, right-hand side ({n},)")
    diag = matrix.diagonal()
    for name, values in (("start vector", x), ("matrix diagonal", diag)):
        if not np.isfinite(values).all():
            i = int(np.argmin(np.isfinite(values)))
            raise NonFiniteValue(f"PCG {name} is not finite: entry {i} is "
                                 f"{values[i]} (0 iterations spent)")
    if not (diag > 0.0).all():
        i = int(np.argmin(diag > 0.0))
        raise SolverDivergence(
            f"PCG matrix is not positive definite: diagonal entry {i} is "
            f"{diag[i]:.3g} (0 iterations spent)")
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
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


def backward_euler_step(mass, stiffness, u_prev, f_n, tau, x0=None,
                        rtol=1e-10):
    """One implicit Euler step of the discrete heat equation.

    Solves ``(mass + tau * stiffness) u = mass (u_prev + tau * f_n)`` with
    diagonally preconditioned CG to the relative residual ``rtol``, started
    from the vector ``x0``, or from ``u_prev`` when it is None: the start
    moves the solution only within that tolerance.  The fixed-mesh sweep
    keeps the default 1e-10; the adaptive driver passes ``adaptive.CG_RTOL``.
    The two :class:`Csr` matrices must share one pattern, as those of
    :func:`assemble` do; the system is then one ``data`` vector on it.

    Returns
    -------
    (FeFunction, int)
        The new solution (same generation as the inputs) and the number of
        CG iterations spent.
    """
    if u_prev.generation != f_n.generation:
        raise GenerationMismatch("u_prev and f_n live on different meshes")
    if not 0.0 < tau < np.inf:  # a NaN fails it too
        raise ValueError(f"tau must be positive and finite, got {tau}")
    if not all(a is b or np.array_equal(a, b) for a, b in (
            (mass.indptr, stiffness.indptr), (mass.indices, stiffness.indices))):
        raise ValueError("mass and stiffness do not share one CSR pattern")
    system = mass._replace(data=mass.data + tau * stiffness.data)
    rhs = mass @ (u_prev.coefficients + tau * f_n.coefficients)
    x, iters = jacobi_cg(system, rhs, rtol=rtol,
                         x0=u_prev.coefficients if x0 is None else x0)
    return FeFunction(u_prev.generation, x), iters


# ------------------------------------------------------------- lifted norms

def _lifted_block(mesh, surface, block, x, nu_h):
    """The degree-4 rule lifted to the exact surface on one block of
    :func:`quadrature_blocks`: the lifted points (k, Q, 3), the roots of the
    weights ``area_m * w_q * mu[m, q]`` (``mu`` the measure ratio) and the
    block's :class:`~surfheat.geometry.GeometricOperators`."""
    q = len(QUAD_WEIGHTS)
    y = lift(surface, x).reshape(-1, q, 3)
    ops = geometric_operators(surface, x, nu_h)
    return y, np.sqrt(mesh.metrics.area[block, None] * QUAD_WEIGHTS
                      * ops.mu.reshape(-1, q)), ops


def _weighted_sum_sq(diff, sqrt_w):
    """``sum w |diff|^2`` over the quadrature points as one BLAS dot; the
    contiguous ``diff`` (m, Q) or (3, m, Q) becomes ``sqrt(w) diff``."""
    diff *= sqrt_w
    flat = diff.ravel()
    return float(flat @ flat)


class ErrorEvaluator:
    """Lifted-quadrature context for error norms on a fixed mesh.

    Lifting the quadrature points and building the geometric operators
    dominates the cost of an error evaluation; a time march on a fixed mesh
    would repeat it identically every step.  The evaluator keeps 10 floats
    per (triangle, point) as coordinate rows: the lifted point (3, M, Q), the
    root of the weight and the lifted gradients ``L_k = B Q grad(phi_k)`` of
    basis functions 1 and 2 (2, 3, M, Q).  The gradients of a P1 function
    sum to zero over a flat element, so its lifted gradient is
    ``(u_1 - u_0) L_1 + (u_2 - u_0) L_2``.  Both integrands of a block of
    ``BLOCK`` triangles go through one (3, BLOCK, Q) buffer (so it serves
    one call at a time); the exact solution reads contiguous rows.
    """

    __slots__ = ("mesh", "_y", "_sqrt_w", "_lifted_grads", "_buffer")

    def __init__(self, mesh, surface):
        self.mesh = mesh
        m, q = mesh.n_triangles, len(QUAD_WEIGHTS)
        self._y, self._sqrt_w = np.empty((3, m, q)), np.empty((m, q))
        self._lifted_grads = np.empty((2, 3, m, q))
        for block, x, nu_h in quadrature_blocks(mesh):
            self._build(surface, block, x, nu_h)
        self._buffer = np.empty(3 * min(m, BLOCK) * q)

    def _build(self, surface, block, x, nu_h):
        """Fill one block; its temporaries die with this call."""
        y, self._sqrt_w[block], ops = _lifted_block(
            self.mesh, surface, block, x, nu_h)
        self._y[:, block] = np.moveaxis(y, -1, 0)
        trans = ops.grad_transform.reshape(-1, len(QUAD_WEIGHTS), 3, 3)
        # (k, 1, 3, 2): the columns grad(phi_1) and grad(phi_2)
        grads = basis_gradients(self.mesh, block)[:, None, 1:].swapaxes(2, 3)
        np.matmul(trans, grads,
                  out=self._lifted_grads[:, :, block].transpose(2, 3, 1, 0))

    def errors(self, u_h, exact_u, exact_grad, time):
        """L2 and H1-seminorm errors of the lifted discrete solution.

        The exact solution and its tangential gradient are evaluated at
        lifted quadrature points, once per block each; the discrete
        tangential gradient is the lifted one (class docstring), and all
        integrals are weighted with the surface-measure ratio.

        Returns
        -------
        (l2_error, h1_semi_error)
        """
        u_h.check(self.mesh)
        u, tri = u_h.coefficients, self.mesh.triangles
        du = u[tri[:, 1:].T] - u[tri[:, 0]]  # (2, M): u_k - u_0
        l2_sq = h1_sq = 0.0
        for start in range(0, len(tri), BLOCK):
            block = slice(start, start + BLOCK)
            sqrt_w = self._sqrt_w[block]
            points = self._y[:, block].transpose(1, 2, 0)  # (k, Q, 3) view
            rows = self._buffer[:3 * sqrt_w.size].reshape(3, *sqrt_w.shape)
            diff = np.matmul(u[tri[block]], QUAD_POINTS.T, out=rows[0])
            diff -= exact_u(points, time)
            l2_sq += _weighted_sum_sq(diff, sqrt_w)
            # (u_1 - u_0) L_1 + (u_2 - u_0) L_2 (class docstring)
            lifted, steps = self._lifted_grads[:, :, block], du[:, block, None]
            np.multiply(lifted[0], steps[0], out=rows)
            rows += lifted[1] * steps[1]
            rows -= np.moveaxis(exact_grad(points, time), -1, 0)
            h1_sq += _weighted_sum_sq(rows, sqrt_w)
        return np.sqrt(l2_sq), np.sqrt(h1_sq)


def lifted_l2_distance(mesh, surface, u_h, field, time=None):
    """L2(Gamma) distance between the lifted discrete function and a field.

    ``field`` takes ``(points)`` when ``time`` is None, else ``(points, t)``.
    Only the differences and weights are kept; the lifted points are a
    block's.  Works on open triangle sets: nothing here needs the adjacency.
    """
    u_h.check(mesh)
    at = field if time is None else lambda p: field(p, time)
    diff = u_h.coefficients[mesh.triangles] @ QUAD_POINTS.T
    sqrt_w = np.empty(diff.shape)
    for block, x, nu_h in quadrature_blocks(mesh):
        y, sqrt_w[block], _ = _lifted_block(mesh, surface, block, x, nu_h)
        diff[block] -= at(y)
    return math.sqrt(_weighted_sum_sq(diff, sqrt_w))
