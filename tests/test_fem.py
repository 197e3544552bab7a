"""P1 assembly, the preconditioned CG solver, time stepping, lifted norms."""

import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from math import factorial

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg

from surfheat import fem
from surfheat.errors import (DegenerateTriangle, GenerationMismatch,
                             NonFiniteValue, SolverDivergence)
from surfheat.fem import (QUAD_POINTS, QUAD_WEIGHTS, ErrorEvaluator,
                          FeFunction, assemble, backward_euler_step,
                          basis_gradients, interpolate, jacobi_cg,
                          lifted_l2_distance, quadrature_points)
from surfheat.geometry import geometric_operators, lift, torus, unit_sphere
from surfheat.mesh import SurfaceMesh, element_metrics
from surfheat.problems import icosphere, sphere_decay, torus_grid
from test_estimator import element_gradients, graded_sphere

RNG = np.random.default_rng(7151)


def as_scipy(matrix):
    """A scipy ``csr_array`` of a ``fem.Csr`` record, or of anything
    ``csr_array`` accepts (a dense array, for instance): the scipy matrix
    features (``toarray``, ``+``, ``tocsc``, ``eigsh``, ``spsolve``) are the
    oracles of these tests."""
    if isinstance(matrix, fem.Csr):
        return sp.csr_array((matrix.data, matrix.indices, matrix.indptr),
                            shape=matrix.shape)
    return sp.csr_array(matrix, dtype=float)


def gradient_csr(mesh):
    """Reference: the flat tangential gradient of the P1 space as a
    rectangular (3M x N) ``fem.Csr`` with no diagonal: row k M + t holds
    ``G[t, i, k]`` at column ``tri[t, i]``."""
    m = mesh.n_triangles
    return fem.Csr(basis_gradients(mesh).transpose(2, 0, 1).ravel(),
                   np.tile(mesh.triangles, (3, 1)).ravel(),
                   np.arange(0, 9 * m + 1, 3), (3 * m, mesh.n_nodes), None)


def single_triangle(corners):
    return SurfaceMesh(np.asarray(corners, dtype=float), [[0, 1, 2]])


def equilateral():
    return single_triangle([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0),
                            (0.5, np.sqrt(3.0) / 2.0, 0.0)])


def flat_l2_norm(mass, u):
    """Reference: exact L2 norm over the flat triangulation."""
    return float(np.sqrt(u.coefficients @ (mass @ u.coefficients)))


def zero(y):
    return np.zeros(y.shape[:-1])


def element_gradient(corners, values):
    """Reference: constant tangential gradient of a P1 function on one flat
    triangle, from its (3, 3) corner coordinates and (3,) nodal values."""
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


def rule_sum(monomial):
    """The rule applied to ``lambda^monomial`` on the reference triangle."""
    return float(np.sum(QUAD_WEIGHTS
                        * np.prod(QUAD_POINTS ** list(monomial), axis=1)))


class TestQuadrature:
    @pytest.mark.parametrize("degree", [4], ids=["degree4"])
    def test_exact_for_declared_degree(self, degree):
        # integral of lambda^alpha lambda^beta lambda^gamma over the unit
        # reference triangle, divided by the area
        for total in range(degree + 1):
            for alpha in range(total + 1):
                for beta in range(total - alpha + 1):
                    gamma = total - alpha - beta
                    exact = (2.0 * factorial(alpha) * factorial(beta)
                             * factorial(gamma) / factorial(total + 2))
                    approx = rule_sum((alpha, beta, gamma))
                    assert approx == pytest.approx(exact, abs=5e-14), \
                        (alpha, beta, gamma)

    @pytest.mark.parametrize("monomial", [(5, 0, 0)], ids=["degree4"])
    def test_degree_is_tight(self, monomial):
        total = sum(monomial)
        exact = (2.0 * np.prod([factorial(k) for k in monomial])
                 / factorial(total + 2))
        assert abs(rule_sum(monomial) - exact) > 1e-6

    def test_weights_sum_to_one(self):
        assert QUAD_WEIGHTS.sum() == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(QUAD_POINTS.sum(axis=1), 1.0, atol=1e-15)

    def test_physical_points(self):
        corners = np.array([(0.0, 0.0, 0.0), (2.0, 0.0, 0.0),
                            (0.0, 2.0, 0.0)])
        pts = quadrature_points(single_triangle(corners))
        assert pts.shape == (1, 6, 3)
        # (b, a, a) and its rotations map to 2 (lambda_1, lambda_2, 0)
        b, a = QUAD_POINTS[0, :2]
        np.testing.assert_allclose(
            pts[0, :3], [(2 * a, 2 * a, 0.0), (2 * b, 2 * a, 0.0),
                         (2 * a, 2 * b, 0.0)], atol=1e-15)
        np.testing.assert_allclose(pts[0], QUAD_POINTS @ corners, atol=1e-15)


class TestGradients:
    def test_basis_gradients_sum_to_zero(self):
        m = icosphere(1)
        np.testing.assert_allclose(basis_gradients(m).sum(axis=1), 0.0,
                                   atol=1e-13)

    def test_basis_gradient_duality(self):
        # grad(lambda_i) . (v_j - v_i) = kron(i,j) - 1 restricted tangentially;
        # equivalently lambda_i is 1 at v_i, 0 at the others, affine on T
        m = equilateral()
        G = basis_gradients(m)[0]
        p = m.nodes
        for i in range(3):
            for j in range(3):
                lin = G[i] @ (p[j] - p[(i + 1) % 3])
                assert lin == pytest.approx(1.0 if i == j else 0.0, abs=1e-13)

    def test_element_gradient_of_linear_field(self):
        corners = RNG.standard_normal((3, 3))
        coeff = np.array([1.5, -0.3, 0.7])
        values = corners @ coeff
        g = element_gradient(corners, values)
        # tangential projection of the ambient gradient
        n = np.cross(corners[1] - corners[0], corners[2] - corners[0])
        n /= np.linalg.norm(n)
        expected = coeff - (coeff @ n) * n
        np.testing.assert_allclose(g, expected, atol=1e-12)

    def test_all_element_gradients_match_scalar(self):
        m = icosphere(1)
        u = FeFunction.on_mesh(m, RNG.standard_normal(m.n_nodes))
        G = element_gradients(m, u)
        for t in (0, 17, 41):
            expected = element_gradient(m.nodes[m.triangles[t]],
                                        u.coefficients[m.triangles[t]])
            np.testing.assert_allclose(G[t], expected, atol=1e-13)


# ------------------------------------------------- gather and COO oracles

def gather_geometry(mesh):
    """Reference area, normal, h_T, r_T and basis gradients from (M, 3, 3)
    corner gathers with ``np.cross`` and ``np.linalg.norm``."""
    p = mesh.nodes[mesh.triangles]
    edges = [p[:, (j + 1) % 3] - p[:, j] for j in range(3)]
    lengths = np.stack([np.linalg.norm(e, axis=1) for e in edges], axis=1)
    cr = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    two_area = np.linalg.norm(cr, axis=1)
    normal = cr / two_area[:, None]
    G = np.stack([np.cross(normal, edges[(i + 1) % 3]) / two_area[:, None]
                  for i in range(3)], axis=1)
    return (0.5 * two_area, normal, lengths.max(axis=1),
            two_area / lengths.sum(axis=1), G)


def coo_assembly(mesh):
    """Reference mass and stiffness: element blocks summed by scipy's
    COO -> CSR conversion."""
    tri, n = mesh.triangles, mesh.n_nodes
    area, *_, G = gather_geometry(mesh)
    blocks = area[:, None, None] * np.einsum("mik,mjk->mij", G, G)
    m_loc = (area / 12.0)[:, None, None] * (np.ones((3, 3)) + np.eye(3))
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    return tuple(sp.csr_array(sp.coo_array((loc.ravel(), (rows, cols)),
                                           shape=(n, n)))
                 for loc in (m_loc, blocks))


def open_half_icosphere():
    m = icosphere(2)
    return SurfaceMesh(m.nodes, m.triangles[:m.n_triangles // 2])


ORACLE_MESHES = pytest.mark.parametrize(
    "make", [graded_sphere, lambda: torus_grid(12), equilateral,
             open_half_icosphere],
    ids=["graded-sphere", "torus", "equilateral", "open-half"])


class TestDirectCsrAssembly:
    @ORACLE_MESHES
    def test_matches_coo_reference(self, make):
        m = make()
        for got, expected in zip(map(as_scipy, assemble(m)),
                                 coo_assembly(m)):
            assert got.has_sorted_indices
            scale = abs(expected).max()
            assert abs(got - expected).max() <= 1e-14 * scale

    @ORACLE_MESHES
    def test_mass_and_stiffness_share_the_pattern(self, make):
        mass, stiffness = assemble(make())
        assert mass.indptr is stiffness.indptr
        assert mass.indices is stiffness.indices
        assert mass.diag is stiffness.diag

    @ORACLE_MESHES
    def test_product_arrays_are_int32(self, make):
        # csr_matvec reads indptr and indices; the gather arrays stay intp
        mass, stiffness = assemble(make())
        for matrix in (mass, stiffness):
            assert matrix.indptr.dtype == matrix.indices.dtype == np.int32
            assert matrix.diag.dtype == np.intp

    def test_pattern_beyond_int32_is_refused_by_name(self):
        # N + 2 E entries, counted before any array of the pattern is built
        with pytest.raises(ValueError, match=r"^P1 pattern with 2147483648 "
                                             r"entries does not fit int32"):
            fem._p1_pattern(np.empty((0, 2), dtype=np.int64), 2 ** 31)

    @ORACLE_MESHES
    def test_pattern_does_not_depend_on_edge_order(self, make):
        m = make()
        rng = np.random.default_rng(3)
        edges = m.half_edges.edges
        perm = rng.permutation(len(edges))
        indptr, indices, source = fem._p1_pattern(edges, m.n_nodes)
        p_indptr, p_indices, p_source = fem._p1_pattern(edges[perm],
                                                        m.n_nodes)
        np.testing.assert_array_equal(p_indptr, indptr)
        np.testing.assert_array_equal(p_indices, indices)
        # edge values given in the permuted order land on the same entries
        d, v = rng.random(m.n_nodes), rng.random(len(edges))
        np.testing.assert_array_equal(
            np.concatenate((d, v[perm], v[perm]))[p_source],
            np.concatenate((d, v, v))[source])

    @ORACLE_MESHES
    def test_geometry_matches_gather_formulas(self, make):
        m = make()
        met = element_metrics(m)
        area, normal, h_T, r_T, G = gather_geometry(m)
        for got, expected in ((met.area, area), (met.normal, normal),
                              (met.h_T, h_T), (met.r_T, r_T),
                              (basis_gradients(m), G)):
            np.testing.assert_allclose(got, expected, rtol=1e-13,
                                       atol=1e-13 * abs(expected).max())


class TestAssembly:
    def test_equilateral_closed_forms(self):
        mass, stiffness = map(as_scipy, assemble(equilateral()))
        area = np.sqrt(3.0) / 4.0
        np.testing.assert_allclose(
            mass.toarray(), area / 12.0 * (np.ones((3, 3)) + np.eye(3)),
            atol=1e-15)
        np.testing.assert_allclose(
            stiffness.toarray(),
            np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0],
                      [-1.0, -1.0, 2.0]]) / (2.0 * np.sqrt(3.0)),
            atol=1e-14)

    def test_symmetry_and_kernel(self):
        m = icosphere(1)
        mass, stiffness = map(as_scipy, assemble(m))
        assert abs(mass - mass.T).max() < 1e-15
        assert abs(stiffness - stiffness.T).max() < 1e-14
        ones = np.ones(m.n_nodes)
        np.testing.assert_allclose(stiffness @ ones, 0.0, atol=1e-13)
        assert ones @ (mass @ ones) == pytest.approx(
            float(m.metrics.area.sum()), rel=1e-13)

    def test_quadratic_forms_match_elementwise_formulas(self):
        m = icosphere(1)
        mass, stiffness = assemble(m)
        u = FeFunction.on_mesh(m, RNG.standard_normal(m.n_nodes))
        c = u.coefficients
        vals = c[m.triangles]
        area = m.metrics.area
        mass_form = float(np.sum(
            area / 12.0 * (vals.sum(axis=1) ** 2 + (vals ** 2).sum(axis=1))))
        grads = element_gradients(m, u)
        stiff_form = float(np.sum(area * np.einsum("mi,mi->m", grads, grads)))
        assert c @ (mass @ c) == pytest.approx(mass_form, rel=1e-12)
        assert c @ (stiffness @ c) == pytest.approx(stiff_form, rel=1e-12)

    def test_smallest_sphere_eigenvalues(self):
        # Laplace-Beltrami spectrum of the unit sphere: 0, then 2 with
        # multiplicity 3; generalized eigensolve as independent oracle
        m = icosphere(4)
        mass, stiffness = map(as_scipy, assemble(m))
        vals = scipy.sparse.linalg.eigsh(
            stiffness.tocsc(), k=5, M=mass.tocsc(), sigma=-0.1,
            which="LM", return_eigenvectors=False)
        vals = np.sort(vals)
        assert abs(vals[0]) < 1e-8
        np.testing.assert_allclose(vals[1:4], 2.0, rtol=0.05)


class TestInterpolation:
    def test_product_field_nodal_values(self):
        m = icosphere(2)
        u = interpolate(m, lambda x: x[:, 0] * x[:, 1])
        np.testing.assert_array_equal(
            u.coefficients, m.nodes[:, 0] * m.nodes[:, 1])

    def test_time_dependent_field(self):
        m = icosphere(1)
        u = interpolate(m, lambda x, t: t * x[:, 2], time=0.25)
        np.testing.assert_allclose(u.coefficients, 0.25 * m.nodes[:, 2])

    def test_scalar_broadcast(self):
        m = icosphere(0)
        u = interpolate(m, lambda x: 3.0)
        np.testing.assert_array_equal(u.coefficients, 3.0)

    def test_interpolation_error_orders(self):
        problem = sphere_decay()
        l2, h1 = [], []
        hs = []
        for level in range(2, 6):
            m = icosphere(level)
            u_h = interpolate(m, problem.u, time=0.0)
            e2, e1 = ErrorEvaluator(m, problem.surface).errors(
                u_h, problem.u, problem.grad_u, 0.0)
            l2.append(e2)
            h1.append(e1)
            hs.append(m.metrics.h)
        fit = lambda e: np.polyfit(np.log(hs), np.log(e), 1)[0]  # noqa: E731
        assert fit(l2) == pytest.approx(2.0, abs=0.3)
        assert fit(h1) == pytest.approx(1.0, abs=0.3)


class TestSolver:
    def spd(self, n):
        b = RNG.standard_normal((n, n))
        return b @ b.T + n * np.eye(n)

    def test_against_dense_solve(self):
        a = self.spd(40)
        rhs = RNG.standard_normal(40)
        x, iters = jacobi_cg(as_scipy(a), rhs, rtol=1e-12)
        assert iters > 0
        np.testing.assert_allclose(x, np.linalg.solve(a, rhs), atol=1e-8)

    def test_zero_rhs_short_circuits(self):
        x, iters = jacobi_cg(as_scipy(self.spd(5)), np.zeros(5))
        assert iters == 0
        np.testing.assert_array_equal(x, 0.0)

    def test_exact_warm_start(self):
        a = self.spd(8)
        x_exact = RNG.standard_normal(8)
        x, iters = jacobi_cg(as_scipy(a), a @ x_exact, x0=x_exact)
        assert iters == 0
        np.testing.assert_array_equal(x, x_exact)

    def test_iteration_cap_raises(self):
        a = self.spd(40)
        with pytest.raises(SolverDivergence):
            jacobi_cg(as_scipy(a), RNG.standard_normal(40), rtol=1e-14,
                      max_iter=2)

    def test_nonfinite_rhs_fails_before_any_product(self):
        class Counting:
            def __init__(self, a):
                self.a, self.products = a, 0

            def __matmul__(self, x):
                self.products += 1
                return self.a @ x

            def diagonal(self):
                return self.a.diagonal()

        for bad in (np.nan, np.inf):
            a = Counting(self.spd(10))
            rhs = RNG.standard_normal(10)
            rhs[3] = bad
            with pytest.raises(NonFiniteValue, match="0 iterations"):
                jacobi_cg(a, rhs)
            assert a.products == 0

    def test_nonfinite_start_vector_fails_at_first_residual(self, monkeypatch):
        # named before the first product, that of the initial residual
        products, kernel = [], fem.csr_matvec

        def counting(*args):
            products.append(args)
            return kernel(*args)

        monkeypatch.setattr(fem, "csr_matvec", counting)
        for bad in (np.nan, -np.inf):
            x0 = np.zeros(10)
            x0[4] = bad
            with pytest.raises(NonFiniteValue,
                               match=rf"^PCG start vector is not finite: "
                                     rf"entry 4 is {bad} \(0 iterations "
                                     rf"spent\)$"):
                jacobi_cg(as_scipy(self.spd(10)), RNG.standard_normal(10),
                          x0=x0)
        assert products == []

    @pytest.mark.parametrize("diagonal", [np.nan, np.inf])
    def test_nonfinite_diagonal_fails_before_any_product(self, diagonal):
        a = self.spd(6)
        a[2, 2] = diagonal
        with pytest.raises(NonFiniteValue, match="diagonal.*0 iterations"):
            jacobi_cg(as_scipy(a), RNG.standard_normal(6))

    @pytest.mark.parametrize("diagonal", [0.0, -1.0])
    def test_nonpositive_diagonal_is_not_positive_definite(self, diagonal):
        a = np.diag([1.0, diagonal, 2.0])
        with pytest.raises(SolverDivergence,
                           match="not positive definite: diagonal entry 1"):
            jacobi_cg(as_scipy(a), np.ones(3))

    def test_indefinite_matrix_names_the_iteration(self):
        # positive diagonal, eigenvalues 3 and -1; b is the -1 eigenvector
        a = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(SolverDivergence,
                           match=r"not positive definite: p\.Ap = .* "
                                 "at iteration 0"):
            jacobi_cg(as_scipy(a), np.array([1.0, -1.0]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape"):
            jacobi_cg(as_scipy(self.spd(4)), np.ones(5))

    @pytest.mark.parametrize("rtol", [np.nan, -1.0, 0.0, 1.0, 2.0])
    def test_rtol_outside_the_unit_interval_fails_before_any_product(
            self, monkeypatch, rtol):
        # from 0 on M + 0.01 A: NaN or -1 ran to a zero residual and blamed
        # p.Ap = 0 at iteration 221; 2 returned the zero start as solved
        products, kernel = [], fem.csr_matvec

        def counting(*args):
            products.append(args)
            return kernel(*args)

        monkeypatch.setattr(fem, "csr_matvec", counting)
        m = icosphere(3)
        mass, stiffness = assemble(m)
        system = mass._replace(data=mass.data + 0.01 * stiffness.data)
        u = FeFunction.on_mesh(m, RNG.standard_normal(m.n_nodes))
        message = rf"^PCG rtol must lie in \(0, 1\), got {rtol}$"
        with pytest.raises(ValueError, match=message):
            jacobi_cg(system, mass @ u.coefficients, x0=np.zeros(m.n_nodes),
                      rtol=rtol)
        products.clear()
        with pytest.raises(ValueError, match=message):
            backward_euler_step(mass, stiffness, u, u, 0.01, rtol=rtol)
        assert len(products) == 1  # the right-hand side's, before the CG

    @pytest.mark.parametrize("length", [5, 15])
    def test_start_vector_of_the_wrong_length_raises(self, length):
        # the raw kernel reads len(b) entries of x0 with no bounds check
        a = as_scipy(np.diag(np.arange(1.0, 11.0)))
        with pytest.raises(ValueError, match=rf"start vector \({length},\), "
                                             r"right-hand side \(10,\)"):
            jacobi_cg(a, np.ones(10), x0=np.zeros(length))

    def test_sparse_system(self):
        m = icosphere(2)
        mass, stiffness = map(as_scipy, assemble(m))
        system = (mass + 0.1 * stiffness).tocsr()
        rhs = RNG.standard_normal(m.n_nodes)
        x, _ = jacobi_cg(system, rhs, rtol=1e-12)
        oracle = scipy.sparse.linalg.spsolve(system.tocsc(), rhs)
        np.testing.assert_allclose(x, oracle, atol=1e-9)


def reference_jacobi_cg(matrix, b, x0=None, rtol=1e-10, max_iter=None):
    """Reference: the Jacobi-PCG loop with a scipy product and fresh vectors
    per operation, in the operation order of ``fem.jacobi_cg``."""
    b = np.asarray(b, dtype=float)
    n = len(b)
    if max_iter is None:
        max_iter = 10 * n
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return np.zeros(n), 0
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    r = b - matrix @ x
    inv_diag = 1.0 / matrix.diagonal()
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    for k in range(max_iter + 1):
        if math.sqrt(r @ r) <= rtol * b_norm:
            return x, k
        q = matrix @ p
        alpha = rz / float(p @ q)
        x += alpha * p
        r -= alpha * q
        z = inv_diag * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise AssertionError(f"no convergence within {max_iter} iterations")


def dense_spd(n):
    b = RNG.standard_normal((n, n))
    return b @ b.T + n * np.eye(n)


KERNEL_MESHES = pytest.mark.parametrize(
    "make", [graded_sphere, lambda: torus_grid(12)],
    ids=["graded-sphere", "torus"])


class TestInPlaceKernel:
    @KERNEL_MESHES
    def test_step_matches_reference_bitwise(self, make):
        m = make()
        mass, stiffness = assemble(m)
        u0 = RNG.standard_normal(m.n_nodes)
        f = RNG.standard_normal(m.n_nodes)
        for tau in (1e-3, 0.1):
            u1, iters = backward_euler_step(
                mass, stiffness, FeFunction.on_mesh(m, u0),
                FeFunction.on_mesh(m, f), tau)
            x, ref_iters = reference_jacobi_cg(
                (as_scipy(mass) + tau * as_scipy(stiffness)).tocsr(),
                as_scipy(mass) @ (u0 + tau * f), x0=u0)
            assert iters == ref_iters > 0
            np.testing.assert_array_equal(u1.coefficients, x)

    def test_start_vector_is_u_prev_unless_given(self):
        m = graded_sphere()
        mass, stiffness = assemble(m)
        u0, f, x0 = (FeFunction.on_mesh(m, RNG.standard_normal(m.n_nodes))
                     for _ in range(3))
        default = backward_euler_step(mass, stiffness, u0, f, 0.1)
        for start in (None, u0.coefficients):
            u1, iters = backward_euler_step(mass, stiffness, u0, f, 0.1,
                                            x0=start)
            assert iters == default[1] > 0
            assert (u1.coefficients.tobytes()
                    == default[0].coefficients.tobytes())
        u1, iters = backward_euler_step(mass, stiffness, u0, f, 0.1,
                                        x0=x0.coefficients)
        x, ref_iters = reference_jacobi_cg(
            (as_scipy(mass) + 0.1 * as_scipy(stiffness)).tocsr(),
            as_scipy(mass) @ (u0.coefficients + 0.1 * f.coefficients),
            x0=x0.coefficients)
        assert iters == ref_iters > 0
        np.testing.assert_array_equal(u1.coefficients, x)

    @pytest.mark.parametrize("length", [1, 200])
    def test_step_start_vector_of_the_wrong_length_raises(self, length):
        m = icosphere(2)
        mass, stiffness = assemble(m)
        u = FeFunction.on_mesh(m, np.ones(m.n_nodes))
        with pytest.raises(ValueError, match=rf"start vector \({length},\)"):
            backward_euler_step(mass, stiffness, u, u, 0.1,
                                x0=np.zeros(length))

    def test_dense_spd_matches_reference_bitwise(self):
        a = dense_spd(60)
        rhs = RNG.standard_normal(60)
        x, iters = jacobi_cg(as_scipy(a), rhs, rtol=1e-12)
        ref, ref_iters = reference_jacobi_cg(as_scipy(a), rhs, rtol=1e-12)
        assert iters == ref_iters > 0
        np.testing.assert_array_equal(x, ref)

    @KERNEL_MESHES
    def test_system_equals_scipy_sum(self, make, monkeypatch):
        mass, stiffness = assemble(make())
        seen = []

        def spy(matrix, b, **kwargs):
            seen.append(matrix)
            return np.zeros(len(b)), 0

        monkeypatch.setattr(fem, "jacobi_cg", spy)
        u = FeFunction(0, RNG.standard_normal(mass.shape[0]))
        backward_euler_step(mass, stiffness, u, u, tau=0.037)
        expected = (as_scipy(mass) + 0.037 * as_scipy(stiffness)).tocsr()
        for name in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(seen[0], name),
                                          getattr(expected, name))
        np.testing.assert_array_equal(seen[0].diagonal(), expected.diagonal())

    def test_mismatched_patterns_raise(self):
        m = icosphere(1)
        mass, stiffness = assemble(m)
        u = FeFunction.on_mesh(m, np.ones(m.n_nodes))
        dense = sp.csr_array(np.ones(mass.shape))
        for a, b in ((mass, dense), (dense, stiffness)):
            with pytest.raises(ValueError, match="share one CSR pattern"):
                backward_euler_step(a, b, u, u, tau=0.1)
        # an equal pattern in separate arrays is still the shared pattern
        copy = mass._replace(indptr=mass.indptr.copy(),
                             indices=mass.indices.copy())
        u1, _ = backward_euler_step(copy, stiffness, u, u, tau=0.1)
        np.testing.assert_allclose(u1.coefficients, 1.1, rtol=1e-9)

    @pytest.mark.parametrize("make", [graded_sphere, lambda: torus_grid(12)],
                             ids=["graded-sphere", "torus"])
    def test_raw_product_equals_scipy_product(self, make):
        # the kernel loaded from scipy's extension file, raw and through the
        # record's ``@``, on a P1 system and on a rectangular gradient
        m = make()
        mass, stiffness = assemble(m)
        system = mass._replace(data=mass.data + 0.01 * stiffness.data)
        grad = gradient_csr(m)
        assert grad.shape == (3 * m.n_triangles, m.n_nodes)
        for matrix in (system, grad):
            rows, cols = matrix.shape
            p = RNG.standard_normal(cols)
            q = np.zeros(rows)
            fem.csr_matvec(rows, cols, matrix.indptr, matrix.indices,
                           matrix.data, p, q)
            expected = (as_scipy(matrix) @ p).tobytes()
            assert q.tobytes() == expected
            assert (matrix @ p).tobytes() == expected

    def test_missing_kernel_file_raises_naming_the_path(self, monkeypatch):
        monkeypatch.setattr(fem, "EXTENSION_SUFFIXES", [".missing.so"])
        with pytest.raises(ImportError,
                           match=r"sparse._sparsetools\.\* is missing"):
            fem._load_csr_matvec()

    def test_products_check_the_vector_length(self):
        m = icosphere(1)
        mass, _ = assemble(m)
        grad = gradient_csr(m)
        n = m.n_nodes
        for matrix in (mass, grad):
            rows = matrix.shape[0]
            for length in (n - 1, n + 1):
                expected = rf"{rows} x {n} matrix times vector \({length},\)"
                with pytest.raises(ValueError, match=expected):
                    matrix @ np.ones(length)


class TestTimeStepping:
    def test_constants_are_steady_states(self):
        m = icosphere(1)
        mass, stiffness = assemble(m)
        u0 = FeFunction.on_mesh(m, np.full(m.n_nodes, 3.5))
        f = FeFunction.on_mesh(m, np.zeros(m.n_nodes))
        u1, iters = backward_euler_step(mass, stiffness, u0, f, tau=0.25)
        assert iters == 0
        np.testing.assert_allclose(u1.coefficients, 3.5, atol=1e-12)

    def test_constant_source_from_rest(self):
        m = icosphere(1)
        mass, stiffness = assemble(m)
        u0 = FeFunction.on_mesh(m, np.zeros(m.n_nodes))
        f = FeFunction.on_mesh(m, np.ones(m.n_nodes))
        tau = 0.125
        u1, _ = backward_euler_step(mass, stiffness, u0, f, tau)
        np.testing.assert_allclose(u1.coefficients, tau, atol=1e-10)

    def test_against_direct_solver(self):
        m = icosphere(2)
        mass, stiffness = assemble(m)
        u0 = FeFunction.on_mesh(m, RNG.standard_normal(m.n_nodes))
        f = FeFunction.on_mesh(m, RNG.standard_normal(m.n_nodes))
        tau = 0.05
        u1, _ = backward_euler_step(mass, stiffness, u0, f, tau)
        system = (as_scipy(mass) + tau * as_scipy(stiffness)).tocsc()
        rhs = mass @ (u0.coefficients + tau * f.coefficients)
        np.testing.assert_allclose(
            u1.coefficients, scipy.sparse.linalg.spsolve(system, rhs),
            atol=1e-8)

    def test_energy_decays_without_source(self):
        m = icosphere(2)
        mass, stiffness = assemble(m)
        u = FeFunction.on_mesh(m, RNG.standard_normal(m.n_nodes))
        f = FeFunction.on_mesh(m, np.zeros(m.n_nodes))
        norms = [flat_l2_norm(mass, u)]
        for _ in range(5):
            u, _ = backward_euler_step(mass, stiffness, u, f, tau=0.1)
            norms.append(flat_l2_norm(mass, u))
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_generation_mismatch(self):
        m1, m2 = icosphere(1), icosphere(1)
        mass, stiffness = assemble(m1)
        u0 = FeFunction.on_mesh(m1, np.zeros(m1.n_nodes))
        f = FeFunction.on_mesh(m2, np.zeros(m2.n_nodes))
        with pytest.raises(GenerationMismatch):
            backward_euler_step(mass, stiffness, u0, f, tau=0.1)

    def test_nan_source_raises_with_no_cg_iterations(self):
        m = icosphere(3)  # 642 dofs: the old budget was 6,420 iterations
        mass, stiffness = assemble(m)
        u0 = FeFunction.on_mesh(m, np.ones(m.n_nodes))
        values = np.zeros(m.n_nodes)
        values[17] = np.nan
        f = FeFunction.on_mesh(m, values)
        with pytest.raises(NonFiniteValue, match=r"\(0 iterations spent\)"):
            backward_euler_step(mass, stiffness, u0, f, tau=0.01)

    def test_tau_must_be_positive(self):
        m = icosphere(0)
        mass, stiffness = assemble(m)
        u0 = FeFunction.on_mesh(m, np.zeros(m.n_nodes))
        # refused by name, not later as a non-finite CG right-hand side
        for tau in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match=rf"^tau must be positive "
                                                 rf"and finite, got {tau}$"):
                backward_euler_step(mass, stiffness, u0, u0, tau=tau)


class TestLiftedNorms:
    def test_known_surface_norm(self):
        # closed form on the unit sphere for the product of two coordinates
        m = icosphere(4)
        u = interpolate(m, lambda x: x[:, 0] * x[:, 1])
        norm = lifted_l2_distance(m, unit_sphere(), u, zero)
        assert norm == pytest.approx(np.sqrt(4.0 * np.pi / 15.0), rel=5e-3)

    def test_flat_lifted_ratio_tends_to_one(self):
        surface = unit_sphere()
        worst = []
        for level in (2, 3, 4):
            m = icosphere(level)
            mass, _ = assemble(m)
            ratios = []
            for _ in range(5):
                u = FeFunction.on_mesh(m, RNG.standard_normal(m.n_nodes))
                ratios.append(lifted_l2_distance(m, surface, u, zero)
                              / flat_l2_norm(mass, u))
            ratios = np.array(ratios)
            assert ((ratios > 0.9) & (ratios < 1.1)).all()
            worst.append(np.abs(ratios - 1.0).max())
        assert worst[-1] < worst[0]

    def test_constant_has_zero_error(self):
        m = icosphere(2)
        u_h = interpolate(m, lambda x: np.full(len(x), 2.0))
        l2, h1 = ErrorEvaluator(m, unit_sphere()).errors(
            u_h, lambda y, t: np.full(y.shape[:-1], 2.0),
            lambda y, t: np.zeros_like(y), 0.0)
        assert l2 < 1e-12
        assert h1 < 1e-12

    def test_lifted_distance_wrapper(self):
        m = icosphere(2)
        u_h = interpolate(m, lambda x: x[:, 2])
        field = lambda y: y[..., 2]  # noqa: E731
        d = lifted_l2_distance(m, unit_sphere(), u_h, field)
        # interpolation error only, order h^2
        assert 0.0 < d < 0.05
        timed = lifted_l2_distance(m, unit_sphere(), u_h,
                                   lambda y, t: y[..., 2], time=1.0)
        assert timed == pytest.approx(d, rel=1e-12)

    def test_h1_seminorm_of_constant(self):
        m = icosphere(1)
        _, stiffness = assemble(m)
        c = np.full(m.n_nodes, 4.0)
        assert np.sqrt(max(c @ (stiffness @ c), 0.0)) < 1e-6

    def test_lifted_distance_repeats_and_leaves_nothing_on_the_mesh(self):
        m = icosphere(2)
        surface = unit_sphere()
        u = interpolate(m, lambda x: x[:, 0])
        m.metrics  # the one mesh cache the lifted rule reads
        before = {name: id(value) for name, value in vars(m).items()}
        first = lifted_l2_distance(m, surface, u, zero)
        ErrorEvaluator(m, surface)
        assert lifted_l2_distance(m, surface, u, zero) == first
        assert lifted_l2_distance(m, unit_sphere(), u, zero) == first
        assert {name: id(value) for name, value in vars(m).items()} == before

    def test_error_evaluator_on_open_triangle_subsets(self):
        m = icosphere(2)
        surface = unit_sphere()
        problem = sphere_decay()
        u = interpolate(m, problem.u0)
        t = 0.3
        l2, h1 = ErrorEvaluator(m, surface).errors(u, problem.u,
                                                   problem.grad_u, t)
        l2_parts, h1_parts, dist_parts = [], [], []
        for chunk in (slice(0, 100), slice(100, None)):
            part = SurfaceMesh(m.nodes, m.triangles[chunk])
            u_part = FeFunction.on_mesh(part, u.coefficients)
            e_l2, e_h1 = ErrorEvaluator(part, surface).errors(
                u_part, problem.u, problem.grad_u, t)
            l2_parts.append(e_l2 ** 2)
            h1_parts.append(e_h1 ** 2)
            dist_parts.append(lifted_l2_distance(part, surface, u_part,
                                                 problem.u, time=t) ** 2)
            assert "half_edges" not in vars(part)
        assert np.sqrt(sum(l2_parts)) == pytest.approx(l2, rel=1e-12)
        assert np.sqrt(sum(h1_parts)) == pytest.approx(h1, rel=1e-12)
        assert np.sqrt(sum(dist_parts)) == pytest.approx(l2, rel=1e-12)


# ------------------------------------------ single-batch lifted references

def whole_mesh_quadrature(mesh, surface):
    """Reference: the lifted rule of the whole mesh in one batch: points,
    square roots of the weights and lifted-gradient transforms B Q."""
    x = quadrature_points(mesh)
    m, q = x.shape[:2]
    y = lift(surface, x.reshape(-1, 3)).reshape(m, q, 3)
    nu_h = np.broadcast_to(mesh.metrics.normal[:, None, :], x.shape)
    ops = geometric_operators(surface, x.reshape(-1, 3), nu_h.reshape(-1, 3))
    w = mesh.metrics.area[:, None] * QUAD_WEIGHTS[None, :] \
        * ops.mu.reshape(m, q)
    return y, np.sqrt(w), ops.grad_transform.reshape(m, q, 3, 3)


def whole_mesh_lifted_gradients(mesh, trans):
    """Reference: ``L_k = B Q grad(phi_k)`` of basis functions 1 and 2 on
    the whole mesh in one batch, (2, M, Q, 3)."""
    grads = basis_gradients(mesh)[:, None, 1:].swapaxes(2, 3)
    return np.moveaxis(trans @ grads, -1, 0)


def whole_mesh_sum_sq(diff, sqrt_w):
    diff *= sqrt_w.reshape(sqrt_w.shape + (1,) * (diff.ndim - 2))
    flat = diff.ravel()
    return float(flat @ flat)


def whole_mesh_errors(mesh, surface, u_h, exact_u, exact_grad, time):
    """Reference: ``ErrorEvaluator.errors`` on whole-mesh arrays, the lifted
    gradient ``(u_1 - u_0) L_1 + (u_2 - u_0) L_2``."""
    y, sqrt_w, trans = whole_mesh_quadrature(mesh, surface)
    corners = u_h.coefficients[mesh.triangles]
    diff = corners @ QUAD_POINTS.T
    diff -= exact_u(y, time)
    l2_sq = whole_mesh_sum_sq(diff, sqrt_w)
    lifted = whole_mesh_lifted_gradients(mesh, trans)
    steps = (corners[:, 1:] - corners[:, :1]).T[:, :, None, None]
    gdiff = lifted[0] * steps[0] + lifted[1] * steps[1]
    gdiff -= exact_grad(y, time)
    h1_sq = whole_mesh_sum_sq(gdiff, sqrt_w)
    return np.sqrt(l2_sq), np.sqrt(h1_sq)


def full_transform_errors(mesh, surface, u_h, exact_u, exact_grad, time):
    """Reference: the error norms with the lifted gradient ``B Q sum_i u_i
    grad(phi_i)``, the full transform applied to the flat gradient of the
    rectangular gradient matrix."""
    y, sqrt_w, trans = whole_mesh_quadrature(mesh, surface)
    diff = u_h.coefficients[mesh.triangles] @ QUAD_POINTS.T
    diff -= exact_u(y, time)
    l2_sq = whole_mesh_sum_sq(diff, sqrt_w)
    m, q = sqrt_w.shape
    grads = (gradient_csr(mesh) @ u_h.coefficients).reshape(3, m)
    gdiff = (trans.reshape(m, 3 * q, 3) @ grads.T[:, :, None]).reshape(m, q, 3)
    gdiff -= exact_grad(y, time)
    h1_sq = whole_mesh_sum_sq(gdiff, sqrt_w)
    return np.sqrt(l2_sq), np.sqrt(h1_sq)


def whole_mesh_distance(mesh, surface, u_h, field):
    """Reference: ``lifted_l2_distance`` on whole-mesh arrays."""
    y, sqrt_w, _ = whole_mesh_quadrature(mesh, surface)
    diff = u_h.coefficients[mesh.triangles] @ QUAD_POINTS.T
    diff -= field(y)
    return math.sqrt(whole_mesh_sum_sq(diff, sqrt_w))


def wavy(y, t):
    return np.sin(3.0 * y[..., 0]) * np.cos(y[..., 1] + t) + y[..., 2]


def wavy_grad(y, t):
    g = np.zeros_like(y)
    g[..., 0] = 3.0 * np.cos(3.0 * y[..., 0]) * np.cos(y[..., 1] + t)
    g[..., 1] = -np.sin(3.0 * y[..., 0]) * np.sin(y[..., 1] + t)
    g[..., 2] = 1.0
    return g


class TestBlockedLiftedQuadrature:
    @pytest.mark.parametrize("make, surface", [
        (lambda: icosphere(4), unit_sphere()),
        (lambda: torus_grid(24), torus())], ids=["sphere", "torus"])
    def test_blocks_equal_one_batch(self, monkeypatch, make, surface):
        # 1000-triangle blocks leave a ragged last block on both meshes
        monkeypatch.setattr(fem, "BLOCK", 1000)
        mesh = make()
        assert mesh.n_triangles % 1000 != 0
        evaluator = ErrorEvaluator(mesh, surface)
        y, sqrt_w, trans = whole_mesh_quadrature(mesh, surface)
        lifted = whole_mesh_lifted_gradients(mesh, trans)
        # the evaluator keeps coordinate rows: (3, M, Q) and (2, 3, M, Q)
        for got, expected in ((evaluator._y, np.moveaxis(y, -1, 0)),
                              (evaluator._sqrt_w, sqrt_w),
                              (evaluator._lifted_grads,
                               np.moveaxis(lifted, -1, 1))):
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
        u_h = interpolate(mesh, lambda x: np.cos(2.0 * x[:, 0]) + x[:, 1])
        for t in (0.0, 0.7):
            l2, h1 = evaluator.errors(u_h, wavy, wavy_grad, t)
            ref_l2, ref_h1 = whole_mesh_errors(mesh, surface, u_h, wavy,
                                               wavy_grad, t)
            # both norms sum per block, the reference over the whole mesh
            assert l2 == pytest.approx(ref_l2, rel=1e-13, abs=0.0)
            assert h1 == pytest.approx(ref_h1, rel=1e-13, abs=0.0)
        field = lambda y: wavy(y, 0.3)  # noqa: E731
        assert lifted_l2_distance(mesh, surface, u_h, field) == \
            whole_mesh_distance(mesh, surface, u_h, field)

    @pytest.mark.parametrize("make, surface", [
        (graded_sphere, unit_sphere()), (lambda: torus_grid(24), torus())],
        ids=["graded-sphere", "torus"])
    def test_norms_equal_the_full_transform_formula(self, make, surface):
        # the lifted gradient from two lifted basis gradients per point is
        # B Q sum_i u_i grad(phi_i) up to rounding; the L2 part is unchanged
        mesh = make()
        evaluator = ErrorEvaluator(mesh, surface)
        u_h = interpolate(mesh, lambda x: wavy(x, 0.7))
        no_grad = lambda y, t: np.zeros_like(y)  # noqa: E731
        for exact_grad in (wavy_grad, no_grad):
            for t in (0.0, 0.7):
                l2, h1 = evaluator.errors(u_h, wavy, exact_grad, t)
                ref_l2, ref_h1 = full_transform_errors(
                    mesh, surface, u_h, wavy, exact_grad, t)
                assert l2 == ref_l2
                assert h1 == pytest.approx(ref_h1, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("make", [
        lambda: icosphere(4), graded_sphere, lambda: torus_grid(24)],
        ids=["sphere", "graded-sphere", "torus"])
    def test_block_basis_gradients_are_the_whole_mesh_rows(self, make):
        mesh = make()
        whole = basis_gradients(mesh)
        for block in (slice(0, 1000), slice(1000, 2000), slice(3000, None),
                      slice(None)):
            assert basis_gradients(mesh, block).tobytes() == \
                whole[block].tobytes()

    def test_build_memory_is_bounded_by_the_block(self):
        # the build keeps 10 floats per point: the lifted point (3), the
        # root weight (1) and two lifted basis gradients (6), plus one
        # (3, BLOCK, Q) integrand buffer, no 3 x 3 transform, no gradient
        # matrix and no whole-mesh difference buffer; what it frees again is
        # a block's, not the whole mesh's (about 40 MB here with one
        # whole-mesh batch)
        mesh = icosphere(5)
        mesh.metrics  # cached before the measurement
        surface = unit_sphere()
        tracemalloc.start()
        try:
            evaluator = ErrorEvaluator(mesh, surface)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        points = mesh.n_triangles * len(QUAD_WEIGHTS)
        # eight (3, 3) float arrays on the points of one block
        block_arrays = 8 * fem.BLOCK * len(QUAD_WEIGHTS) * 9 * 8
        buffer = 3 * fem.BLOCK * len(QUAD_WEIGHTS) * 8
        assert evaluator.mesh is mesh
        assert kept < 10 * 8 * points + buffer + 65536  # 64 KB: the objects
        assert peak - kept < block_arrays

    def test_evaluator_keeps_ten_floats_per_point_and_one_block_buffer(self):
        # the lifted point (3), the root weight (1) and two lifted basis
        # gradients (6) per point, and the (3, BLOCK, Q) integrand buffer;
        # 88.1 B per point here with a whole-mesh L2 difference buffer
        mesh = icosphere(5)
        mesh.metrics  # cached before the measurement
        tracemalloc.start()
        try:
            evaluator = ErrorEvaluator(mesh, unit_sphere())
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        points = mesh.n_triangles * len(QUAD_WEIGHTS)
        arrays = 10 * 8 * points + 3 * fem.BLOCK * len(QUAD_WEIGHTS) * 8
        assert evaluator.mesh is mesh
        assert arrays <= kept < arrays + 65536  # 64 KB for the objects

    def test_errors_allocate_less_than_one_whole_mesh_gradient(self):
        # during a call, the evaluator's 10 floats per point and block
        # buffer and the call's own arrays (corner values, a block's H1
        # integrand and the exact gradient's) add up to less than those plus
        # one (M, Q, 3) array: no whole-mesh difference buffer, kept or
        # transient
        mesh = icosphere(5)
        mesh.metrics  # cached before the measurement
        problem = sphere_decay()
        u_h = interpolate(mesh, problem.u0)
        tracemalloc.start()
        try:
            evaluator = ErrorEvaluator(mesh, problem.surface)
            tracemalloc.reset_peak()
            evaluator.errors(u_h, problem.u, problem.grad_u, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        points = mesh.n_triangles * len(QUAD_WEIGHTS)
        kept = 10 * 8 * points + 3 * fem.BLOCK * len(QUAD_WEIGHTS) * 8
        assert peak - kept < 3 * 8 * points  # 2.95 MB


def test_fresh_interpreter_runs_without_scipy_sparse():
    # fem loads scipy's compiled CSR product from its extension file, so a
    # step, the error norms and an adaptive run import no scipy.sparse
    script = textwrap.dedent("""
        import sys
        import surfheat, surfheat.cli
        from surfheat import adaptive, fem, problems
        mesh = problems.icosphere(2)
        mass, stiffness = fem.assemble(mesh)
        decay = problems.get_problem("sphere-decay")
        u = fem.interpolate(mesh, decay.u0)
        u1, _ = fem.backward_euler_step(mass, stiffness, u, u, 0.01)
        fem.ErrorEvaluator(mesh, decay.surface).errors(
            u1, decay.u, decay.grad_u, 0.01)
        peak = problems.get_problem("moving-peak-timing")
        config = adaptive.AdaptiveConfig(tol=0.4, tau0=0.01, t_end=0.01,
                                         theta=0.8, theta_star=0.2)
        log = adaptive.run(peak, peak.surface, mesh, config)
        assert log.accepted_steps >= 1
        print(sorted(name for name in sys.modules if "sparse" in name))
        sys.exit("scipy.sparse" in sys.modules)
        """)
    src = os.path.dirname(os.path.dirname(fem.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
