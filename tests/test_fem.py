"""P1 assembly, the preconditioned CG solver, time stepping, lifted norms."""

from math import factorial

import numpy as np
import pytest
import scipy.sparse.linalg

from surfheat.errors import (GenerationMismatch, NonFiniteValue,
                             SolverDivergence)
from surfheat.fem import (ErrorEvaluator, FeFunction, QuadratureRule,
                          all_element_gradients, assemble,
                          backward_euler_step, basis_gradients,
                          element_gradient, errors_vs_exact, flat_h1_seminorm,
                          flat_l2_norm, interpolate, jacobi_cg,
                          lifted_l2_distance, lifted_l2_norm)
from surfheat.geometry import unit_sphere
from surfheat.mesh import SurfaceMesh
from surfheat.problems import icosphere, sphere_decay

RNG = np.random.default_rng(7151)


def single_triangle(corners):
    return SurfaceMesh(np.asarray(corners, dtype=float), [[0, 1, 2]])


def equilateral():
    return single_triangle([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0),
                            (0.5, np.sqrt(3.0) / 2.0, 0.0)])


class TestQuadrature:
    @pytest.mark.parametrize("rule", [QuadratureRule.edge_midpoints(),
                                      QuadratureRule.degree4()],
                             ids=["midpoint", "degree4"])
    def test_exact_for_declared_degree(self, rule):
        # integral of lambda^alpha lambda^beta lambda^gamma over the unit
        # reference triangle, divided by the area
        for total in range(rule.degree + 1):
            for alpha in range(total + 1):
                for beta in range(total - alpha + 1):
                    gamma = total - alpha - beta
                    exact = (2.0 * factorial(alpha) * factorial(beta)
                             * factorial(gamma) / factorial(total + 2))
                    approx = float(np.sum(
                        rule.weights
                        * np.prod(rule.points ** [alpha, beta, gamma],
                                  axis=1)))
                    assert approx == pytest.approx(exact, abs=5e-14), \
                        (alpha, beta, gamma)

    @pytest.mark.parametrize("rule,monomial", [
        (QuadratureRule.edge_midpoints(), (3, 0, 0)),
        (QuadratureRule.degree4(), (5, 0, 0)),
    ], ids=["midpoint", "degree4"])
    def test_degree_is_tight(self, rule, monomial):
        total = sum(monomial)
        exact = (2.0 * np.prod([factorial(k) for k in monomial])
                 / factorial(total + 2))
        approx = float(np.sum(rule.weights
                              * np.prod(rule.points ** list(monomial),
                                        axis=1)))
        assert abs(approx - exact) > 1e-6

    def test_weights_must_normalize(self):
        with pytest.raises(ValueError):
            QuadratureRule([(1.0, 0.0, 0.0)], [0.5], degree=1)

    def test_physical_points(self):
        m = single_triangle([(0.0, 0.0, 0.0), (2.0, 0.0, 0.0),
                             (0.0, 2.0, 0.0)])
        pts = QuadratureRule.edge_midpoints().physical_points(m)
        assert pts.shape == (1, 3, 3)
        np.testing.assert_allclose(
            sorted(map(tuple, pts[0])),
            [(0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0)])


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
        G = all_element_gradients(m, u)
        for t in (0, 17, 41):
            expected = element_gradient(m.nodes[m.triangles[t]],
                                        u.coefficients[m.triangles[t]])
            np.testing.assert_allclose(G[t], expected, atol=1e-13)


class TestAssembly:
    def test_equilateral_closed_forms(self):
        mass, stiffness = assemble(equilateral())
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
        mass, stiffness = assemble(m)
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
        grads = all_element_gradients(m, u)
        stiff_form = float(np.sum(area * np.einsum("mi,mi->m", grads, grads)))
        assert c @ (mass @ c) == pytest.approx(mass_form, rel=1e-12)
        assert c @ (stiffness @ c) == pytest.approx(stiff_form, rel=1e-12)

    def test_smallest_sphere_eigenvalues(self):
        # Laplace-Beltrami spectrum of the unit sphere: 0, then 2 with
        # multiplicity 3; generalized eigensolve as independent oracle
        m = icosphere(4)
        mass, stiffness = assemble(m)
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
            e2, e1 = errors_vs_exact(m, problem.surface, u_h, problem.u,
                                     problem.grad_u, 0.0)
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
        x, iters = jacobi_cg(a, rhs, rtol=1e-12)
        assert iters > 0
        np.testing.assert_allclose(x, np.linalg.solve(a, rhs), atol=1e-8)

    def test_zero_rhs_short_circuits(self):
        x, iters = jacobi_cg(self.spd(5), np.zeros(5))
        assert iters == 0
        np.testing.assert_array_equal(x, 0.0)

    def test_exact_warm_start(self):
        a = self.spd(8)
        x_exact = RNG.standard_normal(8)
        x, iters = jacobi_cg(a, a @ x_exact, x0=x_exact)
        assert iters == 0
        np.testing.assert_array_equal(x, x_exact)

    def test_iteration_cap_raises(self):
        a = self.spd(40)
        with pytest.raises(SolverDivergence):
            jacobi_cg(a, RNG.standard_normal(40), rtol=1e-14, max_iter=2)

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

    def test_nonfinite_start_vector_fails_at_first_residual(self):
        x0 = np.zeros(10)
        x0[0] = np.nan
        with pytest.raises(NonFiniteValue, match="after 0 iterations"):
            jacobi_cg(self.spd(10), RNG.standard_normal(10), x0=x0)

    def test_sparse_system(self):
        m = icosphere(2)
        mass, stiffness = assemble(m)
        system = (mass + 0.1 * stiffness).tocsr()
        rhs = RNG.standard_normal(m.n_nodes)
        x, _ = jacobi_cg(system, rhs, rtol=1e-12)
        oracle = scipy.sparse.linalg.spsolve(system.tocsc(), rhs)
        np.testing.assert_allclose(x, oracle, atol=1e-9)


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
        system = (mass + tau * stiffness).tocsc()
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
        with pytest.raises(ValueError):
            backward_euler_step(mass, stiffness, u0, u0, tau=0.0)


class TestLiftedNorms:
    def test_known_surface_norm(self):
        # closed form on the unit sphere for the product of two coordinates
        m = icosphere(4)
        u = interpolate(m, lambda x: x[:, 0] * x[:, 1])
        norm = lifted_l2_norm(m, unit_sphere(), u)
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
                ratios.append(lifted_l2_norm(m, surface, u)
                              / flat_l2_norm(mass, u))
            ratios = np.array(ratios)
            assert ((ratios > 0.9) & (ratios < 1.1)).all()
            worst.append(np.abs(ratios - 1.0).max())
        assert worst[-1] < worst[0]

    def test_constant_has_zero_error(self):
        m = icosphere(2)
        u_h = interpolate(m, lambda x: np.full(len(x), 2.0))
        l2, h1 = errors_vs_exact(
            m, unit_sphere(), u_h,
            lambda y, t: np.full(y.shape[:-1], 2.0),
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
        u = FeFunction.on_mesh(m, np.full(m.n_nodes, 4.0))
        assert flat_h1_seminorm(stiffness, u) < 1e-6

    def test_lifted_quadrature_is_cached_per_surface(self):
        m = icosphere(2)
        surface = unit_sphere()
        u = interpolate(m, lambda x: x[:, 0])
        first = lifted_l2_norm(m, surface, u)
        evaluator = ErrorEvaluator(m, surface)
        assert len(m._lifted) == 1
        assert lifted_l2_norm(m, surface, u) == first
        assert ErrorEvaluator(m, surface)._w is evaluator._w
        lifted_l2_norm(m, unit_sphere(), u)  # a second surface object
        lifted_l2_norm(m, surface, u, rule=QuadratureRule.edge_midpoints())
        assert len(m._lifted) == 3

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
            assert part._adjacency is None
        assert np.sqrt(sum(l2_parts)) == pytest.approx(l2, rel=1e-12)
        assert np.sqrt(sum(h1_parts)) == pytest.approx(h1, rel=1e-12)
        assert np.sqrt(sum(dist_parts)) == pytest.approx(l2, rel=1e-12)
