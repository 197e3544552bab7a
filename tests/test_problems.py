"""Benchmark problems and mesh generators.

The source terms were derived by hand, so they are checked against an
independent finite-difference oracle: on the unit sphere the radial extension
``u(x/|x|)`` turns intrinsic derivatives into ambient ones, which high-order
1D stencils approximate to well below the asserted tolerance.
"""

import numpy as np
import pytest

from surfheat import problems
from surfheat.geometry import TORUS_RADII, torus, unit_sphere
from surfheat.mesh import validate_mesh
from surfheat.problems import (REGISTRY, get_problem, icosahedron, icosphere,
                               moving_peak, red_subdivide, torus_grid,
                               zero_problem)

RNG = np.random.default_rng(62109)

_SECOND = np.array([1.0 / 90.0, -3.0 / 20.0, 3.0 / 2.0, -49.0 / 18.0,
                    3.0 / 2.0, -3.0 / 20.0, 1.0 / 90.0])  # 6th order


def sphere_laplacian_fd(u, x, t, h=5e-4):
    total = 0.0
    for axis in range(3):
        pts = np.repeat(x[None, :], 7, axis=0)
        pts[:, axis] += np.arange(-3, 4) * h
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        total += float(_SECOND @ u(pts, t)) / h ** 2
    return total


def sphere_gradient_fd(u, x, t, h=1e-5):
    g = np.zeros(3)
    for axis in range(3):
        pts = np.repeat(x[None, :], 4, axis=0)
        pts[:, axis] += np.array([2 * h, h, -h, -2 * h])
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        f2, f1, g1, g2 = u(pts, t)
        g[axis] = (-f2 + 8.0 * f1 - 8.0 * g1 + g2) / (12.0 * h)
    return g


def time_derivative_fd(u, x, t, k=1e-4):
    xs = x[None, :]
    stencil = (-u(xs, t + 2 * k) + 8.0 * u(xs, t + k)
               - 8.0 * u(xs, t - k) + u(xs, t - 2 * k))
    return float(stencil[0]) / (12.0 * k)


def random_sphere_points(n):
    p = RNG.standard_normal((n, 3))
    return p / np.linalg.norm(p, axis=1, keepdims=True)


EXACT_PROBLEMS = ["sphere-decay", "moving-peak", "moving-peak-timing"]


class TestConsistency:
    @pytest.mark.parametrize("name", EXACT_PROBLEMS)
    def test_source_matches_pde(self, name):
        problem = get_problem(name)
        points = random_sphere_points(100)
        times = RNG.uniform(0.05, problem.t_end, 100)
        for x, t in zip(points, times):
            residual = (time_derivative_fd(problem.u, x, t)
                        - sphere_laplacian_fd(problem.u, x, t)
                        - float(problem.f(x[None, :], t)[0]))
            assert abs(residual) < 1e-6, (x, t)

    @pytest.mark.parametrize("name", EXACT_PROBLEMS)
    def test_gradient_is_tangential_and_correct(self, name):
        problem = get_problem(name)
        points = random_sphere_points(30)
        times = RNG.uniform(0.05, problem.t_end, 30)
        for x, t in zip(points, times):
            g = problem.grad_u(x[None, :], t)[0]
            assert abs(g @ x) < 1e-10
            np.testing.assert_allclose(g, sphere_gradient_fd(problem.u, x, t),
                                       atol=1e-7)

    @pytest.mark.parametrize("name", EXACT_PROBLEMS)
    def test_initial_condition_is_u_at_zero(self, name):
        problem = get_problem(name)
        pts = random_sphere_points(20)
        np.testing.assert_allclose(problem.u0(pts), problem.u(pts, 0.0),
                                   atol=1e-15)

    def test_moving_peak_vanishes_at_t_peak(self):
        problem = get_problem("moving-peak")
        pts = random_sphere_points(10)
        assert np.abs(problem.u(pts, 0.5)).max() < 1e-12
        # at t = 0 the bump is centred at (1, 0, 0)
        pts = np.vstack([[1.0, 0.0, 0.0], random_sphere_points(200)])
        assert np.argmax(problem.u(pts, 0.0)) == 0

    def test_zero_problem(self):
        problem = zero_problem()
        pts = random_sphere_points(5)
        assert (problem.u(pts, 0.3) == 0.0).all()
        assert (problem.f(pts, 0.3) == 0.0).all()
        assert not np.any(problem.grad_u(pts, 0.1))

    def test_registry_lookup(self):
        for name in REGISTRY:
            assert get_problem(name).name == name
        with pytest.raises(ValueError, match="unknown problem"):
            get_problem("does-not-exist")


def unique_subdivide(nodes, triangles):
    """Reference ``red_subdivide``: edge ids from its own ``np.unique`` over
    the keys ``lo * N + hi``."""
    tri = np.asarray(triangles, dtype=np.int64)
    n = len(nodes)
    a, b = tri.ravel(), tri[:, [1, 2, 0]].ravel()
    key = np.minimum(a, b) * np.int64(n) + np.maximum(a, b)
    uniq, inverse = np.unique(key, return_inverse=True)
    mids = 0.5 * (nodes[uniq // n] + nodes[uniq % n])
    m = (n + inverse).reshape(-1, 3)
    v0, v1, v2 = tri.T
    m0, m1, m2 = m.T
    children = np.stack([np.stack(c, axis=1) for c in (
        (v0, m0, m2), (m0, v1, m1), (m2, m1, v2), (m1, m2, m0))], axis=1)
    return np.vstack([nodes, mids]), children.reshape(-1, 3)


class TestIcosphere:
    @pytest.mark.parametrize("level", range(6))
    def test_matches_unique_edge_numbering(self, level, monkeypatch):
        mesh = icosphere(level)
        monkeypatch.setattr(problems, "red_subdivide", unique_subdivide)
        reference = icosphere(level)
        np.testing.assert_array_equal(mesh.nodes, reference.nodes)
        np.testing.assert_array_equal(mesh.triangles, reference.triangles)

    @pytest.mark.parametrize("level,nodes,tris", [
        (0, 12, 20), (1, 42, 80), (2, 162, 320), (3, 642, 1280)])
    def test_counts(self, level, nodes, tris):
        m = icosphere(level)
        assert m.n_nodes == nodes == 10 * 4 ** level + 2
        assert m.n_triangles == tris

    def test_nodes_on_unit_sphere(self):
        m = icosphere(3)
        np.testing.assert_allclose(np.linalg.norm(m.nodes, axis=1), 1.0,
                                   atol=1e-12)
        validate_mesh(m, unit_sphere())

    def test_mesh_size_halves(self):
        hs = [icosphere(level).metrics.h for level in range(1, 7)]
        ratios = np.array(hs[1:]) / np.array(hs[:-1])
        # the coarsest pair comes out at 0.5257: projecting the midpoints of
        # a very coarse mesh onto the sphere lengthens the sub-chords
        assert ratios[0] < 0.53
        assert ((ratios[1:] > 0.48) & (ratios[1:] < 0.52)).all()

    def test_shape_regularity_stable(self):
        rhos = [icosphere(level).metrics.rho for level in range(1, 6)]
        assert max(rhos) / min(rhos) < 1.05

    def test_oriented_outward(self):
        m = icosphere(2)
        centroids = m.nodes[m.triangles].mean(axis=1)
        assert (np.einsum("ij,ij->i", m.metrics.normal, centroids) > 0).all()

    def test_ready_for_refinement(self):
        m = icosphere(1)
        assert m.refedge_ready
        assert len(m.genealogy) == 0
        assert m.strategy is None

    def test_negative_level(self):
        with pytest.raises(ValueError):
            icosphere(-1)

    def test_pre_lift_distance_order(self):
        # flat midpoint subdivision leaves new nodes off the sphere by h^2
        surface = unit_sphere()
        hs, sags = [], []
        for level in range(2, 6):
            coarse = icosphere(level - 1)
            nodes, _ = red_subdivide(coarse.nodes, coarse.triangles)
            sags.append(np.abs(surface.distance(nodes)).max())
            hs.append(coarse.metrics.h)
        slope = np.polyfit(np.log(hs), np.log(sags), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.3)

    def test_icosahedron_unit_circumradius(self):
        m = icosahedron()
        np.testing.assert_allclose(np.linalg.norm(m.nodes, axis=1), 1.0,
                                   atol=1e-14)


class TestTorusGrid:
    def test_counts_and_topology(self):
        m = torus_grid(6)
        assert m.n_nodes == 6 * 24
        assert m.n_triangles == 2 * 6 * 24
        assert m.euler_characteristic() == 0

    def test_nodes_exactly_on_torus(self):
        m = torus_grid(8)
        d = torus().distance(m.nodes)
        assert np.abs(d).max() < 1e-12
        validate_mesh(m, torus())

    def test_oriented_outward_from_tube(self):
        m = torus_grid(8)
        centroids = m.nodes[m.triangles].mean(axis=1)
        theta = np.arctan2(centroids[:, 1], centroids[:, 0])
        axis_point = TORUS_RADII[0] * np.stack(
            [np.cos(theta), np.sin(theta), np.zeros_like(theta)], axis=1)
        outward = centroids - axis_point
        assert (np.einsum("ij,ij->i", m.metrics.normal, outward) > 0).all()

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            torus_grid(2)

    def test_ready_for_refinement(self):
        assert torus_grid(4).refedge_ready
