"""Indicator oracles: brute-force edge/element sums, matrix identities,
exact scaling laws, and transfer invariance of the temporal term."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from surfheat import estimator
from surfheat.errors import GenerationMismatch
from surfheat.fem import FeFunction, assemble, basis_gradients, p1_operators
from surfheat.geometry import unit_sphere
from surfheat.mesh import (SurfaceMesh, _compute_edge_geometry,
                           conormal_flux_jumps, half_edge_pairs)
from surfheat.problems import icosphere, torus_grid
from surfheat.refinement import (coarsen, init_reference_edges,
                                 lift_new_nodes, mark_coarsen, refine,
                                 transfer)


def all_marks(mesh):
    return np.arange(mesh.n_triangles)


def pyramid():
    """Closed square-base pyramid: five nodes, six outward-oriented faces."""
    nodes = np.array([
        [1.0, 1.0, 0.0],
        [-1.0, 1.0, 0.0],
        [-1.0, -1.0, 0.0],
        [1.0, -1.0, 0.0],
        [0.0, 0.0, 1.0],
    ])
    tris = np.array([
        [0, 1, 4],
        [1, 2, 4],
        [2, 3, 4],
        [3, 0, 4],
        [0, 2, 1],
        [0, 3, 2],
    ])
    return SurfaceMesh(nodes, tris)


def fe(mesh, values):
    return FeFunction.on_mesh(mesh, np.asarray(values, dtype=float))


def element_gradients(mesh, u):
    """Tangential gradient of ``u`` on every triangle, shape (M, 3)."""
    return np.einsum("mi,mij->mj", u.coefficients[mesh.triangles],
                     basis_gradients(mesh))


def increment_indicators(mesh, u_n, u_prev):
    """The one pass with no source and tau = 1: its temporal and coarsening
    parts read neither."""
    zero = fe(mesh, np.zeros(mesh.n_nodes))
    return estimator.compute_indicators(mesh, u_n, u_prev, zero, 1.0)


def brute_force_spatial(mesh, u_n, u_prev, f_h, tau):
    """Plain-Python re-derivation of the squared spatial indicator."""
    nodes, tris = mesh.nodes, mesh.triangles
    grads = []
    for t in range(len(tris)):
        p0, p1, p2 = nodes[tris[t]]
        normal = np.cross(p1 - p0, p2 - p0)
        system = np.array([p1 - p0, p2 - p0, normal])
        rhs = np.array([u_n[tris[t, 1]] - u_n[tris[t, 0]],
                        u_n[tris[t, 2]] - u_n[tris[t, 0]], 0.0])
        grads.append(np.linalg.solve(system, rhs))

    def conormal(t, a, b):
        corners = list(tris[t])
        (c,) = [v for v in corners if v not in (a, b)]
        mid = 0.5 * (nodes[a] + nodes[b])
        e_hat = nodes[b] - nodes[a]
        e_hat = e_hat / np.linalg.norm(e_hat)
        w = mid - nodes[c]
        w = w - (w @ e_hat) * e_hat
        return w / np.linalg.norm(w)

    edge_total = 0.0
    seen = {}
    for t in range(len(tris)):
        for k in range(3):
            a, b = tris[t, k], tris[t, (k + 1) % 3]
            seen.setdefault((min(a, b), max(a, b)), []).append(t)
    for (a, b), (t1, t2) in seen.items():
        jump = conormal(t1, a, b) @ grads[t1] + conormal(t2, a, b) @ grads[t2]
        h_s = np.linalg.norm(nodes[b] - nodes[a])
        edge_total += h_s ** 2 * jump ** 2

    elem_total = 0.0
    r = (u_n - u_prev) / tau - f_h
    for t in range(len(tris)):
        p0, p1, p2 = nodes[tris[t]]
        area = 0.5 * np.linalg.norm(np.cross(p1 - p0, p2 - p0))
        h_t = max(np.linalg.norm(p1 - p0), np.linalg.norm(p2 - p1),
                  np.linalg.norm(p0 - p2))
        v = r[tris[t]]
        midpoint_sq = sum(((v[i] + v[(i + 1) % 3]) / 2.0) ** 2
                          for i in range(3))
        elem_total += h_t ** 2 * area / 3.0 * midpoint_sq
    return elem_total + edge_total


class TestSpatial:
    def test_zero_for_flat_steady_state(self):
        mesh = icosphere(2)
        u = fe(mesh, np.ones(mesh.n_nodes))
        zero = fe(mesh, np.zeros(mesh.n_nodes))
        ind = estimator.compute_indicators(mesh, u, u, zero, 0.25)
        per, total = ind.spatial_sq, ind.eta_h_sq
        # The gradient of a nodally constant function is zero only up to
        # rounding, so the squared indicator sits at the epsilon**2 floor.
        assert total < 1e-24
        assert per.max() < 1e-26

    def test_matches_brute_force_on_pyramid(self):
        mesh = pyramid()
        u_n = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
        u_prev = np.zeros(5)
        f_h = np.zeros(5)
        ind = estimator.compute_indicators(
            mesh, fe(mesh, u_n), fe(mesh, u_prev), fe(mesh, f_h), 1.0)
        per, total = ind.spatial_sq, ind.eta_h_sq
        expected = brute_force_spatial(mesh, u_n, u_prev, f_h, 1.0)
        npt.assert_allclose(total, expected, rtol=1e-12)
        npt.assert_allclose(per.sum(), total, rtol=1e-12)

    def test_matches_brute_force_random(self):
        mesh = icosphere(1)
        rng = np.random.default_rng(7)
        u_n = rng.standard_normal(mesh.n_nodes)
        u_prev = rng.standard_normal(mesh.n_nodes)
        f_h = rng.standard_normal(mesh.n_nodes)
        tau = 0.37
        total = estimator.compute_indicators(
            mesh, fe(mesh, u_n), fe(mesh, u_prev), fe(mesh, f_h), tau).eta_h_sq
        expected = brute_force_spatial(mesh, u_n, u_prev, f_h, tau)
        npt.assert_allclose(total, expected, rtol=1e-11)

    def test_scaling_is_quadratic(self):
        mesh = icosphere(1)
        rng = np.random.default_rng(8)
        u_n = rng.standard_normal(mesh.n_nodes)
        u_prev = rng.standard_normal(mesh.n_nodes)
        f_h = rng.standard_normal(mesh.n_nodes)
        ind = estimator.compute_indicators(
            mesh, fe(mesh, u_n), fe(mesh, u_prev), fe(mesh, f_h), 0.5)
        lam = 3.5
        ind2 = estimator.compute_indicators(
            mesh, fe(mesh, lam * u_n), fe(mesh, lam * u_prev),
            fe(mesh, lam * f_h), 0.5)
        per, total, per2, total2 = (ind.spatial_sq, ind.eta_h_sq,
                                    ind2.spatial_sq, ind2.eta_h_sq)
        npt.assert_allclose(per2, lam ** 2 * per, rtol=1e-12)
        npt.assert_allclose(total2, lam ** 2 * total, rtol=1e-12)

    def test_rejects_nonpositive_tau(self):
        mesh = pyramid()
        u = fe(mesh, np.zeros(5))
        # unrefused, NaN would give eta_h_sq = nan and inf finite values
        for tau in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match=rf"^tau must be positive "
                                                 rf"and finite, got {tau}$"):
                estimator.compute_indicators(mesh, u, u, u, tau)

    def test_rejects_stale_function(self):
        mesh = init_reference_edges(pyramid())
        u = fe(mesh, np.zeros(5))
        fine, _ = refine(mesh, all_marks(mesh), "nvb")
        with pytest.raises(GenerationMismatch):
            estimator.compute_indicators(fine, u, u, u, 1.0)


class TestTemporal:
    def test_matrix_identity(self):
        # The squared temporal indicator of w is exactly w' (M + A) w.
        for mesh in (pyramid(), icosphere(2)):
            mass, stiffness = assemble(mesh)
            rng = np.random.default_rng(11)
            w = rng.standard_normal(mesh.n_nodes)
            u_prev = rng.standard_normal(mesh.n_nodes)
            total = increment_indicators(
                mesh, fe(mesh, u_prev + w), fe(mesh, u_prev)).eta_tau_sq
            expected = w @ (mass @ w) + w @ (stiffness @ w)
            npt.assert_allclose(total, expected, rtol=1e-12)

    def test_constant_increment(self):
        mesh = icosphere(2)
        c = 0.6
        u_prev = fe(mesh, np.full(mesh.n_nodes, 0.2))
        u_n = fe(mesh, np.full(mesh.n_nodes, 0.2 + c))
        ind = increment_indicators(mesh, u_n, u_prev)
        per, total = ind.temporal_sq, ind.eta_tau_sq
        npt.assert_allclose(per, c ** 2 * mesh.metrics.area, rtol=1e-12)
        npt.assert_allclose(total, c ** 2 * mesh.metrics.area.sum(),
                            rtol=1e-12)

    def test_invariant_under_uniform_refinement(self):
        # Refining every element and transferring reproduces the same
        # piecewise-linear function on the same polyhedron, so the temporal
        # indicator must not move.  (No node lifting here on purpose.)
        mesh = icosphere(2)
        rng = np.random.default_rng(12)
        u_n = fe(mesh, rng.standard_normal(mesh.n_nodes))
        u_prev = fe(mesh, rng.standard_normal(mesh.n_nodes))
        before = increment_indicators(mesh, u_n, u_prev).eta_tau_sq
        fine, tmap = refine(mesh, all_marks(mesh), "nvb")
        after = increment_indicators(
            fine, transfer(u_n, tmap), transfer(u_prev, tmap)).eta_tau_sq
        npt.assert_allclose(after, before, rtol=1e-12)


class TestCoarsening:
    def test_is_l2_part_of_temporal(self):
        mesh = icosphere(2)
        rng = np.random.default_rng(13)
        u_n = fe(mesh, rng.standard_normal(mesh.n_nodes))
        u_prev = fe(mesh, rng.standard_normal(mesh.n_nodes))
        c_per, c_total = estimator.coarsening_indicator(mesh, u_n, u_prev)
        ind = increment_indicators(mesh, u_n, u_prev)
        t_per, t_total = ind.temporal_sq, ind.eta_tau_sq
        assert np.all(c_per <= t_per + 1e-15)
        assert c_total <= t_total
        mass, _ = assemble(mesh)
        w = u_n.coefficients - u_prev.coefficients
        npt.assert_allclose(c_total, w @ (mass @ w), rtol=1e-12)


class TestCombined:
    def test_arithmetic_examples(self):
        assert estimator.combined(0.0, 0.0, 3.0, 7.0) == 0.0
        npt.assert_allclose(estimator.combined(1.0, 0.0, 4.0, 0.0), 2.0,
                            rtol=1e-15)
        npt.assert_allclose(estimator.combined(3.0, 4.0, 1.0, 1.0), 10.0,
                            rtol=1e-15)

    def test_rejects_negative_inputs(self):
        # NaN and infinity too: "x < 0" is False for NaN, and an infinity
        # would reach the temporal gate
        for k, name in enumerate(("eta_h", "eta_tau", "tau", "h")):
            for bad in (-1.0, np.nan, np.inf):
                args = [1.0, 1.0, 0.1, 0.1]
                args[k] = bad
                with pytest.raises(ValueError, match=rf"^{name} must be "
                                   rf"nonnegative and finite, got {bad}$"):
                    estimator.combined(*args)


class TestBundle:
    def test_fields_are_consistent(self):
        mesh = icosphere(2)
        rng = np.random.default_rng(14)
        u_n = fe(mesh, rng.standard_normal(mesh.n_nodes))
        u_prev = fe(mesh, rng.standard_normal(mesh.n_nodes))
        f_h = fe(mesh, rng.standard_normal(mesh.n_nodes))
        tau = 0.125
        ind = estimator.compute_indicators(mesh, u_n, u_prev, f_h, tau)
        npt.assert_allclose(ind.eta_h_sq, ind.spatial_sq.sum(), rtol=1e-12)
        npt.assert_allclose(ind.eta_tau_sq, ind.temporal_sq.sum(),
                            rtol=1e-12)
        npt.assert_allclose(ind.eta_c_sq, ind.coarsening_sq.sum(),
                            rtol=1e-12)
        expected = estimator.combined(np.sqrt(ind.eta_h_sq),
                                      np.sqrt(ind.eta_tau_sq), tau,
                                      mesh.metrics.h)
        npt.assert_allclose(ind.eta_combined, expected, rtol=1e-15)
        assert ind._fields == ("spatial_sq", "temporal_sq", "coarsening_sq",
                               "eta_h_sq", "eta_tau_sq", "eta_c_sq",
                               "eta_combined")

    def test_matches_standalone_calls(self):
        mesh = icosphere(1)
        rng = np.random.default_rng(15)
        u_n = fe(mesh, rng.standard_normal(mesh.n_nodes))
        u_prev = fe(mesh, rng.standard_normal(mesh.n_nodes))
        f_h = fe(mesh, rng.standard_normal(mesh.n_nodes))
        ind = estimator.compute_indicators(mesh, u_n, u_prev, f_h, 0.25)
        npt.assert_array_equal(
            ind.coarsening_sq,
            estimator.coarsening_indicator(mesh, u_n, u_prev)[0])


# ------------------------------------------------------- one-pass oracles

def reference_indicators(mesh, u_n, u_prev, f_h, tau):
    """The per-indicator formulas the one-pass evaluation replaced: element
    gradients from ``basis_gradients``, flux jumps from the
    ``_compute_edge_geometry`` co-normals, each indicator computed on its
    own."""
    tri, met = mesh.triangles, mesh.metrics
    G = basis_gradients(mesh)

    def l2_sq(values):
        v = values[tri]
        return met.area / 12.0 * (v.sum(axis=1) ** 2 + (v ** 2).sum(axis=1))

    def gradients(values):
        return np.einsum("mi,mij->mj", values[tri], G)

    jumps = conormal_flux_jumps(mesh, gradients(u_n))
    edge_sq = _compute_edge_geometry(mesh).length ** 2 * jumps ** 2
    w = u_n - u_prev
    spatial = (met.h_T ** 2 * l2_sq(w / tau - f_h)
               + 0.5 * edge_sq[mesh.tri_edges].sum(axis=1))
    g = gradients(w)
    temporal = l2_sq(w) + met.area * np.einsum("mi,mi->m", g, g)
    return spatial, temporal, l2_sq(w)


def out_of_place_indicators(mesh, u_n, u_prev, f_h, tau):
    """Reference: ``compute_indicators`` with each (3, M) intermediate a new
    array, ``(spatial_sq, temporal_sq, coarsening_sq)``."""
    cot = p1_operators(mesh).cot
    w = (u_n - u_prev)[mesh.triangles.T]
    coarsening = estimator._corner_l2_sq(mesh.metrics.area, w.copy())
    d = w[[1, 2, 0]] - w
    d *= d
    d *= cot
    temporal = coarsening + (d[0] + d[1] + d[2])
    w /= tau
    w -= f_h[mesh.triangles.T]
    u = u_n[mesh.triangles.T]
    c = cot * (u[[1, 2, 0]] - u)
    flux = 2.0 * (c[[2, 0, 1]] - c[[1, 2, 0]])
    jumps = np.bincount(mesh.tri_edges.T.ravel(), flux.ravel(),
                        minlength=mesh.n_edges)
    jumps *= jumps
    edge_sq = jumps[mesh.tri_edges.T]
    met = mesh.metrics
    spatial = (met.h_T ** 2 * estimator._corner_l2_sq(met.area, w)
               + 0.5 * (edge_sq[0] + edge_sq[1] + edge_sq[2]))
    return spatial, temporal, coarsening


def reference_jump(mesh):
    """Reference edge operators ``(jump, half_incidence)`` built from the
    half-edge sort: every edge row holds the block rows of the vertex
    opposite it in the triangles of its two half-edges."""
    tri, m, n = mesh.triangles, mesh.n_triangles, mesh.n_nodes
    g = basis_gradients(mesh).transpose(2, 1, 0)
    blocks = np.einsum("kit,kjt->tij", g, g)
    blocks *= mesh.metrics.area[:, None, None]
    et, el = np.divmod(half_edge_pairs(mesh.tri_edges), 3)
    opposite = (el + 2) % 3
    rows = np.take(blocks.reshape(-1, 3), 3 * et + opposite, axis=0)
    n_edges = len(et)
    jump = sp.csr_array(
        ((-2.0 * rows).ravel(), np.take(tri, et, axis=0).ravel(),
         np.arange(0, 6 * n_edges + 1, 6)), shape=(n_edges, n))
    half_incidence = sp.csr_array(
        (np.full(3 * m, 0.5), mesh.tri_edges.ravel(),
         np.arange(0, 3 * m + 1, 3)), shape=(m, n_edges))
    return jump, half_incidence


def graded_sphere():
    """NVB-refined icosphere, graded towards one pole over four rounds."""
    surface = unit_sphere()
    mesh = icosphere(2)
    pole = np.array([0.0, 0.0, 1.0])
    for round_ in range(4):
        centroids = mesh.nodes[mesh.triangles].mean(axis=1)
        near = np.flatnonzero(centroids @ pole > 0.6 + 0.1 * round_)
        refined, _ = refine(mesh, near, "nvb")
        mesh = lift_new_nodes(refined, surface)
    return mesh


class TestOnePass:
    @pytest.mark.parametrize("make", [graded_sphere, lambda: torus_grid(12)],
                             ids=["graded-sphere", "torus"])
    def test_matches_per_indicator_formulas(self, make):
        mesh = make()
        rng = np.random.default_rng(16)
        u_n, u_prev, f_h = rng.standard_normal((3, mesh.n_nodes))
        tau = 0.03
        ind = estimator.compute_indicators(mesh, fe(mesh, u_n),
                                           fe(mesh, u_prev), fe(mesh, f_h),
                                           tau)
        spatial, temporal, coarsening = reference_indicators(
            mesh, u_n, u_prev, f_h, tau)
        npt.assert_allclose(ind.spatial_sq, spatial, rtol=1e-12)
        npt.assert_allclose(ind.temporal_sq, temporal, rtol=1e-12)
        npt.assert_allclose(ind.coarsening_sq, coarsening, rtol=1e-12)
        npt.assert_allclose(ind.eta_h_sq, spatial.sum(), rtol=1e-12)

    @pytest.mark.parametrize("make", [graded_sphere, lambda: torus_grid(12)],
                             ids=["graded-sphere", "torus"])
    def test_in_place_pass_equals_the_out_of_place_expressions(self, make):
        mesh = make()
        rng = np.random.default_rng(23)
        u_n, u_prev, f_h = rng.standard_normal((3, mesh.n_nodes))
        for tau in (0.03, 1.0):
            ind = estimator.compute_indicators(mesh, fe(mesh, u_n),
                                               fe(mesh, u_prev),
                                               fe(mesh, f_h), tau)
            expected = out_of_place_indicators(mesh, u_n, u_prev, f_h, tau)
            for got, want in zip(ind, expected):
                assert got.tobytes() == want.tobytes()
            assert ind.eta_h_sq == float(expected[0].sum())
            assert ind.eta_tau_sq == float(expected[1].sum())

    def test_pass_keeps_at_most_three_corner_row_arrays(self):
        # three (3, M) arrays at a time plus per-element and per-edge
        # vectors stay below four (3, M) arrays beyond the returned
        # indicators
        mesh = icosphere(5)
        p1_operators(mesh), mesh.metrics, mesh.tri_edges  # cached first
        rng = np.random.default_rng(29)
        u_n, u_prev, f_h = (fe(mesh, v) for v in
                            rng.standard_normal((3, mesh.n_nodes)))
        tracemalloc.start()
        try:
            estimator.compute_indicators(mesh, u_n, u_prev, f_h, 0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        m = mesh.n_triangles
        assert peak - 3 * 8 * m < 4 * 3 * 8 * m  # outputs, then 1.97 MB

    @pytest.mark.parametrize("make", [graded_sphere, lambda: torus_grid(12)],
                             ids=["graded-sphere", "torus"])
    def test_jump_operator_identity(self, make):
        mesh = make()
        u = fe(mesh, np.random.default_rng(17).standard_normal(mesh.n_nodes))
        grads = element_gradients(mesh, u)
        expected = (_compute_edge_geometry(mesh).length
                    * conormal_flux_jumps(mesh, grads))
        npt.assert_allclose(estimator.edge_jumps(mesh, u.coefficients),
                            expected, atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("make", [graded_sphere, lambda: torus_grid(12)],
                             ids=["graded-sphere", "torus"])
    def test_edge_operators_match_adjacency_reference(self, make):
        mesh = make()
        rng = np.random.default_rng(19)
        u_n, u_prev, f_h = rng.standard_normal((3, mesh.n_nodes))
        tau = 0.07
        ind = estimator.compute_indicators(mesh, fe(mesh, u_n),
                                           fe(mesh, u_prev), fe(mesh, f_h),
                                           tau)
        jump, half_incidence = reference_jump(mesh)
        r = (u_n - u_prev) / tau - f_h
        v = r[mesh.triangles]
        met = mesh.metrics
        expected = (met.h_T ** 2 * met.area / 12.0
                    * (v.sum(axis=1) ** 2 + (v ** 2).sum(axis=1))
                    + half_incidence @ (jump @ u_n) ** 2)
        npt.assert_allclose(ind.spatial_sq, expected, rtol=1e-12)

    def test_coarsening_only_mesh_builds_no_operators(self):
        mesh = init_reference_edges(icosphere(1))
        fine, tmap = refine(mesh, all_marks(mesh), "nvb")
        fine = lift_new_nodes(fine, unit_sphere())
        rng = np.random.default_rng(18)
        u_n = fe(fine, rng.standard_normal(fine.n_nodes))
        u_prev = fe(fine, rng.standard_normal(fine.n_nodes))
        per, _ = estimator.coarsening_indicator(fine, u_n, u_prev)
        marks = mark_coarsen(np.sqrt(per), 0.5)
        coarse, (c_n, c_prev), removed = coarsen(fine, marks, [u_n, u_prev])
        assert removed > 0
        estimator.coarsening_indicator(coarse, c_n, c_prev)
        assert fine._operators is None
        assert coarse._operators is None

    def test_lifted_mesh_has_its_own_gradients(self):
        mesh = init_reference_edges(icosphere(1))
        refined, _ = refine(mesh, all_marks(mesh), "nvb")
        before = p1_operators(refined).cot
        lifted = lift_new_nodes(refined, unit_sphere())
        after = p1_operators(lifted).cot
        assert lifted._operators is not refined._operators
        assert not np.allclose(before, after)
        # half the cotangent opposite edge j is -|T| grad(phi_j).grad(phi_j+1)
        G = basis_gradients(lifted)
        expected = -lifted.metrics.area * np.einsum(
            "tjk,tjk->jt", G, G[:, [1, 2, 0]])
        npt.assert_allclose(after, expected, rtol=1e-12, atol=1e-14)

    def test_operators_are_built_once(self):
        mesh = icosphere(2)
        first = assemble(mesh)
        u = fe(mesh, np.ones(mesh.n_nodes))
        ops = p1_operators(mesh)
        assert ops._fields == ("mass", "stiffness", "cot")
        estimator.compute_indicators(mesh, u, u, u, 0.5)
        assert p1_operators(mesh) is ops
        assert ops.mass is first[0] and ops.stiffness is first[1]
        assert assemble(mesh)[0] is first[0]
