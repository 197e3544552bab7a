"""Mesh data structure: adjacency, metrics, co-normal jumps, VTK output."""

import numpy as np
import pytest

from surfheat import fem
from surfheat.errors import (DegenerateTriangle, InconsistentOrientation,
                             NonFiniteValue, NonManifold)
from surfheat.mesh import (HalfEdges, SurfaceMesh, _compute_edge_geometry,
                           build_adjacency, conormal_flux_jumps,
                           element_metrics, half_edge_pairs, validate_mesh,
                           write_vtk)
from surfheat.problems import icosahedron, icosphere, torus_grid
from surfheat.refinement import coarsen
from test_estimator import element_gradients, graded_sphere
from topology import euler_characteristic

RNG = np.random.default_rng(20240811)


def tetrahedron():
    nodes = np.array([(1.0, 1.0, 1.0), (1.0, -1.0, -1.0),
                      (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0)]) / np.sqrt(3.0)
    tris = np.array([(0, 1, 2), (0, 3, 1), (0, 2, 3), (1, 3, 2)])
    p = nodes[tris]
    normal = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    assert (np.einsum("ij,ij->i", normal, p.mean(axis=1)) > 0).all()
    return SurfaceMesh(nodes, tris)


def edge_incidence(mesh):
    """``(edge_tris, edge_local)`` (E, 2) of a closed mesh: the triangle and
    local edge of each edge's two half-edges, the smaller first, the order
    of the co-normal columns of ``_compute_edge_geometry``."""
    return np.divmod(half_edge_pairs(mesh.tri_edges), 3)


def half_edge_forward(triangles):
    """(3M,) whether each half-edge ``3 t + j`` runs from the smaller node
    id to the larger."""
    return (triangles < np.roll(triangles, -1, axis=1)).ravel()


def conormal_flux_jump(mesh, edge, grad_t1, grad_t2):
    """Reference: co-normal flux jump of a P1 function across one edge.

    ``grad_t1``/``grad_t2`` are the constant tangential gradients on the two
    triangles adjacent to ``edge`` (in ``edge_incidence`` order).  Returns the sum
    of the outward co-normal fluxes.
    """
    geom = _compute_edge_geometry(mesh)
    return float(np.dot(grad_t1, geom.conormal[edge, 0])
                 + np.dot(grad_t2, geom.conormal[edge, 1]))


class TestAdjacency:
    def test_tetrahedron_counts(self):
        m = tetrahedron()
        assert m.n_nodes == 4
        assert m.n_triangles == 4
        assert m.n_edges == 6
        assert euler_characteristic(m) == 2

    def test_icosahedron_counts(self):
        m = icosahedron()
        assert m.n_nodes == 12
        assert m.n_triangles == 20
        assert m.n_edges == 30
        assert euler_characteristic(m) == 2

    def test_edge_endpoints_sorted(self):
        m = icosahedron()
        e = m.edges
        assert (e[:, 0] < e[:, 1]).all()
        keys = e[:, 0] * m.n_nodes + e[:, 1]
        assert (np.diff(keys) > 0).all()

    def test_edge_tri_incidence_consistent(self):
        m = icosahedron()
        tri = m.triangles
        edge_tris, edge_local = edge_incidence(m)
        for e in range(m.n_edges):
            endpoints = set(m.edges[e])
            for k in (0, 1):
                t, loc = edge_tris[e, k], edge_local[e, k]
                assert {tri[t, loc], tri[t, (loc + 1) % 3]} == endpoints
        assert (edge_tris[:, 0] != edge_tris[:, 1]).all()

    def test_tri_edges_inverse(self):
        m = icosphere(1)
        edge_tris, _ = edge_incidence(m)
        for t in range(m.n_triangles):
            for loc in range(3):
                e = m.tri_edges[t, loc]
                assert t in edge_tris[e]

    def test_every_edge_traversed_both_ways(self):
        # closed oriented surface: each undirected edge appears once per
        # direction, which is what the check reads off the half-edge sort
        m = tetrahedron()
        forward = half_edge_forward(m.triangles)[half_edge_pairs(m.tri_edges)]
        assert (forward[:, 0] != forward[:, 1]).all()
        assert build_adjacency(m.triangles, m.n_nodes) is None

    def test_nonmanifold_rejected(self):
        m = tetrahedron()
        bad = np.vstack([m.triangles, m.triangles[:1]])
        with pytest.raises(NonManifold):
            build_adjacency(bad, m.n_nodes)

    def test_open_surface_rejected(self):
        m = tetrahedron()
        with pytest.raises(NonManifold):
            build_adjacency(m.triangles[:3], m.n_nodes)

    def test_inconsistent_orientation_rejected(self):
        m = tetrahedron()
        bad = m.triangles.copy()
        bad[0] = bad[0][[0, 2, 1]]
        with pytest.raises(InconsistentOrientation):
            build_adjacency(bad, m.n_nodes)

    def test_deterministic_and_pure(self):
        m = icosphere(1)
        tris = m.triangles.copy()
        assert build_adjacency(m.triangles, m.n_nodes) is None
        first = HalfEdges(m.triangles, m.n_nodes)
        second = HalfEdges(m.triangles, m.n_nodes)
        for name in HalfEdges.__slots__:
            np.testing.assert_array_equal(getattr(first, name),
                                          getattr(second, name))
        np.testing.assert_array_equal(tris, m.triangles)


def two_sort_adjacency(triangles, n_nodes):
    """Reference edge table: ``np.unique`` of the half-edge keys, then a
    stable argsort of its inverse (two sorts of the 3M keys)."""
    tri = np.asarray(triangles, dtype=np.int64)
    m = len(tri)
    a = tri[:, [0, 1, 2]].ravel()
    b = tri[:, [1, 2, 0]].ravel()
    tri_of = np.repeat(np.arange(m, dtype=np.int64), 3)
    local = np.tile(np.arange(3, dtype=np.int64), m)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    _, inverse, counts = np.unique(lo * np.int64(n_nodes) + hi,
                                   return_inverse=True, return_counts=True)
    assert (counts == 2).all()
    order = np.argsort(inverse, kind="stable")
    first, second = order[0::2], order[1::2]
    t1, t2 = tri_of[first], tri_of[second]
    l1, l2 = local[first], local[second]
    f1, f2 = a[first] < b[first], a[second] < b[second]
    assert (f1 != f2).all()
    swap = t2 < t1
    edge_tris = np.where(swap[:, None], np.stack([t2, t1], axis=1),
                         np.stack([t1, t2], axis=1))
    edge_local = np.where(swap[:, None], np.stack([l2, l1], axis=1),
                          np.stack([l1, l2], axis=1))
    edge_forward = np.where(swap, f2, f1)
    edge_nodes = np.stack([lo[first], hi[first]], axis=1)
    tri_edges = np.empty((m, 3), dtype=np.int64)
    tri_edges[tri_of, local] = inverse
    return edge_nodes, edge_tris, edge_local, edge_forward, tri_edges


class TestOneSortAdjacency:
    @pytest.mark.parametrize("make", [graded_sphere, lambda: torus_grid(12)],
                             ids=["graded-sphere", "torus"])
    def test_matches_two_sort_reference(self, make):
        m = make()
        assert build_adjacency(m.triangles, m.n_nodes) is None
        assert build_adjacency(m.triangles, m.n_nodes, m.half_edges) is None
        he = m.half_edges
        # each edge's two half-edges, the smaller id (so triangle) first
        pair = half_edge_pairs(he.tri_edges)
        edge_tris, edge_local = np.divmod(pair, 3)
        got = (he.edges, edge_tris, edge_local,
               half_edge_forward(m.triangles)[pair[:, 0]], he.tri_edges)
        for a, b in zip(got, two_sort_adjacency(m.triangles, m.n_nodes)):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    def test_adjacency_and_p1_pattern_share_one_sort(self):
        m = icosphere(2)
        he = m.half_edges
        mass, _ = fem.assemble(m)
        assert len(mass.data) == m.n_nodes + 2 * m.n_edges
        assert m.half_edges is he
        assert m.tri_edges is he.tri_edges
        assert m.edges is he.edges

    def test_four_triangles_on_an_edge_is_nonmanifold(self):
        # the sorted keys still come in equal pairs, so only the count check
        # tells this apart from a pair with clashing orientations
        m = tetrahedron()
        with pytest.raises(NonManifold, match="has 4 incident triangles"):
            build_adjacency(np.vstack([m.triangles, m.triangles]), m.n_nodes)


def five_array_record(triangles, n_nodes):
    """Reference: the half-edge record as it held ``order``, ``counts`` and
    ``forward`` beside ``edges`` and ``tri_edges``, one unstable argsort."""
    tri = np.asarray(triangles, dtype=np.int64)
    a, b = tri.ravel(), np.roll(tri, -1, axis=1).ravel()
    forward = a < b
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    key = lo * np.int64(n_nodes) + hi
    order = np.argsort(key)
    key = key[order]
    new_edge = np.empty(len(key) + 1, dtype=bool)
    new_edge[0] = new_edge[-1] = True
    np.not_equal(key[1:], key[:-1], out=new_edge[1:-1])
    start = np.flatnonzero(new_edge)
    counts = np.diff(start)
    first = order[start[:-1]]
    edges = np.stack([lo[first], hi[first]], axis=1)
    edge_of = np.empty(len(key), dtype=np.int64)
    edge_of[order] = np.cumsum(new_edge[:-1], dtype=np.int64) - 1
    return order, counts, edges, edge_of.reshape(tri.shape), forward


def coarsened_sphere():
    mesh = graded_sphere()
    coarse, _, removed = coarsen(mesh, np.arange(mesh.n_triangles), [])
    assert 0 < removed and coarse.genealogy.nchild.size
    return coarse


class TestTwoArrayRecord:
    @pytest.mark.parametrize("make", [
        lambda: icosphere(3), lambda: torus_grid(12), graded_sphere,
        coarsened_sphere], ids=["icosphere", "torus", "refined", "coarsened"])
    def test_derived_arrays_equal_the_five_array_record(self, make):
        m = make()
        he = m.half_edges
        assert HalfEdges.__slots__ == ("edges", "tri_edges")
        assert not hasattr(he, "__dict__")
        order, counts, edges, tri_edges, forward = five_array_record(
            m.triangles, m.n_nodes)
        pairs = half_edge_pairs(he.tri_edges)
        got = (he.edges, he.tri_edges,
               np.bincount(he.tri_edges.ravel(), minlength=m.n_edges),
               half_edge_forward(m.triangles), pairs)
        expected = (edges, tri_edges, counts, forward,
                    np.sort(order.reshape(-1, 2), axis=1))
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()


class TestMetrics:
    def test_equilateral_closed_form(self):
        # embed one equilateral side-1 triangle in a tetrahedron-like shell
        # is unnecessary: metrics need no adjacency
        nodes = np.array([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0),
                          (0.5, np.sqrt(3.0) / 2.0, 0.0)])
        m = SurfaceMesh(nodes, [[0, 1, 2]])
        met = element_metrics(m)
        assert met.h_T[0] == pytest.approx(1.0)
        assert met.area[0] == pytest.approx(np.sqrt(3.0) / 4.0)
        assert met.r_T[0] == pytest.approx(1.0 / (2.0 * np.sqrt(3.0)))
        np.testing.assert_allclose(met.normal[0], [0, 0, 1], atol=1e-15)
        assert met.rho == pytest.approx(2.0 * np.sqrt(3.0))

    def test_right_triangle_closed_form(self):
        nodes = np.array([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)])
        met = element_metrics(SurfaceMesh(nodes, [[0, 1, 2]]))
        assert met.h_T[0] == pytest.approx(np.sqrt(2.0))
        assert met.r_T[0] == pytest.approx((2.0 - np.sqrt(2.0)) / 2.0)
        assert met.area[0] == pytest.approx(0.5)

    def test_degenerate_triangle_raises(self):
        nodes = np.array([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, 0.0, 0.0)])
        with pytest.raises(DegenerateTriangle):
            element_metrics(SurfaceMesh(nodes, [[0, 1, 2]]))

    def test_normals_outward_on_tetrahedron(self):
        m = tetrahedron()
        centroids = m.nodes[m.triangles].mean(axis=1)
        assert (np.einsum("ij,ij->i", m.metrics.normal, centroids) > 0).all()

    def test_total_area_of_icosphere_approaches_sphere(self):
        a2 = m_area(icosphere(2))
        a4 = m_area(icosphere(4))
        exact = 4.0 * np.pi
        assert abs(a4 - exact) < abs(a2 - exact)
        assert a4 == pytest.approx(exact, rel=2e-3)


def m_area(m):
    return float(m.metrics.area.sum())


class TestConormals:
    def test_unit_in_plane_orthogonal(self):
        m = icosahedron()
        geom = _compute_edge_geometry(m)
        edge_tris, _ = edge_incidence(m)
        ev = m.nodes[m.edges[:, 1]] - m.nodes[m.edges[:, 0]]
        for k in (0, 1):
            co = geom.conormal[:, k]
            np.testing.assert_allclose(np.linalg.norm(co, axis=1), 1.0,
                                       atol=1e-13)
            # orthogonal to the edge
            np.testing.assert_allclose(np.einsum("ij,ij->i", co, ev), 0.0,
                                       atol=1e-13)
            # in the triangle plane
            n = m.metrics.normal[edge_tris[:, k]]
            np.testing.assert_allclose(np.einsum("ij,ij->i", co, n), 0.0,
                                       atol=1e-13)

    def test_points_away_from_opposite_vertex(self):
        m = tetrahedron()
        geom = _compute_edge_geometry(m)
        edge_tris, edge_local = edge_incidence(m)
        tri = m.triangles
        for e in range(m.n_edges):
            mid = m.nodes[m.edges[e]].mean(axis=0)
            for k in (0, 1):
                t, loc = edge_tris[e, k], edge_local[e, k]
                opp = m.nodes[tri[t, (loc + 2) % 3]]
                assert np.dot(geom.conormal[e, k], mid - opp) > 0

    def test_edge_lengths(self):
        m = icosahedron()
        expected = np.linalg.norm(m.nodes[m.edges[:, 1]]
                                  - m.nodes[m.edges[:, 0]], axis=1)
        length = _compute_edge_geometry(m).length
        np.testing.assert_allclose(length, expected)
        # icosahedron inscribed in the unit sphere has a single edge length
        np.testing.assert_allclose(length, 4.0 / np.sqrt(
            10.0 + 2.0 * np.sqrt(5.0)), rtol=1e-12)


class TestFluxJumps:
    def test_linear_field_coplanar_pair_zero_jump(self):
        # two coplanar triangles inside a flattened closed shell: the jump of
        # a globally linear function across their shared edge vanishes
        nodes = np.array([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0),
                          (0.0, 1.0, 0.0), (0.5, 0.5, 0.3)])
        tris = np.array([(0, 1, 2), (0, 2, 3), (1, 0, 4), (2, 1, 4),
                         (3, 2, 4), (0, 3, 4)])
        m = SurfaceMesh(nodes, tris)
        coeff = np.array([2.0, -1.0, 0.5])
        u = fem.FeFunction.on_mesh(m, m.nodes @ coeff + 7.0)
        grads = element_gradients(m, u)
        jumps = conormal_flux_jumps(m, grads)
        edge_tris, _ = edge_incidence(m)
        shared = int(np.nonzero((np.sort(edge_tris, axis=1)
                                 == [0, 1]).all(axis=1))[0][0])
        assert abs(jumps[shared]) < 1e-13

    def test_unit_jump_construction(self):
        m = tetrahedron()
        geom = _compute_edge_geometry(m)
        e = 2
        assert conormal_flux_jump(m, e, geom.conormal[e, 0],
                                  np.zeros(3)) == pytest.approx(1.0)
        assert conormal_flux_jump(m, e, np.zeros(3),
                                  geom.conormal[e, 1]) == pytest.approx(1.0)

    def test_vectorized_matches_scalar(self):
        m = icosphere(1)
        u = fem.FeFunction.on_mesh(m, RNG.standard_normal(m.n_nodes))
        grads = element_gradients(m, u)
        jumps = conormal_flux_jumps(m, grads)
        edge_tris, _ = edge_incidence(m)
        for e in range(0, m.n_edges, 7):
            t1, t2 = edge_tris[e]
            assert jumps[e] == pytest.approx(
                conormal_flux_jump(m, e, grads[t1], grads[t2]), abs=1e-13)

    @pytest.mark.parametrize("maker", [tetrahedron, lambda: icosphere(2)])
    def test_nodal_stiffness_identity(self, maker):
        # divergence theorem per element:  (A u)_i = sum over incident edges
        # of (h_S / 2) * jump_S, the P1 analogue of integrating the residual
        # against the hat function of node i
        m = maker()
        u = fem.FeFunction.on_mesh(m, RNG.standard_normal(m.n_nodes))
        _, stiffness = fem.assemble(m)
        grads = element_gradients(m, u)
        jumps = conormal_flux_jumps(m, grads)
        acc = np.zeros(m.n_nodes)
        w = 0.5 * _compute_edge_geometry(m).length * jumps
        np.add.at(acc, m.edges[:, 0], w)
        np.add.at(acc, m.edges[:, 1], w)
        np.testing.assert_allclose(stiffness @ u.coefficients, acc,
                                   atol=1e-12)


class TestValidate:
    def test_good_mesh_passes(self):
        from surfheat.geometry import unit_sphere
        assert validate_mesh(icosphere(1), unit_sphere())

    def test_unreferenced_node(self):
        m = tetrahedron()
        bigger = SurfaceMesh(np.vstack([m.nodes, [[0.0, 0.0, 2.0]]]),
                             m.triangles)
        with pytest.raises(ValueError, match="unreferenced"):
            validate_mesh(bigger)

    def test_off_surface_node(self):
        from surfheat.geometry import unit_sphere
        m = icosahedron()
        shifted = m.with_nodes(m.nodes * 1.001)
        with pytest.raises(ValueError, match="off the surface"):
            validate_mesh(shifted, unit_sphere())
        # the error names the farthest node
        nodes = m.nodes.copy()
        nodes[3] *= 1.0 + 1e-8
        nodes[9] *= 1.0 + 1e-6
        with pytest.raises(ValueError, match=r"^node 9 off the surface by "
                                             r"1e-06 \(tol 1e-10\)$"):
            validate_mesh(m.with_nodes(nodes), unit_sphere())

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_node_named(self, value):
        from surfheat.geometry import unit_sphere
        m = icosphere(2)
        nodes = m.nodes.copy()
        nodes[5, 0] = value
        with pytest.raises(NonFiniteValue,
                           match=rf"^node 5 has a non-finite coordinate: "
                                 rf"\[{value}, "):
            validate_mesh(m.with_nodes(nodes), unit_sphere())

    def test_nan_surface_distance_named(self):
        # a NaN distance is no distance within the tolerance
        from surfheat.geometry import unit_sphere
        m = icosphere(2)
        sphere = unit_sphere()
        nan_at_node_7 = sphere._replace(
            distance=lambda p: np.where((p == m.nodes[7]).all(axis=-1),
                                        np.nan, sphere.distance(p)))
        with pytest.raises(NonFiniteValue,
                           match=r"^surface distance of node 7 is nan$"):
            validate_mesh(m, nan_at_node_7)


class TestGenerations:
    def test_fresh_generation_per_mesh(self):
        a, b = tetrahedron(), tetrahedron()
        assert a.generation != b.generation

    def test_with_nodes_preserves_generation(self):
        m = tetrahedron()
        moved = m.with_nodes(m.nodes * 2.0)
        assert moved.generation == m.generation
        np.testing.assert_array_equal(moved.triangles, m.triangles)


class TestFileIO:
    def test_vtk_snapshot(self, tmp_path):
        m = tetrahedron()
        path = tmp_path / "snap.vtk"
        write_vtk(m, path, point_data=np.arange(4.0), name="u")
        text = path.read_text()
        assert "DATASET POLYDATA" in text
        assert f"POINTS {m.n_nodes} double" in text
        assert "SCALARS u double 1" in text
        # a length mismatch raises before the existing snapshot is touched
        with pytest.raises(ValueError, match="point_data length"):
            write_vtk(m, path, point_data=np.zeros(3))
        assert path.read_text() == text
