"""Mesh data structure: adjacency, metrics, co-normal jumps, file IO."""

import numpy as np
import pytest

from surfheat import fem, mesh as meshmod
from surfheat.errors import (DegenerateTriangle, InconsistentOrientation,
                             NonManifold)
from surfheat.mesh import (SurfaceMesh, _compute_edge_geometry,
                           build_adjacency, conormal_flux_jumps,
                           element_metrics, read_off, validate_mesh, write_off,
                           write_vtk)
from surfheat.problems import icosahedron, icosphere, torus_grid
from test_estimator import element_gradients, graded_sphere

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
    """``(edge_tris, edge_local)`` of a closed mesh, from its half-edge
    sort."""
    return build_adjacency(mesh.triangles, mesh.n_nodes, mesh.half_edges)[1:3]


def conormal_flux_jump(mesh, edge, grad_t1, grad_t2):
    """Reference: co-normal flux jump of a P1 function across one edge.

    ``grad_t1``/``grad_t2`` are the constant tangential gradients on the two
    triangles adjacent to ``edge`` (in ``edge_tris`` order).  Returns the sum
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
        assert m.euler_characteristic() == 2

    def test_icosahedron_counts(self):
        m = icosahedron()
        assert m.n_nodes == 12
        assert m.n_triangles == 20
        assert m.n_edges == 30
        assert m.euler_characteristic() == 2

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
        assert (edge_tris[:, 0] < edge_tris[:, 1]).all()

    def test_tri_edges_inverse(self):
        m = icosphere(1)
        edge_tris, _ = edge_incidence(m)
        for t in range(m.n_triangles):
            for loc in range(3):
                e = m.tri_edges[t, loc]
                assert t in edge_tris[e]

    def test_every_edge_traversed_both_ways(self):
        # closed oriented surface: each undirected edge appears once per
        # direction, which is exactly what edge_forward encodes
        m = tetrahedron()
        edge_forward = build_adjacency(m.triangles, m.n_nodes)[3]
        assert edge_forward.dtype == bool

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
        first = build_adjacency(m.triangles, m.n_nodes)
        second = build_adjacency(m.triangles, m.n_nodes)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)
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
        expected = two_sort_adjacency(m.triangles, m.n_nodes)
        for got in (build_adjacency(m.triangles, m.n_nodes),
                    build_adjacency(m.triangles, m.n_nodes, m.half_edges)):
            for a, b in zip(got, expected):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)

    def test_adjacency_and_p1_pattern_share_one_sort(self):
        m = icosphere(2)
        he = m.half_edges
        mass, _ = fem.assemble(m)
        assert mass.nnz == m.n_nodes + 2 * m.n_edges
        assert m.half_edges is he
        assert m.tri_edges is he.tri_edges
        assert m.edges is he.edges

    def test_four_triangles_on_an_edge_is_nonmanifold(self):
        # the sorted keys still come in equal pairs, so only the count check
        # tells this apart from a pair with clashing orientations
        m = tetrahedron()
        with pytest.raises(NonManifold, match="has 4 incident triangles"):
            build_adjacency(np.vstack([m.triangles, m.triangles]), m.n_nodes)


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
        shared = int(np.nonzero((edge_tris[:, 0] == 0)
                                & (edge_tris[:, 1] == 1))[0][0])
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
    def test_off_round_trip(self, tmp_path):
        m = icosphere(1)
        path = tmp_path / "mesh.off"
        write_off(m, path)
        back = read_off(path)
        np.testing.assert_array_equal(back.triangles, m.triangles)
        np.testing.assert_array_equal(back.nodes, m.nodes)  # repr round trip

    def test_off_round_trip_of_open_set(self, tmp_path):
        # half an icosphere has boundary edges: the header counts every
        # edge once, whether one or two triangles share it
        full = icosphere(2)
        m = SurfaceMesh(full.nodes, full.triangles[:full.n_triangles // 2])
        path = tmp_path / "half.off"
        write_off(m, path)
        n_edges = len(m.half_edges.edges)
        assert (path.read_text().splitlines()[1]
                == f"{m.n_nodes} {m.n_triangles} {n_edges}")
        back = read_off(path)
        np.testing.assert_array_equal(back.triangles, m.triangles)
        np.testing.assert_array_equal(back.nodes, m.nodes)

    def test_off_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.off"
        path.write_text("PLY\n3 1 0\n")
        with pytest.raises(ValueError, match="OFF"):
            read_off(path)

    def test_off_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.off"
        for text in ("", "# only a comment\n"):
            path.write_text(text)
            with pytest.raises(ValueError, match="not an OFF file"):
                read_off(path)

    def test_off_rejects_truncated_node_block(self, tmp_path):
        path = tmp_path / "short.off"
        path.write_text("OFF\n4 4 6\n0 0 0\n1 0 0\n")
        with pytest.raises(ValueError, match="declares 4 nodes.* for 2"):
            read_off(path)

    def test_off_rejects_truncated_face_block(self, tmp_path):
        path = tmp_path / "short.off"
        path.write_text("OFF\n4 2 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n3 0 1 2\n")
        with pytest.raises(ValueError, match="declares 2 faces, file holds 1"):
            read_off(path)

    @pytest.mark.parametrize("header", ["-1 0 0", "0 -1 0"])
    def test_off_rejects_negative_counts(self, tmp_path, header):
        path = tmp_path / "negative.off"
        path.write_text(f"OFF\n{header}\n")
        with pytest.raises(ValueError, match="OFF header declares .*-1"):
            read_off(path)

    def test_off_names_a_non_integer_header_count(self, tmp_path):
        path = tmp_path / "fractional.off"
        path.write_text("OFF\n3.5 1 0\n")
        with pytest.raises(ValueError, match="OFF header counts '3.5'"):
            read_off(path)

    def test_off_names_the_face_with_a_non_integer_entry(self, tmp_path):
        path = tmp_path / "face.off"
        path.write_text("OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n"
                        "3 0 1 2\n3 0 1 x\n")
        with pytest.raises(ValueError, match="OFF face 1 .*'3 0 1 x'"):
            read_off(path)

    def test_off_names_the_node_with_a_non_numeric_coordinate(self,
                                                              tmp_path):
        path = tmp_path / "node.off"
        path.write_text("OFF\n3 1 0\n0 0 0\n1 0 x\n0 1 0\n3 0 1 2\n")
        with pytest.raises(ValueError,
                           match="^OFF node 1 has a non-numeric coordinate "
                                 "'x'$"):
            read_off(path)

    @pytest.mark.parametrize("index", ["9", "-1"])
    def test_off_names_the_face_with_a_missing_node(self, tmp_path,
                                                     monkeypatch, index):
        def no_mesh(*args, **kwargs):
            raise AssertionError("a mesh was built")

        monkeypatch.setattr(meshmod, "SurfaceMesh", no_mesh)
        path = tmp_path / "face.off"
        path.write_text("OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n"
                        f"3 0 1 2\n3 0 {index} 2\n")
        with pytest.raises(ValueError,
                           match=f"^OFF face 1 refers to node {index}, but "
                                 "the file declares 3 nodes$"):
            read_off(path)

    def test_off_comments_ignored(self, tmp_path):
        m = tetrahedron()
        path = tmp_path / "mesh.off"
        write_off(m, path)
        text = path.read_text().replace("OFF\n", "OFF\n# a comment\n")
        path.write_text(text)
        back = read_off(path)
        assert back.n_nodes == 4

    def test_vtk_snapshot(self, tmp_path):
        m = tetrahedron()
        path = tmp_path / "snap.vtk"
        write_vtk(m, path, point_data=np.arange(4.0), name="u")
        text = path.read_text()
        assert "DATASET POLYDATA" in text
        assert f"POINTS {m.n_nodes} double" in text
        assert "SCALARS u double 1" in text
        with pytest.raises(ValueError):
            write_vtk(m, path, point_data=np.zeros(3))
