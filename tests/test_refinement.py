"""Marking criteria, NVB/RGB refinement, nodal transfer, coarsening."""

from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfheat.errors import (GenerationMismatch, MetadataMissing,
                             NonFiniteValue, OutsideTube, StrategyMismatch)
from surfheat.fem import FeFunction, interpolate
from surfheat.geometry import (ON_SURFACE_TOL, LevelSetSurface, torus,
                               unit_sphere)
from surfheat.mesh import Genealogy, SurfaceMesh, validate_mesh
from surfheat.problems import icosahedron, icosphere, torus_grid
from surfheat.refinement import (_rotate_reference_first, coarsen,
                                 init_reference_edges, lift_new_nodes,
                                 mark_coarsen, mark_refine, refine, transfer)
from topology import NO_LIFT

RNG = np.random.default_rng(990817)


def tetrahedron(stretch=(1.0, 1.0, 1.0)):
    nodes = np.array([(1.0, 1.0, 1.0), (1.0, -1.0, -1.0),
                      (-1.0, 1.0, -1.0), (-1.0, -1.0, 1.0)]) / np.sqrt(3.0)
    nodes *= np.asarray(stretch)
    tris = np.array([(0, 1, 2), (0, 3, 1), (0, 2, 3), (1, 3, 2)])
    return SurfaceMesh(nodes, tris)


def all_marks(mesh):
    return np.arange(mesh.n_triangles)


# Reference: refinement with string-token child tables walked slot by slot
# and axis by axis, and a transfer map over all new nodes in which
# ``source_b == -1`` marks a copied node.  Tokens name parent vertices
# v0..v2 and edge midpoints m0 = mid(v0,v1), m1 = mid(v1,v2),
# m2 = mid(v2,v0); keys are bit patterns of marked edges.
_REF_BISECT = {
    0b001: (("v2", "v0", "m0"), ("v1", "v2", "m0")),
    0b011: (("v2", "v0", "m0"), ("m0", "v1", "m1"), ("v2", "m0", "m1")),
    0b101: (("m0", "v2", "m2"), ("v0", "m0", "m2"), ("v1", "v2", "m0")),
    0b111: (("m0", "v2", "m2"), ("v0", "m0", "m2"),
            ("m0", "v1", "m1"), ("v2", "m0", "m1")),
}
_REF_TABLES = {
    "nvb": _REF_BISECT,
    "rgb": {**_REF_BISECT, 0b111: (("v0", "m0", "m2"), ("m0", "v1", "m1"),
                                   ("m2", "m1", "v2"), ("m1", "m2", "m0"))},
}

SentinelMap = namedtuple("SentinelMap",
                         "source_a source_b src_generation dst_generation")


def reference_refine(mesh, marks, strategy):
    """Reference refinement: ``(SurfaceMesh, SentinelMap)``, with the new
    nodes at the flat midpoints."""
    identity = SentinelMap(np.arange(mesh.n_nodes),
                           np.full(mesh.n_nodes, -1, dtype=np.int64),
                           mesh.generation, mesh.generation)
    marks = np.asarray(marks, dtype=np.int64)
    if len(marks) == 0:
        return mesh, identity
    m_tris = mesh.n_triangles
    edges, te = mesh.half_edges
    edge_marked = np.zeros(len(edges), dtype=bool)
    if strategy == "nvb":
        edge_marked[te[marks, 0]] = True
    else:
        edge_marked[te[marks]] = True
    while True:
        need = edge_marked[te].any(axis=1) & ~edge_marked[te[:, 0]]
        if not need.any():
            break
        edge_marked[te[need, 0]] = True

    n_old = mesh.n_nodes
    split_edges = np.nonzero(edge_marked)[0]
    mid_of_edge = np.full(len(edges), -1, dtype=np.int64)
    mid_of_edge[split_edges] = n_old + np.arange(len(split_edges))
    endpoints = edges[split_edges]
    new_nodes = np.vstack([
        mesh.nodes,
        0.5 * (mesh.nodes[endpoints[:, 0]] + mesh.nodes[endpoints[:, 1]]),
    ])

    has = edge_marked[te]
    pattern = (has[:, 0].astype(np.int64) + 2 * has[:, 1] + 4 * has[:, 2])
    counts = np.array([1, 2, 0, 3, 0, 3, 0, 4], dtype=np.int64)[pattern]
    offsets = np.cumsum(counts) - counts
    total = int(counts.sum())
    tri = mesh.triangles
    mids = mid_of_edge[te]
    columns = {"v0": tri[:, 0], "v1": tri[:, 1], "v2": tri[:, 2],
               "m0": mids[:, 0], "m1": mids[:, 1], "m2": mids[:, 2]}
    out_tris = np.empty((total, 3), dtype=np.int64)
    out_parent = np.empty(total, dtype=np.int64)
    is_child = np.zeros(total, dtype=bool)
    split = pattern != 0
    row_of = np.full(m_tris, -1, dtype=np.int64)
    row_of[split] = len(mesh.genealogy.nchild) + np.arange(int(split.sum()))
    keep = np.nonzero(~split)[0]
    out_tris[offsets[keep]] = tri[keep]
    out_parent[offsets[keep]] = mesh.tri_parent[keep]
    for pat, table in _REF_TABLES[strategy].items():
        idx = np.nonzero(pattern == pat)[0]
        if len(idx) == 0:
            continue
        base = offsets[idx]
        for slot, tokens in enumerate(table):
            rows = base + slot
            for axis, token in enumerate(tokens):
                out_tris[rows, axis] = columns[token][idx]
            out_parent[rows] = row_of[idx]
            is_child[rows] = True
    if strategy == "rgb":
        child_rows = np.nonzero(is_child)[0]
        out_tris[child_rows] = _rotate_reference_first(new_nodes,
                                                       out_tris[child_rows])
    old = mesh.genealogy
    genealogy = Genealogy(
        verts=np.vstack([old.verts, tri[split]]),
        parent=np.concatenate([old.parent, mesh.tri_parent[split]]),
        nchild=np.concatenate([old.nchild, counts[split]]),
    )
    refined = SurfaceMesh(new_nodes, out_tris, out_parent, genealogy,
                          strategy, refedge_ready=True)
    smap = SentinelMap(
        np.concatenate([np.arange(n_old), endpoints[:, 0]]),
        np.concatenate([np.full(n_old, -1, dtype=np.int64), endpoints[:, 1]]),
        mesh.generation, refined.generation)
    return refined, smap


def reference_transfer(u_old, smap):
    """Reference transfer: copies where ``source_b < 0``, endpoint averages
    elsewhere."""
    c = u_old.coefficients
    vals = c[smap.source_a]
    has_b = smap.source_b >= 0
    if has_b.any():
        safe = np.where(has_b, smap.source_b, 0)
        vals = np.where(has_b, 0.5 * (vals + c[safe]), vals)
    return FeFunction(smap.dst_generation, vals)


class TestMarking:
    def test_bulk_refine(self):
        assert list(mark_refine([4.0, 2.0, 1.0], 0.5)) == [0, 1]

    def test_doerfler_refine(self):
        ms = mark_refine([4.0, 2.0, 1.0], 0.5, criterion="doerfler")
        assert list(ms) == [0]

    def test_bulk_all_equal_marks_everything(self):
        assert len(mark_refine([3.0] * 7, 0.99)) == 7

    def test_all_zero_marks_nothing(self):
        assert len(mark_refine(np.zeros(5), 0.5)) == 0
        assert len(mark_refine(np.zeros(5), 0.5, criterion="doerfler")) == 0

    def test_doerfler_all_equal_takes_prefix(self):
        ms = mark_refine([2.0, 2.0, 2.0, 2.0], 0.5, criterion="doerfler")
        assert list(ms) == [0, 1]

    def test_doerfler_tie_prefers_lower_id(self):
        ms = mark_refine([1.0, 5.0, 5.0, 1.0], 0.9, criterion="doerfler")
        assert list(ms) == [1]

    def test_bulk_coarsen(self):
        assert list(mark_coarsen([4.0, 2.0, 1.0], 0.3)) == [2]

    def test_doerfler_coarsen(self):
        ms = mark_coarsen([4.0, 2.0, 1.0], 0.2, criterion="doerfler")
        assert list(ms) == [2]

    def test_coarsen_all_zero_marks_everything(self):
        assert len(mark_coarsen(np.zeros(6), 0.2)) == 6
        assert len(mark_coarsen(np.zeros(6), 0.2, criterion="doerfler")) == 6

    def test_coarsen_all_equal_marks_nothing(self):
        assert len(mark_coarsen([2.0] * 5, 0.3)) == 0
        assert len(mark_coarsen([2.0] * 5, 0.1, criterion="doerfler")) == 0

    def test_theta_range_checked(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                mark_refine([1.0], bad)

    def test_negative_indicator_rejected(self):
        with pytest.raises(ValueError):
            mark_refine([1.0, -0.1], 0.5)

    def test_unknown_criterion(self):
        with pytest.raises(ValueError):
            mark_refine([1.0], 0.5, criterion="fancy")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("criterion", ["bulk", "doerfler"])
    @pytest.mark.parametrize("mark", [mark_refine, mark_coarsen])
    def test_non_finite_indicator_named(self, mark, criterion, bad):
        # unchecked, these marked nothing, one element or all four
        with pytest.raises(NonFiniteValue,
                           match=f"^indicator of element 1 is {bad}$"):
            mark([0.1, bad, 0.3, 0.2], 0.5, criterion)

    @pytest.mark.parametrize("criterion", ["bulk", "doerfler"])
    def test_marks_are_the_selected_ids_sorted(self, criterion):
        # ties included: every seventh indicator repeats one value
        eta = RNG.random(300)
        eta[::7] = eta[3]
        ids = np.arange(len(eta))
        for mark, theta in ((mark_refine, 0.4), (mark_coarsen, 0.3)):
            got = mark(eta, theta, criterion)
            sq = eta ** 2
            if criterion == "bulk":
                keep = (eta >= theta * eta.max() if mark is mark_refine
                        else eta <= theta * eta.max())
                expected = ids[keep]
            elif mark is mark_refine:
                order = np.lexsort((ids, -eta))
                csum = np.cumsum(sq[order])
                k = int(np.argmax(csum >= (1.0 - theta) * sq.sum()
                                  - 1e-12 * sq.sum())) + 1
                expected = np.sort(order[:k])
            else:
                order = np.lexsort((ids, eta))
                csum = np.cumsum(sq[order])
                k = int(np.searchsorted(csum, theta * sq.sum()
                                        * (1.0 + 1e-12), side="right"))
                expected = np.sort(order[:k])
            assert len(expected) > 0
            assert got.dtype == np.int64
            assert got.tobytes() == expected.tobytes()


class TestReferenceEdges:
    def test_longest_edge_rotated_first(self):
        m = init_reference_edges(tetrahedron(stretch=(1.0, 1.3, 1.7)))
        p = m.nodes[m.triangles]
        lengths = np.stack([np.linalg.norm(p[:, 1] - p[:, 0], axis=1),
                            np.linalg.norm(p[:, 2] - p[:, 1], axis=1),
                            np.linalg.norm(p[:, 0] - p[:, 2], axis=1)], axis=1)
        assert (lengths[:, 0] >= lengths.max(axis=1) - 1e-12).all()
        assert m.refedge_ready

    def test_tie_break_on_regular_tetrahedron(self):
        # face (0, 1, 2): all edges tied, opposite nodes are (2, 0, 1); the
        # lowest opposite node selects edge (1, 2) as reference edge
        m = init_reference_edges(tetrahedron())
        np.testing.assert_array_equal(m.triangles[0], [1, 2, 0])

    def test_orientation_and_generation_preserved(self):
        raw = tetrahedron()
        m = init_reference_edges(raw)
        assert m.generation == raw.generation
        centroids = m.nodes[m.triangles].mean(axis=1)
        assert (np.einsum("ij,ij->i", m.metrics.normal, centroids) > 0).all()

    def test_refuses_refined_mesh(self):
        m = init_reference_edges(icosahedron())
        refined, _ = refine(m, all_marks(m), "nvb", NO_LIFT)
        with pytest.raises(ValueError):
            init_reference_edges(refined)


class TestRefine:
    def test_requires_reference_edges(self):
        with pytest.raises(MetadataMissing):
            refine(icosahedron(), [0], "nvb", NO_LIFT)

    def test_rgb_red_step_counts(self):
        m = init_reference_edges(icosahedron())
        new, _ = refine(m, all_marks(m), "rgb", NO_LIFT)
        assert new.n_nodes == 42
        assert new.n_triangles == 80
        assert len(new.genealogy.nchild) == 20
        assert (new.tri_parent >= 0).all()
        validate_mesh(new)

    def test_nvb_all_bisects_every_triangle(self):
        m = init_reference_edges(icosahedron())
        new, _ = refine(m, all_marks(m), "nvb", NO_LIFT)
        validate_mesh(new)
        assert new.n_triangles >= 40
        # every split produces 1 + (marked edges) children and each split
        # edge is shared by two triangles, adding exactly one node
        assert new.n_nodes == 12 + (new.n_triangles - 20) // 2
        # children tile their parents exactly
        assert new.metrics.area.sum() == pytest.approx(
            m.metrics.area.sum(), rel=1e-13)

    def test_single_mark_closure_conformity(self):
        m = init_reference_edges(tetrahedron(stretch=(1.0, 1.1, 1.25)))
        new, _ = refine(m, [0], "nvb", NO_LIFT)
        validate_mesh(new)
        # the marked triangle is gone and at least its refedge neighbor split
        assert len(new.genealogy.nchild) >= 2
        assert new.n_triangles > 4

    def test_empty_marks_identity(self):
        m = init_reference_edges(icosahedron())
        new, tmap = refine(m, [], "nvb", NO_LIFT)
        assert new is m
        assert tmap.src_generation == tmap.dst_generation
        assert tmap.endpoints.shape == (0, 2)  # no new nodes

    def test_out_of_range_mark(self):
        m = init_reference_edges(icosahedron())
        for marks in ([25], [3, -1]):
            with pytest.raises(ValueError):
                refine(m, marks, "nvb", NO_LIFT)

    def test_mask_and_float_marks_rejected(self):
        # a mask would read as the ids 0 and 1, a float id would truncate
        m = init_reference_edges(icosphere(1))
        fine, _ = refine(m, all_marks(m), "nvb", NO_LIFT)
        mask = np.zeros(m.n_triangles, dtype=bool)
        mask[40] = True
        for marks in (mask, [40.7], np.array([40.0])):
            with pytest.raises(ValueError, match="marks must be triangle ids"):
                refine(m, marks, "nvb", NO_LIFT)
            with pytest.raises(ValueError, match="marks must be triangle ids"):
                coarsen(fine, marks, [])
        no_ids = np.array([], dtype=np.uint8)
        assert refine(m, no_ids, "nvb", NO_LIFT)[0] is m
        assert coarsen(fine, [], [])[0] is fine

    def test_strategy_is_sticky(self):
        m = init_reference_edges(icosahedron())
        new, _ = refine(m, all_marks(m), "nvb", NO_LIFT)
        with pytest.raises(StrategyMismatch):
            refine(new, [0], "rgb", NO_LIFT)

    def test_unknown_strategy(self):
        m = init_reference_edges(icosahedron())
        with pytest.raises(ValueError):
            refine(m, all_marks(m), "quadtree", NO_LIFT)

    def test_rgb_children_longest_edge_first(self):
        m = init_reference_edges(icosahedron())
        new, _ = refine(m, range(7), "rgb", NO_LIFT)
        child = new.tri_parent >= 0
        p = new.nodes[new.triangles[child]]
        lengths = np.stack([np.linalg.norm(p[:, 1] - p[:, 0], axis=1),
                            np.linalg.norm(p[:, 2] - p[:, 1], axis=1),
                            np.linalg.norm(p[:, 0] - p[:, 2], axis=1)], axis=1)
        assert (lengths[:, 0] >= lengths.max(axis=1) * (1 - 1e-12)).all()

    def test_genealogy_records_parent_vertices(self):
        m = init_reference_edges(icosahedron())
        new, _ = refine(m, all_marks(m), "rgb", NO_LIFT)
        g = new.genealogy
        np.testing.assert_array_equal(g.verts, m.triangles)
        assert (g.parent == -1).all()
        assert (g.nchild == 4).all()


class TestTransfer:
    def test_affine_fields_exact(self):
        m = icosphere(1)
        coeff = np.array([0.4, -1.1, 2.2])
        u = FeFunction.on_mesh(m, m.nodes @ coeff + 0.9)
        new, tmap = refine(m, range(0, 80, 3), "nvb", NO_LIFT)
        v = transfer(u, tmap)
        np.testing.assert_allclose(v.coefficients, new.nodes @ coeff + 0.9,
                                   atol=1e-12)

    def test_constants_bitwise(self):
        m = icosphere(1)
        u = FeFunction.on_mesh(m, np.full(m.n_nodes, 0.123456789))
        new, tmap = refine(m, all_marks(m), "nvb", NO_LIFT)
        v = transfer(u, tmap)
        assert (v.coefficients == 0.123456789).all()

    def test_piecewise_linear_pointwise(self):
        # the transferred function is the same piecewise-linear function:
        # evaluate children against their recorded parents at random points
        m = icosphere(1)
        u = FeFunction.on_mesh(m, RNG.standard_normal(m.n_nodes))
        new, tmap = refine(m, range(0, 80, 2), "rgb", NO_LIFT)
        v = transfer(u, tmap)
        g = new.genealogy
        children = np.nonzero(new.tri_parent >= 0)[0]
        for t in children[::5]:
            pv = g.verts[new.tri_parent[t]]
            base = new.nodes[pv[0]]
            span = np.column_stack([new.nodes[pv[1]] - base,
                                    new.nodes[pv[2]] - base])
            for lam in RNG.dirichlet([1.0, 1.0, 1.0], size=5):
                x = lam @ new.nodes[new.triangles[t]]
                child_val = lam @ v.coefficients[new.triangles[t]]
                ab, *_ = np.linalg.lstsq(span, x - base, rcond=None)
                parent_val = np.array([1.0 - ab.sum(), *ab]) @ u.coefficients[pv]
                assert child_val == pytest.approx(parent_val, abs=1e-12)

    def test_generation_guard(self):
        m = icosphere(1)
        other = icosphere(1)
        u = FeFunction.on_mesh(other, np.zeros(other.n_nodes))
        _, tmap = refine(m, all_marks(m), "nvb", NO_LIFT)
        with pytest.raises(GenerationMismatch):
            transfer(u, tmap)


class TestLiftNewNodes:
    def test_midpoints_projected_to_unit_radius(self):
        m = init_reference_edges(icosahedron())
        new, _ = refine(m, all_marks(m), "rgb", unit_sphere())
        assert new.n_nodes == 42
        np.testing.assert_allclose(np.linalg.norm(new.nodes, axis=1), 1.0,
                                   atol=1e-12)
        # pre-existing nodes bitwise untouched
        np.testing.assert_array_equal(new.nodes[:12], m.nodes)
        validate_mesh(new, unit_sphere())

    def test_idempotent(self):
        m = init_reference_edges(icosahedron())
        new, _ = refine(m, all_marks(m), "nvb", NO_LIFT)
        once = lift_new_nodes(new.nodes[m.n_nodes:], unit_sphere())
        assert lift_new_nodes(once, unit_sphere()) is once

    def test_on_surface_tolerance_decides_what_moves(self):
        nodes = icosphere(1).nodes.copy()
        before = nodes.copy()
        nodes[0] *= 1.0 + 0.5 * ON_SURFACE_TOL
        nodes[1] *= 1.0 + 2.0 * ON_SURFACE_TOL
        lifted = lift_new_nodes(nodes, unit_sphere())
        np.testing.assert_array_equal(lifted[0], nodes[0])
        assert not np.array_equal(lifted[1], nodes[1])
        assert abs(np.linalg.norm(lifted[1]) - 1.0) < 1e-15
        np.testing.assert_array_equal(lifted[2:], before[2:])

    def test_non_finite_node_named(self):
        nodes = icosphere(1).nodes.copy()
        nodes[7, 1] = np.nan
        with pytest.raises(NonFiniteValue, match=r"^node 7 has a non-finite "
                           r"coordinate: \[\S+, nan, \S+\]$"):
            lift_new_nodes(nodes, unit_sphere())

    def test_non_finite_distance_goes_to_the_lift(self):
        # a NaN distance is not "on the surface": the lift refuses it
        m = icosphere(1)
        sphere = unit_sphere()
        nan_at_node_7 = LevelSetSurface(
            distance=lambda p: np.where((p == m.nodes[7]).all(axis=-1),
                                        np.nan, sphere.distance(p)),
            gradient=sphere.gradient, hessian=sphere.hessian,
            bounding_radius=1.0)
        with pytest.raises(OutsideTube, match=r"\|d\| = nan"):
            lift_new_nodes(m.nodes, nan_at_node_7)

    def test_generation_survives_lift(self):
        # the transfer's target is the lifted mesh refine returns
        m = icosphere(1)
        u = FeFunction.on_mesh(m, np.zeros(m.n_nodes))
        new, tmap = refine(m, all_marks(m), "nvb", unit_sphere())
        assert tmap.dst_generation == new.generation
        transfer(u, tmap).check(new)


@pytest.mark.parametrize("strategy", ["nvb", "rgb"])
@pytest.mark.parametrize("mesh, surface", [
    (icosphere(3), unit_sphere()), (torus_grid(12), torus())],
    ids=["sphere", "torus"])
def test_refine_lifts_after_choosing_reference_edges(mesh, surface, strategy):
    # in three rounds of refinement, the connectivity is that of the flat
    # refinement of the same mesh: rgb chooses its reference edges on the
    # flat midpoints (on the sphere the third round's would differ on the
    # lifted ones); the old nodes stay bitwise and the new ones are the flat
    # midpoints of the endpoint rows, lifted
    rng = np.random.default_rng(5)
    for _ in range(3):
        marks = rng.choice(mesh.n_triangles, mesh.n_triangles // 5,
                           replace=False)
        new, tmap = refine(mesh, marks, strategy, surface)
        flat, flat_map = refine(mesh, marks, strategy, NO_LIFT)
        assert mesh_arrays(new)[1:] == mesh_arrays(flat)[1:]
        assert tmap.endpoints.tobytes() == flat_map.endpoints.tobytes()
        n_old = mesh.n_nodes
        assert new.nodes[:n_old].tobytes() == mesh.nodes.tobytes()
        mids = 0.5 * mesh.nodes[tmap.endpoints].sum(axis=1)
        assert flat.nodes[n_old:].tobytes() == mids.tobytes()
        lifted = lift_new_nodes(mids, surface)
        assert new.nodes[n_old:].tobytes() == lifted.tobytes()
        assert not np.array_equal(lifted, mids)
        validate_mesh(new, surface)
        mesh = new


class TestCoarsen:
    @pytest.mark.parametrize("strategy", ["nvb", "rgb"])
    def test_refine_all_round_trip(self, strategy):
        m = icosphere(1)
        fine, tmap = refine(m, all_marks(m), strategy, unit_sphere())
        u = transfer(FeFunction.on_mesh(m, RNG.standard_normal(m.n_nodes)),
                     tmap)
        back, (u_back,), removed = coarsen(fine, all_marks(fine), [u])
        assert removed == fine.n_nodes - m.n_nodes
        np.testing.assert_array_equal(back.nodes, m.nodes)
        np.testing.assert_array_equal(back.triangles, m.triangles)
        assert len(back.genealogy.nchild) == 0
        assert (back.tri_parent == -1).all()
        np.testing.assert_array_equal(u_back.coefficients,
                                      u.coefficients[:m.n_nodes])
        validate_mesh(back, unit_sphere())

    @pytest.mark.parametrize("strategy", ["nvb", "rgb"])
    def test_partial_refine_full_undo(self, strategy):
        m = icosphere(1)
        fine, _ = refine(m, [3, 4, 19], strategy, NO_LIFT)
        back, _, removed = coarsen(fine, all_marks(fine), [])
        assert removed == fine.n_nodes - m.n_nodes
        np.testing.assert_array_equal(back.nodes, m.nodes)
        # restored parents are appended after the untouched triangles, so
        # the triangle list is recovered only as a set
        assert (sorted(map(tuple, back.triangles))
                == sorted(map(tuple, m.triangles)))
        assert len(back.genealogy.nchild) == 0

    def test_two_rounds_need_two_passes(self):
        m = icosphere(1)
        r1, _ = refine(m, all_marks(m), "nvb", NO_LIFT)
        r2, _ = refine(r1, range(0, r1.n_triangles, 4), "nvb", NO_LIFT)
        mesh = r2
        passes = 0
        while True:
            mesh, _, removed = coarsen(mesh, all_marks(mesh), [])
            validate_mesh(mesh)
            passes += 1
            if removed == 0:
                break
        assert passes >= 2
        np.testing.assert_array_equal(mesh.triangles, m.triangles)
        np.testing.assert_array_equal(mesh.nodes, m.nodes)

    def test_unmarked_sibling_pins_neighbors(self):
        m = icosphere(1)
        fine, _ = refine(m, all_marks(m), "rgb", NO_LIFT)
        marks = np.arange(1, fine.n_triangles)
        back, _, removed = coarsen(fine, marks, [])
        # a family may only collapse together with every family it shares a
        # midpoint with (else a hanging node appears); withholding a single
        # sibling therefore pins the uniformly refined sphere completely
        assert removed == 0
        assert back is fine

    def test_protect_from_blocks_removal(self):
        # the midpoints are the tail from m.n_nodes on
        m = icosphere(1)
        fine, _ = refine(m, all_marks(m), "nvb", NO_LIFT)
        kept, _, removed = coarsen(fine, all_marks(fine), [],
                                   protect_from=m.n_nodes)
        assert removed == 0
        assert kept is fine
        for protect_from in (None, fine.n_nodes):
            undone, _, removed = coarsen(fine, all_marks(fine), [],
                                         protect_from=protect_from)
            assert removed == fine.n_nodes - m.n_nodes

    @pytest.mark.parametrize("protect_from", [-1, 2.0, "12", True])
    def test_protect_from_must_be_a_nonnegative_integer(self, protect_from):
        # -1 as a slice start protected only the last node: 57 of the 60
        # midpoints went; True would protect every node from index 1 on
        m = icosphere(1)
        fine, _ = refine(m, all_marks(m), "nvb", NO_LIFT)
        with pytest.raises(ValueError, match=r"^protect_from must be None or "
                           rf"an integer >= 0, got {protect_from!r}$"):
            coarsen(fine, all_marks(fine), [], protect_from=protect_from)

    def test_without_genealogy_is_noop(self):
        m = icosphere(1)
        back, fns, removed = coarsen(m, all_marks(m), [])
        assert back is m
        assert removed == 0

    def test_function_generation_guard(self):
        m = icosphere(1)
        fine, _ = refine(m, all_marks(m), "nvb", NO_LIFT)
        stale = FeFunction.on_mesh(m, np.zeros(m.n_nodes))
        with pytest.raises(GenerationMismatch):
            coarsen(fine, all_marks(fine), [stale])

    def test_out_of_range_mark(self):
        m = icosphere(1)
        fine, _ = refine(m, all_marks(m), "nvb", NO_LIFT)
        for marks in ([fine.n_triangles], [3, -1]):
            with pytest.raises(ValueError):
                coarsen(fine, marks, [])


def mesh_arrays(mesh):
    """Every array of a mesh and its genealogy, as (dtype, shape, bytes)."""
    gen = mesh.genealogy
    return [(a.dtype, a.shape, a.tobytes())
            for a in (mesh.nodes, mesh.triangles, mesh.tri_parent,
                      gen.verts, gen.parent, gen.nchild)]


@pytest.mark.parametrize("strategy", ["nvb", "rgb"])
def test_mark_order_and_repeats_do_not_matter(strategy):
    # shuffled ids with repeats, as a list or an int32 array, give bitwise
    # the mesh, genealogy and functions of the same ids sorted and unique
    rng = np.random.default_rng(15)
    mesh = icosphere(1)
    u = interpolate(mesh, lambda x: np.sin(2.0 * x[:, 0]) + x[:, 1] * x[:, 2])
    ids = np.sort(rng.choice(mesh.n_triangles, 6, replace=False))
    messy = list(rng.permutation(np.concatenate([ids, ids[::2]])))
    fine, tmap = refine(mesh, ids, strategy, NO_LIFT)
    fine_messy, tmap_messy = refine(mesh, messy, strategy, NO_LIFT)
    assert mesh_arrays(fine_messy) == mesh_arrays(fine)
    assert tmap_messy.endpoints.tobytes() == tmap.endpoints.tobytes()
    v, v_messy = transfer(u, tmap), transfer(u, tmap_messy)
    assert v_messy.coefficients.tobytes() == v.coefficients.tobytes()

    ids = np.flatnonzero(fine.nodes[fine.triangles].mean(axis=1)[:, 0] > 0)
    messy = rng.permutation(np.concatenate([ids, ids[::4]])).astype(np.int32)
    coarse, (w,), removed = coarsen(fine, ids, [v])
    coarse_messy, (w_messy,), removed_messy = coarsen(fine_messy, messy,
                                                      [v_messy])
    assert 0 < removed_messy == removed < fine.n_nodes - mesh.n_nodes
    assert mesh_arrays(coarse_messy) == mesh_arrays(coarse)
    assert w_messy.coefficients.tobytes() == w.coefficients.tobytes()


@settings(max_examples=20, deadline=None)
@given(marked=st.lists(st.integers(0, 19), max_size=8),
       strategy=st.sampled_from(["nvb", "rgb"]))
def test_random_marks_keep_invariants(marked, strategy):
    base = init_reference_edges(icosahedron())
    new, tmap = refine(base, marked, strategy, NO_LIFT)
    validate_mesh(new)
    assert new.metrics.area.sum() == pytest.approx(
        base.metrics.area.sum(), rel=1e-12)
    coeff = np.array([0.3, -1.2, 0.8])
    u = FeFunction.on_mesh(base, base.nodes @ coeff + 0.77)
    v = transfer(u, tmap)
    np.testing.assert_allclose(v.coefficients, new.nodes @ coeff + 0.77,
                               atol=1e-12)


@pytest.mark.parametrize("strategy", ["nvb", "rgb"])
def test_fuzz_refine_coarsen(strategy):
    rng = np.random.default_rng(41)
    surface = unit_sphere()
    mesh = icosphere(0)
    u = interpolate(mesh, lambda x: x[:, 0] - 0.5 * x[:, 1])
    for step in range(60):
        grow = rng.random() < 0.6 and mesh.n_triangles < 3000
        if grow or mesh.n_triangles <= 20:
            marks = mark_refine(rng.random(mesh.n_triangles), 0.6)
            mesh, tmap = refine(mesh, marks, strategy, surface)
            u = transfer(u, tmap)
        else:
            marks = mark_coarsen(rng.random(mesh.n_triangles), 0.7)
            mesh, (u,), _ = coarsen(mesh, marks, [u])
        validate_mesh(mesh, surface)
        u.check(mesh)


def assert_same_refinement(mesh, marks, strategy, u, surface):
    """``refine`` and ``transfer`` against the references, bitwise; the new
    nodes are the reference's flat midpoints, lifted."""
    new, tmap = refine(mesh, marks, strategy, surface)
    ref, smap = reference_refine(mesh, marks, strategy)
    n_old = mesh.n_nodes
    ref_nodes = np.vstack([ref.nodes[:n_old],
                           lift_new_nodes(ref.nodes[n_old:], surface)])
    pairs = [(new.nodes, ref_nodes, "nodes")]
    pairs += [(getattr(new, name), getattr(ref, name), name)
              for name in ("triangles", "tri_parent")]
    pairs += [(getattr(new.genealogy, name), getattr(ref.genealogy, name),
               f"genealogy.{name}")
              for name in ("verts", "parent", "nchild")]
    for got, expected, name in pairs:
        assert got.dtype == expected.dtype, name
        assert got.shape == expected.shape, name
        assert got.tobytes() == expected.tobytes(), name
    assert new.strategy == ref.strategy
    # the endpoint rows are the parents of the new nodes, in node order
    np.testing.assert_array_equal(
        tmap.endpoints,
        np.column_stack([smap.source_a, smap.source_b])[n_old:])
    v, w = transfer(u, tmap), reference_transfer(u, smap)
    assert v.coefficients.tobytes() == w.coefficients.tobytes()
    return new, v


@pytest.mark.parametrize("strategy", ["nvb", "rgb"])
def test_refine_matches_reference_on_graded_meshes(strategy):
    # indicators peaked at a wandering centre grade the mesh towards it;
    # coarsening above 3,000 triangles keeps the mesh graded but bounded
    rng = np.random.default_rng(7 if strategy == "nvb" else 8)
    surface = unit_sphere()
    mesh = icosphere(1)
    u = interpolate(mesh, lambda x: np.sin(3.0 * x[:, 0]) + x[:, 1] * x[:, 2])
    centre = np.array([1.0, 0.0, 0.0])
    refinements = coarsenings = 0
    for step in range(1, 400):
        centroids = mesh.nodes[mesh.triangles].mean(axis=1)
        eta = (np.sqrt(mesh.metrics.area)
               * np.exp(-8.0 * np.sum((centroids - centre) ** 2, axis=1))
               * rng.uniform(0.5, 1.0, mesh.n_triangles))
        if mesh.n_triangles > 3000:
            marks = mark_coarsen(eta, float(rng.uniform(0.6, 0.95)))
            mesh, (u,), _ = coarsen(mesh, marks, [u])
            coarsenings += 1
        else:
            marks = mark_refine(eta, float(rng.uniform(0.3, 0.9)),
                                ("bulk", "doerfler")[step % 2])
            mesh, u = assert_same_refinement(mesh, marks, strategy, u,
                                             surface)
            refinements += 1
            if refinements == 40:
                break
        centre = centre + 0.15 * rng.standard_normal(3)
        centre /= np.linalg.norm(centre)
    assert refinements == 40
    assert coarsenings > 0
    assert len(mesh.genealogy.nchild) > 0


def reference_coarsen(mesh, marks, functions, protect_from=None):
    """Reference coarsening that recomputes the collapsing triangles, the
    externally referenced and parent nodes and the (k, 3, 3) parent-vertex
    comparison on every pass of the fixed point.  Returns the result of
    ``coarsen`` and the number of passes."""
    gen = mesh.genealogy
    m_tris, n_nodes = mesh.n_triangles, mesh.n_nodes
    marks = np.asarray(marks, dtype=np.int64)
    if len(gen.nchild) == 0 or len(marks) == 0:
        return (mesh, list(functions), 0), 0
    marked = np.zeros(m_tris, dtype=bool)
    marked[marks] = True
    tp = mesh.tri_parent
    has_parent = tp >= 0
    n_rows = len(gen.nchild)
    live = np.bincount(tp[has_parent], minlength=n_rows)
    marked_live = np.bincount(tp[has_parent & marked], minlength=n_rows)
    collapsing = (live == gen.nchild) & (marked_live == gen.nchild)
    if not collapsing.any():
        return (mesh, list(functions), 0), 0
    protected = np.zeros(n_nodes, dtype=bool)
    if protect_from is not None:
        protected[protect_from:] = True
    tri = mesh.triangles
    passes = 0
    while True:
        passes += 1
        coll_tris = np.zeros(m_tris, dtype=bool)
        coll_tris[has_parent] = collapsing[tp[has_parent]]
        ext_ref = np.zeros(n_nodes, dtype=bool)
        ext_ref[tri[~coll_tris].ravel()] = True
        parent_used = np.zeros(n_nodes, dtype=bool)
        parent_used[gen.verts[collapsing].ravel()] = True
        blocked = ext_ref | parent_used | protected
        ct = np.nonzero(coll_tris)[0]
        child_verts = tri[ct]
        parent_verts = gen.verts[tp[ct]]
        in_parent = (child_verts[:, :, None]
                     == parent_verts[:, None, :]).any(axis=2)
        bad = (~in_parent & blocked[child_verts]).any(axis=1)
        if not bad.any():
            break
        collapsing[np.unique(tp[ct[bad]])] = False
        if not collapsing.any():
            return (mesh, list(functions), 0), passes
    rows = np.nonzero(collapsing)[0]
    new_tris_old = np.vstack([tri[~coll_tris], gen.verts[rows]])
    parent_rows_old = np.concatenate([tp[~coll_tris], gen.parent[rows]])
    referenced = np.zeros(n_nodes, dtype=bool)
    referenced[new_tris_old.ravel()] = True
    removed = int(n_nodes - referenced.sum())
    node_map = np.cumsum(referenced) - 1
    keep_rows = ~collapsing
    row_map = np.full(n_rows + 1, -1, dtype=np.int64)
    row_map[:-1][keep_rows] = np.arange(int(keep_rows.sum()))
    genealogy = Genealogy(verts=node_map[gen.verts[keep_rows]],
                          parent=row_map[gen.parent[keep_rows]],
                          nchild=gen.nchild[keep_rows])
    coarse = SurfaceMesh(mesh.nodes[referenced], node_map[new_tris_old],
                         row_map[parent_rows_old], genealogy, mesh.strategy,
                         refedge_ready=True)
    restricted = [FeFunction(coarse.generation, u.coefficients[referenced])
                  for u in functions]
    return (coarse, restricted, removed), passes


def assert_same_coarsening(mesh, marks, functions, protect_from):
    """``coarsen`` against the recomputing reference, bitwise; returns the
    result and the reference's number of passes."""
    new, restricted, removed = coarsen(mesh, marks, functions, protect_from)
    (ref, ref_functions, ref_removed), passes = reference_coarsen(
        mesh, marks, functions, protect_from)
    assert removed == ref_removed
    if ref is mesh:
        assert new is mesh
    pairs = [(getattr(new, name), getattr(ref, name), name)
             for name in ("nodes", "triangles", "tri_parent")]
    pairs += [(getattr(new.genealogy, name), getattr(ref.genealogy, name),
               f"genealogy.{name}")
              for name in ("verts", "parent", "nchild")]
    pairs += [(v.coefficients, w.coefficients, "function")
              for v, w in zip(restricted, ref_functions)]
    for got, expected, name in pairs:
        assert got.dtype == expected.dtype, name
        assert got.shape == expected.shape, name
        assert got.tobytes() == expected.tobytes(), name
    assert new.strategy == ref.strategy
    for v in restricted:
        v.check(new)
    return (new, restricted, removed), passes


@pytest.mark.parametrize("protect", [False, True],
                         ids=["unprotected", "protect-birth"])
@pytest.mark.parametrize("strategy", ["nvb", "rgb"])
def test_coarsen_matches_recomputing_reference(strategy, protect):
    # a graded refine/coarsen sequence towards a wandering centre; every
    # coarsening (with marks of varying density) is checked bitwise.  A
    # birth oracle (the step that made each node) rides along as a nodal
    # function: it stays nondecreasing in node index, so "made at step
    # - 2 or later" is the tail from its searchsorted index on
    rng = np.random.default_rng(21 if strategy == "nvb" else 22)
    surface = unit_sphere()
    mesh = icosphere(1)
    u = interpolate(mesh, lambda x: np.cos(2.0 * x[:, 2]) + x[:, 0])
    births = FeFunction.on_mesh(mesh, np.zeros(mesh.n_nodes))
    centre = np.array([0.0, 1.0, 0.0])
    removed_total = max_passes = coarsenings = 0
    for step in range(1, 60):
        centroids = mesh.nodes[mesh.triangles].mean(axis=1)
        eta = (np.sqrt(mesh.metrics.area)
               * np.exp(-8.0 * np.sum((centroids - centre) ** 2, axis=1))
               * rng.uniform(0.5, 1.0, mesh.n_triangles))
        assert (np.diff(births.coefficients) >= 0).all()
        if mesh.n_triangles > 1500 or step % 3 == 0:
            marks = mark_coarsen(eta, float(rng.uniform(0.3, 0.95)))
            protect_from = (int(np.searchsorted(births.coefficients, step - 2))
                            if protect else None)
            (mesh, (u, births), removed), passes = assert_same_coarsening(
                mesh, marks, [u, births], protect_from)
            removed_total += removed
            max_passes = max(max_passes, passes)
            coarsenings += 1
        else:
            marks = mark_refine(eta, float(rng.uniform(0.3, 0.9)))
            n_old = mesh.n_nodes
            mesh, tmap = refine(mesh, marks, strategy, surface)
            u, births = transfer(u, tmap), transfer(births, tmap)
            births.coefficients[n_old:] = step
        centre = centre + 0.2 * rng.standard_normal(3)
        centre /= np.linalg.norm(centre)
    assert coarsenings >= 15
    assert removed_total > 0
    assert max_passes >= 2  # the fixed point dropped groups at least once
