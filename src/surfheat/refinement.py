"""Marking, conforming mesh refinement, nodal transfer, and coarsening.

Both refinement families share one storage convention (see module ``mesh``):
a triangle's first edge ``(v0, v1)`` is its reference edge.  Newest-vertex
bisection always splits the reference edge; red/green/blue refinement
classifies the split pattern against it.  Conformity closure is the usual
fixed point: whenever any edge of a triangle is due for bisection, its
reference edge is due as well.  The children of each split pattern are one
integer table indexed into a triangle's vertices and edge midpoints.  A step
appends one lifted midpoint per split edge to the old nodes; ``transfer``
carries nodal values through its ``TransferMap``.

Coarsening inverts refinement through the genealogy arena: a sibling group
whose members are all present and all marked collapses back to its recorded
parent, provided the midpoint nodes that would disappear are not referenced
anywhere else (this is the good-to-coarsen condition, enforced by a fixed
point that drops unsafe groups).
"""

from collections import namedtuple

import numpy as np

from .errors import (GenerationMismatch, MetadataMissing, NonFiniteValue,
                     StrategyMismatch)
from .fem import FeFunction
from .geometry import ON_SURFACE_TOL, check_finite, lift
from .mesh import Genealogy, SurfaceMesh, edge_rows


def _check_indicators(indicators, theta):
    eta = np.asarray(indicators, dtype=float)
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    finite = np.isfinite(eta)
    if not finite.all():
        k = int(np.argmin(finite))
        raise NonFiniteValue(f"indicator of element {k} is {eta[k]}")
    if np.any(eta < 0.0):
        raise ValueError("indicators must be nonnegative")
    return eta


def mark_refine(indicators, theta, criterion="bulk"):
    """Ids of the elements selected for refinement, a sorted int64 array.

    bulk: all elements with ``eta >= theta * eta_max``.  doerfler: the
    smallest set of largest-indicator elements whose squared sum reaches
    ``(1 - theta)`` of the squared total.  Ties broken by lower element id;
    all-zero indicators give an empty set.
    """
    eta = _check_indicators(indicators, theta)
    if criterion == "bulk":
        eta_max = eta.max(initial=0.0)
        if eta_max == 0.0:
            return np.empty(0, np.int64)
        return np.flatnonzero(eta >= theta * eta_max)
    if criterion == "doerfler":
        total = float(np.sum(eta ** 2))
        if total == 0.0:
            return np.empty(0, np.int64)
        order = np.argsort(-eta, kind="stable")
        csum = np.cumsum(eta[order] ** 2)
        target = (1.0 - theta) * total
        k = int(np.argmax(csum >= target - 1e-12 * total)) + 1
        return np.sort(order[:k])
    raise ValueError(f"unknown marking criterion {criterion!r}")


def mark_coarsen(indicators, theta_star, criterion="bulk"):
    """Ids of the elements selected for coarsening, a sorted int64 array
    (mirror of ``mark_refine``).

    bulk: all elements with ``eta <= theta_star * eta_max``.  doerfler:
    accumulate smallest-indicator elements while the squared sum stays within
    ``theta_star`` of the squared total.
    """
    eta = _check_indicators(indicators, theta_star)
    if criterion == "bulk":
        eta_max = eta.max(initial=0.0)
        return np.flatnonzero(eta <= theta_star * eta_max)
    if criterion == "doerfler":
        total = float(np.sum(eta ** 2))
        budget = theta_star * total
        order = np.argsort(eta, kind="stable")
        csum = np.cumsum(eta[order] ** 2)
        k = int(np.searchsorted(csum, budget * (1.0 + 1e-12), side="right"))
        return np.sort(order[:k])
    raise ValueError(f"unknown marking criterion {criterion!r}")


# The node relation of one refinement step: the new mesh keeps the ``n_old``
# old nodes, and its node ``n_old + k`` is the lifted midpoint of the old edge
# ``endpoints[k]`` (an (K, 2) int array; K = 0 when nothing was split).
TransferMap = namedtuple("TransferMap",
                         "endpoints src_generation dst_generation")


def transfer(u_old, tmap):
    """Carry nodal values through a refinement step: old values are kept, and
    each new node takes its endpoints' average (P1 at its flat midpoint)."""
    if u_old.generation != tmap.src_generation:
        raise GenerationMismatch(
            f"function generation {u_old.generation} does not match the "
            f"transfer source {tmap.src_generation}")
    c = u_old.coefficients
    a, b = tmap.endpoints.T
    return FeFunction(tmap.dst_generation,
                      np.concatenate([c, 0.5 * (c[a] + c[b])]))


def _rotate_reference_first(nodes, tris):
    """Rotate triangles so the longest edge comes first.

    Ties (relative 1e-12) break toward the lowest opposite-node id, making
    the choice deterministic on symmetric meshes.
    """
    e = edge_rows(nodes, tris)
    lengths = np.sqrt((e * e).sum(axis=0))  # (3, k): row j, local edge j
    tied = (lengths >= lengths.max(axis=0) * (1.0 - 1e-12)).T
    opposite = tris[:, [2, 0, 1]]
    candidate = np.where(tied, opposite, np.iinfo(np.int64).max)
    j = np.argmin(candidate, axis=1)
    idx = (np.arange(3)[None, :] + j[:, None]) % 3
    return np.take_along_axis(tris, idx, axis=1)


def init_reference_edges(mesh):
    """Prepare a raw mesh for refinement.

    Rotates every triangle longest-edge-first (the standard initialization
    of the reference-edge convention) and flags the mesh as refinement-ready.
    Node ids and triangle order are untouched, so the mesh keeps its
    generation and bound functions stay valid.
    """
    if len(mesh.genealogy.nchild):
        raise ValueError("reference edges of a refined mesh are structural; "
                         "re-initializing them would corrupt the genealogy")
    rotated = _rotate_reference_first(mesh.nodes, mesh.triangles)
    out = SurfaceMesh(mesh.nodes, rotated, mesh.tri_parent, mesh.genealogy,
                      mesh.strategy, refedge_ready=True)
    out.generation = mesh.generation
    return out


# Child tables: one row of column indices per child into a triangle's
# (v0 v1 v2 m0 m1 m2), its vertices and the midpoints m0 = mid(v0,v1),
# m1 = mid(v1,v2), m2 = mid(v2,v0).  Keys are bit patterns of marked edges
# (bit j = local edge j); closure guarantees bit 0 is set.
_BISECT_TABLES = {
    0b001: np.array([(2, 0, 3), (1, 2, 3)]),
    0b011: np.array([(2, 0, 3), (3, 1, 4), (2, 3, 4)]),
    0b101: np.array([(3, 2, 5), (0, 3, 5), (1, 2, 3)]),
    0b111: np.array([(3, 2, 5), (0, 3, 5), (3, 1, 4), (2, 3, 4)]),
}
_RED_TABLE = np.array([(0, 3, 5), (3, 1, 4), (5, 4, 2), (4, 5, 3)])

_TABLES = {
    "nvb": _BISECT_TABLES,
    "rgb": {**_BISECT_TABLES, 0b111: _RED_TABLE},
}


def is_count(value):
    """Whether ``value`` is an integer >= 0 (a numpy one too), but no bool."""
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, bool) and value >= 0)


def _element_ids(marks, n_triangles):
    """Marked triangle ids as an int64 array, checked against the mesh."""
    ids = np.asarray(marks)
    if ids.dtype == bool or (ids.size and ids.dtype.kind not in "iu"):
        raise ValueError(f"marks must be triangle ids, got dtype {ids.dtype}")
    if ids.size and (ids.min() < 0 or ids.max() >= n_triangles):
        raise ValueError("mark refers to a nonexistent triangle")
    return ids.astype(np.int64, copy=False)


def refine(mesh, marks, strategy, surface):
    """Subdivide the marked triangles, with conformity closure; lift new nodes.

    Parameters
    ----------
    mesh : SurfaceMesh
        Conforming mesh with initialized reference edges.
    marks : array_like of int
        Ids of the triangles to refine, in any order, repeats allowed.
    strategy : {"nvb", "rgb"}
        nvb bisects reference edges recursively; rgb subdivides marked
        triangles into four and closes with green/blue bisections.
    surface : LevelSetSurface
        The surface the new nodes are lifted onto (``lift_new_nodes``).

    Returns
    -------
    (SurfaceMesh, TransferMap)
        The refined mesh and the map onto it.  The old nodes stay as they
        are; one new node per split edge follows: the midpoint of its
        ``TransferMap.endpoints`` row, lifted after rgb's choice of edges.

    Raises
    ------
    MetadataMissing
        If the mesh's reference edges were never initialized.
    StrategyMismatch
        If the mesh was previously refined with the other strategy.
    """
    if strategy not in _TABLES:
        raise ValueError(f"unknown refinement strategy {strategy!r}")
    if not mesh.refedge_ready:
        raise MetadataMissing("reference edges are not initialized; "
                              "run init_reference_edges first")
    if mesh.strategy is not None and mesh.strategy != strategy:
        raise StrategyMismatch(
            f"mesh was refined with {mesh.strategy!r}, cannot refine with "
            f"{strategy!r}")
    ids = _element_ids(marks, mesh.n_triangles)
    if ids.size == 0:
        return mesh, TransferMap(np.empty((0, 2), dtype=np.int64),
                                 mesh.generation, mesh.generation)

    edges, te = mesh.half_edges
    edge_marked = np.zeros(len(edges), dtype=bool)
    if strategy == "nvb":
        edge_marked[te[ids, 0]] = True
    else:
        edge_marked[te[ids]] = True
    # conformity closure: any marked edge forces the reference edge
    while True:
        need = edge_marked[te].any(axis=1) & ~edge_marked[te[:, 0]]
        if not need.any():
            break
        edge_marked[te[need, 0]] = True

    split_edges = np.nonzero(edge_marked)[0]
    mid_of_edge = np.full(len(edges), -1, dtype=np.int64)
    mid_of_edge[split_edges] = mesh.n_nodes + np.arange(len(split_edges))
    endpoints = edges[split_edges]
    mids = 0.5 * mesh.nodes[endpoints].sum(axis=1)
    new_nodes = np.vstack([mesh.nodes, mids])

    has = edge_marked[te]  # (M, 3)
    pattern = (has[:, 0].astype(np.int64) + 2 * has[:, 1] + 4 * has[:, 2])
    counts = np.array([1, 2, 0, 3, 0, 3, 0, 4], dtype=np.int64)[pattern]
    offsets = np.cumsum(counts) - counts
    split = pattern != 0

    # every per-triangle array is repeated over the child counts: a kept
    # triangle is its own only child, and the rows of the split ones are
    # overwritten from the child tables
    tri = mesh.triangles
    out_tris = np.repeat(tri, counts, axis=0)
    cols = np.hstack([tri, mid_of_edge[te]])  # (M, 6): v0 v1 v2 m0 m1 m2
    for pat, table in _TABLES[strategy].items():
        idx = np.nonzero(pattern == pat)[0]
        rows = offsets[idx, None] + np.arange(len(table))
        out_tris[rows] = cols[idx[:, None, None], table]
    # split parents get new genealogy rows, in triangle order
    row_of = len(mesh.genealogy.nchild) + np.cumsum(split) - 1
    out_parent = np.repeat(np.where(split, row_of, mesh.tri_parent), counts)

    if strategy == "rgb":
        # keep reference edge = longest edge on the children, before the lift
        child = np.repeat(split, counts)
        out_tris[child] = _rotate_reference_first(new_nodes, out_tris[child])
    new_nodes[mesh.n_nodes:] = lift_new_nodes(mids, surface)

    old = mesh.genealogy
    genealogy = Genealogy(
        verts=np.vstack([old.verts, tri[split]]),
        parent=np.concatenate([old.parent, mesh.tri_parent[split]]),
        nchild=np.concatenate([old.nchild, counts[split]]),
    )
    refined = SurfaceMesh(new_nodes, out_tris, out_parent, genealogy,
                          strategy, refedge_ready=True)
    return refined, TransferMap(endpoints, mesh.generation,
                                refined.generation)


def lift_new_nodes(points, surface):
    """The (k, 3) ``points``, those off the surface by more than
    ``geometry.ON_SURFACE_TOL`` (the tolerance a run's initial mesh must meet)
    projected onto it and the others bitwise intact, so lifting is idempotent;
    lifted points land within the tolerance too."""
    check_finite(points, "node")
    off = ~(np.abs(surface.distance(points)) <= ON_SURFACE_TOL)  # NaN: lift
    if not off.any():
        return points
    lifted = points.copy()
    lifted[off] = lift(surface, points[off])
    return lifted


def coarsen(mesh, marks, functions, protect_from=None):
    """Collapse marked sibling groups back to their parents.

    A group collapses only if all siblings are present and marked and the
    midpoint nodes that would vanish are referenced by no surviving triangle
    (good-to-coarsen).  Function values at surviving nodes are carried over
    unchanged; surviving nodes keep their coordinates and relative order.
    The genealogy records the refinement, so the coarse mesh keeps
    ``mesh.strategy``.

    Parameters
    ----------
    mesh : SurfaceMesh
    marks : array_like of int
        Ids of the triangles marked for coarsening, any order, repeats allowed.
    functions : list of FeFunction
        Bound to this mesh; restricted nodally onto the coarser mesh.
    protect_from : int, optional
        Nodes with index ``>= protect_from`` are never removed; a negative
        value or a bool raises ``ValueError``.

    Returns
    -------
    (SurfaceMesh, list of FeFunction, int)
        The coarsened mesh, the restricted functions, and the number of
        removed nodes.
    """
    if protect_from is not None and not is_count(protect_from):
        raise ValueError("protect_from must be None or an integer >= 0, "
                         f"got {protect_from!r}")
    for u in functions:
        u.check(mesh)
    gen = mesh.genealogy
    m_tris, n_nodes = mesh.n_triangles, mesh.n_nodes
    ids = _element_ids(marks, m_tris)
    n_rows = len(gen.nchild)
    if n_rows == 0 or ids.size == 0:
        return mesh, list(functions), 0

    marked = np.zeros(m_tris, dtype=bool)
    marked[ids] = True
    tp = mesh.tri_parent
    has_parent = tp >= 0
    live = np.bincount(tp[has_parent], minlength=n_rows)
    marked_live = np.bincount(tp[has_parent & marked], minlength=n_rows)
    collapsing = (live == gen.nchild) & (marked_live == gen.nchild)
    if not collapsing.any():
        return mesh, list(functions), 0

    tri = mesh.triangles
    coll_tris = np.zeros(m_tris, dtype=bool)
    coll_tris[has_parent] = collapsing[tp[has_parent]]
    # a node stays referenced if a surviving triangle or a restored parent
    # uses it; every child pattern holds all of its parent's vertices, so
    # dropping a group only adds its children's vertices to ``blocked``
    blocked = np.zeros(n_nodes, dtype=bool)
    if protect_from is not None:
        blocked[protect_from:] = True
    blocked[tri[~coll_tris].ravel()] = True
    blocked[gen.verts[collapsing].ravel()] = True
    ct = np.nonzero(coll_tris)[0]
    child_verts, group = tri[ct], tp[ct]
    child, corner = np.nonzero((child_verts[:, :, None]
                                != gen.verts[group][:, None, :]).all(axis=2))
    vanishing, owner = child_verts[child, corner], group[child]
    # fixed point: drop groups whose vanishing nodes would stay referenced
    while True:
        hit = blocked[vanishing] & collapsing[owner]
        if not hit.any():
            break
        collapsing[owner[hit]] = False
        if not collapsing.any():
            return mesh, list(functions), 0
        blocked[child_verts[~collapsing[group]].ravel()] = True
    coll_tris[has_parent] = collapsing[tp[has_parent]]

    rows = np.nonzero(collapsing)[0]
    new_tris_old = np.vstack([tri[~coll_tris], gen.verts[rows]])
    parent_rows_old = np.concatenate([tp[~coll_tris], gen.parent[rows]])

    referenced = np.zeros(n_nodes, dtype=bool)
    referenced[new_tris_old.ravel()] = True
    removed = int(n_nodes - referenced.sum())
    node_map = np.cumsum(referenced) - 1

    # new row of every old genealogy row; the extra last entry maps the
    # parent link -1 of an initial triangle to -1
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
    return coarse, restricted, removed
