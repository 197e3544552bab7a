"""Closed-surface triangle meshes.

The mesh is the single shared data structure of the package: a node array, an
oriented triangle array, and per-triangle refinement metadata.  A mesh is
immutable -- refinement, coarsening and node lifting build new meshes -- so
every derived quantity is computed lazily, on first use, and cached on the
mesh for its lifetime; nothing ever needs invalidating:

- the half-edge sort (:class:`HalfEdges`), the mesh's one edge record:
  edge ids, ``tri_edges`` and the half-edges of every edge, for open and
  closed triangle sets alike; ``edges``, ``tri_edges`` and ``n_edges`` read
  it unchecked;
- the element metrics and squared edge lengths, on contiguous coordinate rows;
- the P1 operator bundle (mass, stiffness and half-cotangent weights), built
  from the half-edge sort and the metrics by ``fem.p1_operators`` when a
  mesh is first assembled or estimated;
- the lifted quadrature per surface, built by ``fem`` on the first lifted
  error norm.

A mesh that is only tested for coarsening builds neither of the last two.
The closed-surface checks of :func:`build_adjacency` are not cached: refinement
(then lifting) and coarsening keep a mesh closed, oriented, finite and on its
surface, so :func:`validate_mesh` checks it once, on the initial mesh of a run.

Triangle storage convention
---------------------------
The first edge of a triangle, ``(v0, v1)``, is its *reference edge*: the edge
bisected by newest-vertex bisection and the edge against which red/green/blue
patterns are classified.  After bisection the newly created vertex is stored
last, so the convention is self-maintaining.  ``init_reference_edges`` rotates
raw triangles into this convention (longest edge first).

Refinement history
------------------
Coarsening needs to know which triangles are siblings and what their parent
looked like.  That history lives in a :class:`Genealogy` arena owned by the
mesh: every refined triangle leaves behind one arena row (its vertex triple,
a link to *its* parent's row and its number of children), and each current
triangle carries the row index of its parent (``tri_parent``, ``-1`` for
initial triangles).  Siblings are the triangles that share a parent row.
"""

import itertools
from collections import namedtuple

import numpy as np

from .errors import DegenerateTriangle, InconsistentOrientation, NonManifold
from .geometry import ON_SURFACE_TOL, check_finite

_generation_counter = itertools.count(1)


class Genealogy:
    """Arena of parent-triangle records left behind by refinement.

    Attributes
    ----------
    verts : (P, 3) int array
        Vertex triple of each refined parent, in reference-edge-first order.
    parent : (P,) int array
        Arena row of the parent's own parent record, or -1.
    nchild : (P,) int array
        Number of children the refinement produced (2, 3 or 4).
    """

    __slots__ = ("verts", "parent", "nchild")

    def __init__(self, verts=None, parent=None, nchild=None):
        self.verts = (np.empty((0, 3), dtype=np.int64) if verts is None
                      else np.asarray(verts, dtype=np.int64))
        self.parent = (np.empty(0, dtype=np.int64) if parent is None
                       else np.asarray(parent, dtype=np.int64))
        self.nchild = (np.empty(0, dtype=np.int64) if nchild is None
                       else np.asarray(nchild, dtype=np.int64))

    def __len__(self):
        return len(self.nchild)


# Per-element geometry: diameters, inradii, areas, unit normals, h and rho,
# and the (3, M) squared edge lengths ``edge_sq`` (row j: local edge j).
ElementMetrics = namedtuple("ElementMetrics",
                            "h_T r_T area normal h rho edge_sq")

# Per-edge geometry: lengths and in-plane outward co-normals.
# ``conormal[e, k]`` is the unit vector lying in the plane of the k-th
# adjacent triangle, orthogonal to the edge, pointing away from the
# triangle's opposite vertex.
EdgeGeometry = namedtuple("EdgeGeometry", "length conormal")


class HalfEdges:
    """The 3M half-edges ``3 t + j`` (local vertex j to j + 1 of triangle t),
    sorted by one unstable argsort of their keys ``lo * N + hi``.

    ``order`` (3M,) lists the edges lexicographically, each with its
    ``counts`` (E,) half-edges in no particular order; ``edges`` (E, 2)
    holds the endpoints ``lo < hi``, ``tri_edges`` (M, 3) the edge of each
    half-edge, ``forward`` (3M,) whether a half-edge runs from ``lo`` to
    ``hi``.  No closed surface is assumed.
    """

    __slots__ = ("order", "counts", "edges", "tri_edges", "forward")

    def __init__(self, triangles, n_nodes):
        tri = np.asarray(triangles, dtype=np.int64)
        a, b = tri.ravel(), np.roll(tri, -1, axis=1).ravel()
        self.forward = a < b
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        key = lo * np.int64(n_nodes) + hi
        self.order = np.argsort(key)
        key = key[self.order]
        new_edge = np.empty(len(key) + 1, dtype=bool)
        new_edge[0] = new_edge[-1] = True
        np.not_equal(key[1:], key[:-1], out=new_edge[1:-1])
        start = np.flatnonzero(new_edge)
        self.counts = np.diff(start)
        first = self.order[start[:-1]]
        self.edges = np.stack([lo[first], hi[first]], axis=1)
        edge_of = np.empty(len(key), dtype=np.int64)
        edge_of[self.order] = np.cumsum(new_edge[:-1], dtype=np.int64) - 1
        self.tri_edges = edge_of.reshape(tri.shape)


def build_adjacency(triangles, n_nodes, half_edges=None):
    """Edge table of an oriented closed triangle mesh.

    Parameters
    ----------
    triangles : (M, 3) int array
    n_nodes : int
    half_edges : HalfEdges, optional
        The sorted half-edges of ``triangles``, if already built.

    Returns
    -------
    edge_nodes : (E, 2) int array
        Endpoints with ``edge_nodes[:, 0] < edge_nodes[:, 1]``, sorted
        lexicographically (deterministic edge ids).
    edge_tris : (E, 2) int array
        The two incident triangles; the smaller triangle index is first.
    edge_local : (E, 2) int array
        Local edge index (0, 1, 2) of the edge within each incident triangle;
        local edge j joins vertices j and (j+1) mod 3.
    edge_forward : (E,) bool array
        True if the first triangle traverses the edge from the smaller to the
        larger node id.
    tri_edges : (M, 3) int array
        Global edge id of each triangle's three local edges.

    Raises
    ------
    NonManifold
        If some edge is not shared by exactly two triangles.
    InconsistentOrientation
        If two triangles traverse a shared edge in the same direction.
    """
    he = half_edges or HalfEdges(triangles, n_nodes)
    if np.any(he.counts != 2):
        bad = int(np.argmax(he.counts != 2))
        raise NonManifold(f"edge ({he.edges[bad, 0]}, {he.edges[bad, 1]}) "
                          f"has {he.counts[bad]} incident triangles")
    # every edge owns two consecutive half-edges; the smaller index first
    # (min and max of the two columns: a row-wise np.sort is ten times slower)
    a, b = he.order[0::2], he.order[1::2]
    pair = np.stack([np.minimum(a, b), np.maximum(a, b)], axis=1)
    forward = he.forward[pair]
    if np.any(forward[:, 0] == forward[:, 1]):
        bad = int(np.argmax(forward[:, 0] == forward[:, 1]))
        raise InconsistentOrientation(
            f"triangles {pair[bad, 0] // 3} and {pair[bad, 1] // 3} traverse "
            f"edge ({he.edges[bad, 0]}, {he.edges[bad, 1]}) in the same "
            "direction")
    edge_tris, edge_local = np.divmod(pair, 3)
    return he.edges, edge_tris, edge_local, forward[:, 0], he.tri_edges


class SurfaceMesh:
    """Oriented triangulation of a closed surface.

    Parameters
    ----------
    nodes : (N, 3) float array
    triangles : (M, 3) int array
        Consistently oriented vertex triples; first edge = reference edge
        once ``refedge_ready`` is set.
    tri_parent : (M,) int array, optional
        Genealogy row of each triangle's parent; -1 for triangles of the
        initial mesh.
    genealogy : Genealogy, optional
    strategy : {None, "nvb", "rgb"}
        Which refinement family produced this mesh.
    refedge_ready : bool
        Whether triangles are stored in reference-edge-first order.
    """

    def __init__(self, nodes, triangles, tri_parent=None, genealogy=None,
                 strategy=None, refedge_ready=False):
        self.nodes = np.ascontiguousarray(nodes, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 3:
            raise ValueError("nodes must have shape (N, 3)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValueError("triangles must have shape (M, 3)")
        if len(self.triangles) and (self.triangles.min() < 0
                                    or self.triangles.max() >= len(self.nodes)):
            raise ValueError("triangle refers to nonexistent node")
        self.tri_parent = (np.full(len(self.triangles), -1, dtype=np.int64)
                           if tri_parent is None
                           else np.asarray(tri_parent, dtype=np.int64))
        self.genealogy = Genealogy() if genealogy is None else genealogy
        self.strategy = strategy
        self.refedge_ready = bool(refedge_ready)
        self.generation = next(_generation_counter)
        self._half_edges = None
        self._metrics = None
        self._operators = None  # fem.P1Operators, filled by fem.p1_operators
        self._lifted = {}  # lifted quadratures, filled by fem

    # ------------------------------------------------------------------ basic

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def n_triangles(self):
        return len(self.triangles)

    def __repr__(self):
        return (f"SurfaceMesh({self.n_nodes} nodes, {self.n_triangles} "
                f"triangles, gen={self.generation})")

    def with_nodes(self, nodes):
        """Same connectivity and metadata with new node positions.

        The DOF layout is unchanged, so the result keeps this mesh's
        generation id: nodal coefficient vectors remain valid.  Used for
        lifting freshly created nodes onto the surface.
        """
        m = SurfaceMesh(nodes, self.triangles, self.tri_parent,
                        self.genealogy, self.strategy, self.refedge_ready)
        m.generation = self.generation
        return m

    # -------------------------------------------------------------- adjacency

    @property
    def half_edges(self):
        """The sorted half-edges (cached); see :class:`HalfEdges`."""
        if self._half_edges is None:
            self._half_edges = HalfEdges(self.triangles, self.n_nodes)
        return self._half_edges

    @property
    def edges(self):
        """(E, 2) endpoints, smaller id first, lexicographically sorted."""
        return self.half_edges.edges

    @property
    def tri_edges(self):
        """(M, 3) global edge id of each triangle's local edges."""
        return self.half_edges.tri_edges

    @property
    def n_edges(self):
        return len(self.edges)

    def euler_characteristic(self):
        """V - E + F (2 for a sphere, 0 for a torus)."""
        return self.n_nodes - self.n_edges + self.n_triangles

    # ---------------------------------------------------------------- metrics

    @property
    def metrics(self):
        """Element metrics bundle (cached)."""
        if self._metrics is None:
            self._metrics = element_metrics(self)
        return self._metrics


def edge_rows(mesh):
    """Edge vectors of every triangle as contiguous coordinate rows.

    Returns a (3, 3, M) array ``e`` with ``e[k, j]`` the k-th coordinate of
    local edge j, ``p[(j + 1) % 3] - p[j]``, on every triangle.
    """
    # (coordinate, corner, triangle)
    p = np.take(np.ascontiguousarray(mesh.nodes.T), mesh.triangles.T, axis=1)
    return np.roll(p, -1, axis=1) - p


def cross_rows(a, b):
    """Cross products of vectors stored as coordinate rows ``a[k]``, ``b[k]``
    (broadcasting over the trailing axes)."""
    return np.stack([a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def element_metrics(mesh):
    """Per-triangle diameter, inradius, area, unit normal; global h and rho.

    ``h_T`` is the longest edge, ``r_T = 2 area / perimeter`` the inradius,
    ``rho = max h_T / r_T`` the shape-regularity measure.  ``normal`` is an
    (M, 3) view of contiguous coordinate rows (``normal.T``); ``edge_sq``
    keeps the squared edge lengths for ``fem.p1_operators``.

    Raises
    ------
    DegenerateTriangle
        If some triangle's area is not above ``1e-14 * h**2``.
    """
    e = edge_rows(mesh)
    edge_sq = (e * e).sum(axis=0)  # (3, M): one row per local edge
    lengths = np.sqrt(edge_sq)
    h_T = lengths.max(axis=0)
    perimeter = lengths.sum(axis=0)
    cr = cross_rows(e[:, 2], e[:, 0])  # (p1 - p0) x (p2 - p0)
    two_area = np.sqrt((cr * cr).sum(axis=0))
    area = 0.5 * two_area
    h = float(h_T.max()) if len(h_T) else 0.0
    if np.any(area <= 1e-14 * h * h):
        bad = int(np.argmin(area))
        raise DegenerateTriangle(
            f"triangle {bad} has area {area[bad]:.3g} (h = {h:.3g})")
    normal = (cr / two_area).T
    r_T = 2.0 * area / perimeter
    rho = float((h_T / r_T).max()) if len(h_T) else 0.0
    return ElementMetrics(h_T=h_T, r_T=r_T, area=area, normal=normal,
                          h=h, rho=rho, edge_sq=edge_sq)


def _compute_edge_geometry(mesh):
    """Edge lengths and co-normals of a closed mesh (a reference for tests)."""
    en = mesh.edges
    _, et, el, _, _ = build_adjacency(mesh.triangles, mesh.n_nodes,
                                      mesh.half_edges)
    p = mesh.nodes
    normal = mesh.metrics.normal
    length = np.linalg.norm(p[en[:, 1]] - p[en[:, 0]], axis=1)
    conormal = np.empty((len(en), 2, 3))
    tri = mesh.triangles
    for k in (0, 1):
        t = et[:, k]
        loc = el[:, k]
        va = tri[t, loc]
        vb = tri[t, (loc + 1) % 3]
        vc = tri[t, (loc + 2) % 3]
        ev = p[vb] - p[va]
        co = np.cross(ev, normal[t])
        mid = 0.5 * (p[va] + p[vb])
        sign = np.sign(np.einsum("ij,ij->i", co, mid - p[vc]))
        co *= (sign / np.linalg.norm(co, axis=1))[:, None]
        conormal[:, k] = co
    return EdgeGeometry(length=length, conormal=conormal)


def conormal_flux_jumps(mesh, tri_grads):
    """Vectorized co-normal flux jumps for all edges.

    Parameters
    ----------
    mesh : SurfaceMesh
    tri_grads : (M, 3) array
        Constant tangential gradient per triangle.

    Returns
    -------
    (E,) array of jump values in edge-id order.
    """
    geom = _compute_edge_geometry(mesh)
    et = build_adjacency(mesh.triangles, mesh.n_nodes, mesh.half_edges)[1]
    g = np.asarray(tri_grads, dtype=float)
    return (np.einsum("ej,ej->e", g[et[:, 0]], geom.conormal[:, 0])
            + np.einsum("ej,ej->e", g[et[:, 1]], geom.conormal[:, 1]))


def validate_mesh(mesh, surface=None):
    """Full structural audit; raises on the first violated invariant.

    Checks: finite node coordinates (``NonFiniteValue``), closed 2-manifold
    adjacency, consistent orientation, non-degenerate elements, every node
    referenced, and (when ``surface`` is given) that every node lies on the
    surface to within ``geometry.ON_SURFACE_TOL`` (``ValueError``).  The
    half-edge sort it reads stays cached on the mesh.
    """
    check_finite(mesh.nodes, "node")
    # NonManifold / InconsistentOrientation
    build_adjacency(mesh.triangles, mesh.n_nodes, mesh.half_edges)
    mesh.metrics  # DegenerateTriangle; cached for the first assembly
    used = np.zeros(mesh.n_nodes, dtype=bool)
    used[mesh.triangles.ravel()] = True
    if not used.all():
        raise ValueError(f"{int((~used).sum())} unreferenced nodes")
    if surface is not None:
        d = np.abs(surface.distance(mesh.nodes))
        if d.max() > ON_SURFACE_TOL:
            raise ValueError(f"node off the surface by {d.max():.3g} "
                             f"(tol {ON_SURFACE_TOL:.3g})")
    return True


# --------------------------------------------------------------------- file IO

def write_off(mesh, path):
    """Write the mesh (closed or not) in ASCII OFF format."""
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{mesh.n_nodes} {mesh.n_triangles} {mesh.n_edges}\n")
        for x, y, z in mesh.nodes.tolist():
            fh.write(f"{x!r} {y!r} {z!r}\n")
        for a, b, c in mesh.triangles.tolist():
            fh.write(f"3 {a} {b} {c}\n")


def read_off(path):
    """Read an ASCII OFF file into a raw :class:`SurfaceMesh`.

    The result has no refinement metadata; run ``init_reference_edges``
    (module ``refinement``) before refining it.
    """
    with open(path) as fh:
        tokens = []
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                tokens.extend(line.split())
    if len(tokens) < 4 or tokens[0] != "OFF":
        raise ValueError("not an OFF file")
    try:
        nv, nf = int(tokens[1]), int(tokens[2])
    except ValueError:
        raise ValueError(f"OFF header counts {tokens[1]!r} and {tokens[2]!r} "
                         "must be integers") from None
    if nv < 0 or nf < 0:
        raise ValueError(f"OFF header declares {nv} nodes and {nf} faces")
    pos = 4
    found = (len(tokens) - pos) // 3
    if found < nv:
        raise ValueError(f"OFF header declares {nv} nodes, file holds "
                         f"coordinates for {found}")
    nodes = np.empty((nv, 3))
    for k, token in enumerate(tokens[pos:pos + 3 * nv]):
        try:
            nodes.flat[k] = float(token)
        except ValueError:
            raise ValueError(f"OFF node {k // 3} has a non-numeric "
                             f"coordinate {token!r}") from None
    pos += 3 * nv
    triangles = np.empty((nf, 3), dtype=np.int64)
    for i in range(nf):
        if pos + 4 > len(tokens):
            raise ValueError(f"OFF header declares {nf} faces, file holds {i}")
        try:
            k = int(tokens[pos])
            face = [int(t) for t in tokens[pos + 1:pos + 4]]
        except ValueError:
            raise ValueError(f"OFF face {i} has a non-integer entry in "
                             f"{' '.join(tokens[pos:pos + 4])!r}") from None
        if k != 3:
            raise ValueError(f"OFF face {i} has {k} vertices; only triangle "
                             "faces are supported")
        bad = [v for v in face if not 0 <= v < nv]
        if bad:
            raise ValueError(f"OFF face {i} refers to node {bad[0]}, but the "
                             f"file declares {nv} nodes")
        triangles[i] = face
        pos += 1 + k
    return SurfaceMesh(nodes, triangles)


def write_vtk(mesh, path, point_data=None, name="u"):
    """Write a legacy-VTK POLYDATA snapshot with an optional nodal scalar."""
    if point_data is not None:
        point_data = np.asarray(point_data, dtype=float)
        if len(point_data) != mesh.n_nodes:
            raise ValueError("point_data length does not match node count")
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("surfheat snapshot\n")
        fh.write("ASCII\n")
        fh.write("DATASET POLYDATA\n")
        fh.write(f"POINTS {mesh.n_nodes} double\n")
        for x, y, z in mesh.nodes.tolist():
            fh.write(f"{x!r} {y!r} {z!r}\n")
        fh.write(f"POLYGONS {mesh.n_triangles} {4 * mesh.n_triangles}\n")
        for a, b, c in mesh.triangles.tolist():
            fh.write(f"3 {a} {b} {c}\n")
        if point_data is not None:
            fh.write(f"POINT_DATA {mesh.n_nodes}\n")
            fh.write(f"SCALARS {name} double 1\n")
            fh.write("LOOKUP_TABLE default\n")
            for v in point_data.tolist():
                fh.write(f"{v!r}\n")
