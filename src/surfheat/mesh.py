"""Closed-surface triangle meshes.

The mesh is the single shared data structure of the package: a node array, an
oriented triangle array, and per-triangle refinement metadata.  A mesh is
immutable -- refinement, coarsening and node lifting build new meshes -- so
every derived quantity is computed lazily, on first use, and cached on the
mesh for its lifetime; nothing ever needs invalidating:

- the adjacency (edge table) and the element metrics, built here;
- the edge geometry (lengths and co-normals), built here; the solver no
  longer uses it, it serves as a reference;
- the P1 operator bundle (basis gradients, element stiffness blocks, mass
  and stiffness, the gradient, co-normal jump and half-incidence operators),
  built by ``fem.p1_operators`` when a mesh is first assembled, estimated
  or used for error norms;
- the lifted quadrature per surface and rule, built by ``fem`` on the first
  lifted error norm.

A mesh that is only tested for coarsening builds neither of the last two.

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
mesh: every refined triangle leaves behind one arena row (its vertex triple
plus a link to *its* parent's row), and each current triangle carries the row
index of its parent (``tri_parent``, ``-1`` for initial triangles) and its
position among the siblings (``tri_slot``).
"""

import itertools

import numpy as np

from .errors import DegenerateTriangle, InconsistentOrientation, NonManifold

_generation_counter = itertools.count(1)


class Genealogy:
    """Arena of parent-triangle records left behind by refinement.

    Attributes
    ----------
    verts : (P, 3) int array
        Vertex triple of each refined parent, in reference-edge-first order.
    parent : (P,) int array
        Arena row of the parent's own parent record, or -1.
    slot : (P,) int array
        Child slot the parent occupied within its parent, or -1.
    nchild : (P,) int array
        Number of children the refinement produced (2, 3 or 4).
    """

    __slots__ = ("verts", "parent", "slot", "nchild")

    def __init__(self, verts=None, parent=None, slot=None, nchild=None):
        self.verts = (np.empty((0, 3), dtype=np.int64) if verts is None
                      else np.asarray(verts, dtype=np.int64))
        self.parent = (np.empty(0, dtype=np.int64) if parent is None
                       else np.asarray(parent, dtype=np.int64))
        self.slot = (np.empty(0, dtype=np.int64) if slot is None
                     else np.asarray(slot, dtype=np.int64))
        self.nchild = (np.empty(0, dtype=np.int64) if nchild is None
                       else np.asarray(nchild, dtype=np.int64))

    def __len__(self):
        return len(self.nchild)

    def copy(self):
        return Genealogy(self.verts.copy(), self.parent.copy(),
                         self.slot.copy(), self.nchild.copy())


class ElementMetrics:
    """Per-element geometry: diameters, inradii, areas, unit normals."""

    __slots__ = ("h_T", "r_T", "area", "normal", "h", "rho")

    def __init__(self, h_T, r_T, area, normal, h, rho):
        self.h_T = h_T
        self.r_T = r_T
        self.area = area
        self.normal = normal
        self.h = h
        self.rho = rho


class EdgeGeometry:
    """Per-edge geometry: lengths and in-plane outward co-normals.

    ``conormal[e, k]`` is the unit vector lying in the plane of the k-th
    adjacent triangle, orthogonal to the edge, pointing away from the
    triangle's opposite vertex.
    """

    __slots__ = ("length", "conormal")

    def __init__(self, length, conormal):
        self.length = length
        self.conormal = conormal


def build_adjacency(triangles, n_nodes):
    """Edge table of an oriented closed triangle mesh.

    Parameters
    ----------
    triangles : (M, 3) int array
    n_nodes : int

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
    tri = np.asarray(triangles, dtype=np.int64)
    m = len(tri)
    a = tri[:, [0, 1, 2]].ravel()
    b = tri[:, [1, 2, 0]].ravel()
    tri_of = np.repeat(np.arange(m, dtype=np.int64), 3)
    local = np.tile(np.arange(3, dtype=np.int64), m)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    key = lo * np.int64(n_nodes) + hi
    uniq, inverse, counts = np.unique(key, return_inverse=True,
                                      return_counts=True)
    if np.any(counts != 2):
        bad = int(np.argmax(counts != 2))
        v0, v1 = divmod(int(uniq[bad]), n_nodes)
        raise NonManifold(
            f"edge ({v0}, {v1}) has {int(counts[bad])} incident triangles")
    n_edges = len(uniq)
    order = np.argsort(inverse, kind="stable")
    # after sorting by edge id, incidences come in pairs
    first, second = order[0::2], order[1::2]
    t1, t2 = tri_of[first], tri_of[second]
    l1, l2 = local[first], local[second]
    f1 = a[first] < b[first]
    f2 = a[second] < b[second]
    if np.any(f1 == f2):
        bad = int(np.argmax(f1 == f2))
        raise InconsistentOrientation(
            f"triangles {int(t1[bad])} and {int(t2[bad])} traverse edge "
            f"({int(lo[first[bad]])}, {int(hi[first[bad]])}) in the same direction")
    swap = t2 < t1
    edge_tris = np.where(swap[:, None], np.stack([t2, t1], axis=1),
                         np.stack([t1, t2], axis=1))
    edge_local = np.where(swap[:, None], np.stack([l2, l1], axis=1),
                          np.stack([l1, l2], axis=1))
    edge_forward = np.where(swap, f2, f1)
    edge_nodes = np.stack([lo[first], hi[first]], axis=1)
    tri_edges = np.empty((m, 3), dtype=np.int64)
    tri_edges[tri_of, local] = inverse
    assert n_edges == 3 * m // 2
    return edge_nodes, edge_tris, edge_local, edge_forward, tri_edges


class SurfaceMesh:
    """Oriented triangulation of a closed surface.

    Parameters
    ----------
    nodes : (N, 3) float array
    triangles : (M, 3) int array
        Consistently oriented vertex triples; first edge = reference edge
        once ``refedge_ready`` is set.
    node_birth : (N,) int array, optional
        Refinement round at which each node appeared (0 for initial nodes).
    tri_parent, tri_slot : (M,) int arrays, optional
        Genealogy links; -1 for triangles of the initial mesh.
    genealogy : Genealogy, optional
    strategy : {None, "nvb", "rgb"}
        Which refinement family produced this mesh.
    refedge_ready : bool
        Whether triangles are stored in reference-edge-first order.
    """

    def __init__(self, nodes, triangles, node_birth=None, tri_parent=None,
                 tri_slot=None, genealogy=None, strategy=None,
                 refedge_ready=False):
        self.nodes = np.ascontiguousarray(nodes, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 3:
            raise ValueError("nodes must have shape (N, 3)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValueError("triangles must have shape (M, 3)")
        if len(self.triangles) and (self.triangles.min() < 0
                                    or self.triangles.max() >= len(self.nodes)):
            raise ValueError("triangle refers to nonexistent node")
        n, m = len(self.nodes), len(self.triangles)
        self.node_birth = (np.zeros(n, dtype=np.int64) if node_birth is None
                           else np.asarray(node_birth, dtype=np.int64))
        self.tri_parent = (np.full(m, -1, dtype=np.int64) if tri_parent is None
                           else np.asarray(tri_parent, dtype=np.int64))
        self.tri_slot = (np.full(m, -1, dtype=np.int64) if tri_slot is None
                         else np.asarray(tri_slot, dtype=np.int64))
        self.genealogy = Genealogy() if genealogy is None else genealogy
        self.strategy = strategy
        self.refedge_ready = bool(refedge_ready)
        self.generation = next(_generation_counter)
        self._adjacency = None
        self._metrics = None
        self._edge_geom = None
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
        m = SurfaceMesh(nodes, self.triangles, self.node_birth,
                        self.tri_parent, self.tri_slot, self.genealogy,
                        self.strategy, self.refedge_ready)
        m.generation = self.generation
        return m

    # -------------------------------------------------------------- adjacency

    def _ensure_adjacency(self):
        if self._adjacency is None:
            self._adjacency = build_adjacency(self.triangles, self.n_nodes)
        return self._adjacency

    @property
    def edges(self):
        """(E, 2) endpoints, smaller id first, lexicographically sorted."""
        return self._ensure_adjacency()[0]

    @property
    def edge_tris(self):
        """(E, 2) incident triangles, smaller triangle id first."""
        return self._ensure_adjacency()[1]

    @property
    def edge_local(self):
        """(E, 2) local edge index within each incident triangle."""
        return self._ensure_adjacency()[2]

    @property
    def edge_forward(self):
        """(E,) orientation bit of the first incident triangle."""
        return self._ensure_adjacency()[3]

    @property
    def tri_edges(self):
        """(M, 3) global edge id of each triangle's local edges."""
        return self._ensure_adjacency()[4]

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

    @property
    def edge_geometry(self):
        """Edge lengths and co-normals (cached)."""
        if self._edge_geom is None:
            self._edge_geom = _compute_edge_geometry(self)
        return self._edge_geom


def element_metrics(mesh):
    """Per-triangle diameter, inradius, area, unit normal; global h and rho.

    ``h_T`` is the longest edge, ``r_T = 2 area / perimeter`` the inradius,
    ``rho = max h_T / r_T`` the shape-regularity measure.

    Raises
    ------
    DegenerateTriangle
        If some triangle's area is not above ``1e-14 * h**2``.
    """
    p = mesh.nodes[mesh.triangles]  # (M, 3, 3)
    e0 = p[:, 1] - p[:, 0]
    e1 = p[:, 2] - p[:, 1]
    e2 = p[:, 0] - p[:, 2]
    lengths = np.stack([np.linalg.norm(e0, axis=1),
                        np.linalg.norm(e1, axis=1),
                        np.linalg.norm(e2, axis=1)], axis=1)
    h_T = lengths.max(axis=1)
    perimeter = lengths.sum(axis=1)
    cr = np.cross(e0, -e2)
    two_area = np.linalg.norm(cr, axis=1)
    area = 0.5 * two_area
    h = float(h_T.max()) if len(h_T) else 0.0
    if np.any(area <= 1e-14 * h * h):
        bad = int(np.argmin(area))
        raise DegenerateTriangle(
            f"triangle {bad} has area {area[bad]:.3g} (h = {h:.3g})")
    normal = cr / two_area[:, None]
    r_T = 2.0 * area / perimeter
    rho = float((h_T / r_T).max()) if len(h_T) else 0.0
    return ElementMetrics(h_T=h_T, r_T=r_T, area=area, normal=normal,
                          h=h, rho=rho)


def _compute_edge_geometry(mesh):
    en = mesh.edges
    et = mesh.edge_tris
    el = mesh.edge_local
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


def conormal_flux_jump(mesh, edge, grad_t1, grad_t2):
    """Co-normal flux jump of a P1 function across one edge.

    ``grad_t1``/``grad_t2`` are the constant tangential gradients on the two
    triangles adjacent to ``edge`` (in ``edge_tris`` order).  Returns the sum
    of the outward co-normal fluxes; for coplanar triangles this equals the
    usual difference of normal derivatives up to sign.
    """
    geom = mesh.edge_geometry
    return float(np.dot(grad_t1, geom.conormal[edge, 0])
                 + np.dot(grad_t2, geom.conormal[edge, 1]))


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
    geom = mesh.edge_geometry
    et = mesh.edge_tris
    g = np.asarray(tri_grads, dtype=float)
    return (np.einsum("ej,ej->e", g[et[:, 0]], geom.conormal[:, 0])
            + np.einsum("ej,ej->e", g[et[:, 1]], geom.conormal[:, 1]))


def validate_mesh(mesh, surface=None, lift_tol=1e-10):
    """Full structural audit; raises on the first violated invariant.

    Checks: closed 2-manifold adjacency, consistent orientation,
    non-degenerate elements, and (when ``surface`` is given) that every node
    lies on the surface to ``lift_tol``.
    """
    build_adjacency(mesh.triangles, mesh.n_nodes)  # NonManifold / orientation
    element_metrics(mesh)  # DegenerateTriangle
    used = np.zeros(mesh.n_nodes, dtype=bool)
    used[mesh.triangles.ravel()] = True
    if not used.all():
        raise ValueError(f"{int((~used).sum())} unreferenced nodes")
    if surface is not None:
        d = np.abs(surface.distance(mesh.nodes))
        if d.max() > lift_tol:
            raise ValueError(
                f"node off the surface by {d.max():.3g} (tol {lift_tol:.3g})")
    return True


# --------------------------------------------------------------------- file IO

def write_off(mesh, path):
    """Write the mesh in ASCII OFF format."""
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
    if tokens[0] != "OFF":
        raise ValueError("not an OFF file")
    nv, nf = int(tokens[1]), int(tokens[2])
    pos = 4
    nodes = np.array(tokens[pos:pos + 3 * nv], dtype=float).reshape(nv, 3)
    pos += 3 * nv
    triangles = np.empty((nf, 3), dtype=np.int64)
    for i in range(nf):
        k = int(tokens[pos])
        if k != 3:
            raise ValueError("only triangle faces are supported")
        triangles[i] = [int(t) for t in tokens[pos + 1:pos + 4]]
        pos += 1 + k
    return SurfaceMesh(nodes, triangles)


def write_vtk(mesh, path, point_data=None, name="u"):
    """Write a legacy-VTK POLYDATA snapshot with an optional nodal scalar."""
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
            values = np.asarray(point_data, dtype=float)
            if len(values) != mesh.n_nodes:
                raise ValueError("point_data length does not match node count")
            fh.write(f"POINT_DATA {mesh.n_nodes}\n")
            fh.write(f"SCALARS {name} double 1\n")
            fh.write("LOOKUP_TABLE default\n")
            for v in values.tolist():
                fh.write(f"{v!r}\n")
