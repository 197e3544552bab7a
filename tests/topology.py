"""Topological invariants of a mesh, read by the tests only."""


def euler_characteristic(mesh):
    """V - E + F (2 for a sphere, 0 for a torus)."""
    return mesh.n_nodes - len(mesh.half_edges.edges) + mesh.n_triangles
