"""Residual-based a posteriori indicators for the implicit time stepper.

Three element-wise quantities steer the adaptive driver: a spatial indicator
(co-normal flux jumps plus the strong interior residual), a temporal
indicator (full H1 norm of the discrete time increment), and a coarsening
indicator (its L2 part, bounding what nodal coarsening may spoil).  All are
exact integrals of piecewise polynomials -- no quadrature error enters.

``compute_indicators`` evaluates all three in one element-local pass on the
corner rows of the nodal values and the mesh's half-cotangent weights
(``fem.p1_operators``); the edge jumps are one ``np.bincount`` (Funken,
Praetorius and Wissgott, CMAM 11, 2011).  ``coarsening_indicator`` needs only
the element areas, so a mesh only tested for coarsening builds no operators.
"""

from collections import namedtuple

import numpy as np

# ``conormal_flux_jumps`` and ``basis_gradients`` are no longer called here;
# the benchmark's layer trace (perfbench/tracer.py) wraps them by these names.
from .mesh import conormal_flux_jumps  # noqa: F401
from .fem import basis_gradients, p1_operators  # noqa: F401


# Per-element squared indicators (``spatial_sq``, ``temporal_sq``,
# ``coarsening_sq``; a jump is split half/half between its two elements), their
# sums, and the scalar step indicator ``(1 + h^2) sqrt(tau (eta_h^2 +
# eta_tau^2))`` with the mesh-wide ``h``.
Indicators = namedtuple("Indicators", "spatial_sq temporal_sq coarsening_sq "
                        "eta_h_sq eta_tau_sq eta_c_sq eta_combined")


def _corner_l2_sq(area, v):
    """Element integrals of the square of a P1 function; ``v`` (3, M) corner
    rows, overwritten."""
    total = v[0] + v[1] + v[2]
    v *= v
    return area / 12.0 * (total * total + (v[0] + v[1] + v[2]))


def _increment(mesh, u_n, u_prev):
    """Corner rows of ``u_n - u_prev`` and its element L2 squares."""
    u_n.check(mesh)
    u_prev.check(mesh)
    w = (u_n.coefficients - u_prev.coefficients)[mesh.triangles.T]
    return w, _corner_l2_sq(mesh.metrics.area, w.copy())


def edge_jumps(mesh, values):
    """Length-weighted co-normal flux jumps ``|e| [d_n u]`` of every edge.
    With corner values ``u`` and ``c[k] = cot[k] (u[k + 1] - u[k])``, the
    flux out of a triangle across its local edge j is
    ``2 (c[j + 2] - c[j + 1])``.  An edge sums two fluxes, so the order of
    the half-edges does not change it."""
    u = values[mesh.triangles.T]
    c = p1_operators(mesh).cot * (u[[1, 2, 0]] - u)
    flux = u.reshape(-1, 3)  # into u's memory, in the order of tri_edges
    for j in range(3):
        np.subtract(c[j - 1], c[j - 2], out=flux[:, j])
    flux *= 2.0
    edges, tri_edges = mesh.half_edges
    return np.bincount(tri_edges.ravel(), flux.ravel(), minlength=len(edges))


def coarsening_indicator(mesh, u_n, u_prev):
    """Squared L2(T) norms of the time increment (the part of the temporal
    indicator that nodal coarsening can increase)."""
    _, per_element = _increment(mesh, u_n, u_prev)
    return per_element, float(per_element.sum())


def combined(eta_h, eta_tau, tau, h):
    """Step indicator ``(1 + h^2) sqrt(tau (eta_h^2 + eta_tau^2))`` from the
    (unsquared) spatial and temporal indicator values."""
    for name, value in (("eta_h", eta_h), ("eta_tau", eta_tau), ("tau", tau),
                        ("h", h)):
        if not 0.0 <= value < np.inf:  # a NaN fails it too
            raise ValueError(f"{name} must be nonnegative and finite, "
                             f"got {value}")
    return float((1.0 + h * h)
                 * np.sqrt(tau * (eta_h * eta_h + eta_tau * eta_tau)))


def compute_indicators(mesh, u_n, u_prev, f_h, tau):
    """All indicators of one accepted or tentative step, in one pass.

    Spatial: the squared co-normal flux jump times ``h_S^2`` on every edge
    (the jump is constant along an edge of length ``h_S``), attributed
    half/half to the adjacent elements, plus ``h_T^2`` times the exact
    square integral of the strong residual ``(u_n - u_prev)/tau - f_h``.
    Temporal: the squared H1(T) norms of the increment ``u_n - u_prev``.
    The increment's element L2 squares are both the coarsening indicator and
    the L2 part of the temporal one; its H1 part is
    ``sum_j cot[j] (w[j + 1] - w[j])^2``.
    """
    f_h.check(mesh)
    if not 0.0 < tau < np.inf:  # a NaN fails it too
        raise ValueError(f"tau must be positive and finite, got {tau}")
    w, coarsening_sq = _increment(mesh, u_n, u_prev)
    met = mesh.metrics
    d = w[[1, 2, 0]] - w
    d *= d
    d *= p1_operators(mesh).cot
    temporal_sq = coarsening_sq + (d[0] + d[1] + d[2])
    w /= tau
    w -= f_h.coefficients[mesh.triangles.T]
    residual_sq = _corner_l2_sq(met.area, w)
    del w, d  # at most three (3, M) arrays at a time, as in edge_jumps
    jumps = edge_jumps(mesh, u_n.coefficients)
    jumps *= jumps
    edge_sq = jumps[mesh.half_edges.tri_edges.T]
    spatial_sq = (met.h_T ** 2 * residual_sq
                  + 0.5 * (edge_sq[0] + edge_sq[1] + edge_sq[2]))
    eta_h_sq = float(spatial_sq.sum())
    eta_tau_sq = float(temporal_sq.sum())
    return Indicators(spatial_sq, temporal_sq, coarsening_sq, eta_h_sq,
                      eta_tau_sq, float(coarsening_sq.sum()),
                      combined(np.sqrt(eta_h_sq), np.sqrt(eta_tau_sq), tau,
                               met.h))
