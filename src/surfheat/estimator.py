"""Residual-based a posteriori indicators for the implicit time stepper.

Three element-wise quantities steer the adaptive driver: a spatial indicator
(co-normal flux jumps plus the strong interior residual), a temporal
indicator (full H1 norm of the discrete time increment), and a coarsening
indicator (its L2 part, bounding what nodal coarsening may spoil).  All are
exact integrals of piecewise polynomials -- no quadrature error enters.

``compute_indicators`` evaluates all three in one pass over the mesh's cached
P1 operators (``fem.p1_operators``, built on the first solve of a mesh): the
increment, its element L2 part and its gradient are formed once, and the
edge jumps are one sparse product.  ``coarsening_indicator`` needs only the
element areas, so a mesh that is only tested for coarsening builds no
operators.
"""

import numpy as np

# ``conormal_flux_jumps`` and ``basis_gradients`` are no longer called here;
# the benchmark's layer trace (perfbench/tracer.py) wraps them by these names.
from .mesh import conormal_flux_jumps  # noqa: F401
from .fem import basis_gradients, p1_operators  # noqa: F401


class Indicators:
    """Per-element squared indicators with their global sums.

    ``spatial_sq``, ``temporal_sq``, ``coarsening_sq`` are per-element
    vectors; jump contributions are split half/half between the two adjacent
    elements, so each global value equals the sum of its vector exactly.
    ``eta_combined`` is the scalar step indicator
    ``(1 + h^2) sqrt(tau (eta_h^2 + eta_tau^2))`` with the mesh-wide ``h``.
    """

    __slots__ = ("spatial_sq", "temporal_sq", "coarsening_sq", "eta_h_sq",
                 "eta_tau_sq", "eta_c_sq", "eta_combined", "tau", "h")

    def __init__(self, spatial_sq, temporal_sq, coarsening_sq, tau, h):
        self.spatial_sq = spatial_sq
        self.temporal_sq = temporal_sq
        self.coarsening_sq = coarsening_sq
        self.eta_h_sq = float(spatial_sq.sum())
        self.eta_tau_sq = float(temporal_sq.sum())
        self.eta_c_sq = float(coarsening_sq.sum())
        self.tau = float(tau)
        self.h = float(h)
        self.eta_combined = combined(np.sqrt(self.eta_h_sq),
                                     np.sqrt(self.eta_tau_sq), tau, h)


def _element_l2_sq(mesh, values):
    """Exact integral of the square of a P1 function, per element."""
    v = values[mesh.triangles.T]  # (3, M): one contiguous row per corner
    total = v[0] + v[1] + v[2]
    v *= v
    return mesh.metrics.area / 12.0 * (total * total + (v[0] + v[1] + v[2]))


def _increment(mesh, u_n, u_prev):
    """The time increment ``w = u_n - u_prev`` and its element L2 squares."""
    u_n.check(mesh)
    u_prev.check(mesh)
    w = u_n.coefficients - u_prev.coefficients
    return w, _element_l2_sq(mesh, w)


def _h1_semi_sq(mesh, ops, w):
    """Element squares of the H1 seminorm of ``w``."""
    g = (ops.grad @ w).reshape(3, -1)  # one row per component
    g *= g
    return mesh.metrics.area * (g[0] + g[1] + g[2])


def spatial_indicator(mesh, u_n, u_prev, f_h, tau):
    """Squared spatial indicator: per-element vector and its sum.

    Edge part: squared co-normal flux jump times ``h_S^2`` (the jump is
    constant along an edge of length ``h_S``), attributed half/half to the
    adjacent elements.  Element part: ``h_T^2`` times the exact square
    integral of the strong residual ``(u_n - u_prev)/tau - f_h``.
    """
    per_element = compute_indicators(mesh, u_n, u_prev, f_h, tau).spatial_sq
    return per_element, float(per_element.sum())


def temporal_indicator(mesh, u_n, u_prev):
    """Squared H1(T) norms of the time increment ``u_n - u_prev``."""
    w, l2_sq = _increment(mesh, u_n, u_prev)
    per_element = l2_sq + _h1_semi_sq(mesh, p1_operators(mesh), w)
    return per_element, float(per_element.sum())


def coarsening_indicator(mesh, u_n, u_prev):
    """Squared L2(T) norms of the time increment (the part of the temporal
    indicator that nodal coarsening can increase)."""
    _, per_element = _increment(mesh, u_n, u_prev)
    return per_element, float(per_element.sum())


def combined(eta_h, eta_tau, tau, h):
    """Step indicator ``(1 + h^2) sqrt(tau (eta_h^2 + eta_tau^2))`` from the
    (unsquared) spatial and temporal indicator values."""
    if eta_h < 0.0 or eta_tau < 0.0 or tau < 0.0 or h < 0.0:
        raise ValueError("indicator inputs must be nonnegative")
    return float((1.0 + h * h)
                 * np.sqrt(tau * (eta_h * eta_h + eta_tau * eta_tau)))


def compute_indicators(mesh, u_n, u_prev, f_h, tau):
    """All indicators of one accepted or tentative step, in one pass.

    The increment's element L2 squares are both the coarsening indicator and
    the L2 part of the temporal one; the jump operator turns ``u_n`` into
    ``|e| [d_n u_n]`` for every edge with one sparse product.
    """
    f_h.check(mesh)
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    w, coarsening_sq = _increment(mesh, u_n, u_prev)
    ops = p1_operators(mesh, edges=True)
    met = mesh.metrics
    temporal_sq = coarsening_sq + _h1_semi_sq(mesh, ops, w)
    weighted_jumps = ops.jump @ u_n.coefficients
    spatial_sq = (met.h_T ** 2 * _element_l2_sq(mesh,
                                                w / tau - f_h.coefficients)
                  + ops.half_incidence @ weighted_jumps ** 2)
    return Indicators(spatial_sq, temporal_sq, coarsening_sq, tau, met.h)
