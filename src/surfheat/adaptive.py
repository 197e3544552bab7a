"""Space-time adaptive driver for the implicit surface heat solver.

One accepted step runs three phases on one working-state record, ``_Work``.
``_resolve`` makes one temporal attempt: it solves on the working mesh,
evaluates the indicators at the target time, marks (by the square roots of
the per-element spatial values), refines and lifts until the squared spatial
indicator drops below the tolerance.  The temporal gate in ``run`` then
accepts the step or halves the time step and calls ``_resolve`` again on the
already-refined mesh -- rejection never un-refines.  Acceptance doubles the
time step for the next step, and ``_coarsen`` runs the post-accept phase:
``matching`` keeps removing nodes while the squared coarsening indicator
stays within the tolerance, rolling back the pass that overshoots.

Every solve after a refinement starts CG from the previous iterate,
transferred to the refined mesh (nested iteration; Bornemann and Deuflhard,
Numer. Math. 75, 1996), and every adaptive solve stops at the relative
residual ``CG_RTOL`` = 1e-7, not the fixed-mesh sweep's 1e-10.

A matching pass offers ``coarsen`` only triangles whose parent genealogy row
was made during the run and before this step.  Rows are appended and kept in
order, so that is one range: from the initial mesh's row count up to the
step's own rows at the end.  Every child holds a midpoint its refinement made,
so no node of the step or of the initial mesh goes: the initial nodes stay a
prefix, as ``reset`` relies on.

Guards, as module constants: ``MAX_SPATIAL_ITERS`` solves per attempt,
``DOF_CAP`` nodes and tau above ``TAU_MIN_FACTOR * t_end``.  One handler per
step, first solve to coarsening, names the step in any ``SurfheatError``.
"""

import time
from dataclasses import dataclass

import numpy as np

from .errors import (DofCapExceeded, MetadataMissing, NonFiniteValue,
                     SpatialStagnation, SurfheatError, TauUnderflow)
from .estimator import coarsening_indicator, compute_indicators
from .fem import (FeFunction, assemble, backward_euler_step, interpolate,
                  lifted_l2_distance)
from .mesh import validate_mesh
# ``lift_new_nodes`` is imported for the layer trace (perfbench/tracer.py) only
from .refinement import (coarsen, lift_new_nodes,  # noqa: F401
                         mark_coarsen, mark_refine, refine, transfer)

CRITERIA = ("bulk", "doerfler")
STRATEGIES = ("nvb", "rgb")
COARSENING_MODES = ("matching", "none", "reset")

MAX_SPATIAL_ITERS = 30  # solves per temporal attempt
# CG's relative residual in every adaptive solve, far above the sweep's 1e-10:
# most solves only feed a marking or a temporal reject.  It is the loosest
# decade that leaves the seed-0 benchmark step logs unchanged; at 1e-6 the
# decay run's peak moves from 188,710 to 188,702 dofs.
CG_RTOL = 1e-7
DOF_CAP = 2_000_000  # nodes a mesh of the run may have, initial included
TAU_MIN_FACTOR = 1e-8  # the smallest time step, relative to t_end


@dataclass(frozen=True)
class AdaptiveConfig:
    """Tolerances and marking parameters for one run.

    ``coarsening`` selects what happens after a step is accepted:
    ``"matching"`` runs the indicator-guarded coarsening loop, ``"none"``
    keeps every node, and ``"reset"`` restricts the solution back to the
    initial mesh.  ``max_coarsen_iters`` caps that loop's passes per step.
    """

    tol: float
    tau0: float
    t_end: float
    theta: float = 0.5
    theta_star: float = 0.2
    criterion: str = "bulk"
    strategy: str = "nvb"
    coarsening: str = "matching"
    max_coarsen_iters: int = 10

    def __post_init__(self):
        if not 0.0 < self.tol < np.inf:
            raise ValueError("tol must be positive and finite")
        if not 0.0 < self.t_end < np.inf:
            raise ValueError("t_end must be positive and finite")
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        if not 0.0 < self.theta_star < 1.0:
            raise ValueError("theta_star must lie in (0, 1)")
        if not TAU_MIN_FACTOR * self.t_end < self.tau0 <= self.t_end:
            raise ValueError("need 1e-8 * t_end < tau0 <= t_end")
        if self.criterion not in CRITERIA:
            raise ValueError(f"unknown marking criterion {self.criterion!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown refinement strategy {self.strategy!r}")
        if self.coarsening not in COARSENING_MODES:
            raise ValueError(f"unknown coarsening mode {self.coarsening!r}")
        n = self.max_coarsen_iters  # an integer >= 0, numpy's too, no bool
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
            raise ValueError(f"max_coarsen_iters must be an integer >= 0, "
                             f"got {self.max_coarsen_iters!r}")


@dataclass(frozen=True)
class StepRecord:
    """One accepted step.  ``dofs`` counts nodes at acceptance, before the
    coarsening phase; ``eta_c_sq`` is the value on the final grid of the
    matching coarsening loop, and on the accepted grid under ``none`` and
    ``reset``.  Iteration counters aggregate over rejected attempts too."""

    step: int
    t: float
    tau: float
    dofs: int
    eta_h_sq: float
    eta_tau_sq: float
    eta_c_sq: float
    eta_combined: float
    spatial_iters: int
    coarsen_iters: int
    nodes_removed: int
    cg_iters: int
    wall_ms: float


class RunLog:
    """Accepted-step records plus run-wide counters.

    ``cum_dof_steps`` sums the node count over every linear solve of the
    run, including solves of rejected attempts; it is the mesh-resolution
    proxy for total work.
    """

    def __init__(self):
        self.records = []
        self.cum_dof_steps = 0
        self.peak_dofs = 0

    @property
    def accepted_steps(self):
        return len(self.records)

    @property
    def final_dofs(self):
        """Nodes of the last step's mesh after its coarsening phase."""
        if not self.records:
            return 0
        return self.records[-1].dofs - self.records[-1].nodes_removed


@dataclass
class _Work:
    """A step's working state: the mesh the next solve runs on, ``u_prev``
    on that mesh, and the step's solves and CG iterations so far."""

    mesh: object
    u_prev: object
    solves: int = 0
    cg_iters: int = 0


def _resolve(problem, surface, config, work, log, target, tau):
    """One temporal attempt to ``target`` that advances ``work``; returns
    ``(u_new, indicators)`` on ``work.mesh``.  CG starts from ``u_prev``, and
    after a refinement from the transferred iterate (nested iteration).
    ``SpatialStagnation`` and ``DofCapExceeded`` are raised before ``work``
    takes a refinement."""
    x0 = None  # CG starts from u_prev
    for spatial_iter in range(1, MAX_SPATIAL_ITERS + 1):
        mass, stiffness = assemble(work.mesh)  # cached per mesh
        f_h = interpolate(work.mesh, problem.f, time=target)
        u_new, iters = backward_euler_step(mass, stiffness, work.u_prev,
                                           f_h, tau, x0=x0, rtol=CG_RTOL)
        work.solves += 1
        work.cg_iters += iters
        log.cum_dof_steps += work.mesh.n_nodes
        ind = compute_indicators(work.mesh, u_new, work.u_prev, f_h, tau)
        if ind.eta_h_sq < config.tol:
            return u_new, ind
        if spatial_iter == MAX_SPATIAL_ITERS:
            raise SpatialStagnation(
                f"spatial indicator still at {ind.eta_h_sq:.3e} after "
                f"{MAX_SPATIAL_ITERS} solves (tol {config.tol:.3e})")
        marks = mark_refine(np.sqrt(ind.spatial_sq), config.theta,
                            config.criterion)
        refined, tmap = refine(work.mesh, marks, config.strategy, surface)
        if refined is work.mesh:
            raise SpatialStagnation("marking selected no element while the "
                                    "spatial indicator is above tolerance")
        if refined.n_nodes > DOF_CAP:
            raise DofCapExceeded(f"refinement to {refined.n_nodes} nodes "
                                 f"exceeds the cap of {DOF_CAP}")
        work.mesh, work.u_prev = refined, transfer(work.u_prev, tmap)
        x0 = transfer(u_new, tmap).coefficients  # nested start
        log.peak_dofs = max(log.peak_dofs, work.mesh.n_nodes)


def _coarsen(config, mesh, u, u_prev, ind, initial_mesh, step_rows):
    """The post-accept phase of ``mesh`` and ``u`` by ``config.coarsening``.
    A matching pass offers ``coarsen`` the marked triangles whose parent row
    was made in the run before this step, whose own rows are the last
    ``step_rows``.  Returns ``(mesh, u, eta_c_sq, iters, nodes_removed)``."""
    accepted, first = mesh, len(initial_mesh.genealogy.nchild)
    coarsening_sq, eta_c_sq, iters = ind.coarsening_sq, ind.eta_c_sq, 0
    if config.coarsening == "reset" and mesh is not initial_mesh:
        u = FeFunction.on_mesh(
            initial_mesh, u.coefficients[:initial_mesh.n_nodes].copy())
        mesh = initial_mesh
    while (config.coarsening == "matching" and eta_c_sq <= config.tol
           and iters < config.max_coarsen_iters):
        marks = mark_coarsen(np.sqrt(coarsening_sq), config.theta_star,
                             config.criterion)
        row = mesh.tri_parent[marks]
        last = len(mesh.genealogy.nchild) - step_rows
        new_mesh, (new_u, new_uprev), _ = coarsen(
            mesh, marks[(row >= first) & (row < last)], [u, u_prev])
        iters += 1
        if new_mesh is mesh:
            break
        new_sq, new_total = coarsening_indicator(new_mesh, new_u, new_uprev)
        if new_total > config.tol:
            break  # roll back to the previous grid
        mesh, u, u_prev = new_mesh, new_u, new_uprev
        coarsening_sq, eta_c_sq = new_sq, new_total
    return mesh, u, eta_c_sq, iters, accepted.n_nodes - mesh.n_nodes


def run(problem, surface, initial_mesh, config, on_accept=None):
    """Advance ``problem`` from 0 to ``config.t_end`` adaptively.

    ``on_accept(record, mesh, u)``, when given, is called once per accepted
    step with the final (post-coarsening) mesh and solution of that step.

    Before any solve, ``validate_mesh`` raises ``NonFiniteValue`` for a
    non-finite node, ``NonManifold`` or ``InconsistentOrientation`` for an
    open or misoriented initial mesh, ``DegenerateTriangle`` for a degenerate
    triangle and ``ValueError`` for a node unreferenced or off ``surface``
    (``geometry.ON_SURFACE_TOL``); refinement lifts the nodes it adds and
    coarsening only drops nodes, so this is checked here.  An initial mesh
    above ``DOF_CAP`` nodes raises ``DofCapExceeded``, an initial datum
    that is not finite at a node ``NonFiniteValue`` naming the first such
    node, and one whose interpolation misses the tolerance ``ValueError``.
    A step's ``SurfheatError`` (a guard's ``SpatialStagnation``,
    ``DofCapExceeded`` or ``TauUnderflow``, a solve's ``NonFiniteValue`` or
    ``SolverDivergence``, a lift, refinement or coarsening) is re-raised as
    its own type from the original, with the step, its start t, tau and
    working dofs appended; errors of ``on_accept`` pass through unchanged.
    """
    if not initial_mesh.refedge_ready:
        raise MetadataMissing("initial mesh carries no reference edges")
    validate_mesh(initial_mesh, surface)
    if initial_mesh.n_nodes > DOF_CAP:
        raise DofCapExceeded(f"initial mesh of {initial_mesh.n_nodes} nodes "
                             f"exceeds the cap of {DOF_CAP}")
    log = RunLog()
    eps = 1e-12 * max(1.0, config.t_end)

    u = interpolate(initial_mesh, problem.u0)
    finite = np.isfinite(u.coefficients)
    if not finite.all():
        i = int(np.argmin(finite))
        raise NonFiniteValue(f"initial datum u0 is not finite: node {i} "
                             f"has {u.coefficients[i]}")
    initial_error = lifted_l2_distance(initial_mesh, surface, u, problem.u0)
    if not initial_error <= config.tol:  # a NaN fails it too
        raise ValueError(
            f"initial mesh too coarse: interpolation error {initial_error:.3e}"
            f" exceeds tol {config.tol:.3e}")

    mesh = initial_mesh
    log.peak_dofs = mesh.n_nodes
    tau_floor = TAU_MIN_FACTOR * config.t_end
    t, tau, step = 0.0, config.tau0, 0
    while config.t_end - t > eps:
        step += 1
        started = time.perf_counter()
        if t + tau >= config.t_end - eps:
            tau = config.t_end - t
        work = _Work(mesh, u)
        try:
            u_new, ind = _resolve(problem, surface, config, work, log,
                                  t + tau, tau)
            while ind.eta_tau_sq >= config.tol:  # reject; keep the refinement
                tau = 0.5 * tau
                if tau < tau_floor:
                    raise TauUnderflow(
                        f"time step {tau:.3e} fell below {tau_floor:.3e}; "
                        f"tolerance unreachable in time")
                u_new, ind = _resolve(problem, surface, config, work, log,
                                      t + tau, tau)
            mesh, u, eta_c_sq, coarsen_iters, nodes_removed = _coarsen(
                config, work.mesh, u_new, work.u_prev, ind, initial_mesh,
                len(work.mesh.genealogy.nchild) - len(mesh.genealogy.nchild))
        except SurfheatError as exc:  # the one place an abort names its step
            raise type(exc)(
                f"{exc} [step {step}, t = {t:.6g}, tau = {tau:.6g}, "
                f"dofs = {work.mesh.n_nodes}]") from exc

        record = StepRecord(
            step=step, t=t + tau, tau=tau, dofs=work.mesh.n_nodes,
            eta_h_sq=ind.eta_h_sq, eta_tau_sq=ind.eta_tau_sq,
            eta_c_sq=eta_c_sq, eta_combined=ind.eta_combined,
            spatial_iters=work.solves, coarsen_iters=coarsen_iters,
            nodes_removed=nodes_removed, cg_iters=work.cg_iters,
            wall_ms=(time.perf_counter() - started) * 1e3)
        t, tau = record.t, 2.0 * tau  # double the step for the next one
        log.records.append(record)
        if on_accept is not None:
            on_accept(record, mesh, u)

    return log
