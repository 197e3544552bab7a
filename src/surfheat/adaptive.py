"""Space-time adaptive driver for the implicit surface heat solver.

One accepted step runs three phases.  A spatial loop solves on the current
mesh, evaluates the indicators at the target time and refines (marking by
the square roots of the per-element spatial values) until the squared
spatial indicator drops below the tolerance.  A temporal gate then either
accepts the step or halves the time step and repeats the spatial loop on
the already-refined mesh -- rejection never un-refines.  Acceptance doubles
the time step for the next attempt and enters a coarsening loop that keeps
removing nodes while the squared coarsening indicator stays within the
tolerance, rolling back the iteration that overshoots.

A step's coarsening never removes a node created while resolving that step.
Refinement appends nodes and coarsening keeps the survivors in order, so those
nodes are the tail from the step's starting node count, less the nodes removed
so far.  ``reset`` relies on the same order: the initial nodes are a prefix.

Guards, as module constants: ``MAX_SPATIAL_ITERS`` solves per attempt,
``DOF_CAP`` nodes and tau above ``TAU_MIN_FACTOR * t_end``.  One handler per
step, first solve to coarsening, names the step in any ``SurfheatError``.
"""

import time
from dataclasses import dataclass

import numpy as np

from .errors import (DofCapExceeded, MetadataMissing, SpatialStagnation,
                     SurfheatError, TauUnderflow)
from .estimator import coarsening_indicator, compute_indicators
from .fem import (FeFunction, assemble, backward_euler_step, interpolate,
                  lifted_l2_distance)
from .mesh import validate_mesh
from .refinement import (coarsen, lift_new_nodes, mark_coarsen, mark_refine,
                         refine, transfer)

_CRITERIA = ("bulk", "doerfler")
_STRATEGIES = ("nvb", "rgb")
_COARSENING_MODES = ("matching", "none", "reset")

MAX_SPATIAL_ITERS = 30  # solves per temporal attempt
DOF_CAP = 2_000_000  # nodes a refinement may reach
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
        if self.criterion not in _CRITERIA:
            raise ValueError(f"unknown marking criterion {self.criterion!r}")
        if self.strategy not in _STRATEGIES:
            raise ValueError(f"unknown refinement strategy {self.strategy!r}")
        if self.coarsening not in _COARSENING_MODES:
            raise ValueError(f"unknown coarsening mode {self.coarsening!r}")
        if self.max_coarsen_iters < 0:
            raise ValueError("max_coarsen_iters must be nonnegative")


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


def run(problem, surface, initial_mesh, config, on_accept=None):
    """Advance ``problem`` from 0 to ``config.t_end`` adaptively.

    ``on_accept(record, mesh, u)``, when given, is called once per accepted
    step with the final (post-coarsening) mesh and solution of that step.

    Before any solve, ``validate_mesh`` raises ``NonFiniteValue`` for a
    non-finite node, ``NonManifold`` or ``InconsistentOrientation`` for an
    open or misoriented initial mesh, ``DegenerateTriangle`` for a degenerate
    triangle and ``ValueError`` for a node unreferenced or off ``surface``
    (``geometry.ON_SURFACE_TOL``); refinement lifts the nodes it adds and
    coarsening only drops nodes, so this is checked here.  Raises
    ``ValueError`` when the interpolated initial datum misses the tolerance.
    A step's ``SurfheatError`` (a guard's ``SpatialStagnation``,
    ``DofCapExceeded`` or ``TauUnderflow``, a solve's ``NonFiniteValue`` or
    ``SolverDivergence``, a lift, refinement or coarsening) is re-raised as
    its own type from the original, with the step, its start t, tau and
    working dofs appended; errors of ``on_accept`` pass through unchanged.
    """
    if not initial_mesh.refedge_ready:
        raise MetadataMissing("initial mesh carries no reference edges")
    validate_mesh(initial_mesh, surface)
    log = RunLog()
    eps = 1e-12 * max(1.0, config.t_end)

    u = interpolate(initial_mesh, problem.u0)
    initial_error = lifted_l2_distance(initial_mesh, surface, u, problem.u0)
    if initial_error > config.tol:
        raise ValueError(
            f"initial mesh too coarse: interpolation error {initial_error:.3e}"
            f" exceeds tol {config.tol:.3e}")

    mesh = initial_mesh
    n_initial = initial_mesh.n_nodes
    log.peak_dofs = mesh.n_nodes
    tau_floor = TAU_MIN_FACTOR * config.t_end
    t = 0.0
    tau = config.tau0
    step = 0

    while config.t_end - t > eps:
        step += 1
        started = time.perf_counter()
        step_spatial_iters = 0
        step_cg_iters = 0
        n_start = mesh.n_nodes
        work_mesh = mesh
        work_uprev = u
        try:
            while True:  # one temporal attempt per pass
                if t + tau >= config.t_end - eps:
                    tau = config.t_end - t
                target = t + tau

                for spatial_iter in range(1, MAX_SPATIAL_ITERS + 1):
                    mass, stiffness = assemble(work_mesh)  # cached per mesh
                    f_h = interpolate(work_mesh, problem.f, time=target)
                    u_new, iters = backward_euler_step(
                        mass, stiffness, work_uprev, f_h, tau)
                    step_spatial_iters += 1
                    step_cg_iters += iters
                    log.cum_dof_steps += work_mesh.n_nodes
                    ind = compute_indicators(work_mesh, u_new, work_uprev,
                                             f_h, tau)
                    if ind.eta_h_sq < config.tol:
                        break
                    if spatial_iter == MAX_SPATIAL_ITERS:
                        raise SpatialStagnation(
                            f"spatial indicator still at {ind.eta_h_sq:.3e} "
                            f"after {MAX_SPATIAL_ITERS} solves "
                            f"(tol {config.tol:.3e})")
                    marks = mark_refine(np.sqrt(ind.spatial_sq),
                                        config.theta, config.criterion)
                    refined, tmap = refine(work_mesh, marks, config.strategy)
                    if refined is work_mesh:
                        raise SpatialStagnation(
                            "marking selected no element while the spatial "
                            "indicator is above tolerance")
                    if refined.n_nodes > DOF_CAP:
                        raise DofCapExceeded(
                            f"refinement to {refined.n_nodes} nodes exceeds "
                            f"the cap of {DOF_CAP}")
                    work_uprev = transfer(work_uprev, tmap)
                    work_mesh = lift_new_nodes(refined, surface)
                    log.peak_dofs = max(log.peak_dofs, work_mesh.n_nodes)

                if ind.eta_tau_sq >= config.tol:
                    tau = 0.5 * tau
                    if tau < tau_floor:
                        raise TauUnderflow(
                            f"time step {tau:.3e} fell below "
                            f"{tau_floor:.3e}; tolerance unreachable in time")
                    continue  # retry on the refined mesh, fresh spatial loop
                break

            # Accept, then coarsen the accepted state.
            mesh, u = work_mesh, u_new
            coarsening_sq, eta_c_sq = ind.coarsening_sq, ind.eta_c_sq
            coarsen_iters = 0
            nodes_removed = 0
            if config.coarsening == "matching":
                u_prev_acc = work_uprev
                while (eta_c_sq <= config.tol
                       and coarsen_iters < config.max_coarsen_iters):
                    marks = mark_coarsen(np.sqrt(coarsening_sq),
                                         config.theta_star, config.criterion)
                    new_mesh, (new_u, new_uprev), removed = coarsen(
                        mesh, marks, [u, u_prev_acc],
                        protect_from=n_start - nodes_removed)
                    coarsen_iters += 1
                    if removed == 0:
                        break
                    new_sq, new_total = coarsening_indicator(
                        new_mesh, new_u, new_uprev)
                    if new_total > config.tol:
                        break  # roll back to the previous grid
                    mesh, u, u_prev_acc = new_mesh, new_u, new_uprev
                    nodes_removed += removed
                    coarsening_sq, eta_c_sq = new_sq, new_total
            elif config.coarsening == "reset" and mesh is not initial_mesh:
                nodes_removed = mesh.n_nodes - n_initial
                u = FeFunction.on_mesh(initial_mesh,
                                       u.coefficients[:n_initial].copy())
                mesh = initial_mesh
        except SurfheatError as exc:  # the one place an abort names its step
            raise type(exc)(
                f"{exc} [step {step}, t = {t:.6g}, tau = {tau:.6g}, "
                f"dofs = {work_mesh.n_nodes}]") from exc

        record = StepRecord(
            step=step, t=target, tau=tau, dofs=work_mesh.n_nodes,
            eta_h_sq=ind.eta_h_sq, eta_tau_sq=ind.eta_tau_sq,
            eta_c_sq=eta_c_sq, eta_combined=ind.eta_combined,
            spatial_iters=step_spatial_iters, coarsen_iters=coarsen_iters,
            nodes_removed=nodes_removed, cg_iters=step_cg_iters,
            wall_ms=(time.perf_counter() - started) * 1e3)
        t, tau = target, 2.0 * tau  # double the step for the next one
        log.records.append(record)
        if on_accept is not None:
            on_accept(record, mesh, u)

    return log
