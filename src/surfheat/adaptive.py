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

Nodes created while resolving the current step are tagged with the step
index and are off-limits to the same step's coarsening phase, so genealogy
birth tags grow monotonically along the run.
"""

import time
from dataclasses import dataclass

import numpy as np

from .errors import (DofCapExceeded, MetadataMissing, NonFiniteValue,
                     SolverDivergence, SpatialStagnation, TauUnderflow)
from .estimator import coarsening_indicator, compute_indicators
from .fem import (FeFunction, assemble, backward_euler_step, interpolate,
                  lifted_l2_distance)
from .mesh import validate_mesh
from .refinement import (coarsen, lift_new_nodes, mark_coarsen, mark_refine,
                         refine, transfer)

_CRITERIA = ("bulk", "doerfler")
_STRATEGIES = ("nvb", "rgb")
_COARSENING_MODES = ("matching", "none", "reset")


@dataclass(frozen=True)
class AdaptiveConfig:
    """Tolerances, marking parameters and safety guards for one run.

    ``coarsening`` selects what happens after a step is accepted:
    ``"matching"`` runs the indicator-guarded coarsening loop, ``"none"``
    keeps every node, and ``"reset"`` restricts the solution back to the
    initial mesh.  ``tau_min`` defaults to ``1e-8 * t_end``.
    """

    tol: float
    tau0: float
    t_end: float
    theta: float = 0.5
    theta_star: float = 0.2
    criterion: str = "bulk"
    strategy: str = "nvb"
    coarsening: str = "matching"
    max_spatial_iters: int = 30
    max_coarsen_iters: int = 10
    tau_min: float = None
    dof_cap: int = 2_000_000

    def __post_init__(self):
        if self.tau_min is None:
            object.__setattr__(self, "tau_min", 1e-8 * self.t_end)
        if not 0.0 < self.tol < np.inf:
            raise ValueError("tol must be positive and finite")
        if not 0.0 < self.t_end < np.inf:
            raise ValueError("t_end must be positive and finite")
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        if not 0.0 < self.theta_star < 1.0:
            raise ValueError("theta_star must lie in (0, 1)")
        if not self.tau_min < self.tau0 <= self.t_end:
            raise ValueError("need tau_min < tau0 <= t_end")
        if self.criterion not in _CRITERIA:
            raise ValueError(f"unknown marking criterion {self.criterion!r}")
        if self.strategy not in _STRATEGIES:
            raise ValueError(f"unknown refinement strategy {self.strategy!r}")
        if self.coarsening not in _COARSENING_MODES:
            raise ValueError(f"unknown coarsening mode {self.coarsening!r}")
        if self.max_spatial_iters < 1:
            raise ValueError("max_spatial_iters must be at least 1")
        if self.max_coarsen_iters < 0:
            raise ValueError("max_coarsen_iters must be nonnegative")
        if self.dof_cap < 1:
            raise ValueError("dof_cap must be at least 1")


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

    Before any solve, ``validate_mesh`` raises ``NonManifold`` or
    ``InconsistentOrientation`` when the initial mesh is not a closed
    oriented surface, ``DegenerateTriangle`` for a degenerate triangle and
    ``ValueError`` for an unreferenced node; refinement and coarsening keep
    these invariants, so they are checked only here.  Raises ``ValueError``
    when the interpolated initial datum misses the tolerance,
    ``SpatialStagnation``/``TauUnderflow``/``DofCapExceeded`` when a safety
    guard trips, ``NonFiniteValue`` or ``SolverDivergence`` when a solve
    meets a NaN or fails; the last five name the step, its start t, tau and
    the working mesh's dofs.
    """
    if not initial_mesh.refedge_ready:
        raise MetadataMissing("initial mesh carries no reference edges")
    validate_mesh(initial_mesh)
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
    t = 0.0
    tau = config.tau0
    step = 0

    def where():  # the context an abort names
        return (f"[step {step}, t = {t:.6g}, tau = {tau:.6g}, "
                f"dofs = {work_mesh.n_nodes}]")

    while config.t_end - t > eps:
        step += 1
        started = time.perf_counter()
        step_spatial_iters = 0
        step_cg_iters = 0
        work_mesh = mesh
        work_uprev = u

        while True:  # one temporal attempt per pass
            if t + tau >= config.t_end - eps:
                tau = config.t_end - t
            target = t + tau

            for spatial_iter in range(1, config.max_spatial_iters + 1):
                mass, stiffness = assemble(work_mesh)  # cached per mesh
                f_h = interpolate(work_mesh, problem.f, time=target)
                try:
                    u_new, iters = backward_euler_step(
                        mass, stiffness, work_uprev, f_h, tau)
                except (NonFiniteValue, SolverDivergence) as exc:
                    raise type(exc)(f"{exc} {where()}") from exc
                step_spatial_iters += 1
                step_cg_iters += iters
                log.cum_dof_steps += work_mesh.n_nodes
                ind = compute_indicators(work_mesh, u_new, work_uprev, f_h,
                                         tau)
                if ind.eta_h_sq < config.tol:
                    break
                if spatial_iter == config.max_spatial_iters:
                    raise SpatialStagnation(
                        f"spatial indicator still at {ind.eta_h_sq:.3e} after "
                        f"{config.max_spatial_iters} solves "
                        f"(tol {config.tol:.3e}) {where()}")
                marks = mark_refine(np.sqrt(ind.spatial_sq), config.theta,
                                    config.criterion)
                refined, tmap = refine(work_mesh, marks, config.strategy,
                                       birth=step)
                if refined is work_mesh:
                    raise SpatialStagnation(
                        "marking selected no element while the spatial "
                        f"indicator is above tolerance {where()}")
                if refined.n_nodes > config.dof_cap:
                    raise DofCapExceeded(
                        f"refinement to {refined.n_nodes} nodes exceeds the "
                        f"cap of {config.dof_cap} {where()}")
                work_uprev = transfer(work_uprev, tmap)
                work_mesh = lift_new_nodes(refined, surface)
                log.peak_dofs = max(log.peak_dofs, work_mesh.n_nodes)

            if ind.eta_tau_sq >= config.tol:
                tau = 0.5 * tau
                if tau < config.tau_min:
                    raise TauUnderflow(
                        f"time step {tau:.3e} fell below {config.tau_min:.3e};"
                        f" tolerance unreachable in time {where()}")
                continue  # retry on the refined mesh, fresh spatial loop
            break

        # Accept: commit time and state, double the step for the next one.
        mesh, u = work_mesh, u_new
        t = target
        accepted_tau = tau
        dofs = mesh.n_nodes
        tau = 2.0 * accepted_tau

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
                    mesh, marks, [u, u_prev_acc], protect_birth=step)
                coarsen_iters += 1
                if removed == 0:
                    break
                new_sq, new_total = coarsening_indicator(new_mesh, new_u,
                                                         new_uprev)
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

        record = StepRecord(
            step=step, t=t, tau=accepted_tau, dofs=dofs,
            eta_h_sq=ind.eta_h_sq, eta_tau_sq=ind.eta_tau_sq,
            eta_c_sq=eta_c_sq, eta_combined=ind.eta_combined,
            spatial_iters=step_spatial_iters, coarsen_iters=coarsen_iters,
            nodes_removed=nodes_removed, cg_iters=step_cg_iters,
            wall_ms=(time.perf_counter() - started) * 1e3)
        log.records.append(record)
        if on_accept is not None:
            on_accept(record, mesh, u)

    return log
