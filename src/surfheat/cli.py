"""Command-line experiment drivers.

Four subcommands cover the standard studies: ``convergence`` marches a
uniform-mesh/fixed-step sweep and tabulates errors against the exact
solution (extrapolated CG starts, norms on a worker thread; rows bitwise
those of a serial march), ``run`` executes one adaptive run and streams
its step log, ``verify-geometry`` measures the geometric consistency of the
discrete surfaces, and ``timing`` benchmarks the refinement-strategy matrix
on the travelling-peak problem.  Every subcommand writes one CSV file;
diagnostic summaries go to stdout.  Failures (guard aborts, bad arguments)
print a one-line message on stderr and exit with status 2.
"""

import argparse
import csv
import dataclasses
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .adaptive import (COARSENING_MODES, CRITERIA, DOF_CAP, STRATEGIES,
                       AdaptiveConfig, StepRecord, run)
from .errors import SurfheatError
from .estimator import compute_indicators
from .fem import (ErrorEvaluator, assemble, backward_euler_step,
                  interpolate, quadrature_blocks)
from .geometry import geometric_operators, torus, unit_sphere
from .mesh import write_vtk
from .problems import get_problem, icosphere, torus_grid

CONVERGENCE_FIELDS = ("h", "tau", "dofs", "err_linf_l2", "err_l2_h1",
                      "estimator")
GEOMETRY_FIELDS = ("level", "h", "max_abs_d", "max_abs_one_minus_mu",
                   "max_norm_P_minus_Atilde")
TIMING_FIELDS = ("refinement", "coarsening", "wall_s", "cum_dof_steps",
                 "accepted_steps", "peak_dofs")

# ------------------------------------------------------------- convergence

# Binomial weights extrapolating the last k solutions (newest first) to the
# next step index.  Orders 0 to 4 gave 53.0, 41.2, 28.7, 16.5 and 11.8 level-5
# CG iterations per step; past order 3 the worker's error norms bound a step.
EXTRAPOLATION = ((1.0,), (2.0, -1.0), (3.0, -3.0, 1.0), (4.0, -6.0, 4.0, -1.0))


def _march_uniform(problem, mesh, mass, stiffness, evaluator, tau, t_end,
                   pool):
    """Fixed-mesh backward Euler march; returns the three error columns.

    ``err_linf_l2`` is the largest lifted L2 error over all discrete times
    including t = 0; ``err_l2_h1`` accumulates tau * (L2^2 + H1-semi^2) over
    the steps; ``estimator`` accumulates the squared per-step combined
    indicator.  The final step is shortened so the times sum exactly to
    ``t_end``.  No solve reads an error: each step's norms run on ``pool``
    during the next solve, and are folded in step order at the end.  A step
    is submitted once the norms of the step two before it are done, so at
    most two steps' solutions wait for the worker.  Each solve starts from
    the ``EXTRAPOLATION`` of the last solutions; the rows are bitwise those
    of a serial march with the same starts.
    """
    u = interpolate(mesh, problem.u0)
    first = pool.submit(evaluator.errors, u, problem.u, problem.grad_u, 0.0)
    steps = []  # (step_tau, future); u_new is never written once submitted
    history, guess = [u.coefficients], np.zeros(mesh.n_nodes)  # newest first
    estimator = t = 0.0
    eps = 1e-12 * max(1.0, t_end)
    while t_end - t > eps:
        step_tau = tau if t + tau < t_end - eps else t_end - t
        target = t + step_tau
        f_h = interpolate(mesh, problem.f, time=target)
        np.dot(EXTRAPOLATION[len(history) - 1], history, out=guess)
        u_new, _ = backward_euler_step(mass, stiffness, u, f_h, step_tau,
                                       x0=guess)
        history = [u_new.coefficients, *history[:len(EXTRAPOLATION) - 1]]
        ind = compute_indicators(mesh, u_new, u, f_h, step_tau)
        estimator += ind.eta_combined ** 2
        if len(steps) >= 2:
            steps[-2][1].result()
        steps.append((step_tau, pool.submit(
            evaluator.errors, u_new, problem.u, problem.grad_u, target)))
        u, t = u_new, target
    err_linf_l2, _ = first.result()
    err_l2_h1_sq = 0.0
    for step_tau, future in steps:
        l2, h1 = future.result()
        err_linf_l2 = max(err_linf_l2, l2)
        err_l2_h1_sq += step_tau * (l2 ** 2 + h1 ** 2)
    return err_linf_l2, np.sqrt(err_l2_h1_sq), estimator


def convergence_sweep(problem, levels, taus, t_end=None):
    """Errors and estimators over a uniform sphere-mesh/time-step grid.

    Returns one row per (level, tau) pair in the CSV column order.  The
    matrices are assembled once per level and shared across time steps.
    Exact-solution callbacks run on one worker thread, overlapping the next
    solve; the rows are bitwise those of a serial march.  Raises
    ``ValueError`` unless the problem gives both ``u`` and ``grad_u``.
    """
    if problem.u is None or problem.grad_u is None:
        raise ValueError(f"problem {problem.name!r} has no exact solution "
                         f"and gradient to compare with")
    t_end = problem.t_end if t_end is None else float(t_end)
    if not 0.0 < t_end < np.inf:
        raise ValueError("t-end must be positive and finite")
    for tau in taus:
        if not 0.0 < tau <= t_end:
            raise ValueError(f"tau {tau} outside (0, t_end]")
    rows = []
    pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="errors")
    try:
        for level in levels:
            mesh = icosphere(level)
            # Built on this thread, so the worker finds every mesh cache
            # filled.  Its lifting runs in blocks of ``fem.BLOCK`` triangles,
            # so its order against ``assemble`` does not set the peak memory.
            evaluator = ErrorEvaluator(mesh, problem.surface)
            mass, stiffness = assemble(mesh)
            for tau in taus:
                errors = _march_uniform(problem, mesh, mass, stiffness,
                                        evaluator, tau, t_end, pool)
                rows.append((mesh.metrics.h, tau, mesh.n_nodes, *errors))
            del evaluator  # freed before the next level's is built
    finally:
        pool.shutdown(cancel_futures=True)
    return rows


# -------------------------------------------------------------------- runs

def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _within_cap(option, level, surface="sphere"):
    """Refuse a ``level`` above ``DOF_CAP`` nodes before its mesh is built:
    ``icosphere(level)`` has 10 * 4**level + 2 nodes and the torus mesh of
    ``geometry_report``, ``torus_grid(3 * 2**level)``, 36 * 4**level."""
    n_nodes = 10 * 4 ** level + 2 if surface == "sphere" else 36 * 4 ** level
    if n_nodes > DOF_CAP:
        raise ValueError(f"{option} {level} gives {n_nodes} nodes, "
                         f"above the cap of {DOF_CAP}")


def _levels(finest, surface="sphere"):
    """Levels 2..``finest`` of a ``--levels`` option; at least one, and the
    finest within ``DOF_CAP`` nodes."""
    if finest < 2:
        raise ValueError(f"--levels must be at least 2, got {finest}")
    _within_cap("--levels", finest, surface)
    return range(2, finest + 1)


def cmd_convergence(args):
    problem = get_problem(args.problem)
    levels = _levels(args.levels)
    taus = _parse_taus(args.taus)
    rows = convergence_sweep(problem, levels, taus, t_end=args.t_end)
    _write_csv(args.out, CONVERGENCE_FIELDS, rows)
    print(f"wrote {len(rows)} rows to {args.out}")


def cmd_run(args):
    _within_cap("--level", args.level)
    problem = get_problem(args.problem)
    t_end = problem.t_end if args.t_end is None else args.t_end
    config = AdaptiveConfig(tol=args.tol, tau0=args.tau0, t_end=t_end,
                            theta=args.theta, theta_star=args.theta_star,
                            criterion=args.criterion, strategy=args.strategy,
                            coarsening=args.coarsening)
    initial_mesh = icosphere(args.level)
    snapshot_dir = None
    if args.snapshots is not None:
        snapshot_dir = Path(args.snapshots)
        snapshot_dir.mkdir(parents=True, exist_ok=True)

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(f.name for f in dataclasses.fields(StepRecord))

        def on_accept(record, mesh, u):
            writer.writerow(dataclasses.astuple(record))
            fh.flush()
            if snapshot_dir is not None:
                write_vtk(mesh, snapshot_dir / f"step_{record.step:04d}.vtk",
                          point_data=u.coefficients, name="u")

        log = run(problem, problem.surface, initial_mesh, config,
                  on_accept=on_accept)
    print(f"accepted {log.accepted_steps} steps; peak dofs {log.peak_dofs}; "
          f"final dofs {log.final_dofs}; "
          f"cumulative dof-steps {log.cum_dof_steps}")


# ---------------------------------------------------------------- geometry

def geometry_report(surface_name, levels):
    """Geometric-consistency maxima of the discrete surface family.

    For each level the signed distance, the surface-measure ratio and the
    gap between the discrete projector and the transported one are sampled
    at the flat quadrature points of every triangle (degree-4 rule), one
    block of triangles at a time; the row records the worst point.  All
    three maxima shrink at second order for a smooth closed surface.
    """
    if surface_name == "sphere":
        surface = unit_sphere()
        make = icosphere
    elif surface_name == "torus":
        surface = torus()
        make = lambda lv: torus_grid(3 * 2 ** lv)  # noqa: E731
    else:
        raise ValueError(f"unknown surface {surface_name!r}")
    rows = []
    for level in levels:
        mesh = make(level)
        max_d = max_mu = max_pa = 0.0
        for _, points, nu_h in quadrature_blocks(mesh):
            ops = geometric_operators(surface, points, nu_h)
            max_d = max(max_d, float(np.abs(ops.distance).max()))
            max_mu = max(max_mu, float(np.abs(1.0 - ops.mu).max()))
            # A~ = mu P_h Q^T B^2 Q P_h = mu (B Q P_h)^T (B Q P_h), B symmetric
            P_h = np.eye(3) - nu_h[:, :, None] * nu_h[:, None, :]
            bqp = ops.grad_transform @ P_h
            a_tilde = ops.mu[:, None, None] * (np.swapaxes(bqp, 1, 2) @ bqp)
            gap = np.abs(P_h - a_tilde)
            max_pa = max(max_pa, float(gap.max()))
        rows.append((level, mesh.metrics.h, max_d, max_mu, max_pa))
    return rows


def fitted_orders(rows):
    """Least-squares log-log slopes of the three maxima against h.

    Signs are flipped so a second-order quantity reports +2.  Requires at
    least two levels.
    """
    log_h = np.log([row[1] for row in rows])
    orders = []
    for column in (2, 3, 4):
        log_q = np.log([row[column] for row in rows])
        orders.append(float(np.polyfit(log_h, log_q, 1)[0]))
    return tuple(orders)


def cmd_verify_geometry(args):
    levels = _levels(args.levels, args.surface)
    rows = geometry_report(args.surface, levels)
    _write_csv(args.out, GEOMETRY_FIELDS, rows)
    if len(rows) >= 2:
        o_d, o_mu, o_pa = fitted_orders(rows)
        print(f"{args.surface} fitted orders: max_abs_d {o_d:.3f}, "
              f"max_abs_one_minus_mu {o_mu:.3f}, "
              f"max_norm_P_minus_Atilde {o_pa:.3f}")
    else:
        print(f"{args.surface}: single level, no order fit")


# ------------------------------------------------------------------ timing

def timing_table(tol=0.4, tau0=0.02, theta=0.8, theta_star=0.2, level=3):
    """Strategy-matrix benchmark on the travelling-peak problem.

    Runs every (refinement, coarsening) combination on identical initial
    data and records wall time plus the mesh-size work proxies.  Wall times
    are hardware-bound; the cumulative DOF-steps column is the comparable
    quantity.
    """
    rows = []
    for strategy in ("rgb", "nvb"):
        for coarsening in ("none", "reset", "matching"):
            problem = get_problem("moving-peak-timing")
            config = AdaptiveConfig(tol=tol, tau0=tau0, t_end=problem.t_end,
                                    theta=theta, theta_star=theta_star,
                                    strategy=strategy, coarsening=coarsening)
            start = time.perf_counter()
            log = run(problem, problem.surface, icosphere(level), config)
            wall = time.perf_counter() - start
            rows.append((strategy, coarsening, wall, log.cum_dof_steps,
                         log.accepted_steps, log.peak_dofs))
    return rows


def cmd_timing(args):
    rows = timing_table()
    _write_csv(args.out, TIMING_FIELDS, rows)
    for strategy, coarsening, wall, cum, steps, peak in rows:
        print(f"{strategy:>4}/{coarsening:<8} wall {wall:8.2f}s  "
              f"dof-steps {cum:>10}  steps {steps:>4}  peak {peak:>7}")


# --------------------------------------------------------------------- CLI

def _parse_taus(text):
    try:
        taus = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"--taus expects comma-separated floats, got {text!r}")
    if not taus:
        raise ValueError("--taus is empty")
    return taus


def build_parser():
    parser = argparse.ArgumentParser(
        prog="surfheat",
        description="Adaptive surface heat-equation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convergence",
                       help="uniform-mesh error sweep against the exact "
                            "solution")
    p.add_argument("--problem", default="sphere-decay")
    p.add_argument("--levels", type=int, default=5,
                   help="finest subdivision level; the sweep covers 2..N")
    p.add_argument("--taus", default="0.01",
                   help="comma-separated list of time steps")
    p.add_argument("--t-end", type=float, default=None,
                   help="final time (default: the problem's)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("run", help="one adaptive run, step log to CSV")
    p.add_argument("--problem", default="sphere-decay")
    p.add_argument("--tol", type=float, default=0.01)
    p.add_argument("--tau0", type=float, default=0.02)
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--theta-star", type=float, default=0.2)
    p.add_argument("--criterion", choices=CRITERIA, default="bulk")
    p.add_argument("--strategy", choices=STRATEGIES, default="nvb")
    p.add_argument("--coarsening", choices=COARSENING_MODES,
                   default="matching")
    p.add_argument("--level", type=int, default=3,
                   help="subdivision level of the initial mesh")
    p.add_argument("--t-end", type=float, default=None,
                   help="final time (default: the problem's)")
    p.add_argument("--out", required=True)
    p.add_argument("--snapshots", default=None, metavar="DIR",
                   help="write a VTK snapshot per accepted step")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify-geometry",
                       help="geometric-consistency maxima per level")
    p.add_argument("--surface", choices=("sphere", "torus"),
                   default="sphere")
    p.add_argument("--levels", type=int, default=6,
                   help="finest level; the report covers 2..N")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_verify_geometry)

    p = sub.add_parser("timing",
                       help="refinement/coarsening strategy benchmark")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_timing)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (SurfheatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
