"""One benchmark unit in a fresh process: set-up, one workload run, checks.

    python3 perfbench/unit.py MODE WORKLOAD SEED

MODE is ``setup`` (set-up only), ``run`` (untraced run), ``repeat`` (untraced
run without ``err_l2`` and the initial interpolation error, which depend only
on the seed and take seconds on a large final mesh), ``trace``
(run with the layer trace) or ``reference`` (run seed 0 and store its log
under ``perfbench/reference/``).  The program is imported from ``src/`` of the
checkout this file sits in.  The last line of standard output is one JSON
object.  A solver error or a failed check is reported in that object; any
other error exits with a non-zero code.
"""

import os
import sys
import time

START = time.perf_counter()
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads
    os.environ[_var] = "1"

import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import surfheat  # noqa: E402
from surfheat import adaptive, cli, estimator, fem, geometry  # noqa: E402
from surfheat import mesh as mesh_module  # noqa: E402
from surfheat import refinement  # noqa: E402
from surfheat.adaptive import AdaptiveConfig  # noqa: E402
from surfheat.errors import SurfheatError  # noqa: E402
from surfheat.mesh import SurfaceMesh  # noqa: E402
from surfheat.problems import get_problem, icosphere  # noqa: E402
from surfheat.refinement import init_reference_edges  # noqa: E402

from tracer import Tracer, wrapper_cost  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

if not Path(surfheat.__file__).resolve().is_relative_to(SRC.resolve()):
    raise SystemExit(f"surfheat was imported from {surfheat.__file__}, "
                     f"not from {SRC}")

MODULES = {"adaptive": adaptive, "cli": cli, "estimator": estimator,
           "fem": fem, "geometry": geometry, "mesh": mesh_module,
           "refinement": refinement}

# Criterion-02 anchors of the acceptance suite: the level-5, tau = 0.01 row.
ANCHOR_LEVEL, ANCHOR_TAU = 5, 0.01
ANCHOR_LINF_L2, ANCHOR_ESTIMATOR, ANCHOR_FACTOR = 2.43e-4, 3.23e-2, 2.5

# Gate values are compared with the seed-0 reference to a relative 1e-3.
# CG stops at a relative residual of 1e-10, so the solution may move by up to
# kappa * 1e-10 of its norm when the solver changes; allowing kappa <= 1e3,
# and seeing that the indicators measure increments u_n - u_prev as small as
# 1e-4 of u (tau down to 1.6e-4), gives 1e-10 * 1e3 / 1e-4 = 1e-3.
GATE_RTOL = 1e-3

ERROR_CHUNK = 40_000  # triangles per lifted-quadrature batch for err_l2


class _Truncated(Exception):
    """Raised from ``on_accept`` to stop an adaptive run after its last
    benchmarked step."""


def rotation(seed):
    """Seeded uniform random rotation; seed 0 is the identity (None)."""
    if seed == 0:
        return None
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def initial_mesh(level, rot):
    """``icosphere(level)`` rotated by ``rot``, renormalised onto the unit
    sphere and re-initialised for refinement."""
    mesh = icosphere(level)
    if rot is None:
        return mesh
    nodes = mesh.nodes @ rot.T
    nodes /= np.linalg.norm(nodes, axis=1, keepdims=True)
    return init_reference_edges(SurfaceMesh(nodes, mesh.triangles))


def lifted_l2_error(mesh, surface, u, exact, t):
    """Lifted L2 error of ``u`` against ``exact(., t)``, in triangle batches
    so that the quadrature of a large mesh stays small in memory."""
    total = 0.0
    for start in range(0, mesh.n_triangles, ERROR_CHUNK):
        part = SurfaceMesh(mesh.nodes, mesh.triangles[start:start + ERROR_CHUNK])
        u_part = fem.FeFunction.on_mesh(part, u.coefficients)
        total += fem.lifted_l2_distance(part, surface, u_part, exact,
                                        time=t) ** 2
    return math.sqrt(total)


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


# ------------------------------------------------------------------ workloads

def run_sweep(spec, problem, meshes, tracer):
    """W1 through ``cli.convergence_sweep`` on the rotated meshes.

    A step of a march ends with its ``ErrorEvaluator.errors`` call, so the
    step times are the gaps between those calls; a call at t = 0 starts a
    new march.
    """
    step_ms, marches = [], []
    last = [0.0]

    class StampedEvaluator(fem.ErrorEvaluator):
        __slots__ = ()

        def errors(self, u_h, exact_u, exact_grad, t):
            result = super().errors(u_h, exact_u, exact_grad, t)
            now = time.perf_counter()
            if t == 0.0:
                marches.append([self.mesh.n_nodes, 0])
            else:
                step_ms.append((now - last[0]) * 1e3)
                marches[-1][1] += 1
            last[0] = now
            return result

    sweep = cli.convergence_sweep
    if tracer is not None:
        sweep = tracer.wrap("cli", sweep)
    cli.icosphere, cli.ErrorEvaluator = meshes.__getitem__, StampedEvaluator
    try:
        cpu0, wall0 = time.process_time(), time.perf_counter()
        rows = sweep(problem, spec["levels"], spec["taus"],
                     t_end=spec["t_end"])
        wall_s = time.perf_counter() - wall0
        cpu_s = time.process_time() - cpu0
    finally:
        cli.icosphere, cli.ErrorEvaluator = icosphere, fem.ErrorEvaluator
    rows = [[float(v) for v in row] for row in rows]
    out = {
        "wall_s": wall_s, "cpu_s": cpu_s, "step_ms": step_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cum_dof_steps": sum(n * steps for n, steps in marches),
        "peak_dofs": max(int(row[2]) for row in rows),
        "rows": rows,
    }
    finest = max(spec["levels"])
    out["err_l2"] = next(row[3] for row, (level, tau) in zip(rows, _row_keys(spec))
                         if level == finest and tau == min(spec["taus"]))
    return out


def _row_keys(spec):
    return [(level, tau) for level in spec["levels"] for tau in spec["taus"]]


def check_sweep(spec, result, reference):
    failures = []
    rows = result["rows"]
    if not all(math.isfinite(v) for row in rows for v in row):
        failures.append("non-finite value in the sweep rows")
    for row, key in zip(rows, _row_keys(spec)):
        if key == (ANCHOR_LEVEL, ANCHOR_TAU):
            linf, est = row[3], row[5]
            for name, value, anchor in (("Linf(L2)", linf, ANCHOR_LINF_L2),
                                        ("estimator", est, ANCHOR_ESTIMATOR)):
                if not anchor / ANCHOR_FACTOR <= value <= anchor * ANCHOR_FACTOR:
                    failures.append(f"level-{key[0]} tau={key[1]} {name} "
                                    f"{value:.3e} outside anchor {anchor:.3e} "
                                    f"x/ {ANCHOR_FACTOR}")
    if reference is not None:
        if [int(r[2]) for r in rows] != [int(r[2]) for r in reference["rows"]]:
            failures.append("sweep dofs differ from the seed-0 reference")
        for row, ref in zip(rows, reference["rows"]):
            for value, ref_value in zip(row[3:], ref[3:]):
                if abs(value - ref_value) > GATE_RTOL * abs(ref_value):
                    failures.append(f"sweep row {row[:3]} differs from the "
                                    f"seed-0 reference: {row} vs {ref}")
                    break
    return failures


def run_adaptive(spec, problem, mesh, tracer):
    """W2/W3 through ``adaptive.run``, stopped after ``max_steps`` accepted
    steps when that is set."""
    config = AdaptiveConfig(**spec["config"])
    records, final = [], {}

    def on_accept(record, step_mesh, u):
        records.append(record)
        final["mesh"], final["u"] = step_mesh, u
        if tracer is not None:
            tracer.step_accepted(record)
        if len(records) == spec["max_steps"]:
            raise _Truncated

    run = adaptive.run
    if tracer is not None:
        run = tracer.wrap("adaptive", run)
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        log = run(problem, problem.surface, mesh, config,
                  on_accept=on_accept)
    except _Truncated as stop:
        log = _interrupted_log(stop)
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    return {
        "wall_s": wall_s, "cpu_s": cpu_s,
        "step_ms": [r.wall_ms for r in records],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cum_dof_steps": log.cum_dof_steps, "peak_dofs": log.peak_dofs,
        "steps": [[r.step, r.t, r.tau, r.dofs, r.eta_h_sq, r.eta_tau_sq,
                   r.eta_c_sq] for r in records],
        "final": final, "config": config,
    }


def _interrupted_log(stop):
    """The ``RunLog`` of the ``adaptive.run`` call that ``stop`` left."""
    tb = stop.__traceback__
    while tb is not None:
        if tb.tb_frame.f_code is adaptive.run.__code__:
            return tb.tb_frame.f_locals["log"]
        tb = tb.tb_next
    raise RuntimeError("adaptive.run frame not found in the traceback")


def check_adaptive(spec, result, reference):
    config = result["config"]
    steps = result["steps"]
    failures = []
    for step, _, _, _, eta_h, eta_tau, eta_c in steps:
        if not (eta_h <= config.tol and eta_tau <= config.tol
                and eta_c <= config.tol):
            failures.append(f"step {step} misses a gate: eta_h^2={eta_h:.3e} "
                            f"eta_tau^2={eta_tau:.3e} eta_c^2={eta_c:.3e}")
    t_last = steps[-1][1]
    drift = abs(math.fsum(s[2] for s in steps) - t_last)
    if spec["max_steps"] is None:
        drift = max(drift, abs(t_last - config.t_end))
    if drift > 1e-12:
        failures.append(f"|sum(tau) - T| = {drift:.3e} > 1e-12")
    if not math.isfinite(result.get("err_l2", 0.0)):
        failures.append("non-finite err_l2")
    if reference is not None:
        ref = reference["steps"]
        if [s[2] for s in steps] != [s[2] for s in ref]:
            failures.append("tau sequence differs from the seed-0 reference")
        if [s[3] for s in steps] != [s[3] for s in ref]:
            failures.append("per-step dofs differ from the seed-0 reference")
        for s, r in zip(steps, ref):
            if any(abs(a - b) > GATE_RTOL * abs(b) for a, b in zip(s[4:], r[4:])):
                failures.append(f"step {s[0]} gate values {s[4:]} differ from "
                                f"the seed-0 reference {r[4:]}")
        for key in ("cum_dof_steps", "peak_dofs"):
            if result[key] != reference[key]:
                failures.append(f"{key} {result[key]} differs from the seed-0 "
                                f"reference {reference[key]}")
    return failures


# ----------------------------------------------------------------------- main

def main(mode, workload, seed):
    spec = WORKLOADS[workload]
    problem = get_problem(spec["problem"])
    rot = rotation(seed)
    mesh_start = time.perf_counter()
    meshes = {level: initial_mesh(level, rot) for level in spec["levels"]}
    initial_mesh_s = time.perf_counter() - mesh_start
    setup_s = time.perf_counter() - START
    report = {"ok": True, "setup_s": setup_s, "initial_mesh_s": initial_mesh_s}
    if mode == "setup":
        return report

    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install(MODULES)
    sweep = "taus" in spec
    try:
        if sweep:
            result = run_sweep(spec, problem, meshes, tracer)
        else:
            result = run_adaptive(spec, problem, meshes[spec["levels"][0]],
                                  tracer)
    except (SurfheatError, ValueError) as exc:
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        layers = tracer.metrics(result["wall_s"], wrapper_cost())
        layers["problems.initial_mesh_s"] = (initial_mesh_s, "s")
        layers["run.wall_s"] = (result["wall_s"], "s")
        layers["run.cpu_s"] = (result["cpu_s"], "s")
        report["layers"] = layers

    final = result.pop("final", None)  # adaptive runs only
    if final is not None and mode != "repeat":
        # measured after the timed interval, on the final mesh of the run
        t_last = result["steps"][-1][1]
        result["err_l2"] = lifted_l2_error(final["mesh"], problem.surface,
                                           final["u"], problem.u, t_last)
        initial = meshes[spec["levels"][0]]
        result["initial_error"] = fem.lifted_l2_distance(
            initial, problem.surface, fem.interpolate(initial, problem.u0),
            problem.u0)

    reference_path = HERE / "reference" / f"{workload}.json"
    if mode == "reference":
        keys = ("rows",) if sweep else ("steps", "cum_dof_steps", "peak_dofs")
        reference_path.write_text(json.dumps(
            {"workload": workload, "seed": 0, **{k: result[k] for k in keys}},
            indent=1) + "\n")
    reference = None
    if seed == 0:
        reference = json.loads(reference_path.read_text())
    checker = check_sweep if sweep else check_adaptive
    failures = checker(spec, result, reference)
    result.pop("config", None)
    report.update(result)
    report.update(ok=not failures, failures=failures, env=environment())
    return report


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in ("setup", "run", "repeat",
                                                 "trace", "reference"):
        raise SystemExit(__doc__)
    mode, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    if mode == "reference" and seed != 0:
        raise SystemExit("the reference log is stored for seed 0")
    print(json.dumps(main(mode, workload, seed)))
