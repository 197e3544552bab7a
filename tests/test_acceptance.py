"""End-to-end acceptance checks.

Each test covers one numbered acceptance criterion and records a single
``[criterion NN] PASS/FAIL`` line, which ``tests/conftest.py`` prints in the
terminal summary under any capture mode.  Expensive artifacts
-- the uniform convergence sweep, the long adaptive decay run, and the
coarsening-strategy comparison runs -- are computed once per module and
shared.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from surfheat.adaptive import AdaptiveConfig, run
from surfheat.cli import convergence_sweep, fitted_orders, geometry_report
from surfheat.fem import (FeFunction, assemble, interpolate,
                          lifted_l2_distance)
from surfheat.geometry import unit_sphere
from surfheat.mesh import validate_mesh
from surfheat.problems import get_problem, icosphere
from surfheat.refinement import (coarsen, mark_coarsen, mark_refine, refine,
                                 transfer)
from topology import NO_LIFT, euler_characteristic

SWEEP_LEVELS = (2, 3, 4, 5, 6)
TAU_FINE = 0.01
TAU_COARSE = 1.0

# reference anchors for the fine-step sweep at the level with h closest to
# 0.0347 (level 5, h ~ 0.0413); both within a factor 2.5
ANCHOR_LEVEL = 5
ANCHOR_LINF_L2 = 2.43e-4
ANCHOR_ESTIMATOR = 3.23e-2
ANCHOR_FACTOR = 2.5

DECAY_CONFIG = dict(tol=0.01, tau0=0.02, t_end=3.0, theta=0.5,
                    theta_star=0.85, max_coarsen_iters=1)
DECAY_LEVEL = 3

TIMING_KWARGS = dict(tol=0.4, tau0=0.02, theta=0.8, theta_star=0.2)
TIMING_LEVEL = 3


@pytest.fixture
def report(record_property):
    """``report(number, ok, detail)``: record the criterion's line for the
    terminal summary, then assert ``ok``."""
    def emit(number, ok, detail):
        line = f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
        record_property("criterion", line)
        assert ok, line
    return emit


def eoc(errors, hs):
    e, h = np.asarray(errors), np.asarray(hs)
    return np.log(e[:-1] / e[1:]) / np.log(h[:-1] / h[1:])


# ----------------------------------------------------------- shared artifacts

@pytest.fixture(scope="module")
def sweep():
    """Uniform sweep rows keyed by (level, tau): (h, tau, dofs, linf, l2h1, est)."""
    rows = convergence_sweep(get_problem("sphere-decay"), SWEEP_LEVELS,
                             [TAU_COARSE, TAU_FINE], t_end=1.0)
    out = {}
    for i, level in enumerate(SWEEP_LEVELS):
        out[(level, TAU_COARSE)] = rows[2 * i]
        out[(level, TAU_FINE)] = rows[2 * i + 1]
    return out


@pytest.fixture(scope="module")
def decay_run():
    """Long adaptive decay run; returns (config, log, per-step final sizes)."""
    problem = get_problem("sphere-decay")
    config = AdaptiveConfig(**DECAY_CONFIG)
    sizes = []
    log = run(problem, problem.surface, icosphere(DECAY_LEVEL), config,
              on_accept=lambda record, mesh, u: sizes.append(mesh.n_nodes))
    return config, log, sizes


@pytest.fixture(scope="module")
def timing_runs():
    """Travelling-peak runs for the three coarsening modes (NVB)."""
    out = {}
    for mode in ("none", "reset", "matching"):
        problem = get_problem("moving-peak-timing")
        config = AdaptiveConfig(t_end=problem.t_end, coarsening=mode,
                                **TIMING_KWARGS)
        out[mode] = (config, run(problem, problem.surface,
                                 icosphere(TIMING_LEVEL), config))
    return out


@pytest.fixture(scope="module")
def rgb_run():
    """Short red-green-blue run so the gate audit covers both strategies."""
    problem = get_problem("sphere-decay")
    config = AdaptiveConfig(tol=0.5, tau0=0.05, t_end=0.4, strategy="rgb")
    log = run(problem, problem.surface, icosphere(2), config)
    return config, log


# ----------------------------------------------------------------- criteria

def test_criterion_01_convergence_orders(sweep, report):
    hs = [sweep[(lv, TAU_FINE)][0] for lv in SWEEP_LEVELS]
    linf = [sweep[(lv, TAU_FINE)][3] for lv in SWEEP_LEVELS]
    l2h1 = [sweep[(lv, TAU_FINE)][4] for lv in SWEEP_LEVELS]
    eoc_linf = eoc(linf, hs)[-2:]
    eoc_l2h1 = eoc(l2h1, hs)[-2:]
    ok = (all(1.6 <= v <= 2.4 for v in eoc_linf)
          and all(0.8 <= v <= 1.2 for v in eoc_l2h1))
    report(1, ok, f"EOC Linf(L2) {np.round(eoc_linf, 3)} in [1.6, 2.4], "
                  f"EOC L2(H1) {np.round(eoc_l2h1, 3)} in [0.8, 1.2]")


def test_criterion_02_quantitative_anchor(sweep, report):
    h, _, _, linf, _, est = sweep[(ANCHOR_LEVEL, TAU_FINE)]
    ok_linf = (ANCHOR_LINF_L2 / ANCHOR_FACTOR <= linf
               <= ANCHOR_LINF_L2 * ANCHOR_FACTOR)
    ok_est = (ANCHOR_ESTIMATOR / ANCHOR_FACTOR <= est
              <= ANCHOR_ESTIMATOR * ANCHOR_FACTOR)
    report(2, ok_linf and ok_est,
           f"h={h:.4f}: Linf(L2) {linf:.3e} vs anchor {ANCHOR_LINF_L2:.3e}, "
           f"estimator {est:.3e} vs anchor {ANCHOR_ESTIMATOR:.3e} "
           f"(factor {ANCHOR_FACTOR})")


def test_criterion_03_efficiency_ratio(sweep, report):
    finest = SWEEP_LEVELS[-3:]
    ratios = []
    for lv in finest:
        _, _, _, linf, l2h1, est = sweep[(lv, TAU_FINE)]
        ratios.append(math.sqrt(est) / (linf + l2h1))
    spread = max(ratios) / min(ratios)
    report(3, spread <= 4.0,
           f"estimator/error ratios {np.round(ratios, 3)} over levels "
           f"{finest}, spread {spread:.2f} <= 4")


def test_criterion_04_temporal_saturation(sweep, report):
    e5 = sweep[(SWEEP_LEVELS[-2], TAU_COARSE)][3]
    e6 = sweep[(SWEEP_LEVELS[-1], TAU_COARSE)][3]
    rel = abs(e5 - e6) / max(e5, e6)
    report(4, rel < 0.05,
           f"tau=1 Linf(L2) errors {e5:.4e} vs {e6:.4e}, "
           f"relative gap {rel:.3%} < 5%")


def test_criterion_05_geometric_orders(report):
    rows = geometry_report("sphere", SWEEP_LEVELS)
    orders = fitted_orders(rows)
    ok = all(1.7 <= o <= 2.3 for o in orders)
    report(5, ok, f"fitted geometric orders {np.round(orders, 3)} "
                  f"in [1.7, 2.3]")


def test_criterion_06_norm_equivalence(report):
    surface = unit_sphere()
    rng = np.random.default_rng(20250825)
    worst = []
    for level in SWEEP_LEVELS:
        mesh = icosphere(level)
        mass, _ = assemble(mesh)
        deviations = []
        for _ in range(20):
            u = FeFunction.on_mesh(mesh, rng.standard_normal(mesh.n_nodes))
            lifted = lifted_l2_distance(mesh, surface, u, lambda y: 0.0)
            c = u.coefficients
            ratio = lifted / np.sqrt(c @ (mass @ c))
            deviations.append(abs(ratio - 1.0))
        worst.append(max(deviations))
    ok = worst[0] < 0.1 and all(w < 0.1 for w in worst) \
        and worst[-1] < 0.1 * worst[0]
    report(6, ok,
           f"max |lifted/flat - 1| per level {[f'{w:.2e}' for w in worst]}, "
           f"all within 0.1 and decreasing")


def test_criterion_07_decay_envelope(decay_run, report):
    _, log, sizes = decay_run
    ratio = sizes[-1] / log.peak_dofs
    report(7, ratio < 0.10,
           f"final {sizes[-1]} vs peak {log.peak_dofs} dofs, "
           f"ratio {ratio:.4f} < 0.10")


def test_criterion_08_gate_invariants(decay_run, timing_runs, rgb_run,
                                      report):
    runs = [(decay_run[0], decay_run[1]), rgb_run]
    runs += [pair for pair in timing_runs.values()]
    checked = 0
    worst = 0.0
    for config, log in runs:
        for record in log.records:
            assert record.eta_h_sq <= config.tol
            assert record.eta_tau_sq <= config.tol
            assert record.eta_c_sq <= config.tol
            checked += 1
        drift = abs(math.fsum(r.tau for r in log.records) - config.t_end)
        worst = max(worst, drift)
        assert drift <= 1e-12
    report(8, True,
           f"{checked} accepted steps in {len(runs)} runs satisfy the "
           f"eta_h/eta_tau/eta_c gates; max |sum(tau) - T| = {worst:.2e}")


def test_criterion_09_mesh_machinery(report):
    surface = unit_sphere()
    rng = np.random.default_rng(42)

    # refine -> transfer reproduces affine functions at the new nodes, left
    # at the flat midpoints, exactly; affine span = the P1 space on flat
    # triangles
    worst_transfer = 0.0
    for strategy in ("nvb", "rgb"):
        mesh = icosphere(2)
        coeff = rng.standard_normal(4)
        affine = lambda p: coeff[0] + p @ coeff[1:]  # noqa: E731
        u = FeFunction.on_mesh(mesh, affine(mesh.nodes))
        marks = mark_refine(rng.random(mesh.n_triangles), 0.5)
        fine, tmap = refine(mesh, marks, strategy, NO_LIFT)
        v = transfer(u, tmap)
        worst_transfer = max(worst_transfer, float(np.max(
            np.abs(v.coefficients - affine(fine.nodes)))))
    assert worst_transfer <= 1e-12

    # refine-all -> coarsen-all recovers the parent node set
    for strategy in ("nvb", "rgb"):
        mesh = icosphere(2)
        fine, _ = refine(mesh, np.arange(mesh.n_triangles), strategy,
                         surface)
        back = fine
        while True:
            back, _, removed = coarsen(back, np.arange(back.n_triangles), [])
            if removed == 0:
                break
        assert back.n_nodes == mesh.n_nodes
        assert_array_equal(back.nodes, mesh.nodes)

    # randomized 500-step refine/coarsen fuzz with a full conformity audit
    # after every mutation, a bound function carried along throughout
    mutations = 0
    for strategy in ("nvb", "rgb"):
        mesh = icosphere(1)
        u = interpolate(mesh, lambda p: p[:, 0] * p[:, 1])
        for step in range(250):
            if mesh.n_triangles > 2500:
                do_coarsen = True
            elif mesh.n_triangles < 120:
                do_coarsen = False
            else:
                do_coarsen = rng.random() < 0.55
            eta = rng.random(mesh.n_triangles)
            criterion = ("bulk", "doerfler")[int(rng.integers(2))]
            if do_coarsen:
                marks = mark_coarsen(eta, float(rng.uniform(0.3, 0.9)),
                                     criterion)
                mesh, (u,), _ = coarsen(mesh, marks, [u])
            else:
                marks = mark_refine(eta, float(rng.uniform(0.3, 0.9)),
                                    criterion)
                lifted = rng.random() < 0.5
                mesh, tmap = refine(mesh, marks, strategy,
                                    surface if lifted else NO_LIFT)
                u = transfer(u, tmap)
            validate_mesh(mesh)
            u.check(mesh)
            assert euler_characteristic(mesh) == 2
            mutations += 1
    report(9, True,
           f"transfer exact to {worst_transfer:.1e}; refine/coarsen round "
           f"trip recovers parents; {mutations} fuzz mutations stayed "
           f"conforming")


def test_criterion_10_coarsening_benefit(timing_runs, report):
    cum = {mode: log.cum_dof_steps
           for mode, (_, log) in timing_runs.items()}
    ok = cum["matching"] < cum["reset"] < cum["none"]
    report(10, ok,
           f"cumulative dof-steps matching {cum['matching']} < "
           f"reset {cum['reset']} < none {cum['none']}")
