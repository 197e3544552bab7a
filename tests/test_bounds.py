"""The estimator's two bounds on two adaptive runs from ``icosphere(3)``.

The paper bounds the error by the estimator from above, globally in time,
and the time-local indicator by the error from below.  Both are checked
here through effectivities, with the true error measured by
``ErrorEvaluator`` in the full H1 norm, ``e_n = (|e|_L2^2 + |e|_H1^2)^(1/2)``
at each accepted ``t_n``, on that step's final mesh:

- global: ``(sum eta_combined^2)^(1/2) / (sum tau_n e_n^2)^(1/2)``;
- local: ``eta_tau_sq^(1/2) / e_n``, one ratio per step.

These are right-endpoint values: the error enters at ``t_n`` only, not
integrated over ``(t_{n-1}, t_n)``.

Measured: ``moving-peak-timing`` (tol 0.4, tau0 0.02, theta 0.8, theta*
0.2, T = 0.2) takes 42 steps, global 4.48, local min / median / max
1.13 / 2.92 / 3.20; ``sphere-decay`` (tol 0.04, tau0 0.02, theta 0.5,
theta* 0.2, T = 0.5) takes 7 steps, global 5.87, local 1.69 / 3.70 / 5.47.
"""

import math
import statistics

import pytest

from surfheat.adaptive import AdaptiveConfig, run
from surfheat.fem import ErrorEvaluator
from surfheat.problems import get_problem, icosphere

RUNS = {
    "moving-peak-timing": dict(tol=0.4, tau0=0.02, theta=0.8,
                               theta_star=0.2, t_end=0.2),
    "sphere-decay": dict(tol=0.04, tau0=0.02, theta=0.5, theta_star=0.2,
                         t_end=0.5),
}


def effectivities(name):
    """(global effectivity, list of local ratios) of one run of ``RUNS``."""
    problem = get_problem(name)
    errors = []

    def on_accept(record, mesh, u):
        l2, semi = ErrorEvaluator(mesh, problem.surface).errors(
            u, problem.u, problem.grad_u, record.t)
        errors.append(math.hypot(l2, semi))

    log = run(problem, problem.surface, icosphere(3),
              AdaptiveConfig(**RUNS[name]), on_accept=on_accept)
    records = log.records
    estimate = math.sqrt(sum(r.eta_combined ** 2 for r in records))
    error = math.sqrt(sum(r.tau * e ** 2 for r, e in zip(records, errors)))
    local = [math.sqrt(r.eta_tau_sq) / e for r, e in zip(records, errors)]
    return estimate / error, local


@pytest.fixture(scope="module")
def measured():
    return {name: effectivities(name) for name in RUNS}


@pytest.mark.parametrize("name", RUNS)
def test_global_effectivity_in_band(measured, name, record_property):
    # the global upper bound: the estimator neither undershoots the error
    # nor overshoots it by more than a modest constant.  Both bands go to
    # the terminal summary (tests/conftest.py)
    glob, local = measured[name]
    record_property("bounds", f"[bounds] {name}: global {glob:.2f}, local "
                    f"min/median/max {min(local):.2f}/"
                    f"{statistics.median(local):.2f}/{max(local):.2f}")
    assert 2.0 <= glob <= 10.0


def test_global_effectivity_agrees_across_runs(measured):
    # the bound's constant is one for both problems, to within a factor 2
    values = [glob for glob, _ in measured.values()]
    assert max(values) <= 2.0 * min(values)


@pytest.mark.parametrize("name", RUNS)
def test_local_ratios_bounded(measured, name):
    # the time-local lower bound: eta_tau is at most a constant times the
    # error at every step
    local = measured[name][1]
    assert local and max(local) <= 10.0
