"""The benchmark's layer trace wraps ``surfheat`` functions by name
(``perfbench/tracer.py``); every name it binds must exist, or ``--trace 1``
fails at install time.  The benchmark's unit (``perfbench/unit.py``) also
relies on a few internals, checked at the end of this file."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from surfheat import adaptive, cli, fem
from surfheat.adaptive import AdaptiveConfig, RunLog
from surfheat.mesh import SurfaceMesh
from surfheat.problems import get_problem, icosphere

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def module(name):
    return importlib.import_module(f"surfheat.{name}")


@pytest.mark.parametrize("name,attr", [(m, a) for m, a, _ in tracer.BINDINGS],
                         ids=[f"{m}.{a}" for m, a, _ in tracer.BINDINGS])
def test_binding_resolves(name, attr):
    assert callable(getattr(module(name), attr))


@pytest.mark.parametrize("name,cls,attr",
                         [(m, c, a) for m, c, a, _ in tracer.METHODS],
                         ids=[f"{m}.{c}.{a}" for m, c, a, _ in tracer.METHODS])
def test_method_resolves(name, cls, attr):
    assert callable(getattr(getattr(module(name), cls), attr))


# What ``perfbench/unit.py`` reaches into beyond the tracer bindings: a
# change here breaks the benchmark's untraced runs as well as its traced ones.

def test_adaptive_run_keeps_its_log_in_a_local():
    # ``_interrupted_log`` stops a run from ``on_accept`` and reads the
    # ``RunLog`` from the local ``log`` of the ``adaptive.run`` frame
    class Stop(Exception):
        pass

    def stop(record, mesh, u):
        raise Stop

    problem = get_problem("sphere-decay")
    config = AdaptiveConfig(tol=1.0, tau0=0.1, t_end=0.3)
    with pytest.raises(Stop) as info:
        adaptive.run(problem, problem.surface, icosphere(2), config,
                     on_accept=stop)
    tb, logs = info.value.__traceback__, []
    while tb is not None:
        if tb.tb_frame.f_code is adaptive.run.__code__:
            logs.append(tb.tb_frame.f_locals["log"])
        tb = tb.tb_next
    assert len(logs) == 1 and isinstance(logs[0], RunLog)
    assert logs[0].accepted_steps == 1
    assert logs[0].cum_dof_steps >= logs[0].peak_dofs > 0


def test_sweep_builds_from_the_cli_globals(monkeypatch):
    # ``run_sweep`` hands the sweep its meshes through ``cli.icosphere`` and
    # times the steps with an ``ErrorEvaluator`` subclass of empty slots
    # that reads ``self.mesh``
    meshes, seen = {2: icosphere(2)}, []

    class Stamped(fem.ErrorEvaluator):
        __slots__ = ()

        def errors(self, u_h, exact_u, exact_grad, t):
            seen.append((self.mesh, t))
            return super().errors(u_h, exact_u, exact_grad, t)

    monkeypatch.setattr(cli, "icosphere", meshes.__getitem__)
    monkeypatch.setattr(cli, "ErrorEvaluator", Stamped)
    rows = cli.convergence_sweep(get_problem("sphere-decay"), [2], [0.5],
                                 t_end=1.0)
    assert [t for _, t in seen] == [0.0, 0.5, 1.0]
    assert all(mesh is meshes[2] for mesh, _ in seen)
    assert rows[0][2] == meshes[2].n_nodes


def test_lifted_l2_distance_adds_over_triangle_slices():
    # ``lifted_l2_error`` sums the squares over slices of the triangles
    problem, mesh = get_problem("sphere-decay"), icosphere(3)
    u = fem.interpolate(mesh, problem.u0)
    whole = fem.lifted_l2_distance(mesh, problem.surface, u, problem.u,
                                   time=0.1) ** 2
    half, parts = mesh.n_triangles // 2, 0.0
    for triangles in (mesh.triangles[:half], mesh.triangles[half:]):
        part = SurfaceMesh(mesh.nodes, triangles)
        parts += fem.lifted_l2_distance(
            part, problem.surface, fem.FeFunction.on_mesh(part, u.coefficients),
            problem.u, time=0.1) ** 2
    assert whole > 0.0
    assert parts == pytest.approx(whole, rel=1e-12, abs=0.0)
