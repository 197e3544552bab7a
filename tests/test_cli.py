"""Command-line driver tests: CSV schemas, determinism, exit codes."""

import csv
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose

from surfheat import cli, fem
from surfheat.cli import (CONVERGENCE_FIELDS, GEOMETRY_FIELDS, TIMING_FIELDS,
                          _parse_taus, convergence_sweep, fitted_orders,
                          geometry_report, main, timing_table)
from surfheat.errors import NonFiniteValue
from surfheat.estimator import compute_indicators
from surfheat.fem import (ErrorEvaluator, assemble, backward_euler_step,
                          interpolate, quadrature_points)
from surfheat.geometry import torus, unit_sphere
from surfheat.problems import get_problem, icosphere, torus_grid
from test_geometry import report_operators


def reference_march_uniform(problem, mesh, mass, stiffness, evaluator, tau,
                            t_end):
    """The fixed-mesh march with its error norms in line, one step after
    the other: the oracle for the pipelined ``cli._march_uniform``."""
    u = interpolate(mesh, problem.u0)
    l2, _ = evaluator.errors(u, problem.u, problem.grad_u, 0.0)
    err_linf_l2 = l2
    err_l2_h1_sq = 0.0
    estimator = 0.0
    t = 0.0
    eps = 1e-12 * max(1.0, t_end)
    while t_end - t > eps:
        step_tau = tau if t + tau < t_end - eps else t_end - t
        target = t + step_tau
        f_h = interpolate(mesh, problem.f, time=target)
        u_new, _ = backward_euler_step(mass, stiffness, u, f_h, step_tau)
        ind = compute_indicators(mesh, u_new, u, f_h, step_tau)
        estimator += ind.eta_combined ** 2
        l2, h1 = evaluator.errors(u_new, problem.u, problem.grad_u, target)
        err_linf_l2 = max(err_linf_l2, l2)
        err_l2_h1_sq += step_tau * (l2 ** 2 + h1 ** 2)
        u = u_new
        t = target
    return err_linf_l2, np.sqrt(err_l2_h1_sq), estimator


@pytest.fixture
def no_mesh_built(monkeypatch):
    """Make building either mesh family fail the test."""
    def unbuildable(level):
        raise AssertionError(f"a mesh of argument {level} was built")

    monkeypatch.setattr(cli, "icosphere", unbuildable)
    monkeypatch.setattr(cli, "torus_grid", unbuildable)


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return header, rows


class TestParseTaus:
    def test_splits_and_converts(self):
        assert _parse_taus("1,0.5,0.25") == [1.0, 0.5, 0.25]

    def test_tolerates_spaces_and_trailing_comma(self):
        assert _parse_taus("0.1, 0.05,") == [0.1, 0.05]

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            _parse_taus("0.1;0.05")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            _parse_taus(",")


class TestFittedOrders:
    def test_exact_power_laws_recovered(self):
        h = np.array([0.4, 0.2, 0.1])
        rows = [(lv, hh, hh ** 2, 3.0 * hh ** 2, 0.5 * hh ** 2)
                for lv, hh in enumerate(h)]
        assert_allclose(fitted_orders(rows), (2.0, 2.0, 2.0), atol=1e-12)

    def test_mixed_orders(self):
        h = np.array([0.4, 0.2, 0.1])
        rows = [(lv, hh, hh, hh ** 2, hh ** 3) for lv, hh in enumerate(h)]
        assert_allclose(fitted_orders(rows), (1.0, 2.0, 3.0), atol=1e-12)


class TestConvergenceSweep:
    def test_zero_problem_rows_are_exact_zeros(self):
        rows = convergence_sweep(get_problem("zero"), [2], [0.5], t_end=1.0)
        assert len(rows) == 1
        h, tau, dofs, linf, l2h1, est = rows[0]
        assert tau == 0.5
        assert dofs == 162
        assert_allclose(h, icosphere(2).metrics.h)
        assert linf == 0.0 and l2h1 == 0.0 and est == 0.0

    def test_decay_errors_shrink_with_level(self):
        problem = get_problem("sphere-decay")
        rows = convergence_sweep(problem, [2, 3], [0.05], t_end=0.2)
        assert rows[0][3] > rows[1][3] > 0.0
        assert rows[0][4] > rows[1][4] > 0.0
        assert rows[0][5] > rows[1][5] > 0.0

    def test_non_dividing_tau_is_clamped(self):
        # 0.3 does not divide 0.5; the run must still finish and produce
        # finite outputs (two steps: 0.3 then 0.2)
        rows = convergence_sweep(get_problem("sphere-decay"), [2], [0.3],
                                 t_end=0.5)
        assert np.isfinite(rows[0][3:]).all()

    def test_requires_exact_solution(self):
        # with u but no grad_u, the worker thread would call None
        for field in ("u", "grad_u"):
            problem = get_problem("sphere-decay")._replace(**{field: None})
            with pytest.raises(ValueError,
                               match="'sphere-decay' has no exact"):
                convergence_sweep(problem, [2], [0.1])

    def test_rejects_tau_beyond_t_end(self, monkeypatch):
        # every tau is checked before the first mesh is built or solved on
        solves = []

        def counted(*args):
            solves.append(args)
            return backward_euler_step(*args)

        monkeypatch.setattr(cli, "backward_euler_step", counted)
        with pytest.raises(ValueError, match="tau"):
            convergence_sweep(get_problem("zero"), [2], [0.5, 2.0], t_end=1.0)
        assert solves == []

    @pytest.mark.parametrize("taus,t_end", [([1.0, 0.05], None),
                                            ([0.3], 1.0)])
    def test_rows_bitwise_equal_serial_march(self, taus, t_end):
        # tau = 0.3 with T = 1 shortens the last step to 0.1
        problem = get_problem("sphere-decay")
        threads = threading.active_count()
        rows = convergence_sweep(problem, [2, 3], taus, t_end=t_end)
        assert threading.active_count() == threads
        expected = []
        for level in (2, 3):
            mesh = icosphere(level)
            evaluator = ErrorEvaluator(mesh, problem.surface)
            mass, stiffness = assemble(mesh)
            for tau in taus:
                expected.append((mesh.metrics.h, tau, mesh.n_nodes,
                                 *reference_march_uniform(
                                     problem, mesh, mass, stiffness, evaluator,
                                     tau, t_end or problem.t_end)))
        assert np.array(rows).tobytes() == np.array(expected).tobytes()

    def test_solver_error_cancels_queued_norms_and_joins_worker(
            self, monkeypatch):
        # The worker is held in the t = 0 norms until the sweep has failed
        # on the main thread, so the norms of steps 1 and 2 are still queued
        # when the pool shuts down; they must be cancelled, not run.
        problem = get_problem("sphere-decay")
        exact, source = problem.u, problem.f
        release, futures = threading.Event(), []

        def held(x, t):
            assert release.wait(timeout=60.0)
            return exact(x, t)

        def nan_from_step_3(x, t):
            return np.full(len(x), np.nan) if t > 0.25 else source(x, t)

        class Pool(ThreadPoolExecutor):
            def submit(self, *args, **kwargs):
                futures.append(super().submit(*args, **kwargs))
                return futures[-1]

            def shutdown(self, wait=True, *, cancel_futures=False):
                super().shutdown(wait=False, cancel_futures=cancel_futures)
                release.set()
                super().shutdown(wait=wait)

        problem = problem._replace(u=held, f=nan_from_step_3)
        monkeypatch.setattr(cli, "ThreadPoolExecutor", Pool)
        threads = threading.active_count()
        with pytest.raises(NonFiniteValue):
            convergence_sweep(problem, [2], [0.1], t_end=1.0)
        assert threading.active_count() == threads
        assert len(futures) == 3
        assert not futures[0].cancelled()
        assert all(f.cancelled() for f in futures[1:])

    def test_worker_error_reraises_unchanged(self):
        class ExactFailure(Exception):
            pass

        problem = get_problem("sphere-decay")
        exact = problem.u

        def failing(x, t):
            if t > 0.25:
                raise ExactFailure(f"exact solution undefined at t={t:.2f}")
            return exact(x, t)

        problem = problem._replace(u=failing)
        threads = threading.active_count()
        with pytest.raises(ExactFailure,
                           match=r"^exact solution undefined at t=0\.30$"):
            convergence_sweep(problem, [2], [0.1], t_end=1.0)
        assert threading.active_count() == threads


class TestConvergenceCommand:
    def test_csv_schema_and_determinism(self, tmp_path):
        args = ["convergence", "--problem", "zero", "--levels", "2",
                "--taus", "0.5,0.25", "--t-end", "1.0"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        header, rows = read_csv(out1)
        assert header == list(CONVERGENCE_FIELDS)
        assert len(rows) == 2
        assert out1.read_bytes() == out2.read_bytes()

    def test_floats_round_trip(self, tmp_path):
        out = tmp_path / "c.csv"
        main(["convergence", "--problem", "sphere-decay", "--levels", "2",
              "--taus", "0.1", "--t-end", "0.2", "--out", str(out)])
        with open(out, newline="") as fh:
            row = next(csv.DictReader(fh))
        for field in CONVERGENCE_FIELDS:
            assert np.isfinite(float(row[field]))

    def test_bad_taus_exits_2(self, tmp_path, capsys):
        code = main(["convergence", "--taus", "abc",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_unknown_problem_exits_2(self, tmp_path, capsys):
        code = main(["convergence", "--problem", "nope",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "unknown problem" in capsys.readouterr().err

    def test_levels_below_2_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["convergence", "--levels", "1", "--out", str(out)]) == 2
        assert "--levels" in capsys.readouterr().err
        assert not out.exists()

    def test_levels_above_dof_cap_exit_2_before_building(
            self, tmp_path, capsys, no_mesh_built):
        out = tmp_path / "x.csv"
        assert main(["convergence", "--levels", "9", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: --levels 9 gives 2621442 nodes, above the cap of "
            "2000000\n")
        assert not out.exists()

    def test_infinite_t_end_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["convergence", "--problem", "zero", "--levels", "2",
                     "--taus", "0.5", "--t-end", "inf",
                     "--out", str(out)]) == 2
        assert "t-end must be positive and finite" in capsys.readouterr().err
        assert not out.exists()


class TestRunCommand:
    def test_csv_schema_and_snapshots(self, tmp_path, capsys):
        out = tmp_path / "log.csv"
        snaps = tmp_path / "snaps"
        code = main(["run", "--problem", "sphere-decay", "--tol", "1.0",
                     "--tau0", "0.1", "--t-end", "0.3", "--level", "2",
                     "--out", str(out), "--snapshots", str(snaps)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["step", "t", "tau", "dofs", "eta_h_sq",
                          "eta_tau_sq", "eta_c_sq", "eta_combined",
                          "spatial_iters", "coarsen_iters", "nodes_removed",
                          "cg_iters", "wall_ms"]
        assert len(rows) >= 1
        files = sorted(snaps.iterdir())
        assert [f.name for f in files] == [
            f"step_{int(r[0]):04d}.vtk" for r in rows]
        text = files[0].read_text()
        assert "SCALARS u double 1" in text
        assert "DATASET POLYDATA" in text
        out_text = capsys.readouterr().out
        assert "cumulative dof-steps" in out_text
        final = int(rows[-1][3]) - int(rows[-1][10])  # dofs - nodes_removed
        assert f"final dofs {final};" in out_text

    def test_times_sum_to_t_end(self, tmp_path):
        out = tmp_path / "log.csv"
        main(["run", "--problem", "sphere-decay", "--tol", "1.0",
              "--tau0", "0.07", "--t-end", "0.3", "--level", "2",
              "--out", str(out)])
        _, rows = read_csv(out)
        assert abs(float(rows[-1][1]) - 0.3) < 1e-12

    def test_guard_abort_exits_2_with_diagnostic(self, tmp_path, capsys):
        code = main(["run", "--problem", "sphere-decay", "--tol", "1e-6",
                     "--level", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "initial mesh too coarse" in err and err.count("\n") == 1

    def test_level_above_dof_cap_exits_2_before_building(
            self, tmp_path, capsys, no_mesh_built):
        out = tmp_path / "x.csv"
        assert main(["run", "--level", "9", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: --level 9 gives 2621442 nodes, above the cap of "
            "2000000\n")
        assert not out.exists()

    def test_bad_config_exits_2(self, tmp_path, capsys):
        code = main(["run", "--theta", "1.5",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "theta" in capsys.readouterr().err


class TestVerifyGeometryCommand:
    def test_sphere_schema_and_orders(self, tmp_path, capsys):
        out = tmp_path / "geo.csv"
        assert main(["verify-geometry", "--surface", "sphere",
                     "--levels", "4", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == list(GEOMETRY_FIELDS)
        assert [int(r[0]) for r in rows] == [2, 3, 4]
        orders = fitted_orders([[float(v) for v in r] for r in rows])
        assert_allclose(orders, 2.0, atol=0.5)
        assert "fitted orders" in capsys.readouterr().out

    def test_torus_maxima_shrink(self, tmp_path):
        out = tmp_path / "geo.csv"
        assert main(["verify-geometry", "--surface", "torus",
                     "--levels", "3", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        coarse, fine = [[float(v) for v in r] for r in rows]
        for col in (2, 3, 4):
            assert fine[col] < coarse[col]

    def test_direct_report_matches_command(self, tmp_path):
        rows = geometry_report("sphere", [2])
        out = tmp_path / "geo.csv"
        main(["verify-geometry", "--levels", "2", "--out", str(out)])
        _, csv_rows = read_csv(out)
        assert_allclose([float(v) for v in csv_rows[0]], rows[0], rtol=1e-15)

    @pytest.mark.parametrize("surface_name", ["sphere", "torus"])
    def test_rows_do_not_depend_on_the_block(self, monkeypatch,
                                             surface_name):
        # levels 2-3: 320 and 1,280 sphere triangles, 1,152 and 4,608 torus
        default = geometry_report(surface_name, [2, 3])
        monkeypatch.setattr(fem, "BLOCK", 100)
        assert geometry_report(surface_name, [2, 3]) == default

    @pytest.mark.parametrize("surface_name", ["sphere", "torus"])
    def test_projector_gap_matches_reference(self, surface_name):
        # the report forms A~ from B Q; the reference from inv and P_h
        surface = unit_sphere() if surface_name == "sphere" else torus()
        mesh = icosphere(2) if surface_name == "sphere" else torus_grid(12)
        points = quadrature_points(mesh)
        normals = np.broadcast_to(mesh.metrics.normal[:, None, :],
                                  points.shape)
        _, P_h, _, a_tilde = report_operators(
            surface, points.reshape(-1, 3), normals.reshape(-1, 3))
        gap = geometry_report(surface_name, [2])[0][4]
        assert_allclose(gap, np.abs(P_h - a_tilde).max(), rtol=1e-11)

    def test_unknown_surface_rejected(self):
        with pytest.raises(ValueError, match="unknown surface"):
            geometry_report("plane", [2])

    def test_levels_below_2_exits_2(self, tmp_path, capsys):
        out = tmp_path / "geo.csv"
        assert main(["verify-geometry", "--levels", "1",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "--levels" in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("surface, levels, nodes", [
        ("sphere", 9, 2621442), ("torus", 8, 2359296)])
    def test_levels_above_dof_cap_exit_2_before_building(
            self, tmp_path, capsys, no_mesh_built, surface, levels, nodes):
        out = tmp_path / "geo.csv"
        assert main(["verify-geometry", "--surface", surface,
                     "--levels", str(levels), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: --levels {levels} gives {nodes} "
                                f"nodes, above the cap of 2000000\n")
        assert captured.out == "" and not out.exists()


    @pytest.mark.parametrize("surface, build", [
        ("sphere", icosphere), ("torus", lambda lv: torus_grid(3 * 2 ** lv))])
    def test_cap_counts_the_nodes_of_each_family(self, monkeypatch, surface,
                                                 build):
        for level in (2, 3):
            n_nodes = build(level).n_nodes
            monkeypatch.setattr(cli, "DOF_CAP", n_nodes)
            cli._within_cap("--levels", level, surface)
            monkeypatch.setattr(cli, "DOF_CAP", n_nodes - 1)
            with pytest.raises(ValueError, match=f" gives {n_nodes} nodes, "):
                cli._within_cap("--levels", level, surface)


class TestTimingTable:
    def test_matrix_rows_and_header(self, tmp_path):
        rows = timing_table(tol=2.0, tau0=0.1, level=2)
        assert [(r[0], r[1]) for r in rows] == [
            ("rgb", "none"), ("rgb", "reset"), ("rgb", "matching"),
            ("nvb", "none"), ("nvb", "reset"), ("nvb", "matching")]
        for row in rows:
            assert row[2] > 0.0 and row[3] > 0 and row[4] > 0 and row[5] > 0
        assert len(TIMING_FIELDS) == len(rows[0])
