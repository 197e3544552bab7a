"""Driver behavior: exact bookkeeping on the trivial problem, determinism,
acceptance gates, every safety guard, and the three coarsening modes."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from surfheat import adaptive, mesh as meshmod, refinement
from surfheat.adaptive import AdaptiveConfig, RunLog, StepRecord, run
from surfheat.errors import (DofCapExceeded, GenerationMismatch,
                             MetadataMissing, NonFiniteValue, NonManifold,
                             OutsideTube, SolverDivergence, SpatialStagnation,
                             StrategyMismatch, TauUnderflow)
from surfheat.geometry import unit_sphere
from surfheat.mesh import SurfaceMesh, validate_mesh
from surfheat.problems import Problem, get_problem, icosphere
from surfheat.refinement import init_reference_edges, refine, transfer


def constant_source(value=10.0):
    """Spatially constant forcing from rest: the discrete solution stays
    nodally constant, so the spatial indicator is identically zero while
    the temporal one is value**2 * tau**2 * area."""
    return Problem(
        name="constant-source",
        surface=unit_sphere(),
        f=lambda x, t: np.full(x.shape[:-1], value),
        u0=lambda x: np.zeros(x.shape[:-1]),
        t_end=1.0)


def fast_decay():
    """Like sphere-decay but with rate 5, so late-time meshes can coarsen."""
    return Problem(
        name="fast-decay",
        surface=unit_sphere(),
        f=lambda x, t: np.exp(-5.0 * t) * x[..., 0] * x[..., 1],
        u0=lambda x: x[..., 0] * x[..., 1],
        t_end=1.5)


def records_without_wall(log):
    return [dataclasses.replace(r, wall_ms=0.0) for r in log.records]


def count_calls(monkeypatch, module, name):
    """Patch ``module.name`` to record each call in the returned list."""
    calls = []
    function = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return function(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestZeroProblem:
    def test_tau_doubles_until_clamped(self):
        problem = get_problem("zero")
        config = AdaptiveConfig(tol=1e-6, tau0=2.0 ** -10, t_end=1.0)
        log = run(problem, problem.surface, icosphere(1), config)
        assert log.accepted_steps == 11
        taus = [r.tau for r in log.records]
        npt.assert_array_equal(taus[:10], [2.0 ** k for k in range(-10, 0)])
        assert taus[10] == 2.0 ** -10  # clamped remainder
        assert log.records[-1].t == 1.0  # exact in binary
        times = [r.t for r in log.records]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_everything_stays_exactly_zero(self):
        problem = get_problem("zero")
        mesh = icosphere(1)
        config = AdaptiveConfig(tol=1e-6, tau0=2.0 ** -10, t_end=1.0)
        log = run(problem, problem.surface, mesh, config)
        for r in log.records:
            assert r.eta_h_sq == 0.0
            assert r.eta_tau_sq == 0.0
            assert r.eta_c_sq == 0.0
            assert r.eta_combined == 0.0
            assert r.dofs == mesh.n_nodes
            assert r.spatial_iters == 1
            assert r.nodes_removed == 0
            assert r.cg_iters == 0  # zero right-hand side short-circuits
        assert log.cum_dof_steps == 11 * mesh.n_nodes
        assert log.peak_dofs == mesh.n_nodes

    def test_single_step_when_tau0_equals_t_end(self):
        problem = get_problem("zero")
        config = AdaptiveConfig(tol=1e-6, tau0=1.0, t_end=1.0)
        log = run(problem, problem.surface, icosphere(1), config)
        assert log.accepted_steps == 1
        assert log.records[0].t == 1.0


class TestGatesAndDeterminism:
    def make(self):
        problem = get_problem("sphere-decay")
        config = AdaptiveConfig(tol=1.0, tau0=0.1, t_end=0.3,
                                theta=0.5, theta_star=0.2)
        return problem, config

    def test_acceptance_gates_and_time_consistency(self):
        problem, config = self.make()
        log = run(problem, problem.surface, icosphere(2), config)
        assert log.accepted_steps >= 2
        for r in log.records:
            assert r.eta_h_sq < config.tol
            assert r.eta_tau_sq < config.tol
            assert r.eta_c_sq <= config.tol or r.nodes_removed == 0
        npt.assert_allclose(sum(r.tau for r in log.records), config.t_end,
                            atol=1e-12)
        assert log.records[-1].t == pytest.approx(config.t_end, abs=1e-12)

    def test_identical_runs_produce_identical_logs(self):
        problem, config = self.make()
        first = run(problem, problem.surface, icosphere(2), config)
        second = run(problem, problem.surface, icosphere(2), config)
        assert records_without_wall(first) == records_without_wall(second)
        assert first.cum_dof_steps == second.cum_dof_steps
        assert first.peak_dofs == second.peak_dofs

    @pytest.mark.parametrize("strategy", ["nvb", "rgb"])
    def test_refined_and_accepted_meshes_are_valid(self, monkeypatch,
                                                   strategy):
        # refine lifts the nodes it adds: every mesh a refinement returns
        # and every accepted mesh is closed, oriented, non-degenerate and on
        # the surface
        problem = get_problem("moving-peak-timing")
        surface = problem.surface
        refine_, refined, accepted = adaptive.refine, [], []

        def validated_refine(*args, **kwargs):
            mesh, tmap = refine_(*args, **kwargs)
            refined.append(validate_mesh(mesh, surface))
            return mesh, tmap

        def on_accept(record, mesh, u):
            accepted.append(validate_mesh(mesh, surface))

        monkeypatch.setattr(adaptive, "refine", validated_refine)
        config = AdaptiveConfig(tol=0.4, tau0=0.02, t_end=0.05, theta=0.8,
                                theta_star=0.2, strategy=strategy)
        log = run(problem, surface, icosphere(3), config, on_accept=on_accept)
        assert len(refined) > 0
        assert len(accepted) == log.accepted_steps > 0

    def test_callback_sees_final_step_state(self):
        problem, config = self.make()
        seen = []

        def on_accept(record, mesh, u):
            assert u.generation == mesh.generation
            assert len(u.coefficients) == mesh.n_nodes
            assert mesh.n_nodes == record.dofs - record.nodes_removed
            seen.append(record.step)

        log = run(problem, problem.surface, icosphere(2), config,
                  on_accept=on_accept)
        assert seen == [r.step for r in log.records]


class TestRejectedAttempts:
    def test_step_counters_include_rejected_attempts(self, monkeypatch):
        # moving-peak-timing halves tau in most steps up to t = 0.05; a
        # record counts every solve of its step, and a retry starts on the
        # mesh the rejected attempt refined to
        solves = []
        steps = []
        solve = adaptive.backward_euler_step

        def recorded(mass, stiffness, u_prev, f_h, tau, **kwargs):
            u_new, iters = solve(mass, stiffness, u_prev, f_h, tau, **kwargs)
            solves.append((u_prev.generation, len(u_prev.coefficients), tau,
                           iters))
            return u_new, iters

        def on_accept(record, mesh, u):
            steps.append((record, list(solves)))
            solves.clear()

        monkeypatch.setattr(adaptive, "backward_euler_step", recorded)
        problem = get_problem("moving-peak-timing")
        config = AdaptiveConfig(tol=0.4, tau0=0.02, t_end=0.05, theta=0.8,
                                theta_star=0.2)
        log = run(problem, problem.surface, icosphere(3), config,
                  on_accept=on_accept)
        refined_rejects = 0
        for record, step_solves in steps:
            generations, dofs, taus, iters = zip(*step_solves)
            assert record.spatial_iters == len(step_solves)
            assert record.cg_iters == sum(iters)
            assert (record.tau, record.dofs) == (taus[-1], dofs[-1])
            for k in range(1, len(taus)):
                if taus[k] != taus[k - 1]:  # attempt k - 1 was rejected
                    assert taus[k] == 0.5 * taus[k - 1]
                    assert generations[k] == generations[k - 1]
                    refined_rejects += dofs[k - 1] > dofs[0]
        assert log.cum_dof_steps == sum(n for _, step_solves in steps
                                        for _, n, _, _ in step_solves)
        assert refined_rejects > 0


class TestSolveStarts:
    def test_nested_starts_and_cg_rtol(self, monkeypatch):
        # a solve right after a refinement starts from the iterate just
        # computed, transferred through that refinement; the first solve of
        # every attempt, a retry after a temporal reject included, starts
        # from u_prev; every solve stops at CG_RTOL
        events = []
        solve, refine_ = adaptive.backward_euler_step, adaptive.refine

        def spied_solve(*args, **kwargs):
            u_new, iters = solve(*args, **kwargs)
            events.append(("solve", kwargs, u_new))
            return u_new, iters

        def spied_refine(*args, **kwargs):
            refined, tmap = refine_(*args, **kwargs)
            events.append(("refine", tmap))
            return refined, tmap

        monkeypatch.setattr(adaptive, "backward_euler_step", spied_solve)
        monkeypatch.setattr(adaptive, "refine", spied_refine)
        problem = get_problem("moving-peak-timing")
        config = AdaptiveConfig(tol=0.4, tau0=0.02, t_end=0.05, theta=0.8,
                                theta_star=0.2)
        log = run(problem, problem.surface, icosphere(3), config)
        expected = u_new = None
        nested = unstarted = 0
        for event in events:
            if event[0] == "refine":
                expected = transfer(u_new, event[1]).coefficients
                continue
            _, kwargs, u_new = event
            assert kwargs["rtol"] == adaptive.CG_RTOL
            if expected is None:
                assert kwargs["x0"] is None
                unstarted += 1
            else:
                assert kwargs["x0"].tobytes() == expected.tobytes()
                nested += 1
            expected = None
        assert nested > 0
        # more first solves than steps: some attempt was a retry
        assert unstarted > log.accepted_steps
        assert nested + unstarted == sum(r.spatial_iters for r in log.records)


class TestGuards:
    def test_tau_underflow(self, monkeypatch):
        monkeypatch.setattr(adaptive, "TAU_MIN_FACTOR", 1e-4)
        problem = constant_source()
        config = AdaptiveConfig(tol=1e-10, tau0=0.1, t_end=1.0)
        with pytest.raises(TauUnderflow, match=r"\[step 1, t = 0, "
                           r"tau = 9\.76563e-05, dofs = 42\]"):
            run(problem, problem.surface, icosphere(1), config)

    def test_spatial_stagnation(self, monkeypatch):
        # the last permitted solve ran on icosphere(2)'s 162 nodes; the
        # guard names that mesh and refines nothing further
        refines = []

        def counted_refine(mesh, *args, **kwargs):
            refines.append(mesh.n_nodes)
            return refine(mesh, *args, **kwargs)

        monkeypatch.setattr(adaptive, "refine", counted_refine)
        monkeypatch.setattr(adaptive, "MAX_SPATIAL_ITERS", 1)
        problem = get_problem("sphere-decay")
        config = AdaptiveConfig(tol=0.05, tau0=0.01, t_end=1.0)
        with pytest.raises(SpatialStagnation, match=r"\[step 1, t = 0, "
                           r"tau = 0\.01, dofs = 162\]"):
            run(problem, problem.surface, icosphere(2), config)
        assert refines == []

    def test_dof_cap(self, monkeypatch):
        monkeypatch.setattr(adaptive, "DOF_CAP", 200)
        problem = get_problem("sphere-decay")
        config = AdaptiveConfig(tol=0.05, tau0=0.01, t_end=1.0)
        with pytest.raises(DofCapExceeded, match=r"\[step 1, t = 0, "
                           r"tau = 0\.01, dofs = 162\]"):
            run(problem, problem.surface, icosphere(2), config)

    def test_spatial_stagnation_names_the_refined_mesh(self, monkeypatch):
        # two refinements took the 162 nodes to 522 before the third solve
        monkeypatch.setattr(adaptive, "MAX_SPATIAL_ITERS", 3)
        problem = get_problem("sphere-decay")
        config = AdaptiveConfig(tol=0.05, tau0=0.01, t_end=1.0)
        with pytest.raises(SpatialStagnation, match=r" after 3 solves "
                           r"\(tol 5\.000e-02\) \[step 1, t = 0, "
                           r"tau = 0\.01, dofs = 522\]$"):
            run(problem, problem.surface, icosphere(2), config)

    def test_dof_cap_names_the_last_mesh_taken(self, monkeypatch):
        # 162 -> 282 nodes is taken; the next refinement, to 522, is not
        monkeypatch.setattr(adaptive, "DOF_CAP", 400)
        problem = get_problem("sphere-decay")
        config = AdaptiveConfig(tol=0.05, tau0=0.01, t_end=1.0)
        with pytest.raises(DofCapExceeded, match=r"^refinement to 522 nodes "
                           r"exceeds the cap of 400 \[step 1, t = 0, "
                           r"tau = 0\.01, dofs = 282\]$"):
            run(problem, problem.surface, icosphere(2), config)

    def test_dof_cap_bounds_the_initial_mesh_before_any_solve(self,
                                                              monkeypatch):
        solves = count_calls(monkeypatch, adaptive, "backward_euler_step")
        monkeypatch.setattr(adaptive, "DOF_CAP", 100)
        problem = get_problem("sphere-decay")
        config = AdaptiveConfig(tol=0.05, tau0=0.01, t_end=1.0)
        with pytest.raises(DofCapExceeded, match=r"^initial mesh of 162 "
                           r"nodes exceeds the cap of 100$"):
            run(problem, problem.surface, icosphere(2), config)
        assert solves == []

    def test_non_finite_source_names_step_and_keeps_iterations(self):
        problem = Problem(
            name="nan-source", surface=unit_sphere(),
            f=lambda x, t: np.full(x.shape[:-1], np.nan),
            u0=lambda x: np.zeros(x.shape[:-1]), t_end=1.0)
        config = AdaptiveConfig(tol=1e-6, tau0=0.5, t_end=1.0)
        with pytest.raises(NonFiniteValue,
                           match=r"\(0 iterations spent\) \[step 1, t = 0, "
                           r"tau = 0\.5, dofs = 42\]"):
            run(problem, problem.surface, icosphere(1), config)

    def test_initial_interpolation_must_meet_tolerance(self):
        problem = get_problem("sphere-decay")
        config = AdaptiveConfig(tol=1e-3, tau0=0.01, t_end=1.0)
        with pytest.raises(ValueError, match="initial mesh too coarse"):
            run(problem, problem.surface, icosphere(2), config)

    def test_initial_mesh_needs_reference_edges(self):
        problem = get_problem("zero")
        base = icosphere(1)
        bare = SurfaceMesh(base.nodes.copy(), base.triangles.copy())
        config = AdaptiveConfig(tol=1e-6, tau0=0.5, t_end=1.0)
        with pytest.raises(MetadataMissing):
            run(problem, problem.surface, bare, config)

    def test_open_initial_mesh_fails_before_any_solve(self, monkeypatch):
        solves = count_calls(monkeypatch, adaptive, "backward_euler_step")
        problem = get_problem("zero")
        base = icosphere(1)
        half = init_reference_edges(
            SurfaceMesh(base.nodes, base.triangles[:base.n_triangles // 2]))
        config = AdaptiveConfig(tol=1e-6, tau0=0.5, t_end=1.0)
        with pytest.raises(NonManifold):
            run(problem, problem.surface, half, config)
        assert solves == []

    def test_unreferenced_node_fails_before_any_solve(self, monkeypatch):
        solves = count_calls(monkeypatch, adaptive, "backward_euler_step")
        problem = get_problem("zero")
        base = icosphere(1)
        extra = init_reference_edges(SurfaceMesh(
            np.vstack([base.nodes, [[0.0, 0.0, 2.0]]]), base.triangles))
        config = AdaptiveConfig(tol=1e-6, tau0=0.5, t_end=1.0)
        with pytest.raises(ValueError, match="1 unreferenced nodes"):
            run(problem, problem.surface, extra, config)
        assert solves == []

    def test_off_surface_initial_mesh_fails_before_any_solve(self,
                                                              monkeypatch):
        solves = count_calls(monkeypatch, adaptive, "backward_euler_step")
        problem = get_problem("moving-peak-timing")
        base = icosphere(3)
        scaled = SurfaceMesh(base.nodes * (1.0 + 1e-6), base.triangles,
                             refedge_ready=True)
        config = AdaptiveConfig(tol=0.4, tau0=0.02, t_end=0.1)
        with pytest.raises(ValueError,
                           match=r"^node \d+ off the surface by 1e-06 "
                                 r"\(tol 1e-10\)$"):
            run(problem, problem.surface, scaled, config)
        assert solves == []

    def test_non_finite_initial_node_fails_before_any_solve(self,
                                                            monkeypatch):
        solves = count_calls(monkeypatch, adaptive, "backward_euler_step")
        problem = get_problem("zero")
        base = icosphere(2)
        nodes = base.nodes.copy()
        nodes[5, 1] = np.nan
        config = AdaptiveConfig(tol=1e-6, tau0=0.5, t_end=1.0)
        with pytest.raises(NonFiniteValue, match=r"^node 5 has a non-finite"):
            run(problem, problem.surface,
                SurfaceMesh(nodes, base.triangles, refedge_ready=True),
                config)
        assert solves == []

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_initial_datum_fails_before_any_solve(self, monkeypatch,
                                                             bad):
        # "nan > tol" is False, so the interpolation-error guard alone would
        # let it through to the first solve's right-hand side
        solves = count_calls(monkeypatch, adaptive, "backward_euler_step")
        base = icosphere(2)
        problem = get_problem("sphere-decay")._replace(
            u0=lambda x: np.where((x == base.nodes[7]).all(axis=-1), bad,
                                  x[..., 0] * x[..., 1]))
        config = AdaptiveConfig(tol=0.05, tau0=0.01, t_end=1.0)
        with pytest.raises(NonFiniteValue, match=r"^initial datum u0 is not "
                           rf"finite: node 7 has {bad}$"):
            run(problem, problem.surface, base, config)
        assert solves == []

    def test_non_finite_interpolation_error_fails(self, monkeypatch):
        monkeypatch.setattr(adaptive, "lifted_l2_distance",
                            lambda *args: np.nan)
        problem = get_problem("sphere-decay")
        config = AdaptiveConfig(tol=0.05, tau0=0.01, t_end=1.0)
        with pytest.raises(ValueError, match="interpolation error nan"):
            run(problem, problem.surface, icosphere(2), config)

    def test_non_finite_weingarten_map_is_not_a_coarse_mesh(self):
        # it surfaced as "initial mesh too coarse: interpolation error nan"
        problem = get_problem("sphere-decay")
        surface = problem.surface._replace(
            hessian=lambda p: np.full(np.shape(p) + (3,), np.nan))
        config = AdaptiveConfig(tol=0.5, tau0=0.01, t_end=1.0)
        with pytest.raises(NonFiniteValue, match=r"^I - d\*Weingarten of "
                           r"point 0 has a non-finite entry$"):
            run(problem, surface, icosphere(2), config)

    def test_solver_divergence_names_step(self, monkeypatch):
        def failing_step(*args, **kwargs):
            raise SolverDivergence("PCG stopped")

        monkeypatch.setattr(adaptive, "backward_euler_step", failing_step)
        problem = get_problem("zero")
        config = AdaptiveConfig(tol=1e-6, tau0=0.5, t_end=1.0)
        with pytest.raises(SolverDivergence,
                           match=r"^PCG stopped \[step 1, t = 0, "
                           r"tau = 0\.5, dofs = 42\]$"):
            run(problem, problem.surface, icosphere(1), config)

    @pytest.mark.parametrize("name, error", [
        ("lift_new_nodes", OutsideTube("lifted point too far")),
        ("refine", StrategyMismatch("mesh was refined by rgb")),
    ])
    def test_refinement_errors_name_step(self, monkeypatch, name, error):
        # refine calls the lift of the nodes it adds from its own module
        def failing(*args, **kwargs):
            raise error

        owner = refinement if name == "lift_new_nodes" else adaptive
        monkeypatch.setattr(owner, name, failing)
        problem = get_problem("sphere-decay")
        config = AdaptiveConfig(tol=0.05, tau0=0.01, t_end=1.0)
        with pytest.raises(type(error),
                           match=f"^{error} \\[step 1, t = 0, "
                                 r"tau = 0\.01, dofs = 162\]$") as info:
            run(problem, problem.surface, icosphere(2), config)
        assert info.value.__cause__ is error

    def test_coarsening_error_names_its_own_step(self, monkeypatch):
        # step 2 starts at t = 0.05 with tau = 0.1 on step 1's 954 nodes;
        # t and tau advance only once its coarsening is through
        accepted = []
        error = GenerationMismatch("stale nodal vector")
        coarsen = adaptive.coarsen

        def failing_in_step_2(*args, **kwargs):
            if accepted:
                raise error
            return coarsen(*args, **kwargs)

        monkeypatch.setattr(adaptive, "coarsen", failing_in_step_2)
        problem = fast_decay()
        config = AdaptiveConfig(tol=1.0, tau0=0.05, t_end=0.3)
        with pytest.raises(GenerationMismatch,
                           match=r"^stale nodal vector \[step 2, t = 0\.05, "
                                 r"tau = 0\.1, dofs = 954\]$") as info:
            run(problem, problem.surface, icosphere(2), config,
                on_accept=lambda r, m, u: accepted.append(r))
        assert info.value.__cause__ is error
        assert [(r.t, r.tau, r.dofs) for r in accepted] == [(0.05, 0.05, 954)]

    def test_callback_error_passes_through_unchanged(self):
        error = SpatialStagnation("raised by the callback")

        def on_accept(record, mesh, u):
            raise error

        problem = get_problem("zero")
        config = AdaptiveConfig(tol=1e-6, tau0=0.5, t_end=1.0)
        with pytest.raises(SpatialStagnation) as info:
            run(problem, problem.surface, icosphere(1), config,
                on_accept=on_accept)
        assert info.value is error
        assert str(error) == "raised by the callback"
        assert error.__cause__ is None

    def test_initial_mesh_metrics_built_once(self, monkeypatch):
        # the closed-surface check caches them for the first assembly
        initial = icosphere(2)
        calls = []
        element_metrics = meshmod.element_metrics

        def counted(mesh):
            if mesh is initial:
                calls.append(1)
            return element_metrics(mesh)

        monkeypatch.setattr(meshmod, "element_metrics", counted)
        problem = fast_decay()
        config = AdaptiveConfig(tol=1.0, tau0=0.05, t_end=0.3)
        run(problem, problem.surface, initial, config)
        assert calls == [1]

    def test_closed_surface_checked_once_per_run(self, monkeypatch):
        # the benchmark's layer trace wraps this binding as mesh.adjacency
        calls = count_calls(monkeypatch, meshmod, "build_adjacency")
        problem = fast_decay()
        config = AdaptiveConfig(tol=1.0, tau0=0.05, t_end=0.3)
        log = run(problem, problem.surface, icosphere(2), config)
        assert log.peak_dofs > icosphere(2).n_nodes  # it did refine
        assert calls == [1]


class TestConfigValidation:
    def test_defaults(self):
        config = AdaptiveConfig(tol=0.1, tau0=0.01, t_end=2.0)
        assert config.coarsening == "matching"
        assert config.max_coarsen_iters == 10
        assert len(dataclasses.fields(AdaptiveConfig)) == 9
        assert adaptive.MAX_SPATIAL_ITERS == 30
        assert adaptive.CG_RTOL == 1e-7
        assert adaptive.DOF_CAP == 2_000_000
        assert adaptive.TAU_MIN_FACTOR == 1e-8

    @pytest.mark.parametrize("kwargs", [
        {"tol": 0.0},
        {"tol": -1.0},
        {"t_end": 0.0},
        {"theta": 0.0},
        {"theta": 1.0},
        {"theta_star": 0.0},
        {"theta_star": 1.0},
        {"tau0": 3.0},          # above t_end
        {"tau0": 1e-9},         # not above 1e-8 * t_end
        {"criterion": "random"},
        {"strategy": "octasection"},
        {"coarsening": "sometimes"},
        {"max_coarsen_iters": -1},
        {"max_coarsen_iters": 2.0},  # NaN, 2.5: test_max_coarsen_iters_named
        {"max_coarsen_iters": True},  # would read as one pass
    ])
    def test_rejects_bad_values(self, kwargs):
        base = dict(tol=0.1, tau0=0.01, t_end=1.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            AdaptiveConfig(**base)

    @pytest.mark.parametrize("value", [float("nan"), 2.5, True])
    def test_max_coarsen_iters_named(self, value):
        # a NaN would compare False against the pass count and silently
        # switch the matching loop off; True would read as one pass
        with pytest.raises(ValueError, match=r"^max_coarsen_iters must be "
                           r"an integer >= 0, got (nan|2\.5|True)$"):
            AdaptiveConfig(tol=0.1, tau0=0.01, t_end=1.0,
                           max_coarsen_iters=value)

    def test_max_coarsen_iters_accepts_numpy_integers(self):
        config = AdaptiveConfig(tol=0.1, tau0=0.01, t_end=1.0,
                                max_coarsen_iters=np.int64(0))
        assert config.max_coarsen_iters == 0

    @pytest.mark.parametrize("tau0", [1e-9, 3.0])
    def test_tau0_bounds_named(self, tau0):
        with pytest.raises(ValueError,
                           match=r"^need 1e-8 \* t_end < tau0 <= t_end$"):
            AdaptiveConfig(tol=0.1, tau0=tau0, t_end=1.0)

    @pytest.mark.parametrize("name", ["tol", "t_end"])
    def test_infinite_value_named(self, name):
        kwargs = dict(tol=0.1, tau0=0.01, t_end=1.0)
        kwargs[name] = np.inf
        with pytest.raises(ValueError,
                           match=f"^{name} must be positive and finite$"):
            AdaptiveConfig(**kwargs)


class TestCoarseningModes:
    def test_matching_sheds_nodes_as_solution_decays(self):
        problem = fast_decay()
        config = AdaptiveConfig(tol=1.0, tau0=0.05, t_end=1.5,
                                theta=0.5, theta_star=0.2,
                                coarsening="matching")
        sizes = []
        log = run(problem, problem.surface, icosphere(2), config,
                  on_accept=lambda r, m, u: sizes.append(m.n_nodes))
        assert log.peak_dofs > icosphere(2).n_nodes  # it did refine
        assert sum(r.nodes_removed for r in log.records) > 0
        assert log.final_dofs < log.peak_dofs
        assert log.final_dofs == sizes[-1]

    def test_matching_protects_the_step_tail(self, monkeypatch):
        # every pass protects the nodes made in its step: those past the
        # previous accepted mesh's node count, less what the step removed
        problem = get_problem("moving-peak-timing")
        initial = icosphere(3)
        config = AdaptiveConfig(tol=0.4, tau0=0.02, t_end=0.05, theta=0.8,
                                theta_star=0.2, coarsening="matching")
        state = {"n_prev": initial.n_nodes, "removed": 0}
        tails = []
        coarsen = adaptive.coarsen

        def checked(mesh, marks, functions, protect_from=None):
            assert protect_from == state["n_prev"] - state["removed"]
            out, restricted, removed = coarsen(mesh, marks, functions,
                                               protect_from=protect_from)
            tail = mesh.n_nodes - protect_from
            assert (out.nodes[out.n_nodes - tail:].tobytes()
                    == mesh.nodes[protect_from:].tobytes())
            state["removed"] += removed
            tails.append((tail, removed))
            return out, restricted, removed

        def on_accept(record, mesh, u):
            state["n_prev"], state["removed"] = mesh.n_nodes, 0

        monkeypatch.setattr(adaptive, "coarsen", checked)
        log = run(problem, problem.surface, initial, config,
                  on_accept=on_accept)
        assert sum(r.nodes_removed for r in log.records) > 0
        assert any(tail > 0 and removed > 0 for tail, removed in tails)

    def test_none_never_removes_and_grows_monotonically(self):
        problem = fast_decay()
        config = AdaptiveConfig(tol=1.0, tau0=0.05, t_end=1.5,
                                coarsening="none")
        meshes = []
        log = run(problem, problem.surface, icosphere(2), config,
                  on_accept=lambda r, m, u: meshes.append(m.n_nodes))
        assert all(r.nodes_removed == 0 for r in log.records)
        assert all(r.coarsen_iters == 0 for r in log.records)
        assert all(b >= a for a, b in zip(meshes, meshes[1:]))
        assert log.final_dofs == meshes[-1]

    def test_final_dofs_count_after_coarsening(self):
        log = RunLog()
        assert log.final_dofs == 0
        log.records.append(StepRecord(
            step=1, t=0.1, tau=0.1, dofs=100, eta_h_sq=0.0, eta_tau_sq=0.0,
            eta_c_sq=0.0, eta_combined=0.0, spatial_iters=1, coarsen_iters=1,
            nodes_removed=30, cg_iters=5, wall_ms=1.0))
        assert log.final_dofs == 70

    def test_reset_returns_to_initial_mesh_each_step(self):
        problem = fast_decay()
        initial = icosphere(2)
        config = AdaptiveConfig(tol=1.0, tau0=0.05, t_end=1.5,
                                coarsening="reset")
        sizes = []
        log = run(problem, problem.surface, initial, config,
                  on_accept=lambda r, m, u: sizes.append(m.n_nodes))
        assert all(n == initial.n_nodes for n in sizes)
        assert log.final_dofs == initial.n_nodes
        for r in log.records:
            assert r.nodes_removed == r.dofs - initial.n_nodes
