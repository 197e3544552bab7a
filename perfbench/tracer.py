"""Outside-in layer trace for the surfheat benchmark.

Spans are recorded by wrapping the public functions of each layer where the
calling module looked them up: ``adaptive.assemble`` is a binding of its own,
separate from ``fem.assemble``, and ``geometry.lift`` is bound again in ``fem``
and in ``refinement``.  The lazy per-mesh caches are wrapped in ``mesh`` itself,
so their cost is charged to ``mesh`` and not to whichever layer touched the
cache first.  Spans nest; a span's self time is its duration minus the time of
the spans it directly contains.

Only aggregates are kept in memory: per span name the number of calls, the
busy (inclusive) time and the self time.
"""

import functools
import time
import weakref
from collections import Counter

# (calling module, attribute, span name).  The entry points ``adaptive.run``
# and ``cli.convergence_sweep`` are wrapped by the benchmark itself as the
# root spans ``adaptive`` and ``cli``.
BINDINGS = (
    ("adaptive", "backward_euler_step", "fem.solve"),
    ("cli", "backward_euler_step", "fem.solve"),
    ("adaptive", "assemble", "fem.assemble"),
    ("cli", "assemble", "fem.assemble"),
    ("fem", "basis_gradients", "fem.basis_gradients"),
    ("estimator", "basis_gradients", "fem.basis_gradients"),
    ("adaptive", "interpolate", "fem.interpolate"),
    ("cli", "interpolate", "fem.interpolate"),
    ("adaptive", "compute_indicators", "estimator.indicators"),
    ("cli", "compute_indicators", "estimator.indicators"),
    ("adaptive", "coarsening_indicator", "estimator.coarsening"),
    ("estimator", "conormal_flux_jumps", "mesh.flux_jumps"),
    ("mesh", "build_adjacency", "mesh.adjacency"),
    ("mesh", "element_metrics", "mesh.metrics"),
    ("mesh", "_compute_edge_geometry", "mesh.edge_geometry"),
    ("adaptive", "mark_refine", "refinement.mark"),
    ("adaptive", "mark_coarsen", "refinement.mark"),
    ("adaptive", "refine", "refinement.refine"),
    ("adaptive", "transfer", "refinement.transfer"),
    ("adaptive", "lift_new_nodes", "refinement.lift"),
    ("adaptive", "coarsen", "refinement.coarsen"),
    ("fem", "lift", "geometry.lift"),
    ("refinement", "lift", "geometry.lift"),
    ("fem", "geometric_operators", "geometry.operators"),
    ("cli", "geometric_operators", "geometry.operators"),
)

# ErrorEvaluator construction and evaluation are one span, ``fem.errors``.
METHODS = (
    ("fem", "ErrorEvaluator", "__init__", "fem.errors"),
    ("fem", "ErrorEvaluator", "errors", "fem.errors"),
)

ROOTS = ("adaptive", "cli")
SPANS = ROOTS + tuple(dict.fromkeys(
    [name for _, _, name in BINDINGS] + [name for *_, name in METHODS]))


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Span aggregates plus the counters the benchmark reports per layer."""

    def __init__(self):
        self.calls = Counter()
        self.busy = Counter()
        self.self_time = Counter()
        self.depth1_time = 0.0  # spans directly below a root span
        self.counts = Counter()
        self._stack = []        # [name, time of directly nested spans]
        self._undo = []
        self._gradient_meshes = weakref.WeakKeyDictionary()
        self._step_taus = []

    # ----------------------------------------------------------------- spans

    def wrap(self, name, fn, observe=None):
        """Return ``fn`` wrapped in a span; ``observe(args, result)`` runs
        after a call that returned."""
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self.calls[name] += 1
                self.busy[name] += duration
                self.self_time[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                    if len(stack) == 1 and stack[0][0] in ROOTS:
                        self.depth1_time += duration
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def install(self, modules):
        """Wrap every binding in ``modules`` (a name -> module mapping)."""
        observers = {"fem.solve": self._observe_solve,
                     "fem.basis_gradients": self._observe_gradients,
                     "refinement.coarsen": self._observe_coarsen,
                     "geometry.lift": self._observe_lift}
        for module, attr, name in BINDINGS:
            self._patch(modules[module], attr,
                        self.wrap(name, getattr(modules[module], attr),
                                  observers.get(name)))
        for module, cls, attr, name in METHODS:
            owner = getattr(modules[module], cls)
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))
        surface_mesh = modules["mesh"].SurfaceMesh
        built = surface_mesh.__init__

        @functools.wraps(built)
        def counted(mesh, *args, **kwargs):
            built(mesh, *args, **kwargs)
            self.counts["meshes_built"] += 1

        self._patch(surface_mesh, "__init__", counted)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -------------------------------------------------------------- counters

    def _observe_solve(self, args, result):
        mass, tau = args[0], args[4]
        iters = result[1]
        n = mass.shape[0]
        # Computed, not measured: one SpMV reads the CSR arrays and one
        # vector and writes one vector.  A solve does one SpMV per CG
        # iteration plus the right-hand side and the initial residual.
        matrix_bytes = mass.data.nbytes + mass.indices.nbytes + mass.indptr.nbytes
        self.counts["cg_iters"] += iters
        self.counts["spmv_bytes"] += (iters + 2) * (matrix_bytes + 16 * n)
        if self._stack and self._stack[0][0] == "adaptive":
            self.counts["adaptive_solves"] += 1
            self._step_taus.append(tau)

    def _observe_gradients(self, args, result):
        mesh = args[0]
        if mesh not in self._gradient_meshes:
            self._gradient_meshes[mesh] = True
            self.counts["gradient_meshes"] += 1

    def _observe_coarsen(self, args, result):
        self.counts["coarsen_trial_removed"] += result[2]

    def _observe_lift(self, args, result):
        self.counts["lift_points"] += len(result)

    def step_accepted(self, record):
        """Close one accepted step of an adaptive run.

        A temporal reject halves tau between two consecutive solves of the
        step; the solves made at a rejected tau are wasted.
        """
        taus = self._step_taus
        self.counts["accepted_steps"] += 1
        self.counts["coarsen_kept_removed"] += record.nodes_removed
        self.counts["temporal_rejects"] += sum(
            later < earlier for earlier, later in zip(taus, taus[1:]))
        if taus:
            self.counts["wasted_solves"] += sum(t != taus[-1] for t in taus)
        self._step_taus = []

    # ---------------------------------------------------------------- report

    def metrics(self, wall_s, call_cost):
        """Per-layer metrics of a traced interval of ``wall_s`` seconds;
        ``call_cost`` is the time one traced call adds (``wrapper_cost``)."""
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.busy_s"] = (self.busy[name], "s")
            out[f"{name}.self_s"] = (self.self_time[name], "s")
        c = self.counts
        solves = self.calls["fem.solve"]
        overhead = (sum(self.calls.values()) + c["meshes_built"]) * call_cost
        out.update({
            "fem.solve.cg_iters": (c["cg_iters"], "count"),
            "fem.solve.cg_iters_per_solve": (_ratio(c["cg_iters"], solves),
                                             "iter/solve"),
            "fem.solve.spmv_bytes": (c["spmv_bytes"], "B-computed"),
            "fem.basis_gradients.calls_per_mesh": (
                _ratio(self.calls["fem.basis_gradients"],
                       c["gradient_meshes"]), "calls/mesh"),
            "mesh.meshes_built": (c["meshes_built"], "count"),
            "mesh.solved_share": (_ratio(self.calls["fem.assemble"],
                                         c["meshes_built"]), "ratio"),
            "refinement.coarsen.kept_share": (
                _ratio(c["coarsen_kept_removed"], c["coarsen_trial_removed"]),
                "ratio"),
            "geometry.lift.points": (c["lift_points"], "count"),
            "adaptive.accepted_steps": (c["accepted_steps"], "count"),
            "adaptive.solves": (c["adaptive_solves"], "count"),
            "adaptive.temporal_rejects": (c["temporal_rejects"], "count"),
            "adaptive.wasted_solve_share": (
                _ratio(c["wasted_solves"], c["adaptive_solves"]), "ratio"),
            "trace.coverage": (_ratio(self.depth1_time, wall_s), "ratio"),
            "trace.overhead_share": (_ratio(overhead, wall_s - overhead),
                                     "ratio"),
        })
        return out


def wrapper_cost(samples=20_000, repeats=5):
    """Seconds one traced call adds to the call of a no-op inside a root
    span: the least difference over ``repeats`` timings of ``samples``
    calls.  On a shared machine this is steadier than comparing a traced
    with an untraced run, whose walls differ by more than the overhead."""
    probe = Tracer()
    traced = probe.wrap("fem.solve", lambda: None)

    def plain():
        return None

    def loop(fn):
        start = time.perf_counter()
        for _ in range(samples):
            fn()
        return time.perf_counter() - start

    root = probe.wrap("adaptive", lambda: loop(traced) - loop(plain))
    return max(min(root() for _ in range(repeats)), 0.0) / samples
