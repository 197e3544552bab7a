"""The benchmark's workloads: fixed inputs, varied only by the seed's rotation
of the initial icosphere (see ``unit.initial_mesh``).

The two workloads in BENCHMARK.json take about 6-8 s each on a 2-vCPU Xeon
virtual machine, so that one run of the benchmark times several of them and
reports their median.  A unit as long as a run leaves a single sample, which
slow phases of a shared host move by a quarter or more.

Pure data, so that ``run.py`` can read it without importing numpy.
"""

WORKLOADS = {
    # W1: ``cli.convergence_sweep`` on four fixed meshes (up to 10,242 dofs),
    # each reused for 1 + 100 steps.  Level 6 (40,962 dofs) is left out: it
    # alone takes three quarters of the full sweep's 30 s.
    "uniform-sweep": {
        "problem": "sphere-decay",
        "levels": (2, 3, 4, 5),
        "taus": (1.0, 0.01),
        "t_end": 1.0,
    },
    # W2: the adaptive decay run of the acceptance suite, stopped after its
    # first three accepted steps (about 25 s of the full run's 90 s).  The run
    # is front-loaded: step 1 alone refines through 20 solves while tau is
    # halved 7 times, up to 188,710 dofs on seed 0.  Not in BENCHMARK.json:
    # its work depends too much on the seed's rotation for a regression bound
    # across seeds (peak dofs 178,621 to 237,388 on seeds 1-9).
    "adaptive-decay": {
        "problem": "sphere-decay",
        "levels": (3,),
        "config": {"tol": 0.01, "tau0": 0.02, "t_end": 3.0, "theta": 0.5,
                   "theta_star": 0.85, "max_coarsen_iters": 1},
        "max_steps": 3,
    },
    # W3: the travelling peak with NVB refinement and matching coarsening,
    # run to T = 0.2 (42 accepted steps): many small meshes (at most about
    # 2,000 dofs), rebuilt and coarsened at every step.
    "moving-peak": {
        "problem": "moving-peak-timing",
        "levels": (3,),
        "config": {"tol": 0.4, "tau0": 0.02, "t_end": 0.2, "theta": 0.8,
                   "theta_star": 0.2},
        "max_steps": None,
    },
}
