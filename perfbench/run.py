"""surfheat benchmark: one workload, end-to-end metrics or a layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src/``.
Every workload run is a fresh process (``unit.py``), single-threaded with
BLAS pinned to one thread, so that set-up includes the imports and peak RSS
belongs to one run.

``--trace 0``: set-up alone is measured in four extra processes, then whole
workload runs follow one after another (closed loop) while the next one is
expected to end within ``--seconds``; at least one runs.  Only the first
computes ``err_l2``, which depends on the seed alone.  Prints every end-to-end
metric, the median over the runs, with its unit and sample count.

``--trace 1``: one traced run of the workload; prints its per-layer
metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROCESSES = 4
UNIT_TIMEOUT_S = 170
# Printed with the results but left out of the final JSON, which carries
# exactly the end-to-end metrics of BENCHMARK.json.  adaptive-decay has three
# accepted steps per run, so its step-time percentiles jump between a
# one-solve and a three-solve step from seed to seed; failed_share is 0 on a
# correct program and travels as "attempted" and "failed".
PRINTED_ONLY = ("step_ms_p50", "step_ms_p90", "failed_share")


class UnitError(Exception):
    """A unit process crashed or timed out: no result can be reported."""


def run_unit(mode, workload, seed):
    """Run ``unit.py`` in a fresh process (it pins BLAS to one thread)."""
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "unit.py"), mode, workload, str(seed)],
            capture_output=True, text=True, timeout=UNIT_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() kills and reaps the child
        raise UnitError(f"{mode} unit exceeded {UNIT_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise UnitError(f"{mode} unit exited with {proc.returncode}: "
                        f"{proc.stderr.strip()[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["process_s"] = time.perf_counter() - started
    return report


def percentile(values, q):
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def end_to_end(units, setups):
    """End-to-end metrics: name -> (value, unit, sample count)."""
    done = [u for u in units if "wall_s" in u]
    steps = [ms for u in done for ms in u["step_ms"]]
    errors = [u["err_l2"] for u in done if "err_l2" in u]
    setup = [u["setup_s"] for u in setups + units if "setup_s" in u]
    failed = sum(not u["ok"] for u in units)
    return {
        "wall_s": (statistics.median(u["wall_s"] for u in done), "s", len(done)),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (statistics.median(u["peak_rss_mb"] for u in done),
                        "MB", len(done)),
        "step_ms_p50": (percentile(steps, 50), "ms", len(steps)),
        "step_ms_p90": (percentile(steps, 90), "ms", len(steps)),
        "err_l2": (statistics.median(errors), "1", len(errors)),
        "cum_dof_steps": (statistics.median(u["cum_dof_steps"] for u in done),
                          "dof-steps", len(done)),
        "peak_dofs": (statistics.median(u["peak_dofs"] for u in done),
                      "dofs", len(done)),
        "failed_share": (failed / len(units), "ratio", len(units)),
    }


def describe(unit):
    if not unit["ok"]:
        reason = unit.get("error") or "; ".join(unit["failures"])
        return f"FAILED: {reason}"
    text = (f"wall {unit['wall_s']:.3f} s, cum_dof_steps "
            f"{unit['cum_dof_steps']}, peak_dofs {unit['peak_dofs']}")
    if "err_l2" in unit:
        text += f", err_l2 {unit['err_l2']:.4e}"
    if "initial_error" in unit:
        text += f", initial interpolation error {unit['initial_error']:.5f}"
    return text


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    setups, units = [], []
    try:
        if args.trace:
            units = [run_unit("trace", args.workload, args.seed)]
        else:
            for _ in range(SETUP_PROCESSES):
                setups.append(run_unit("setup", args.workload, args.seed))
            started = time.perf_counter()
            while True:
                mode = ("repeat" if any("err_l2" in u for u in units)
                        else "run")
                units.append(run_unit(mode, args.workload, args.seed))
                elapsed = time.perf_counter() - started
                if elapsed + units[-1]["process_s"] > args.seconds:
                    break
    except UnitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not any("wall_s" in u for u in units):
        print("error: no workload run completed: "
              + "; ".join(describe(u) for u in units), file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    env = next(u["env"] for u in units if "env" in u)
    print("environment: " + json.dumps(env))
    for i, unit in enumerate(units):
        print(f"run {i + 1}: {describe(unit)}")
    if args.trace:
        metrics = {name: (value, unit, 1)
                   for name, (value, unit) in units[0]["layers"].items()}
    else:
        metrics = end_to_end(units, setups)
    for name, (value, unit, n) in metrics.items():
        print(f"{name} = {value} {unit} (n={n})")

    failed = sum(not u["ok"] for u in units)
    for name in PRINTED_ONLY:
        metrics.pop(name, None)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(units),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
