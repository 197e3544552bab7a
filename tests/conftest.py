"""Terminal summary of the acceptance suite: one ``[criterion NN]`` line per
criterion, recorded by ``test_acceptance.report`` as a ``criterion`` user
property, so the lines show under pytest's default output capture.

BLAS runs on one thread, as in CI and perfbench: threaded OpenBLAS slows the
suite on a 2-core machine and starves the sweep's worker thread.  pytest
imports this file before any test module loads numpy, so the defaults below
take effect; a value set in the environment wins."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def pytest_terminal_summary(terminalreporter):
    lines = sorted(value for reports in terminalreporter.stats.values()
                   for rep in reports if getattr(rep, "when", None) == "call"
                   for name, value in rep.user_properties
                   if name == "criterion")
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
