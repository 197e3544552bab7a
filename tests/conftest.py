"""Terminal summary of the acceptance suite: one ``[criterion NN]`` line per
criterion, recorded by ``test_acceptance.report`` as a ``criterion`` user
property, so the lines show under pytest's default output capture."""


def pytest_terminal_summary(terminalreporter):
    lines = sorted(value for reports in terminalreporter.stats.values()
                   for rep in reports if getattr(rep, "when", None) == "call"
                   for name, value in rep.user_properties
                   if name == "criterion")
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
