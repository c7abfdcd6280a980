"""Prints the ``[ACCEPT-nn]`` verdict lines that ``test_acceptance.report``
records, in one terminal-summary section, so that a captured run (``pytest
-q``) shows every verdict."""


def pytest_terminal_summary(terminalreporter):
    # a test's setup, call and teardown reports all carry its properties
    lines = sorted(value for reports in terminalreporter.stats.values()
                   for rep in reports if getattr(rep, "when", None) == "call"
                   for name, value in rep.user_properties if name == "accept")
    if lines:
        terminalreporter.write_sep("=", "acceptance verdicts")
        for line in lines:
            terminalreporter.write_line(line)
