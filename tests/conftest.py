from hypothesis import settings

# Tier-1 draws a fixed, derandomized set of examples; a property test that
# leaves its count to the profile draws 60 of them here, and at least 300
# fresh ones under `pytest --hypothesis-profile=deep`.
settings.register_profile("default", max_examples=60, derandomize=True, deadline=None)
settings.register_profile("deep", max_examples=300, deadline=None, print_blob=True)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance verdict lines outside pytest's output capture."""
    try:
        from test_acceptance import CRITERION_LINES
    except Exception:
        return
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)
