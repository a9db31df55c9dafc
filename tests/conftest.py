import pytest

import acceptance_report
from ttpack.pipeline import verify_t7_thresholds


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory) -> str:
    """One enumeration cache shared by the whole run."""
    return str(tmp_path_factory.mktemp("enumeration-cache"))


@pytest.fixture(scope="session")
def threshold_report(cache_dir):
    # computed once: the full 456-class sweep backs several tests
    return verify_t7_thresholds(cache_dir=cache_dir)


def pytest_terminal_summary(terminalreporter):
    if acceptance_report.LINES:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_report.LINES:
            terminalreporter.write_line(line)
