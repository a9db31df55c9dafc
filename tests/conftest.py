import os

import pytest

import acceptance_report
from ttpack.pipeline import verify_t7_thresholds


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory) -> str:
    """One enumeration cache shared by the whole run."""
    return str(tmp_path_factory.mktemp("enumeration-cache"))


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail any test that leaves a child process running or unreaped."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    left = "a running child" if pid == 0 else f"child {pid}, exit status {status},"
    pytest.fail(f"the test left {left} behind")


@pytest.fixture(scope="session")
def threshold_report(cache_dir):
    # computed once: the full 456-class sweep backs several tests
    return verify_t7_thresholds(cache_dir=cache_dir)


def pytest_terminal_summary(terminalreporter):
    if acceptance_report.LINES:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_report.LINES:
            terminalreporter.write_line(line)
