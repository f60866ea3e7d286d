import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

from matchturan.graphs import Graph

# The slowest test takes a few seconds; one that runs past this has hung
# (a search that never ends), and failing it lets the rest of the suite run.
TEST_TIMEOUT_S = 120


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    # forked pool workers do not inherit an interval timer
    def expire(signum, frame):
        pytest.fail(f"{item.nodeid} ran past the {TEST_TIMEOUT_S} s per-test timeout")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIMEOUT_S)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)
