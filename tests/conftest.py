import signal
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from topzeta import principalize
from topzeta.blowup import PointRecord, blow_up, initial_state
from corpus import corpus


@contextmanager
def deadline(seconds: float):
    """Raise TimeoutError in the block once `seconds` of wall time have
    passed (SIGALRM, main thread), so a test of an input that used to hang
    fails in seconds instead of stalling the run."""
    def on_alarm(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def corpus_results():
    """Principalizations of the whole corpus, computed once per session."""
    return [(name, principalize(gens)) for name, gens in corpus()]


def _replay_states(result):
    """Replay a run's log on a fresh state: the state before each blow-up,
    then the final one.  The same state object is yielded each time,
    mutated in place between yields."""
    state = initial_state(list(result.gens))
    for ev in result.log:
        yield state
        leaf = next(i for i, ch in enumerate(state.leaves)
                    if ch.path == ev.chart_path)
        blow_up(state, PointRecord(leaf, ev.center))
    yield state


@pytest.fixture(scope="session")
def replay_states():
    """The `_replay_states` walk, for tests that check every step of a
    run."""
    return _replay_states


def pytest_terminal_summary(terminalreporter):
    try:
        import test_acceptance
    except ImportError:
        return
    if test_acceptance.RESULT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in test_acceptance.RESULT_LINES:
            terminalreporter.write_line(line)
