import contextlib
import signal

import pytest

from dime import parse_program


@contextlib.contextmanager
def wall_budget(seconds: float):
    """Raise TimeoutError in the block once `seconds` of wall time pass, so a
    call that would never return fails the test instead of hanging it."""
    def interrupt(signum, frame):
        raise TimeoutError(f"over the {seconds} s wall budget")

    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)

# Canonical 6-instruction program: a loop whose exit is a nondeterministic branch.
P1 = """\
image main 1000
L0: op 1
    op 1
    ndbr L5 0.5
    op 1
    jmp L0
L5: halt
"""

# Deterministic twin: the exit branch follows a cyclic pattern instead
# (two full loop iterations, then taken on the third pass).
P1_DET = """\
image main 1000
L0: op 1
    op 1
    br L5 NNT
    op 1
    jmp L0
L5: halt
"""

CALLS = """\
image main 100
    op 1
    call F
    op 1
    call G
    halt
F:  op 2
    ret
G:  op 1
    call F
    ret
"""


@pytest.fixture
def p1():
    return parse_program(P1)


@pytest.fixture
def p1_det():
    return parse_program(P1_DET)


@pytest.fixture
def calls_program():
    return parse_program(CALLS)
