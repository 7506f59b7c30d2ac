import contextlib
import signal

import pytest

from dime import parse_program
from dime.program import CONTROL_TRANSFERS


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


def committed_points(program, granularity, outcome):
    """The (image, rel_addr) instrumentation points inside a run's committed
    entries: every instruction at `all`, the control transfers at `ctrl`.
    These are the points the run analyzed."""
    kinds = {img.name: img.kinds for img in program.images}
    return {(image, a) for image, rel_addr, length in outcome.committed_entries
            for a in range(rel_addr, rel_addr + length)
            if granularity == "all" or kinds[image][a] in CONTROL_TRANSFERS}


def marks_of(program, addresses):
    """The marks a run keeps for one version (see TraceMemo.shape) when
    `addresses` are the entry points of its cached traces: per image that
    holds one of them, a bytearray with one byte per address and a 1 at
    each of them."""
    marks = {}
    for addr in addresses:
        img = program.image_of(addr)
        marks.setdefault(img.name, bytearray(len(img.kinds)))[addr - img.base] = 1
    return marks


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

# Three passes of a loop whose body takes a br, an ndbr, a call, a ret and a
# jmp, and skips an ndbr that is never taken; its closing br is taken twice,
# then falls through to the halt.  So every kind of transfer is taken, a br
# and an ndbr also fall through, and each record repeats.
TRANSFERS = """\
image m 0
L:  br A T
    op 1
A:  ndbr B 1.0
    op 1
B:  call F
    ndbr L 0.0
    jmp C
C:  br L TTN
    halt
F:  op 2
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
