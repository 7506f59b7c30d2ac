"""Both interpreters against the independent reference interpreter.

`native_run` executes cached straight runs and `run()` executes each
compiled trace's op runs in one step; on generated programs both must walk
the reference's address sequence with its time, step count and records, and
a step limit one below the reference's step count must stop them.  With an
unlimited budget, run()'s committed entries must hold every instrumentation
point on that path, relative to its image, and no other.  The main code is
cut into adjacent images, so execution falls through from one image into the
next, and its routines sit in an image below it.

Each program also comes without its final halt, so that execution falls off
the end of its last image.  A step limit that leaves no room for the last
instruction before that must raise the step-limit error, not the fall-off
one, which pins where a run of ops that is executed in one step checks it.

A br may fast-forward the loop it closes from its HOT_BRANCH-th execution
in a run on, so loop guests whose branches run on either side of that
threshold, with patterns on either side of its length, pin the switch.
Some generated loops call a routine, whose ret the native pass's lap
balances, some are chains of jmp-linked blocks closed by a br that may jump
forward, and a step limit drawn inside the run must stop native_run
exactly where the reference stops.  Hand-written laps that the native pass
must not skip (a call stack that grows, an ndbr, a ret to a frame from
before the lap, a walk off every image, a jmp to itself) match the
reference's path and time, or its error, and hot loops on a float clock
read, bit for bit, what they read when no br gets hot.
"""

import math
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from dime import (BudgetState, GuestError, LogStore, RunConfig, executor, native_run,
                  parse_program, run)
from dime.executor import GRANULARITIES, HOT_BRANCH
from dime.program import (BR, CALL, CONTROL_TRANSFERS, HALT, JMP, OP, RET, Program,
                          ProgramImage)

from conftest import committed_points, wall_budget
from reference import reference_run

COSTS = st.sampled_from((0, 1, 1, 2, 3))
K = HOT_BRANCH


@st.composite
def programs(draw):
    labels = iter(f"L{i}" for i in range(1000))
    routines = draw(st.integers(0, 3))
    pieces = draw(st.lists(st.sampled_from(("ops", "loop", "skip", "jump", "call",
                                            "call loop", "jmp loop")),
                           min_size=1, max_size=10))

    def ops(low, high):
        return [f"op {draw(COSTS)}" for _ in range(draw(st.integers(low, high)))]

    main = []
    for piece in pieces:
        if piece == "loop":
            head, body = next(labels), ops(1, 6)
            main += [f"{head}: {body[0]}", *body[1:]]
            main.append(f"br {head} {'T' * draw(st.integers(1, 2 * K + 1))}N")
        elif piece == "call loop" and routines:
            # A lap through a routine: the call and its ret balance in it.
            head, body = next(labels), ops(0, 3)
            body.insert(draw(st.integers(0, len(body))),
                        f"call R{draw(st.integers(0, routines - 1))}")
            main += [f"{head}: {body[0]}", *body[1:]]
            main.append(f"br {head} {'T' * draw(st.integers(1, 2 * K + 1))}N")
        elif piece == "jmp loop":
            # A lap of jmp-linked blocks laid out in any order, closed by a
            # br to the first block or, sometimes, forward to one more block
            # past them all, whose jmp goes back to the first.
            blocks = [next(labels) for _ in range(draw(st.integers(1, 4)))]
            out = next(labels)
            target = next(labels) if draw(st.booleans()) else blocks[0]
            ends = [[f"jmp {label}"] for label in blocks[1:]]
            ends.append([f"br {target} {'T' * draw(st.integers(1, 2 * K + 1))}N",
                         f"jmp {out}"])
            code = dict(zip(blocks, ends))
            main.append(f"jmp {blocks[0]}")
            for label in draw(st.permutations(blocks)):
                body = ops(1, 3)
                main += [f"{label}: {body[0]}", *body[1:], *code[label]]
            if target != blocks[0]:
                main += [f"{target}: op {draw(COSTS)}", f"jmp {blocks[0]}"]
            main.append(f"{out}: op {draw(COSTS)}")
        elif piece in ("skip", "jump"):
            target = next(labels)
            if piece == "jump":
                main.append(f"jmp {target}")
            elif draw(st.booleans()):
                main.append(f"ndbr {target} {draw(st.sampled_from((0.25, 0.5, 0.75)))}")
            else:
                main.append(f"br {target} {draw(st.sampled_from(('T', 'N', 'TN', 'NT')))}")
            main += ops(1, 3)
            main.append(f"{target}: op {draw(COSTS)}")
        elif piece == "call" and routines:
            main.append(f"call R{draw(st.integers(0, routines - 1))}")
        else:
            main += ops(1, 24)
    lib = []
    if routines:
        lib.append("image lib 10")
        for r in range(routines):
            body = ops(1, 5)
            lib += [f"R{r}: {body[0]}", *(f"    {line}" for line in body[1:]), "    ret"]
    cuts = sorted(cut for cut in draw(st.sets(st.integers(1, len(main)), max_size=3))
                  if cut < len(main))

    def text(main):
        lines, base = [], 1000
        for i, (lo, hi) in enumerate(zip([0, *cuts], [*cuts, len(main)])):
            lines.append(f"image m{i} {base}")
            lines += [f"    {line}" for line in main[lo:hi]]
            base += hi - lo
        return "\n".join(lines + lib) + "\n"

    return text(main + ["halt"]), text(main)


@settings(max_examples=150, deadline=None)
@given(texts=programs(), seed=st.integers(0, 99),
       granularity=st.sampled_from(GRANULARITIES), max_len=st.integers(1, 16),
       data=st.data())
def test_interpreters_match_reference(texts, seed, granularity, max_len, data):
    program, falling = (parse_program(text) for text in texts)
    records, native_time, path = reference_run(program, seed)
    steps = len(path)  # the halt is the last step; without it, execution falls off
    limit = data.draw(st.integers(1, steps + 1), label="limit")

    config = RunConfig(program=program, granularity=granularity, max_trace_len=max_len,
                       max_steps=steps, seed=seed, capture_path=True)

    def native(program, max_steps):
        return native_run(replace(config, program=program, max_steps=max_steps))

    out = native(program, steps)
    assert (out.virtual_time, out.steps, out.addr_path) == (native_time, steps, tuple(path))
    with pytest.raises(GuestError, match="step limit"):
        native(program, steps - 1)
    with pytest.raises(GuestError, match="outside every image"):
        native(falling, steps - 1)
    if steps > 2:
        with pytest.raises(GuestError, match="step limit"):
            native(falling, steps - 2)
    if limit < steps:
        with pytest.raises(GuestError, match="step limit"):
            native(program, limit)
    else:
        assert native(program, limit).addr_path == tuple(path)

    def instrumented(program, max_steps):
        return run(replace(config, program=program, max_steps=max_steps), LogStore("none"),
                   BudgetState.unlimited())

    out = instrumented(program, steps)
    assert (out.tool_output, out.addr_path, out.steps) == (
        tuple(records), tuple(path), steps)
    # Unlimited budget: every instrumentation point on the path is analyzed.
    assert committed_points(program, granularity, out) == {
        (img.name, addr - img.base) for addr in set(path) for img in [program.image_of(addr)]
        if granularity == "all" or program.instruction_at(addr).kind in CONTROL_TRANSFERS}
    with pytest.raises(GuestError, match="step limit"):
        instrumented(program, steps - 1)
    with pytest.raises(GuestError, match="outside every image"):
        instrumented(falling, steps - 1)
    if steps > 2:
        with pytest.raises(GuestError, match="step limit"):
            instrumented(falling, steps - 2)


def loop_guest(pattern, first, second):
    """A routine called twice whose loop runs `first` times on the first call
    and `second` on the second, with a br of `pattern` in its body.  The
    routine jumps to M, inside the straight run that the back edge re-enters
    at H, so two native blocks end at that br."""
    back = "T" * (first - 1) + "N" + "T" * (second - 1) + "N"
    return f"""\
image m 0
    call R
    call R
    halt
R:  jmp M
H:  op 1
M:  op 2
    br S {pattern}
    op 3
S:  op 1
    br H {back}
    ret
"""


@pytest.mark.parametrize("executions", [K - 1, K, K + 1, 3 * K + 2])
@pytest.mark.parametrize("length", [1, 2, 3, K - 1, K, K + 1, 2 * K + 3])
def test_branches_that_cross_the_hot_threshold_match_reference(length, executions):
    pattern = ("TNNTTTNTN" * 3)[:length]
    for first in sorted({1, executions // 2, executions - 1}):
        program = parse_program(loop_guest(pattern, first, executions - first))
        records, native_time, path = reference_run(program)
        config = RunConfig(program=program, capture_path=True)
        out = native_run(config)
        assert (out.virtual_time, out.addr_path) == (native_time, tuple(path))
        for granularity in GRANULARITIES:
            for period, budget in ((math.inf, math.inf), (4, 1)):
                budgeted = replace(config, granularity=granularity, period=period,
                                   budget=budget)
                out = run(budgeted, LogStore("none"), budgeted.make_budget())
                assert out.addr_path == tuple(path)
                if budget == math.inf:
                    assert out.tool_output == tuple(records)
                else:
                    # The budget runs out inside the loop: the run switches to
                    # the base version there, and records only some transfers.
                    assert len(out.tool_output) < len(records)


def native_skips(monkeypatch):
    """What `_skips` returns to the native pass, call by call, while the test
    runs (run()'s calls are not recorded): the native pass asks it at each
    taken execution of a br whose lap it has run since marking the br, and
    skips that many laps."""
    found = []
    real = executor._skips

    def recording(*args):
        skips = real(*args)
        if sys._getframe(1).f_code.co_name == "native_run":
            found.append(skips)
        return skips

    monkeypatch.setattr(executor, "_skips", recording)
    return found


NO_LAP = {
    # Each lap calls S, which never returns, so the call stack grows by a
    # frame per lap.
    "growing-stack": f"""\
image m 0
H:  call S
S:  op 1
    br H {'T' * 11}N
    halt
""",
    "ndbr": f"""\
image m 0
H:  op 1
    ndbr X 0.5
    op 2
X:  op 1
    br H {'T' * 20}N
    halt
""",
    # The lap from X returns to M, popping the frame that M pushed before
    # the lap, and M calls R again.
    "ret-before-lap": f"""\
image m 0
M:  call R
    jmp M
X:  ret
R:  op 1
    br X {'T' * 20}N
    halt
""",
    # The br at M falls through to P, which takes it back, HOT_BRANCH - 1
    # times, so that M is hot from its first taken execution on while B, in
    # M's lap, is still cold and may not end its pattern's run of Ts where a
    # replay of the lap would put it.
    "cold-br": f"""\
image m 0
    jmp M
H:  op 1
B:  br X {'T' * 12}N
    op 5
X:  op 1
M:  br H {'N' * (K - 1)}{'T' * 30}N
P:  br M {'T' * (K - 1)}N
    halt
""",
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("text", NO_LAP.values(), ids=NO_LAP)
def test_a_lap_that_may_change_runs_block_by_block(monkeypatch, text, seed):
    program = parse_program(text)
    _, native_time, path = reference_run(program, seed)
    found = native_skips(monkeypatch)
    out = native_run(RunConfig(program=program, seed=seed, capture_path=True))
    assert (out.virtual_time, out.addr_path) == (native_time, tuple(path))
    assert found == []


def test_a_lap_that_walks_off_every_image_raises_where_the_reference_does(monkeypatch):
    # The br at 11 is not taken for its first HOT_BRANCH executions, then
    # taken to X, whose op falls through to address 1, outside every image.
    # Execution then raises there, after X's step, before the br runs
    # again, so the pass learns no lap and skips none.
    program = parse_program(f"""\
image m 10
L:  op 1
    br X {'N' * K}T
    jmp L
image a 0
X:  op 1
""")
    found = native_skips(monkeypatch)
    fell_off = 3 * K + 3  # the steps executed before the fall-off
    for max_steps in range(fell_off - 3, fell_off + 3):
        with pytest.raises(RuntimeError) as expected:
            reference_run(program, max_steps=max_steps)
        error = ("address 1 outside every image" if "fell off" in str(expected.value)
                 else "step limit exceeded")
        with pytest.raises(GuestError, match=f"^{error}$"):
            native_run(RunConfig(program=program, max_steps=max_steps))
        assert (max_steps >= fell_off) == (error != "step limit exceeded")
    assert found == []


def test_a_lap_that_never_comes_back_is_given_up(monkeypatch):
    # Once hot, the br is taken to X, a jmp to itself, so execution spins
    # there up to the limit, and the br it marked never runs again to close
    # a lap.
    program = parse_program(f"image m 0\n    jmp L\nX:  jmp X\nL:  br X {'N' * K}T\n"
                            "    jmp L\n")
    found = native_skips(monkeypatch)
    with wall_budget(1.0), pytest.raises(GuestError, match="^step limit exceeded$"):
        native_run(RunConfig(program=program, max_steps=1000))
    with pytest.raises(RuntimeError, match="^step limit exceeded$"):
        reference_run(program, max_steps=1000)
    assert found == []


FLOAT_LOOPS = {
    # A float cost in the lap.
    "float-lap": Program([ProgramImage("m", 0, (OP, BR, HALT), (0.1, 1, 1), (None, 0, None),
                                       (None, "T" * 300 + "N", None))]),
    # An int lap, from 1 to the br, on a clock that the op at 0 made a
    # float: a third, whose sums with ints round unlike one product does.
    "float-clock": Program([ProgramImage("m", 0, (OP, OP, BR, HALT), (1 / 3, 1, 2, 1),
                                         (None, None, 1, None),
                                         (None, None, "T" * 300 + "N", None))]),
    # A float lap first taken on an int clock: the br at 10 falls through to
    # the br at 11, which takes it back, HOT_BRANCH times, then jumps to the
    # lap at 0, which comes back to it.
    "float-lap-int-clock": Program([
        ProgramImage("m", 10, (BR, BR, HALT), (1, 1, 1), (0, 10, None),
                     ("N" * K + "T" * 300 + "N", "T" * K + "N", None)),
        ProgramImage("lap", 0, (OP, JMP), (0.1, 2), (None, 10), (None, None))]),
    # An int lap that R's first call learns and skips on an int clock, met
    # again in R's second call, after the op at 1 made the clock a float.
    "known-lap-float-clock": Program([
        ProgramImage("m", 0, (CALL, OP, CALL, HALT), (0, 1 / 3, 0, 1), (10, None, 10, None),
                     (None,) * 4),
        ProgramImage("r", 10, (OP, BR, RET), (1, 2, 0), (None, 10, None),
                     (None, "T" * 9 + "N" + "T" * 300 + "N", None))]),
}


@pytest.mark.parametrize("program", FLOAT_LOOPS.values(), ids=FLOAT_LOOPS)
def test_a_hot_loop_on_a_float_clock_adds_its_costs_block_by_block(monkeypatch, program):
    # The clock must read, bit for bit, what it reads when no br gets hot.
    config = RunConfig(program=program, capture_path=True)
    hot = native_run(config)
    monkeypatch.setattr(executor, "HOT_BRANCH", 10**6)
    cold = native_run(config)
    assert type(hot.virtual_time) is float
    assert hot.virtual_time.hex() == cold.virtual_time.hex()
    assert hot.addr_path == cold.addr_path == tuple(reference_run(program)[2])
