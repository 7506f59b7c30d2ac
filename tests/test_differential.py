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
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from dime import (BudgetState, GuestError, LogStore, RunConfig, make_tool, native_run,
                  parse_program, run)
from dime.executor import GRANULARITIES
from dime.program import CONTROL_TRANSFERS

from conftest import committed_points
from reference import reference_run

COSTS = st.sampled_from((0, 1, 1, 2, 3))


@st.composite
def programs(draw):
    labels = iter(f"L{i}" for i in range(1000))
    routines = draw(st.integers(0, 3))
    pieces = draw(st.lists(st.sampled_from(("ops", "loop", "skip", "jump", "call")),
                           min_size=1, max_size=10))

    def ops(low, high):
        return [f"op {draw(COSTS)}" for _ in range(draw(st.integers(low, high)))]

    main = []
    for piece in pieces:
        if piece == "loop":
            head, body = next(labels), ops(1, 6)
            main += [f"{head}: {body[0]}", *body[1:]]
            main.append(f"br {head} {'T' * draw(st.integers(1, 4))}N")
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
       granularity=st.sampled_from(GRANULARITIES), max_len=st.integers(1, 16))
def test_interpreters_match_reference(texts, seed, granularity, max_len):
    program, falling = (parse_program(text) for text in texts)
    records, native_time, path = reference_run(program, seed)
    steps = len(path)  # the halt is the last step; without it, execution falls off

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

    def instrumented(program, max_steps):
        return run(replace(config, program=program, max_steps=max_steps), LogStore("none"),
                   BudgetState.unlimited(), make_tool("branch"))

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
