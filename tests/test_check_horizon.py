"""Budget checks on a next-event horizon.

run() asks the budget server only where the answer can have changed.  The
answer is 1 before the server's refill time (BudgetState.refill, the cap at
2**53 periods when B > 0 and -inf when B = 0) unless a charge has spent the
budget, and a spending charge's 0 holds until its horizon
(BudgetState.horizon, the end of the open period), past which the answer is
1 again.  A B = 0 server's first answer, 0, holds to the cap.  So a run
with B > 0 checks once, after its last point, and a run with B = 0 twice.

A server whose horizon and refill are always -inf is asked at every point,
as a run did before the horizon existed; runs against it are the
reference.  They must agree with runs against the real server field for
field, in the periods closed, the per-period loads, the overshoots and the
final log, and a run must stop at the period-count limit at the same point.
The reference must really be asked at every point, or the comparison would
pit the real server against itself.

The reference also keeps every run on the generic trace loop: run()
replays a hot loop's laps only over points that come before the time its
answer holds until, and a cycle of laps only before the refill time, both
of which the reference holds at -inf, and a check ends the span that run()
learns a lap in.  So the same comparison, on guests whose loops run their
back edge past HOT_BRANCH, checks the loops run in closed form against the
loops run iteration by iteration, step-limit errors included.
"""

import importlib.util
import math
import os
import random
import tempfile
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from dime import (BudgetContractError, BudgetState, GuestError, LogEntry, LogStore,
                  RunConfig, executor, native_run, parse_program, run, run_oracle)
from dime.executor import GRANULARITIES, HOT_BRANCH
from dime.redundancy import STRATEGIES

from reference import reference_run
from test_budget import series_copies
from test_differential import COSTS, NO_LAP, programs

RUNS = 2


class Counting(BudgetState):
    """The real server, counting its checks and charges."""

    checks = charges = 0

    def check(self, now):
        self.checks += 1
        return super().check(now)

    def charge(self, cost, now):
        self.charges += 1
        return super().charge(cost, now)


class EveryPoint(Counting):
    """A server whose answers hold for no time, so run() asks it at every
    instrumentation point: the horizon and refill it sets are dropped, and
    run() always reads -inf."""

    horizon = property(lambda self: -math.inf, lambda self, value: None)
    refill = property(lambda self: -math.inf, lambda self, value: None)


def points_passed(config, outcome, state):
    """The instrumentation points a run passed, from its virtual time: each
    point adds check_cost to the clock, each analysis call analysis_cost, and
    each executed instruction its cost (compile_cost is 0).  The analysis
    calls' cost is what the server was charged, which run() charges to an
    unlimited server in one sum."""
    costs = {img.base + i: cost for img in config.program.images
             for i, cost in enumerate(img.costs)}
    guest = sum(costs[addr] for addr in outcome.addr_path)
    analysis = sum(state.period_loads())
    return (outcome.virtual_time - guest - analysis) / config.check_cost


def log_bytes(log):
    if log.strategy == "none":
        return list(log.entries())
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "run.log")
        log.save(path)
        with open(path, "rb") as fh:
            return fh.read()


def run_sequence(config, strategy, server):
    """RUNS runs against one log of `strategy`, each with a fresh `server`:
    per run the outcome and the server's closed periods, loads and
    overshoots, or the message of the GuestError it raised, then the final
    log's bytes.  A run that raises skips its last check, so the servers
    may differ then."""
    log = LogStore(strategy)
    runs = []
    for k in range(1, RUNS + 1):
        state = server(period=config.period, budget=config.budget)
        try:
            outcome = run(replace(config, seed=config.seed + k), log, state)
        except GuestError as error:
            runs.append(str(error))
            continue
        finally:
            log.finalize()
        if server is EveryPoint and config.check_cost and type(outcome.virtual_time) is int:
            # One check per point passed, and one more after the last point.
            points = points_passed(config, outcome, state)
            assert state.checks == points + (points > 0)
        runs.append((outcome, state.period_index, state.period_loads(),
                     state.overshoot_log))
    return runs, log_bytes(log)


@settings(max_examples=150, deadline=None)
@given(texts=programs(), seed=st.integers(0, 99),
       granularity=st.sampled_from(GRANULARITIES), max_len=st.integers(1, 16),
       strategy=st.sampled_from(STRATEGIES), period=st.sampled_from((2, 2.5, math.inf)),
       share=st.sampled_from((0, 0.4, 1)), check_cost=st.sampled_from((0, 1, 2)),
       analysis_cost=st.integers(1, 3))
def test_horizon_changes_no_outcome(texts, seed, granularity, max_len, strategy, period,
                                    share, check_cost, analysis_cost):
    program = parse_program(texts[0])
    config = RunConfig(program=program, granularity=granularity, period=period,
                       budget=period * share if share else 0, analysis_cost=analysis_cost,
                       check_cost=check_cost, max_trace_len=max_len, seed=seed,
                       capture_path=True)
    assert (run_sequence(config, strategy, Counting)
            == run_sequence(config, strategy, EveryPoint))


@st.composite
def hot_loops(draw):
    """Guests whose loops take their back edge up to 3 * HOT_BRANCH times in
    a row, often more than HOT_BRANCH + 4 times.  A loop's body is ops, and
    may call a leaf routine (ops, then a ret), as switchstorm's nests do, so
    that a lap runs through several traces.  A loop may be entered by a jmp
    into its body, so that the trace from its head stops there.  Loops in
    routines run again at each call, their br's count carried over, and a
    pattern may end the loop more than once."""
    labels = iter(f"L{i}" for i in range(1000))

    def ops(low, high):
        return [f"op {draw(COSTS)}" for _ in range(draw(st.integers(low, high)))]

    leaves = [ops(0, 4) + ["ret"] for _ in range(draw(st.integers(0, 2)))]

    def loop():
        head, mid, body = next(labels), next(labels), ops(1, 5)
        if leaves and draw(st.booleans()):
            body.insert(draw(st.integers(0, len(body))),
                        f"call S{draw(st.integers(0, len(leaves) - 1))}")
        cut = draw(st.integers(0, len(body)))
        runs = draw(st.lists(st.integers(HOT_BRANCH + 4, 3 * HOT_BRANCH)
                             | st.integers(0, HOT_BRANCH + 3), min_size=1, max_size=3))
        pattern = "".join("T" * taken + "N" for taken in runs)
        return [*([f"jmp {mid}"] if cut else []), f"{head}:", *body[:cut],
                *([f"{mid}:"] if cut else []), *body[cut:], f"br {head} {pattern}"]

    routines = [loop() + ["ret"] for _ in range(draw(st.integers(0, 2)))]
    main = []
    for piece in draw(st.lists(st.sampled_from(("loop", "ops", "call")), min_size=1,
                               max_size=6)):
        if piece == "loop":
            main += loop()
        elif piece == "call" and routines:
            main.append(f"call R{draw(st.integers(0, len(routines) - 1))}")
        else:
            main += ops(1, 12)
    lines = ["image m 0", *main, "halt"]
    if routines or leaves:
        lines.append("image lib 10000")
        for name, routine in [*((f"R{r}", x) for r, x in enumerate(routines)),
                              *((f"S{r}", x) for r, x in enumerate(leaves))]:
            lines += [f"{name}:", *routine]
    return "\n".join(line if line.endswith(":") or line.startswith("image")
                     else "    " + line for line in lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(text=hot_loops(), granularity=st.sampled_from(GRANULARITIES),
       max_len=st.integers(1, 8), strategy=st.sampled_from(STRATEGIES),
       period=st.sampled_from((2, 6, 7, 60, math.inf)),
       share=st.sampled_from((0, 0.4, 1, None, "ca")), whole=st.integers(1, 12),
       check_cost=st.sampled_from((0, 1, 2, 0.1)), analysis_cost=st.sampled_from((1, 2, 3, 0.1)),
       limit=st.none() | st.floats(0, 1))
def test_fast_forward_changes_no_outcome(text, granularity, max_len, strategy, period, share,
                                         whole, check_cost, analysis_cost, limit):
    # share 1 with T = inf is the unlimited server, whose analysis calls a
    # fast-forward sums; share 0 answers 0, so the run is V_BASE; the
    # second run's log rejects what the first committed.  share None is an
    # int budget in [1, T] (or `whole` with T = inf), so with int costs the
    # server takes a charged loop's calls in one series, which stops
    # before a call that spends the budget.  share "ca" is B = analysis_cost
    # (at most T), so that, as in switchstorm, every call spends the budget,
    # or overshoots it where T < ca, and a period shorter than a lap holds
    # one call: the run replays cycles of laps whose state at the br comes
    # back whole periods later.  A float cost keeps fast-forward off, and a
    # fast-forward that did not would add it in another order.  A step
    # limit drawn below the guest's length often falls inside a loop, and
    # must stop both runs with the same error.
    program = parse_program(text)
    steps = len(reference_run(program)[2])
    if share is None:
        budget = whole if period == math.inf else 1 + (whole - 1) % period
    elif share == "ca":
        budget = min(analysis_cost, period)
    else:
        budget = period * share if share else 0
    config = RunConfig(program=program, granularity=granularity, period=period,
                       budget=budget, analysis_cost=analysis_cost,
                       check_cost=check_cost, max_trace_len=max_len,
                       max_steps=steps if limit is None else max(1, round(limit * steps)),
                       capture_path=True)
    assert (run_sequence(config, strategy, Counting)
            == run_sequence(config, strategy, EveryPoint))


def bench_workloads():
    """bench/workloads.py, loaded from its file: the benchmark's guest
    generators and campaign settings."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name", ["loopnest", "widecode", "switchstorm"])
def test_bench_guests_replay_no_outcome(monkeypatch, name):
    # No corpus loop gets hot, so the benchmark's own guests, at a tenth of
    # their size and with their campaign settings, show that the laps and
    # cycles run() replays in loopnest and switchstorm change no outcome.
    # widecode's brs never get hot; it shows that nothing else moved.
    generator, settings, _, _ = bench_workloads()[name]
    settings = dict(settings)
    strategy = settings.pop("log_strategy")
    config = RunConfig(program=parse_program(generator(random.Random(1), 0.1)),
                       capture_path=True, **settings)
    made = []
    real = BudgetState.repeat

    def recording(self, *args):
        made.append(real(self, *args))
        return made[-1]

    monkeypatch.setattr(BudgetState, "repeat", recording)
    found = skips_taken(monkeypatch)
    assert (run_sequence(config, strategy, Counting)
            == run_sequence(config, strategy, EveryPoint))
    assert (any(found), any(made)) == {"loopnest": (True, False), "widecode": (False, False),
                                        "switchstorm": (True, True)}[name]


@pytest.mark.parametrize("granularity", GRANULARITIES)
@pytest.mark.parametrize("period, budget, reached", [
    (math.inf, 5, False), (math.inf, 10**6, False), (2.5, 2, True), (7.5, 3, True),
    (10.5, 7, True), (7, 3, None)])
def test_a_cycle_of_laps_is_copied_on_an_int_period_only(monkeypatch, granularity, period,
                                                          budget, reached):
    # Rule (c) replays a cycle where the server's phase, which holds the
    # time left to the open period's end, is the saved one's; a period end
    # is (k + 1) * T, so on an int T the clock has then moved by whole
    # periods.  On a float T the phases may match, but BudgetState.repeat
    # copies no period, so no cycle is replayed; with T = inf no period
    # ends and the remaining budget only falls, so no phase comes round.
    program = parse_program("image m 0\nH:  op 1\n    op 2\n    br H " + "T" * 300 + "N\n"
                            "    halt\n")
    config = RunConfig(program=program, granularity=granularity, period=period,
                       budget=budget, capture_path=True)
    made = []
    real = BudgetState.repeat

    def recording(self, *args):
        made.append(real(self, *args))
        return made[-1]

    monkeypatch.setattr(BudgetState, "repeat", recording)
    assert (run_sequence(config, "none", Counting)
            == run_sequence(config, "none", EveryPoint))
    if reached is None:  # an int T: at `all`, where each lap charges twice, cycles are copied
        assert any(made) == (granularity == "all")
    else:
        assert bool(made) == reached and not any(made)


def assert_reads_as(stream, expected):
    """`stream` reads as the tuple `expected` in every way a sequence is read."""
    assert len(stream) == len(expected)
    assert tuple(stream) == expected
    assert [stream[i] for i in range(len(expected))] == list(expected)
    assert [stream[i] for i in range(-len(expected), 0)] == list(expected)
    assert stream[1::3] == expected[1::3]
    assert stream == expected and expected == stream and not stream != expected
    assert stream != expected + (None,) and stream != list(expected)
    assert hash(stream) == hash(expected)


def assert_streams_read_as_unreplayed(config, strategy):
    """The streams of RUNS runs against the real server read as the tuples of
    the same runs against EveryPoint, under which nothing is replayed, and
    each run's distinct records are the set of its records."""
    replayed, _ = run_sequence(config, strategy, Counting)
    stepped, _ = run_sequence(config, strategy, EveryPoint)
    for fast, slow in zip(replayed, stepped):
        if isinstance(slow, str):  # a GuestError's message
            assert fast == slow
            continue
        fast, slow = fast[0], slow[0]
        for field in ("tool_output", "committed_entries", "addr_path"):
            assert_reads_as(getattr(fast, field), tuple(getattr(slow, field)))
        assert fast.distinct_records == set(fast.tool_output) == set(slow.tool_output)


@settings(max_examples=100, deadline=None)
@given(text=hot_loops(), granularity=st.sampled_from(GRANULARITIES),
       max_len=st.integers(1, 8), strategy=st.sampled_from(STRATEGIES),
       period=st.sampled_from((2, 7, 60, math.inf)), share=st.sampled_from((0, 0.4, 1, "ca")),
       analysis_cost=st.sampled_from((1, 2, 3)), tool=st.sampled_from(("branch", "cct")))
def test_replayed_streams_read_as_the_unreplayed_tuples(text, granularity, max_len, strategy,
                                                        period, share, analysis_cost, tool):
    # A replay adds a piece to each stream, and pieces fold into the ones
    # before them; what the stream reads must not show it.  The native
    # pass's path holds a piece per skip.
    program = parse_program(text)
    budget = (min(analysis_cost, period) if share == "ca" else period * share if share
              else 0)
    config = RunConfig(program=program, granularity=granularity, period=period, budget=budget,
                       analysis_cost=analysis_cost, max_trace_len=max_len, tool=tool,
                       max_steps=len(reference_run(program)[2]), capture_path=True)
    assert_streams_read_as_unreplayed(config, strategy)
    assert_reads_as(native_run(config).addr_path, tuple(reference_run(program)[2]))


@settings(max_examples=12, deadline=None)
@given(name=st.sampled_from(["loopnest", "widecode", "switchstorm"]),
       seed=st.integers(0, 2**16))
def test_bench_guests_streams_read_as_the_unreplayed_tuples(name, seed):
    # The benchmark's guests at a twentieth of their size, whose loopnest
    # and switchstorm loops still get hot, with their campaign settings.
    generator, settings, _, _ = bench_workloads()[name]
    settings = dict(settings)
    strategy = settings.pop("log_strategy")
    program = parse_program(generator(random.Random(seed), 0.05))
    config = RunConfig(program=program, capture_path=True, **settings)
    assert_streams_read_as_unreplayed(config, strategy)
    assert_reads_as(native_run(config).addr_path, tuple(reference_run(program)[2]))


def skips_taken(monkeypatch):
    """The iteration counts run() skips, in order, while the test runs: what
    `_skips` allows, or, where the loop is charged, what the server's
    charge_series then takes of it."""
    found = []
    real, series = executor._skips, BudgetState.charge_series

    def counting(*args):
        found.append(real(*args))
        return found[-1]

    def charging(self, *args):
        found[-1] = series(self, *args)
        return found[-1]

    monkeypatch.setattr(executor, "_skips", counting)
    monkeypatch.setattr(BudgetState, "charge_series", charging)
    return found


@pytest.mark.parametrize("executions", [HOT_BRANCH - 1, HOT_BRANCH, HOT_BRANCH + 1,
                                        HOT_BRANCH + 2, 3 * HOT_BRANCH])
@pytest.mark.parametrize("entered", ["H", "M"])
@pytest.mark.parametrize("period, budget, strategy", [
    (math.inf, math.inf, "none"),  # every run analysed, the calls summed
    (math.inf, math.inf, "hash"),  # the second run's log rejects the loop
    (7, 0, "none"),                # every run V_BASE
    (7, 3, "none"),                # every br charged, none spends the budget
    (1000, 12, "none"),            # the br's 12th charge spends the budget
], ids=["unlimited", "rejected", "zero", "charged", "spent"])
def test_fast_forward_at_the_hot_threshold(monkeypatch, executions, entered, period,
                                           budget, strategy):
    # A loop whose br executes `executions` times.  Entered at M, its head's
    # trace is the op at H, which falls through into the br's trace.  The
    # br's HOT_BRANCH-th execution is the first that may fast-forward, and
    # then skips the taken ones left before the N.
    program = parse_program(f"image m 0\n    jmp {entered}\nH:  op 1\nM:  op 2\n"
                            f"    br H {'T' * (executions - 1)}N\n    halt\n")
    config = RunConfig(program=program, period=period, budget=budget, check_cost=1,
                       capture_path=True)
    found = skips_taken(monkeypatch)
    assert (run_sequence(config, strategy, Counting)
            == run_sequence(config, strategy, EveryPoint))
    # The reference never skips.  Each of the two runs skips the Ts left
    # after the br's HOT_BRANCH-th execution, charged or not: an iteration
    # is 6 units, so no period of 7 holds 3 charges.
    left = executions - 1 - HOT_BRANCH
    skipped = [left]
    if budget == 12:
        # All in the first period, where the jmp makes the first charge.
        # The series takes the br's 9th and 10th and stops before its 11th,
        # the 12th charge, which spends the budget.  The br's 12th execution
        # switches to V_BASE and compiles the br's trace there, and its 13th
        # compiles the head's: each compile ends the lap being learned, so
        # the lap is learned again from the 13th, and the 14th skips the Ts
        # left.
        skipped = [min(left, 10 - HOT_BRANCH), executions - 15]
    assert [n for n in found if n] == [n for n in skipped if n > 0] * 2


@pytest.mark.parametrize("granularity", GRANULARITIES)
@pytest.mark.parametrize("period, budget", [(math.inf, math.inf), (7, 0), (7, 3), (10, 2)])
@pytest.mark.parametrize("text", NO_LAP.values(), ids=NO_LAP)
def test_a_lap_that_may_change_is_never_replayed(monkeypatch, text, granularity, period,
                                                 budget):
    # The native pass's laps that may change: a call stack that grows, an
    # ndbr, a ret to a frame from before the lap, a cold br in the lap.  Each
    # ends the span that run() learns a hot br's lap in, so no replay is
    # tried, and the runs are the reference's.
    config = RunConfig(program=parse_program(text), granularity=granularity, period=period,
                       budget=budget, check_cost=1, capture_path=True)
    found = skips_taken(monkeypatch)
    assert (run_sequence(config, "none", Counting)
            == run_sequence(config, "none", EveryPoint))
    assert found == []


def test_a_hot_loop_fast_forwards_again_after_each_version_switch(monkeypatch):
    # An iteration is 6 units in V_INSTRUMENT (4 ops, the br and its call)
    # and 5 in V_BASE, and with B = 10 of T = 100 the br's 10th call in a
    # period spends the budget.  In the first period the series takes the
    # br's 9th charge, its 10th spends, and once the run has switched to
    # V_BASE it skips 5 iterations up to the period's end.  In each later
    # period it switches back to V_INSTRUMENT at the br, learns the charged
    # lap from the iteration after that, has the server take 7 charges in
    # one series, runs the iteration whose call spends the budget and the
    # one that switches to V_BASE at the br, learns the uncharged lap from
    # the next, and skips 6.
    program = parse_program("image m 0\nH:  op 1\n    op 1\n    op 1\n    op 1\n    br H "
                            + "T" * 200 + "N\n    halt\n")
    config = RunConfig(program=program, period=100, budget=10, capture_path=True)
    assert (run_sequence(config, "none", Counting)
            == run_sequence(config, "none", EveryPoint))
    found = skips_taken(monkeypatch)
    run(config, LogStore("none"), config.make_budget())
    assert [n for n in found if n][:20] == [1, 5] + [7, 6] * 9


@pytest.mark.parametrize("period", range(5, 13))
@pytest.mark.parametrize("check_cost, analysis_cost", [(0, 1), (0, 3), (1, 1), (1, 3)])
def test_fast_forward_stops_before_the_answer_changes(period, check_cost, analysis_cost):
    # B = 1: the br's analysis call spends the budget in each period, so the
    # loop runs in V_BASE, in closed form, up to the end of the period, and
    # switches back to V_INSTRUMENT at the first point at or past it.  Some
    # periods end right at a point.
    program = parse_program("image m 0\nH:  op 1\n    br H " + "T" * 200 + "N\n    halt\n")
    config = RunConfig(program=program, period=period, budget=1, check_cost=check_cost,
                       analysis_cost=analysis_cost, capture_path=True)
    assert (run_sequence(config, "none", Counting)
            == run_sequence(config, "none", EveryPoint))


@pytest.mark.parametrize("period", [20, 31, 45])
@pytest.mark.parametrize("budget", [7, 11, 20])
@pytest.mark.parametrize("analysis_cost", [1, 2])
def test_a_charged_loop_runs_in_closed_form_up_to_the_spending_call(
        monkeypatch, period, budget, analysis_cost):
    # An iteration is 5 or 6 units, so a period holds 3 to 9 of the br's
    # charged calls.  Where they spend the budget, the server takes the
    # ones before the spending call in one series, and the generic loop
    # runs the iteration that spends; where they do not, the series runs
    # on over period ends.
    program = parse_program("image m 0\nH:  op 1\n    op 1\n    br H " + "T" * 300 + "N\n"
                            "    halt\n")
    config = RunConfig(program=program, period=period, budget=budget, check_cost=1,
                       analysis_cost=analysis_cost, capture_path=True)
    made = []
    real = BudgetState.charge_series

    def recording(self, *args):
        made.append(real(self, *args))
        return made[-1]

    monkeypatch.setattr(BudgetState, "charge_series", recording)
    assert (run_sequence(config, "none", Counting)
            == run_sequence(config, "none", EveryPoint))
    assert any(made)


@pytest.mark.parametrize("period, first, second, budget", [
    (7, 1, 1, 3), (7, 2, 3, 2), (7, 5, 7, 2), (97, 3, 5, 11), (97, 45, 50, 2),
    (100, 4, 6, 10), (100, 2, 3, 16), (100, 10, 13, 5)])
def test_a_long_charged_loop_copies_whole_cycles_of_periods(monkeypatch, period, first,
                                                            second, budget):
    # A lap is the two ops, the br and its call: first + second + 2 units,
    # coprime with T or not, and B is the least budget that every lap's
    # charge leaves some of.  Over 4,999 laps the series the server takes
    # comes back to the same place in its period many times, so it copies
    # whole cycles of periods, and the run must leave the outcome and every
    # field of the server as the reference's run iteration by iteration.
    program = parse_program(f"image m 0\nH:  op {first}\n    op {second}\n    br H "
                            + "T" * 4999 + "N\n    halt\n")
    config = RunConfig(program=program, period=period, budget=budget, capture_path=True)
    copies = series_copies(monkeypatch)
    found = []
    for server in (Counting, EveryPoint):
        state = server(period=period, budget=budget)
        outcome = run(config, LogStore("none"), state)
        found.append((outcome, {name: value for name, value in vars(state).items()
                                if name not in ("checks", "charges", "horizon", "refill")}))
    assert found[0] == found[1]
    assert any(copies)


@pytest.mark.parametrize("period, budget", [(17, 5), (20, 5), (30, 7), (50, 9)])
def test_a_lap_charged_once_off_its_br_runs_as_the_reference(period, budget):
    # The log holds the traces from the routine and from the call's return,
    # so each lap's one charge is the call's, before the br.  A series
    # would charge at the br's times, so the run may not take the lap's
    # charges in one.
    program = parse_program("image m 0\nH:  op 2\n    call S\n    op 3\n    br H "
                            + "T" * 60 + "N\n    halt\nimage lib 100\nS:  op 1\n    ret\n")
    config = RunConfig(program=program, period=period, budget=budget, check_cost=1,
                       capture_path=True)
    found = []
    for server in (Counting, EveryPoint):
        log = LogStore("hash")
        log.commit(LogEntry("m", 2, 3))
        log.commit(LogEntry("lib", 0, 2))
        state = server(period=period, budget=budget)
        outcome = run(config, log, state)
        found.append((outcome, state.period_index, state.period_loads(),
                      state.overshoot_log))
    assert found[0] == found[1]
    assert [permitted for _, permitted in found[0][0].permits] == [True, False, False]


@pytest.mark.parametrize("max_steps, skipped", [
    # The trace from H is op, br and halt, 3 steps, and an iteration is 2.
    # After the br's HOT_BRANCH-th execution the run has taken 16 steps,
    # and it skips the iterations whose entries end by the limit: k of
    # them where 16 + 2 * (k - 1) + 3 <= max_steps.
    (20, 1), (21, 2), (22, 2), (100, 41), (101, 42), (10**6, 100 - HOT_BRANCH),
])
def test_fast_forward_leaves_the_entries_near_the_step_limit(monkeypatch, max_steps, skipped):
    # Past the limit a run raises whatever it skipped, so only the count of
    # skipped iterations shows where a fast-forward stops.
    program = parse_program("image m 0\nH:  op 1\n    br H " + "T" * 100 + "N\n    halt\n")
    found = skips_taken(monkeypatch)
    config = RunConfig(program=program, max_steps=max_steps, period=10, budget=0)
    if max_steps < 203:
        with pytest.raises(GuestError, match="^step limit exceeded$"):
            run(config, LogStore("none"), config.make_budget())
    else:
        assert run(config, LogStore("none"), config.make_budget()).steps == 203
    assert [n for n in found if n] == [skipped]


@settings(max_examples=100, deadline=None)
@given(texts=programs(), seed=st.integers(0, 99),
       granularity=st.sampled_from(GRANULARITIES), strategy=st.sampled_from(STRATEGIES),
       period=st.sampled_from((2, 2.5, math.inf)), share=st.sampled_from((0, 0.4, math.inf)))
def test_a_run_checks_once_with_budget_and_twice_without(texts, seed, granularity, strategy,
                                                         period, share):
    # B = inf needs T = inf.  No run here comes near 2**53 periods, so
    # none stops at the period-count cap.  check_cost 1 lets points_passed
    # count the points a run passed.
    if share == math.inf:
        period = math.inf
    config = RunConfig(program=parse_program(texts[0]), granularity=granularity,
                       period=period, budget=period * share if share else 0,
                       check_cost=1, seed=seed, capture_path=True)
    log = LogStore(strategy)
    for k in range(1, RUNS + 1):
        state = Counting(period=config.period, budget=config.budget)
        outcome = run(replace(config, seed=seed + k), log, state)
        log.finalize()
        if not points_passed(config, outcome, state):
            assert state.checks == 0
        else:
            assert state.checks == (1 if config.budget > 0 else 2)


@pytest.mark.parametrize("share", [0, 0.5, 1])
def test_period_count_limit_stops_a_run_at_the_same_point(share):
    # Each pass of the loop costs about 1e9 units, and 2**53 periods of 1e-6
    # end near 9e9: the limit falls inside the tenth pass.  The hash log
    # already holds the loop, so no check that passes is followed by a
    # charge, and only the period-count cap on the horizon and the refill
    # makes the run check again before the halt.
    program = parse_program("image m 0\nL: op 1000000000\n    br L "
                            + "T" * 30 + "N\n    halt\n")
    config = RunConfig(program=program, period=1e-6, budget=1e-6 * share, max_steps=1000)
    errors, checks = [], []
    for server in (Counting, EveryPoint):
        log = LogStore("hash")
        log.commit(LogEntry("m", 0, 3))
        state = server(period=config.period, budget=config.budget)
        with pytest.raises(BudgetContractError, match="2\\*\\*53") as exc:
            run(config, log, state)
        errors.append(str(exc.value))
        checks.append(state.checks)
    assert errors[0] == errors[1]
    # The reference checked at the br of each of the ten passes, and at
    # B = 0 once more where the first pass switched to V_BASE at that br.
    # The real server was asked only past the cap, and at B = 0 at the first
    # br too.
    assert checks[1] == 10 + (share == 0)
    assert checks[0] == 1 + (share == 0)


@pytest.mark.parametrize("passes", [3, 3000])
def test_unlimited_budget_run_checks_once_whatever_its_length(monkeypatch, passes):
    # The oracle's full run: every point analyzed, the budget never spent.
    program = parse_program(f"image m 0\nL: op 1\n    op 2\n    br L {'T' * passes}N\n"
                            "    halt\n")
    checks, charges = [], []
    real_check, real_charge = BudgetState.check, BudgetState.charge

    def counting(self, now):
        checks.append(now)
        return real_check(self, now)

    def counting_charges(self, cost, now):
        charges.append(cost)
        return real_charge(self, cost, now)

    monkeypatch.setattr(BudgetState, "check", counting)
    monkeypatch.setattr(BudgetState, "charge", counting_charges)
    oracle = run_oracle(RunConfig(program=program, granularity="all"))
    assert len(oracle.record_stream) == passes
    assert len(checks) == 1
    assert len(charges) == 1


@pytest.mark.parametrize("analysis_cost", [3, 0.1])
@pytest.mark.parametrize("server", [BudgetState, EveryPoint])
def test_unlimited_run_loads_sum_the_analysis_calls(analysis_cost, server):
    # At `all` with an unlimited budget and no log, every executed
    # instruction is analyzed, so the server's one load is analysis_cost
    # added once per step, in that order: 0.1 summed 22 times is not 22 * 0.1.
    program = parse_program("image m 0\nL: op 1\n    op 2\n    br L TTTTTTN\n    halt\n")
    config = RunConfig(program=program, granularity="all", analysis_cost=analysis_cost)
    state = server(period=math.inf, budget=math.inf)
    outcome = run(config, LogStore("none"), state)
    expected = 0
    for _ in range(outcome.steps):
        expected += analysis_cost
    assert outcome.steps == 22
    assert [(load, type(load)) for load in state.period_loads()] == [
        (expected, type(analysis_cost))]
    if isinstance(analysis_cost, float):
        assert expected != outcome.steps * analysis_cost
    assert (state.remaining, state.overshoot_log, state.period_index) == (math.inf, [], 0)


@pytest.mark.parametrize("share", [0.5, 1])
def test_period_count_limit_stops_a_spending_run_at_the_same_point(share):
    # The program of the test above with an empty log: the br's analysis
    # call costs 1, more than B, so every pass spends the budget and the
    # next pass takes the refill's answer without a check, up to the cap.
    program = parse_program("image m 0\nL: op 1000000000\n    br L "
                            + "T" * 30 + "N\n    halt\n")
    config = RunConfig(program=program, period=1e-6, budget=1e-6 * share, max_steps=1000)
    errors, checks, charges = [], [], []
    for server in (Counting, EveryPoint):
        state = server(period=config.period, budget=config.budget)
        with pytest.raises(BudgetContractError, match="2\\*\\*53") as exc:
            run(config, LogStore("hash"), state)
        errors.append(str(exc.value))
        checks.append(state.checks)
        charges.append(state.charges)
    assert errors[0] == errors[1]
    # Both charged at the br of each of the first nine passes.  The
    # reference checked there and at the tenth, which is past the cap; the
    # real server was asked only at the tenth, where its refill no longer
    # holds.
    assert charges == [9, 9]
    assert checks == [1, 10]


def test_a_run_that_spends_every_period_checks_once():
    # Each pass is 5 units of guest time and the period 10, so every period
    # holds a br whose analysis call (3 units, over B = 2) spends the budget.
    program = parse_program("image m 0\nL: op 5\n    br L " + "T" * 200 + "N\n    halt\n")
    config = RunConfig(program=program, period=10, budget=2, analysis_cost=3,
                       log_strategy="none", capture_path=True)
    found, charges = [], []
    for server in (Counting, EveryPoint):
        state = server(period=config.period, budget=config.budget)
        outcome = run(config, LogStore("none"), state)
        found.append((outcome, state.period_index, state.period_loads(),
                      state.overshoot_log))
        charges.append(state.charges)
        if server is Counting:
            assert state.checks == 1
    assert found[0] == found[1]
    loads = found[0][2]
    assert len(loads) > 100
    assert all(load == 3 for load in loads)
    # The reference charges once per period.  The run charges until the
    # loop's state at its br comes back whole periods later, and then
    # repeats that cycle's periods in the server without a charge() call.
    assert charges[1] == len(loads)
    assert charges[0] < len(loads) / 4


def test_repeated_full_prefix_commits_share_one_entry():
    # Each taken br exits the loop's trace with the same prefix, which the
    # run commits once and then records as the same tuple.
    program = parse_program("image m 0\nL: op 1\n    op 2\n    br L " + "T" * 20 + "N\n"
                            "    halt\n")
    commits = []

    class Log(LogStore):
        def commit(self, entry):
            commits.append(entry)
            super().commit(entry)

    outcome = run(RunConfig(program=program, granularity="all"), Log("hash"),
                  BudgetState.unlimited())
    loop = [entry for entry in outcome.committed_entries if entry == ("m", 0, 3)]
    assert len(loop) == 20
    assert len({id(entry) for entry in loop}) == 1
    # The log sees the loop's prefix once, and the last exit's, through the
    # halt, once.
    assert commits == [("m", 0, 3), ("m", 0, 4)]


def test_repeated_shorter_prefix_commits_share_one_entry():
    # Every other lap leaves the loop's trace at its first br, after the
    # lap before committed the longer prefix through the last br, so it
    # commits a shorter prefix, which the run records as one tuple.
    program = parse_program("image m 0\nL:  op 1\n    br X " + "NT" * 20 + "N\n    op 2\n"
                            "    br L " + "T" * 20 + "N\n    halt\nX:  jmp L\n")
    outcome = run(RunConfig(program=program), LogStore("none"), BudgetState.unlimited())
    short = [entry for entry in outcome.committed_entries if entry == ("m", 0, 2)]
    assert len(short) == 20
    assert len({id(entry) for entry in short}) == 1
