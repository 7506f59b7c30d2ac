import math
import random
import re
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from dime import (ConfigError, ExecutionOutcome, GuestError, LogStore,
                  RunConfig, TraceMemo, executor, harness, native_run,
                  parse_program, run, run_campaign)
from dime.executor import GRANULARITIES
from dime.redundancy import STRATEGIES
from dime.program import BR, CONTROL_TRANSFERS, HALT, Program, ProgramImage
from dime.corpus import random_program

from conftest import committed_points, marks_of, wall_budget
from reference import reference_run
from test_differential import loop_guest, native_skips, programs
from test_program import wide_program


def make_run(program, log_strategy="hash", log=None, seed=1, **overrides):
    config = RunConfig(program=program, seed=seed, **overrides)
    log = log if log is not None else LogStore(log_strategy)
    budget = config.make_budget()
    outcome = run(config, log, budget)
    return outcome, log, budget


# -- form_trace, through TraceMemo.shape ---------------------------------------

def shape(program, entry, max_len=16, granularity="ctrl", cached_entries=()):
    """(image, rel_start, length, body) of the trace from `entry`, compiled
    by a fresh memo, when `cached_entries` are the entry points of the
    traces already cached in the running version."""
    config = RunConfig(program=program, max_trace_len=max_len, granularity=granularity)
    return TraceMemo(config).shape(entry, marks_of(program, cached_entries))


def points(trace):
    """The instrumentation-point offsets of a shape: its point items'."""
    return tuple(off for off, _, point, *_ in trace[3] if point)


def test_form_trace_p1_whole_loop_body(p1):
    t = shape(p1, 1000, max_len=16)
    assert t[:3] == ("main", 0, 5)
    assert points(t) == (2, 4)


def test_form_trace_single_halt(p1):
    assert shape(p1, 1005)[2] == 1


def test_form_trace_mid_region_target(p1):
    t = shape(p1, 1003)
    assert t[:3] == ("main", 3, 2)


def test_form_trace_stops_before_cached_same_version_entry(p1):
    t = shape(p1, 1000, cached_entries={1003})
    assert t[2] == 3
    # a different version's entry point does not split
    t2 = shape(p1, 1000, cached_entries=set())
    assert t2[2] == 5


def test_form_trace_max_len(p1):
    assert shape(p1, 1000, max_len=2)[2] == 2


def test_form_trace_stops_at_image_end():
    p = parse_program("image m 10\n    op 1\n    op 1\nL: br L T\n")
    assert shape(p, 10)[2] == 3


def test_form_trace_points_granularities(p1):
    assert points(shape(p1, 1000, granularity="all")) == (0, 1, 2, 3, 4)
    assert points(shape(p1, 1000, granularity="ctrl")) == (2, 4)
    assert points(shape(p1, 1005, granularity="all")) == (0,)  # halt is not ctrl
    assert points(shape(p1, 1005, granularity="ctrl")) == ()


def test_form_trace_unresolvable_entry(p1):
    with pytest.raises(GuestError, match="^address 999 outside every image$"):
        shape(p1, 999)


@pytest.mark.parametrize("granularity,body", [
    # At `ctrl` each op run rides in the item of the instruction that ends
    # it, as that item's lead.
    ("ctrl", ((2, 1002, True, 2, 1, ("ndbr", 1005, 0.5)),
              (4, 1004, True, 1, 1, ("jmp", 1000, None)))),
    # At `all` every op is a point and an item of its own, with no instruction.
    ("all", ((0, 1000, True, 0, 1, None), (1, 1001, True, 0, 1, None),
             (2, 1002, True, 0, 1, ("ndbr", 1005, 0.5)), (3, 1003, True, 0, 1, None),
             (4, 1004, True, 0, 1, ("jmp", 1000, None)))),
])
def test_form_trace_body_of_the_p1_loop_head(p1, granularity, body):
    memo = TraceMemo(RunConfig(program=p1, granularity=granularity))
    t = memo.shape(1000, {})
    assert t == ("main", 0, 5, body)
    assert all(ins is memo.code[at] for _, at, _, _, _, ins in t[3] if ins is not None)


# -- run: the three budget regimes ----------------------------------------------

def test_run_budget_exhaustion_truncates_commit(p1_det):
    # T=10, B=3, every instruction instrumented: three analysis calls fit,
    # the fourth check fails and the version switches mid-trace.
    out, log, _ = make_run(p1_det, granularity="all", period=10, budget=3,
                           analysis_cost=1, check_cost=0, compile_cost=0)
    assert out.committed_entries[0] == ("main", 0, 3)
    analyzed = committed_points(p1_det, "all", out)
    assert len({a for _, a in analyzed & {("main", 0), ("main", 1), ("main", 2)}}) == 3
    # values frozen from a hand-walk of the virtual clock
    assert out.virtual_time == 20
    assert out.committed_entries == (("main", 0, 3), ("main", 2, 3))
    assert out.tool_output == (("jump", 1004, 1000),)
    assert analyzed == {("main", i) for i in range(5)}
    assert out.overshoots == ()


def test_run_unconstrained_budget_equals_oracle(p1_det):
    ref_records, ref_time, ref_path = reference_run(p1_det, seed=1)
    out, _, _ = make_run(p1_det, granularity="ctrl", capture_path=True)
    assert list(out.tool_output) == ref_records
    assert out.addr_path == tuple(ref_path)
    executed_transfers = {
        ("main", a - 1000) for a in ref_path
        if p1_det.instruction_at(a).kind in CONTROL_TRANSFERS
    }
    assert committed_points(p1_det, "ctrl", out) == executed_transfers


def test_run_zero_budget_is_pure_overhead(p1_det):
    native = native_run(RunConfig(program=p1_det, seed=1))
    out, log, _ = make_run(p1_det, granularity="all", period=10, budget=0,
                           check_cost=0, compile_cost=0)
    assert out.tool_output == ()
    assert out.committed_entries == ()
    assert committed_points(p1_det, "all", out) == set()
    assert out.virtual_time == native.virtual_time
    assert len(log) == 0
    out2, _, _ = make_run(p1_det, granularity="all", period=10, budget=0,
                          check_cost=1, compile_cost=2)
    assert out2.virtual_time > native.virtual_time


def test_native_run_reads_only_program_seed_step_limit_and_capture(p1):
    # Every instrumentation setting leaves the native pass as it is: its
    # outcome holds the reference's time, steps and path, and no records.
    _, ref_time, ref_path = reference_run(p1, seed=5)
    config = RunConfig(program=p1, seed=5, capture_path=True)
    variants = [config,
                replace(config, granularity="all", max_trace_len=1),
                replace(config, analysis_cost=7, check_cost=3, compile_cost=11),
                replace(config, period=10, budget=0),
                replace(config, period=7, budget=2, log_strategy="hash",
                        log_path="never-written.log"),
                replace(config, tool="cct")]
    assert {native_run(variant) for variant in variants} == {
        ExecutionOutcome(virtual_time=ref_time, steps=len(ref_path), tool_output=(),
                         committed_entries=(), permits=(), overshoots=(),
                         addr_path=tuple(ref_path))}


# -- invariants -----------------------------------------------------------------

def test_replay_determinism(p1):
    a, _, _ = make_run(p1, seed=42, period=7, budget=2, granularity="all")
    b, _, _ = make_run(p1, seed=42, period=7, budget=2, granularity="all")
    assert a == b


def test_different_seed_changes_ndbr_outcome(p1):
    lengths = {make_run(p1, seed=s)[0].steps for s in range(8)}
    assert len(lengths) > 1


def test_instrumentation_is_transparent(p1):
    # Executed address sequence never depends on budget, log, or granularity.
    reference = native_run(RunConfig(program=p1, seed=9, capture_path=True)).addr_path
    for strategy in ("none", "hash", "bst", "merger"):
        for budget, period in ((math.inf, math.inf), (2, 9), (0, 5)):
            out, _, _ = make_run(p1, log_strategy=strategy, seed=9,
                                 period=period, budget=budget,
                                 granularity="all", capture_path=True)
            assert out.addr_path == reference


class RecordingMemo(TraceMemo):
    """A trace memo that keeps every shape it hands to a run."""

    def __init__(self, config):
        super().__init__(config)
        self.shapes = []

    def shape(self, entry, marks):
        found = super().shape(entry, marks)
        self.shapes.append(found)
        return found


def test_ops_are_never_stepped(calls_program):
    # An op touches no guest state, so no body item carries an op for the
    # interpreter to dispatch, not even at `all` granularity, where every op
    # is a body item of its own; and every other instruction the guest
    # executes is dispatched from an item that carries its own tuple.
    records, native_time, path = reference_run(calls_program, seed=1)
    non_ops = {a for a in path if calls_program.instruction_at(a).kind != "op"}
    for granularity in GRANULARITIES:
        config = RunConfig(program=calls_program, granularity=granularity, seed=1,
                           capture_path=True)
        memo = RecordingMemo(config)
        out = run(config, LogStore("none"), config.make_budget(), memo=memo)
        carried = set()
        for _, _, _, body in memo.shapes:
            for _, at, _, _, _, ins in body:
                if ins is not None:
                    assert ins[0] != "op"
                    assert calls_program.instruction_at(at).kind != "op"
                    assert ins is memo.code[at]
                    carried.add(at)
        assert non_ops <= carried
        # One analysis call of cost 1 per point passed.
        calls = sum(1 for a in path if granularity == "all"
                    or calls_program.instruction_at(a).kind in CONTROL_TRANSFERS)
        full_time = native_time + calls
        assert (out.tool_output, out.addr_path, out.virtual_time) == (
            tuple(records), tuple(path), full_time)
        # The oracle's native and full runs and two budgeted runs.
        result = run_campaign(RunConfig(program=calls_program, granularity=granularity), 2)
        assert (result.oracle.record_stream, result.oracle.native_time,
                result.oracle.full_instrumentation_time) == (
                    tuple(records), native_time, full_time)
        assert [(o.tool_output, o.virtual_time) for o in result.outcomes] == [
            (tuple(records), full_time)] * 2


def test_committed_union_contains_analyzed_at_ctrl_granularity():
    rng = random.Random(4)
    for _ in range(12):
        program = parse_program(random_program(rng, max_instructions=60))
        out, _, _ = make_run(program, granularity="ctrl", period=11, budget=3,
                             seed=6)
        analyzed = committed_points(program, "ctrl", out)
        # every commit ends at an instruction whose analysis call ran
        for image, rel_addr, length in out.committed_entries:
            assert (image, rel_addr + length - 1) in analyzed


class RecordingLog(LogStore):
    """A log that records each permit query with its answer, and each commit."""

    def __init__(self, strategy):
        super().__init__(strategy)
        self.permits, self.commits = [], []

    def permit(self, image, rel_addr, length):
        permitted = super().permit(image, rel_addr, length)
        self.permits.append(((image, rel_addr, length), permitted))
        return permitted

    def commit(self, entry):
        self.commits.append(entry)
        super().commit(entry)


class EventObserver:
    def __init__(self):
        self.permits, self.commits = [], []

    def on_permit(self, candidate, permitted):
        self.permits.append((candidate, permitted))

    def on_commit(self, entry):
        self.commits.append(entry)


@pytest.mark.parametrize("strategy", ["hash", "bst", "merger"])
def test_exits_recommitting_a_logged_prefix_skip_the_log(p1_det, strategy):
    # The loop body is one trace, so every exit after the first re-commits a
    # prefix the log already holds; only exits that lengthen it reach the log.
    config = RunConfig(program=p1_det, granularity="all", seed=1)
    log, observer = RecordingLog(strategy), EventObserver()
    out = run(config, log, config.make_budget(), observer=observer)
    assert out.committed_entries == (("main", 0, 5), ("main", 0, 5), ("main", 0, 3),
                                     ("main", 5, 1))
    assert log.commits == observer.commits == [("main", 0, 5), ("main", 5, 1)]
    replay = LogStore(strategy)
    for entry in out.committed_entries:
        replay.commit(entry)
    assert log == replay


def test_one_permit_query_per_instrumented_trace_entry(p1_det):
    out, _, _ = make_run(p1_det, granularity="all", period=10, budget=3)
    starts = [(image, rel_addr) for (image, rel_addr, _), _ in out.permits]
    assert len(starts) == len(set(starts))


@settings(max_examples=150, deadline=None)
@given(texts=programs(), granularity=st.sampled_from(GRANULARITIES),
       strategy=st.sampled_from(STRATEGIES), period=st.integers(1, 30),
       share=st.sampled_from((0, 0.4, math.inf)), max_len=st.integers(1, 16))
def test_outcome_permits_are_the_log_queries_in_order(texts, granularity, strategy,
                                                      period, share, max_len):
    # outcome.permits is read from the run's cache when the run ends; it must
    # be the log's queries and answers, in the order the run asked them, as
    # the observer saw them.  Only a commit that grows a trace's prefix
    # reaches the log and the observer, and a repeated commit of the longest
    # prefix so far records the very tuple that was committed.
    program = parse_program(texts[0])
    config = RunConfig(program=program, granularity=granularity, max_trace_len=max_len,
                       period=math.inf if share == math.inf else period,
                       budget=share * period)
    log = RecordingLog(strategy)
    for seed in range(2):  # the second run starts from the first one's log
        log.permits, log.commits = [], []
        observer = EventObserver()
        out = run(replace(config, seed=seed), log, config.make_budget(), observer=observer)
        assert list(out.permits) == log.permits == observer.permits
        longest, grown = {}, []
        for entry in out.committed_entries:
            best = longest.get(entry[:2])
            if best is None or entry[2] > best[2]:
                longest[entry[:2]] = entry
                grown.append(entry)
            elif entry[2] == best[2]:
                assert entry is best
        assert log.commits == observer.commits == grown


def test_budget_respected_per_period():
    rng = random.Random(8)
    for _ in range(10):
        program = parse_program(random_program(rng, max_instructions=80))
        ca = rng.randrange(1, 5)
        config = RunConfig(program=program, granularity="all", period=20,
                           budget=4, analysis_cost=ca, seed=2)
        budget = config.make_budget()
        out = run(config, LogStore("hash"), budget)
        for load in budget.period_loads():
            assert load <= 4 + ca
        for magnitude in out.overshoots:
            assert magnitude <= ca


def test_tool_output_subset_of_reference_under_any_budget(p1):
    ref_records, _, _ = reference_run(p1, seed=12)
    out, _, _ = make_run(p1, seed=12, period=9, budget=2, granularity="ctrl")
    assert set(out.tool_output) <= set(ref_records)


def lap_guest(first, second):
    """loop_guest with a call in place of its inner br: the routine's loop
    runs `first` times on the first call and `second` on the second, and
    each lap from H calls F, which returns into it, so the back edge's lap
    is the same every time."""
    back = "T" * (first - 1) + "N" + "T" * (second - 1) + "N"
    return f"""\
image m 0
    call R
    call R
    halt
R:  jmp M
H:  op 1
M:  op 2
    call F
    op 3
    br H {back}
    ret
F:  op 1
    ret
"""


@pytest.mark.parametrize("text, skipped", [
    pytest.param(wide_program(60), [], id="wide"),  # each br runs 1-4 times per pass
    # The back edge's lap holds the br at S, whose count it would move.
    pytest.param(loop_guest("TN", 10, 10), [], id="loop"),
    # The back edge executes HOT_BRANCH - 1 times in all, so it never gets
    # hot, or HOT_BRANCH + 2 times, so its HOT_BRANCH-th execution is taken
    # and skips the one T left before the last N.
    pytest.param(lap_guest(1, executor.HOT_BRANCH - 2), [], id="just-cold"),
    pytest.param(lap_guest(1, executor.HOT_BRANCH + 1), [1], id="just-hot"),
    # Hot on its 8th execution, with one T left before the first N, and hot
    # again on the second call, with eight.
    pytest.param(lap_guest(10, 10), [1, 8], id="lap"),
    # The same, with the second call to R made from Q: the lap learned at
    # call depth 1 is skipped at depth 2.
    pytest.param(lap_guest(10, 10).replace("    call R\n    halt", "    call Q\n    halt\n"
                                           "Q:  call R\n    ret"), [1, 8], id="deeper-call"),
    # A loop closed by a br that jumps forward, to F, whose jmp goes back:
    # the lap learned at the 8th execution skips the 42 Ts left.
    pytest.param("image m 0\nL:  op 1\n    br F " + "T" * 50 + "N\n    halt\nF:  op 2\n"
                 "    jmp L\n", [42], id="forward-br"),
])
def test_the_native_pass_fast_forwards_each_hot_lap(monkeypatch, text, skipped):
    # The campaign's one native pass, in its oracle, skips the laps that a
    # hot back edge leaves before its next N; cold branches and laps that
    # are not fixed run block by block.
    found = native_skips(monkeypatch)
    config = RunConfig(program=parse_program(text), period=10, budget=3)
    run_campaign(config, runs=3)
    assert [skips for skips in found if skips] == skipped
    _, native_time, path = reference_run(config.program)
    out = native_run(replace(config, capture_path=True))
    assert (out.virtual_time, out.addr_path) == (native_time, tuple(path))


@pytest.mark.parametrize("max_steps, skipped", [
    # A lap is the block from H, 2 steps, and the br's HOT_BRANCH-th
    # execution ends at step 16, so the pass skips the k laps with
    # 16 + 2 * k <= max_steps, up to the 92 Ts left.
    (17, 0), (18, 1), (19, 1), (100, 42), (101, 42), (10**6, 100 - executor.HOT_BRANCH),
])
def test_the_native_fast_forward_leaves_the_blocks_near_the_step_limit(
        monkeypatch, max_steps, skipped):
    # Past the limit the pass raises whatever it skipped, so only the count
    # of skipped laps shows where a fast-forward stops.
    found = native_skips(monkeypatch)
    config = RunConfig(program=parse_program("image m 0\nH:  op 1\n    br H " + "T" * 100
                                             + "N\n    halt\n"), max_steps=max_steps)
    if max_steps < 203:
        with pytest.raises(GuestError, match="^step limit exceeded$"):
            native_run(config)
    else:
        assert native_run(config).steps == 203
    assert found[0] == skipped


def chain_loop(blocks, pattern):
    """A loop of `blocks` native blocks from H, each an op, linked by jmps
    and closed by a br of `pattern`, then a halt."""
    links = "".join(f"    jmp B{i}\nB{i}: op 1\n" for i in range(1, blocks))
    return f"image m 0\nH:  op 1\n{links}    br H {pattern}\n    halt\n"


def test_a_native_hot_loop_runs_in_closed_form():
    # Block by block, 10**8 steps take seconds, and a lap of many blocks is
    # learned as one of a single block is.
    for blocks in (1, 101):
        config = RunConfig(program=parse_program(chain_loop(blocks, "T")), max_steps=10**8)
        with wall_budget(1.0), pytest.raises(GuestError, match="^step limit exceeded$"):
            native_run(config)
        program = parse_program(chain_loop(blocks, "T" * 30 + "N"))
        _, native_time, path = reference_run(program)
        out = native_run(RunConfig(program=program, capture_path=True))
        assert (out.virtual_time, out.addr_path) == (native_time, tuple(path))


@pytest.mark.parametrize("budget, log_entries, max_steps", [
    # Every iteration commits and records, so a longer run would hold
    # hundreds of MB of list slots.
    pytest.param(math.inf, (), 10**7, id="unlimited"),
    pytest.param(0, (), 10**8, id="zero-budget"),
    pytest.param(math.inf, (("m", 0, 2),), 10**8, id="rejected"),
])
def test_a_hot_loop_runs_in_closed_form(budget, log_entries, max_steps):
    # Iteration by iteration, millions of trace entries take seconds.
    program = parse_program("image m 0\nH:  op 1\n    br H T\n")
    log = LogStore("hash")
    for entry in log_entries:
        log.commit(entry)
    config = RunConfig(program=program, max_steps=max_steps,
                       period=math.inf if budget else 10, budget=budget)
    with wall_budget(1.0), pytest.raises(GuestError, match="^step limit exceeded$"):
        run(config, log, config.make_budget())


def test_a_loop_that_takes_no_time_runs_in_closed_form():
    # A hand-built image whose br costs nothing: every point of the loop
    # falls at time 0, before any time the budget's answer holds until.
    image = ProgramImage("m", 0, (BR, HALT), (0, 1), (0, None), ("T" * 10**6 + "N", None))
    config = RunConfig(program=Program([image]), max_steps=10**7, period=10, budget=0)
    with wall_budget(1.0):
        outcome = run(config, LogStore("none"), config.make_budget())
    assert (outcome.virtual_time, outcome.steps) == (1, 10**6 + 2)


# -- errors ----------------------------------------------------------------------

def test_step_limit_exceeded():
    p = parse_program("image m 0\nL: jmp L\n")
    with pytest.raises(GuestError, match="step limit"):
        make_run(p, max_steps=50)
    with pytest.raises(GuestError, match="step limit"):
        native_run(RunConfig(program=p, max_steps=50))


@pytest.mark.parametrize("tool,records", [
    ("branch", (("jump", 0, 1), ("call", 1, 3), ("return", 3, 2))),
    ("cct", (("call", 1, 3), ("return", 3, 2))),
], ids=["branch", "cct"])
def test_run_records_with_the_tool_its_config_names(tool, records):
    program = parse_program("image m 0\n    jmp A\nA:  call F\n    halt\nF:  ret\n")
    out, _, _ = make_run(program, tool=tool)
    assert out.tool_output == records


@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_step_limit_inside_an_op_run_before_a_point(granularity):
    # Each pass is four ops closed by a br.  At `ctrl` the ops and the br are
    # one body item, so most limits fall inside the ops before the point.
    # Every limit short of the reference's step count stops the run with the
    # same error, after the same commits as the reference, and after the
    # analysis calls at every point up to the first instruction past the
    # limit: its point check comes before the limit is tested.
    program = parse_program("image m 0\nL: op 1\n    op 2\n    op 1\n    op 3\n"
                            "    br L TTN\n    halt\n")
    _, _, ref_path = reference_run(program, seed=1)
    full, _, _ = make_run(program, log_strategy="none", granularity=granularity)
    assert full.steps == len(ref_path) == 16
    for limit in range(1, len(ref_path)):
        observer = EventObserver()
        config = RunConfig(program=program, granularity=granularity, max_steps=limit,
                           period=10**6, budget=10**6, seed=1)
        budget = config.make_budget()
        with pytest.raises(GuestError, match="^step limit exceeded$"):
            run(config, LogStore("none"), budget, observer=observer)
        # The commits of the passes that ended within the limit, one whole
        # pass each.
        taken = sum(1 for i, addr in enumerate(ref_path[:limit])
                    if addr == 4 and ref_path[i + 1] == 0)
        assert observer.commits == [("m", 0, 5)] * min(taken, 1)
        points = [addr for addr in ref_path[:limit + 1] if granularity == "all" or addr == 4]
        assert budget.period_loads() == [len(points)]


@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_step_limit_wins_over_an_empty_stack_ret_past_it(granularity):
    # The ret that would fail is the first item past the limit, so the limit
    # is reported; with room for the ret, its own error is.
    program = parse_program("image m 0\n    op 1\n    op 1\n    ret\n")
    for limit in (1, 2):
        with pytest.raises(GuestError, match="^step limit exceeded$"):
            make_run(program, granularity=granularity, max_steps=limit)
        with pytest.raises(GuestError, match="^step limit exceeded$"):
            native_run(RunConfig(program=program, max_steps=limit))
    with pytest.raises(GuestError, match="empty call stack"):
        make_run(program, granularity=granularity, max_steps=3)


def test_ret_with_empty_stack_is_guest_error():
    p = parse_program("image m 0\n    ret\n")
    with pytest.raises(GuestError, match="^ret at 0 with empty call stack$"):
        make_run(p)
    with pytest.raises(GuestError, match="^ret at 0 with empty call stack$"):
        native_run(RunConfig(program=p))


def test_fall_off_image_end_is_guest_error():
    p = parse_program("image m 0\n    op 1\n    op 1\n")
    with pytest.raises(GuestError, match="outside every image"):
        make_run(p)


@pytest.mark.parametrize("cost", ["analysis_cost", "check_cost", "compile_cost"])
def test_nan_cost_is_config_error_before_any_guest_step(p1, monkeypatch, cost):
    # nan fails every comparison, so a test of `cost < 0` or `cost > 2**53`
    # lets it through, and the budget server then dies on a nan clock.
    def native(*args, **kwargs):
        raise AssertionError("the native pass ran")

    monkeypatch.setattr(harness, "native_run", native)
    with pytest.raises(ConfigError, match="cost"):
        run_campaign(RunConfig(program=p1, period=10, budget=5, **{cost: math.nan}), 1)


# -- RunConfig: every rule, checked whenever a config is built -----------------

VALID = {"period": 10, "budget": 5}
ANALYSIS_COST = "analysis cost must be > 0"
BAD_SETTINGS = [
    *[({"granularity": g}, ConfigError, f"unknown granularity {g!r}")
      for g in ("weird", "ALL", "insn", "")],
    ({"analysis_cost": 0}, ConfigError, ANALYSIS_COST),
    ({"analysis_cost": math.nan}, ConfigError, ANALYSIS_COST),
    # The analysis cost's own rule comes first, so a negative one fails there.
    ({"analysis_cost": -1}, ConfigError, ANALYSIS_COST),
    ({"analysis_cost": 2**53 + 1}, ConfigError, "costs must be <= 2**53"),
    *[({cost: value}, ConfigError, message) for cost in ("check_cost", "compile_cost")
      for value, message in ((-1, "costs must be >= 0"), (math.nan, "costs must be >= 0"),
                             (2**53 + 1, "costs must be <= 2**53"))],
    *[({"max_trace_len": value}, ConfigError, "max trace length must be >= 1")
      for value in (0, math.nan)],
    ({"max_trace_len": 2.5}, ConfigError, "max trace length must be a whole number or inf"),
    *[({"max_steps": value}, ConfigError, "step limit must be >= 1")
      for value in (0, math.nan)],
    # A run would stop at 2 steps and report 2.5.
    ({"max_steps": 2.5}, ConfigError, "step limit must be a whole number or inf"),
    # Random(nan) seeds by the nan's identity, and a report cannot write inf.
    *[({"seed": value}, ConfigError, "seed must be an int")
      for value in (math.nan, math.inf, 1.5, "1", True)],
    # The period and budget are BudgetState's, with its ValueError.
    ({"budget": 20}, ValueError, "budget must satisfy 0 <= B <= T"),
    ({"budget": -1}, ValueError, "budget must satisfy 0 <= B <= T"),
    ({"period": 0}, ValueError, "period must be > 0"),
    ({"period": math.nan}, ValueError, "period must be > 0"),
    # The tool and log strategy are record_kinds' and LogStore's.
    ({"tool": "nope"}, ValueError, "unknown tool 'nope'"),
    ({"log_strategy": "fancy"}, ValueError, "unknown strategy 'fancy'"),
    ({"log_strategy": "hash"}, ConfigError, "log strategy requires a log file path"),
]


@pytest.mark.parametrize(
    "overrides,error,message", BAD_SETTINGS,
    ids=[",".join(f"{k}={v}" for k, v in overrides.items()) for overrides, *_ in BAD_SETTINGS])
def test_each_rule_is_checked_whenever_a_config_is_built(p1, overrides, error, message):
    valid = RunConfig(program=p1, **VALID)
    match = f"^{re.escape(message)}$"
    with pytest.raises(error, match=match) as built:
        RunConfig(program=p1, **{**VALID, **overrides})
    with pytest.raises(error, match=match) as replaced:
        replace(valid, **overrides)
    assert type(built.value) is type(replaced.value) is error


def test_each_rule_admits_its_boundary(p1):
    for overrides in ({"analysis_cost": 2**53, "check_cost": 2**53, "compile_cost": 2**53},
                      {"check_cost": 0, "compile_cost": 0, "analysis_cost": 0.5},
                      {"max_trace_len": 1, "max_steps": 1},
                      {"max_trace_len": 2.0}, {"max_trace_len": math.inf},
                      {"max_steps": 2.0}, {"max_steps": math.inf},
                      {"budget": 10}, {"budget": 0}, {"period": 1e-300, "budget": 1e-300}):
        config = replace(RunConfig(program=p1, **VALID), **overrides)
        assert {k: getattr(config, k) for k in overrides} == overrides


@pytest.mark.parametrize("granularity", GRANULARITIES)
def test_a_whole_float_or_infinite_trace_length_runs_as_its_int(granularity):
    # Traces close at the length, the image end or a terminator: 2.0 as 2,
    # and inf as a length that only the image end reaches.
    program = parse_program("image a 0\n    op 1\n    op 1\n    op 1\n"
                            "image b 3\n    halt\n")
    for value, same in ((2.0, 2), (math.inf, 3)):
        outcomes = [make_run(program, granularity=granularity, max_trace_len=length,
                             period=4, budget=2)[0] for length in (value, same)]
        assert outcomes[0] == outcomes[1]
    assert [entry for entry, _ in outcomes[0].permits] == [("a", 0, 3), ("b", 0, 1)]


def test_config_fields_cannot_be_assigned(p1):
    config = RunConfig(program=p1)
    for field in fields(RunConfig):
        with pytest.raises(FrozenInstanceError):
            setattr(config, field.name, getattr(config, field.name))
