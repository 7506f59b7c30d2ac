import math
import random
from collections import Counter

import pytest

from dime import (BudgetState, ConfigError, GuestError, LogEntry, LogStore,
                  RunConfig, TraceDescriptor, executor, form_trace, make_tool, native_run,
                  parse_program, run, run_campaign)
from dime.program import CONTROL_TRANSFERS
from dime.budget import V_BASE, V_INSTRUMENT
from dime.corpus import random_program

from conftest import P1_DET
from reference import reference_run


def make_run(program, log_strategy="hash", log=None, seed=1, **overrides):
    config = RunConfig(program=program, **overrides)
    log = log if log is not None else LogStore(log_strategy)
    budget = config.make_budget()
    tool = make_tool(config.tool)
    outcome = run(config, log, budget, tool, rng_seed=seed)
    return outcome, log, budget


# -- form_trace ----------------------------------------------------------------

def test_form_trace_p1_whole_loop_body(p1):
    t = form_trace(p1, 1000, max_len=16)
    assert t == TraceDescriptor("main", 0, 5, V_INSTRUMENT, (2, 4))


def test_form_trace_single_halt(p1):
    assert form_trace(p1, 1005).length == 1


def test_form_trace_mid_region_target(p1):
    t = form_trace(p1, 1003)
    assert (t.image, t.rel_start, t.length) == ("main", 3, 2)


def test_form_trace_stops_before_cached_same_version_entry(p1):
    t = form_trace(p1, 1000, cached_entries={1003})
    assert t.length == 3
    # a different version's entry point does not split
    t2 = form_trace(p1, 1000, cached_entries=set())
    assert t2.length == 5


def test_form_trace_max_len(p1):
    assert form_trace(p1, 1000, max_len=2).length == 2


def test_form_trace_stops_at_image_end():
    p = parse_program("image m 10\n    op 1\n    op 1\nL: br L T\n")
    assert form_trace(p, 10).length == 3


def test_form_trace_points_granularities(p1):
    assert form_trace(p1, 1000, granularity="all").points == (0, 1, 2, 3, 4)
    assert form_trace(p1, 1000, granularity="ctrl").points == (2, 4)
    assert form_trace(p1, 1005, granularity="all").points == (0,)  # halt is not ctrl
    assert form_trace(p1, 1005, granularity="ctrl").points == ()


def test_form_trace_unresolvable_entry(p1):
    with pytest.raises(Exception):
        form_trace(p1, 999)


# -- run: the three budget regimes ----------------------------------------------

def test_run_budget_exhaustion_truncates_commit(p1_det):
    # T=10, B=3, every instruction instrumented: three analysis calls fit,
    # the fourth check fails and the version switches mid-trace.
    out, log, _ = make_run(p1_det, granularity="all", period=10, budget=3,
                           analysis_cost=1, check_cost=0, compile_cost=0)
    assert out.committed_entries[0] == LogEntry("main", 0, 3)
    assert len({a for _, a in out.analyzed_addrs & {("main", 0), ("main", 1), ("main", 2)}}) == 3
    # values frozen from a hand-walk of the virtual clock
    assert out.virtual_time == 20
    assert out.committed_entries == (LogEntry("main", 0, 3), LogEntry("main", 2, 3))
    assert out.tool_output == (("jump", 1004, 1000),)
    assert out.analyzed_addrs == {("main", i) for i in range(5)}
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
    assert out.analyzed_addrs == executed_transfers


def test_run_zero_budget_is_pure_overhead(p1_det):
    native = native_run(p1_det, seed=1)
    out, log, _ = make_run(p1_det, granularity="all", period=10, budget=0,
                           check_cost=0, compile_cost=0)
    assert out.tool_output == ()
    assert out.committed_entries == ()
    assert out.analyzed_addrs == frozenset()
    assert out.virtual_time == native.virtual_time
    assert len(log) == 0
    out2, _, _ = make_run(p1_det, granularity="all", period=10, budget=0,
                          check_cost=1, compile_cost=2)
    assert out2.virtual_time > native.virtual_time


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
    reference = native_run(p1, seed=9, capture_path=True).addr_path
    for strategy in ("none", "hash", "bst", "merger"):
        for budget, period in ((math.inf, math.inf), (2, 9), (0, 5)):
            out, _, _ = make_run(p1, log_strategy=strategy, seed=9,
                                 period=period, budget=budget,
                                 granularity="all", capture_path=True)
            assert out.addr_path == reference


def test_ops_are_never_stepped(calls_program, monkeypatch):
    # An op touches no guest state, so no interpreter hands one to the guest,
    # not even at `all` granularity, where every op is a body item of its own.
    stepped = Counter()
    step = executor._GuestState.step

    def counting(self, addr, ins):
        stepped[ins[0]] += 1
        return step(self, addr, ins)

    monkeypatch.setattr(executor._GuestState, "step", counting)
    records, native_time, path = reference_run(calls_program, seed=1)
    non_ops = Counter(calls_program.instruction_at(a).kind for a in path)
    del non_ops["op"]
    full_time = native_time + len(path)  # one analysis call of cost 1 per step
    out, _, _ = make_run(calls_program, log_strategy="none", granularity="all",
                         capture_path=True)
    assert (out.records, out.addr_path, out.virtual_time) == (
        tuple(records), tuple(path), full_time)
    assert stepped == non_ops
    stepped.clear()
    # The oracle's native and full runs and two budgeted runs.
    result = run_campaign(RunConfig(program=calls_program, granularity="all"), 2)
    assert (result.oracle.record_stream, result.oracle.native_time,
            result.oracle.full_instrumentation_time) == (tuple(records), native_time, full_time)
    assert [(o.records, o.virtual_time) for o in result.outcomes] == [
        (tuple(records), full_time)] * 2
    assert stepped == Counter({kind: 4 * n for kind, n in non_ops.items()})


def test_committed_union_equals_analyzed_at_all_granularity():
    rng = random.Random(3)
    for _ in range(12):
        program = parse_program(random_program(rng, max_instructions=60))
        out, _, _ = make_run(program, granularity="all", period=11, budget=3,
                             seed=5)
        union = {(e.image, a) for e in out.committed_entries
                 for a in range(e.rel_addr, e.rel_addr + e.length)}
        assert union == out.analyzed_addrs


def test_committed_union_contains_analyzed_at_ctrl_granularity():
    rng = random.Random(4)
    for _ in range(12):
        program = parse_program(random_program(rng, max_instructions=60))
        out, _, _ = make_run(program, granularity="ctrl", period=11, budget=3,
                             seed=6)
        union = {(e.image, a) for e in out.committed_entries
                 for a in range(e.rel_addr, e.rel_addr + e.length)}
        assert out.analyzed_addrs <= union
        # every commit ends at an instruction whose analysis call ran
        for e in out.committed_entries:
            assert (e.image, e.rel_addr + e.length - 1) in out.analyzed_addrs


class CountingLog(LogStore):
    def __init__(self, strategy):
        super().__init__(strategy)
        self.commits = []

    def commit(self, entry):
        self.commits.append(entry)
        super().commit(entry)


class CommitObserver:
    def __init__(self):
        self.commits = []

    def on_permit(self, candidate, permitted):
        pass

    def on_commit(self, entry):
        self.commits.append(entry)


@pytest.mark.parametrize("strategy", ["hash", "bst", "merger"])
def test_exits_recommitting_a_logged_prefix_skip_the_log(p1_det, strategy):
    # The loop body is one trace, so every exit after the first re-commits a
    # prefix the log already holds; only exits that lengthen it reach the log.
    config = RunConfig(program=p1_det, granularity="all")
    log, observer = CountingLog(strategy), CommitObserver()
    out = run(config, log, config.make_budget(), make_tool("branch"), rng_seed=1,
              observer=observer)
    assert out.committed_entries == (LogEntry("main", 0, 5), LogEntry("main", 0, 5),
                                     LogEntry("main", 0, 3), LogEntry("main", 5, 1))
    assert log.commits == observer.commits == [LogEntry("main", 0, 5), LogEntry("main", 5, 1)]
    replay = LogStore(strategy)
    for entry in out.committed_entries:
        replay.commit(entry)
    assert log == replay


def test_one_permit_query_per_instrumented_trace_entry(p1_det):
    out, _, _ = make_run(p1_det, granularity="all", period=10, budget=3)
    starts = [(c.image, c.rel_addr) for c, _ in out.permits]
    assert len(starts) == len(set(starts))


def test_budget_respected_per_period():
    rng = random.Random(8)
    for _ in range(10):
        program = parse_program(random_program(rng, max_instructions=80))
        ca = rng.randrange(1, 5)
        config = RunConfig(program=program, granularity="all", period=20,
                           budget=4, analysis_cost=ca)
        budget = config.make_budget()
        out = run(config, LogStore("hash"), budget, make_tool("branch"), rng_seed=2)
        for load in budget.period_loads():
            assert load <= 4 + ca
        for magnitude in out.overshoots:
            assert magnitude <= ca


def test_tool_output_subset_of_reference_under_any_budget(p1):
    ref_records, _, _ = reference_run(p1, seed=12)
    out, _, _ = make_run(p1, seed=12, period=9, budget=2, granularity="ctrl")
    assert set(out.tool_output) <= set(ref_records)


# -- errors ----------------------------------------------------------------------

def test_step_limit_exceeded():
    p = parse_program("image m 0\nL: jmp L\n")
    with pytest.raises(GuestError, match="step limit"):
        make_run(p, max_steps=50)
    with pytest.raises(GuestError, match="step limit"):
        native_run(p, max_steps=50)


def test_ret_with_empty_stack_is_guest_error():
    p = parse_program("image m 0\n    ret\n")
    with pytest.raises(GuestError, match="empty call stack"):
        make_run(p)


def test_fall_off_image_end_is_guest_error():
    p = parse_program("image m 0\n    op 1\n    op 1\n")
    with pytest.raises(GuestError, match="outside every image"):
        make_run(p)


def test_nonpositive_analysis_cost_rejected(p1):
    with pytest.raises(ConfigError, match="analysis cost"):
        make_run(p1, analysis_cost=0)


def test_unknown_granularity_rejected(p1):
    with pytest.raises(ConfigError, match="granularity"):
        make_run(p1, granularity="weird")


def test_run_requires_tool(p1):
    config = RunConfig(program=p1)
    with pytest.raises(ConfigError, match="tool"):
        run(config, LogStore("none"), config.make_budget(), None)
