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
"""

import math
import os
import tempfile
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from dime import (BudgetContractError, BudgetState, LogEntry, LogStore, RunConfig,
                  parse_program, run, run_oracle)
from dime.executor import GRANULARITIES
from dime.redundancy import STRATEGIES

from test_differential import programs

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
    overshoots, then the final log's bytes."""
    log = LogStore(strategy)
    runs = []
    for k in range(1, RUNS + 1):
        state = server(period=config.period, budget=config.budget)
        outcome = run(replace(config, seed=config.seed + k), log, state)
        log.finalize()
        if server is EveryPoint and config.check_cost:
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
    found = []
    for server in (Counting, EveryPoint):
        state = server(period=config.period, budget=config.budget)
        outcome = run(config, LogStore("none"), state)
        found.append((outcome, state.period_index, state.period_loads(),
                      state.overshoot_log, state.charges))
        if server is Counting:
            assert state.checks == 1
    assert found[0] == found[1]
    loads = found[0][2]
    assert len(loads) > 100
    assert all(load == 3 for load in loads)


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
