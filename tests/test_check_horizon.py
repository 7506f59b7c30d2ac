"""Budget checks on a next-event horizon.

run() asks the budget server only when the clock reaches the time that the
server's last answer holds until (BudgetState.horizon, which each check and
each charge that spends the budget leave on the server), and reuses the
answer at the points before it.  A server whose horizon is always -inf is
asked at every point, as a run did before the horizon existed; runs against
it are the reference.  They must agree with runs against the real server
field for field, in the periods closed, the per-period loads, the overshoots
and the final log, and a run must stop at the period-count limit at the same
point.  The reference must really be asked at every point, or the
comparison would pit the real server against itself.
"""

import math
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from dime import (BudgetContractError, BudgetState, LogEntry, LogStore, RunConfig,
                  make_tool, parse_program, run, run_oracle)
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
    instrumentation point: the horizon it sets is dropped, and run() always
    reads -inf."""

    horizon = property(lambda self: -math.inf, lambda self, value: None)


def points_passed(config, outcome, state):
    """The instrumentation points a run passed, from its virtual time: each
    point adds check_cost to the clock, each analysis call analysis_cost, and
    each executed instruction its cost (compile_cost is 0)."""
    costs = {img.base + i: cost for img in config.program.images
             for i, cost in enumerate(img.costs)}
    guest = sum(costs[addr] for addr in outcome.addr_path)
    analysis = config.analysis_cost * state.charges
    return (outcome.virtual_time - guest - analysis) / config.check_cost


def log_bytes(log):
    if log.strategy == "none":
        return list(log.entries())
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "run.log")
        log.save(path)
        with open(path, "rb") as fh:
            return fh.read()


def run_sequence(config, server):
    """RUNS runs against one log, each with a fresh `server`: per run the
    outcome and the server's closed periods, loads and overshoots, then the
    final log's bytes."""
    log = LogStore(config.log_strategy)
    runs = []
    for k in range(1, RUNS + 1):
        state = server(period=config.period, budget=config.budget)
        outcome = run(config, log, state, make_tool(config.tool), rng_seed=config.seed + k)
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
                       log_strategy=strategy, capture_path=True)
    assert run_sequence(config, Counting) == run_sequence(config, EveryPoint)


@pytest.mark.parametrize("share", [0, 0.5, 1])
def test_period_count_limit_stops_a_run_at_the_same_point(share):
    # Each pass of the loop costs about 1e9 units, and 2**53 periods of 1e-6
    # end near 9e9: the limit falls inside the tenth pass.  The hash log
    # already holds the loop, so no check that passes is followed by a
    # charge, and only the period-count cap on the horizon makes the run
    # check again before the halt.
    program = parse_program("image m 0\nL: op 1000000000\n    br L "
                            + "T" * 30 + "N\n    halt\n")
    config = RunConfig(program=program, period=1e-6, budget=1e-6 * share,
                       log_strategy="hash", max_steps=1000)
    errors, checks = [], []
    for server in (Counting, EveryPoint):
        log = LogStore("hash")
        log.commit(LogEntry("m", 0, 3))
        state = server(period=config.period, budget=config.budget)
        with pytest.raises(BudgetContractError, match="2\\*\\*53") as exc:
            run(config, log, state, make_tool("branch"))
        errors.append(str(exc.value))
        checks.append(state.checks)
    assert errors[0] == errors[1]
    # The reference checked at the br of each of the ten passes, and at
    # B = 0 once more where the first pass switched to V_BASE at that br.
    # The real server's horizon skipped checks.
    assert checks[1] == 10 + (share == 0)
    assert checks[0] < checks[1]


@pytest.mark.parametrize("passes", [3, 3000])
def test_unlimited_budget_run_checks_twice_whatever_its_length(monkeypatch, passes):
    # The oracle's full run: every point analyzed, the budget never spent.
    program = parse_program(f"image m 0\nL: op 1\n    op 2\n    br L {'T' * passes}N\n"
                            "    halt\n")
    checks = []
    real_check = BudgetState.check

    def counting(self, now):
        checks.append(now)
        return real_check(self, now)

    monkeypatch.setattr(BudgetState, "check", counting)
    oracle = run_oracle(RunConfig(program=program, granularity="all"))
    assert len(oracle.record_stream) == passes
    assert len(checks) <= 2
