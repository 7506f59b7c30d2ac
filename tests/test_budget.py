import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from dime import (BudgetContractError, BudgetState, LogStore, RunConfig, make_tool,
                  parse_program, run)


def test_check_with_full_budget():
    state = BudgetState(period=10, budget=3)
    assert state.check(0) == 1


def test_check_exhausted():
    state = BudgetState(period=10, budget=3)
    state.charge(3, 0)
    assert state.remaining == 0
    assert state.check(7) == 0


def test_check_reset_at_period_boundary():
    state = BudgetState(period=10, budget=3)
    state.charge(3, 0)
    assert state.check(7) == 0
    assert state.check(12) == 1
    assert state.period_index == 1
    assert state.remaining == 3
    assert state.t_ins_this_period == 0


def test_reset_exactly_at_boundary():
    state = BudgetState(period=10, budget=3)
    state.charge(3, 0)
    assert state.check(10) == 1


def test_charge_plain():
    state = BudgetState(period=10, budget=3)
    assert state.check(1) == 1
    state.charge(1, 1)
    assert state.remaining == 2
    assert state.overshoot_log == []


def test_charge_overshoot_clamps_and_logs():
    state = BudgetState(period=10, budget=3)
    state.charge(2, 0)
    assert state.remaining == 1
    assert state.check(4) == 1
    state.charge(4, 4)
    assert state.remaining == 0
    assert state.overshoot_log == [(4, 3)]
    assert state.t_ins_this_period == 6


def test_charge_without_passing_check_is_contract_violation():
    state = BudgetState(period=10, budget=3)
    state.charge(3, 0)
    assert state.check(5) == 0
    with pytest.raises(BudgetContractError):
        state.charge(1, 5)


def test_clock_must_be_monotone():
    state = BudgetState(period=10, budget=3)
    state.check(5)
    with pytest.raises(BudgetContractError):
        state.check(4)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        BudgetState(period=10, budget=11)
    with pytest.raises(ValueError):
        BudgetState(period=10, budget=-1)
    with pytest.raises(ValueError):
        BudgetState(period=0, budget=0)
    with pytest.raises(ValueError):
        BudgetState(period=5, budget=math.inf)


def test_unlimited_budget_never_exhausts():
    state = BudgetState.unlimited()
    for now in range(0, 10_000, 97):
        assert state.check(now) == 1
        state.charge(1000, now)
    assert state.period_index == 0
    assert state.overshoot_log == []


def test_period_history_tracks_skipped_periods():
    state = BudgetState(period=10, budget=3)
    state.charge(2, 0)
    state.check(35)  # jumps over periods 1 and 2
    assert state.period_history == [2, 0, 0]
    assert state.period_loads() == [2, 0, 0, 0]


def test_negative_cost_rejected():
    state = BudgetState(period=10, budget=3)
    with pytest.raises(ValueError):
        state.charge(-1, 0)


@given(
    budget=st.integers(min_value=1, max_value=20),
    costs=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=200),
)
def test_per_period_cap_property(budget, costs):
    # Gated charges can exceed B by at most one call's cost, per period.
    period = 50
    state = BudgetState(period=period, budget=budget)
    now = 0
    max_cost = max(costs)
    for cost in costs:
        now += 1
        if state.check(now) == 1:
            state.charge(cost, now)
    for load in state.period_loads():
        assert load <= budget + max_cost
    for _, magnitude in state.overshoot_log:
        assert magnitude <= max_cost


def test_budget_equal_period_never_exhausts_under_elapsed_charging():
    # Charges that mirror elapsed time can never outrun B when B == T.
    state = BudgetState(period=10, budget=10)
    now = 0
    for _ in range(100):
        assert state.check(now) == 1
        state.charge(1, now)
        now += 1


class SteppingBudget:
    """Periods closed one boundary at a time: the definition that
    BudgetState's closed-form advance must reproduce, float periods included."""

    def __init__(self, period, budget):
        self.period, self.budget = period, budget
        self.index, self.load, self.remaining = 0, 0, budget
        self.history, self.overshoots = [], []

    def advance(self, now):
        while now >= (self.index + 1) * self.period:
            self.history.append(self.load)
            self.index += 1
            self.remaining = self.budget
            self.load = 0

    def check(self, now):
        self.advance(now)
        return 1 if self.remaining > 0 else 0

    def charge(self, cost, now):
        self.advance(now)
        self.remaining -= cost
        self.load += cost
        if self.remaining < 0:
            self.overshoots.append((now, -self.remaining))
            self.remaining = 0


@settings(deadline=None)
@given(
    period=st.one_of(st.sampled_from([0.1, 0.3, 1 / 3, 0.7, 1, 2.5, 7]),
                     st.floats(min_value=0.01, max_value=20)),
    share=st.floats(min_value=0, max_value=1),
    steps=st.lists(st.tuples(st.one_of(st.integers(0, 40), st.floats(0, 40)),
                             st.integers(0, 5)), max_size=60),
)
def test_closed_form_advance_matches_stepping_each_period(period, share, steps):
    budget = period * share
    state, model = BudgetState(period=period, budget=budget), SteppingBudget(period, budget)
    now = 0
    for dt, cost in steps:
        now += dt
        assert state.check(now) == model.check(now)
        if model.remaining > 0:
            state.charge(cost, now)
            model.charge(cost, now)
        assert state.period_index == model.index
        assert state.period_loads() == model.history + [model.load]
        assert state.remaining == model.remaining
    assert state.overshoot_log == model.overshoots


def test_one_huge_op_closes_twenty_million_periods_in_one_check():
    # The halt's check comes at t = 2000001 (one analysis call, then the op),
    # 20,000,010 periods of 0.1 in; stepping over them one at a time took
    # seconds and kept a history entry for each.
    program = parse_program("image m 0\n    op 2000000\n    halt\n")
    config = RunConfig(program=program, granularity="all", period=0.1, budget=0.1)
    budget = config.make_budget()
    start = time.perf_counter()
    out = run(config, LogStore("none"), budget, make_tool("branch"))
    assert time.perf_counter() - start < 1.0
    assert out.virtual_time == 2_000_003
    assert budget.period_index == 20_000_010
    assert budget.period_index * 0.1 <= 2_000_001 < (budget.period_index + 1) * 0.1
    assert out.overshoots == (0.9, 0.9)
