import copy
import dataclasses
import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from dime import (BudgetContractError, BudgetState, LogStore, RunConfig, parse_program,
                  run)
from dime.budget import MAX_PERIODS

from conftest import wall_budget


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


def test_charge_that_leaves_exactly_0_spends_the_budget():
    # Spent, not overshot: the answer is 0 until the period ends, and no
    # deficit is logged.
    state = BudgetState(10, 3)
    assert state.charge(3, 0) == 0
    assert state.remaining == 0
    assert state.horizon == 10
    assert state.overshoot_log == []


@pytest.mark.parametrize("budget", [0, 3])
def test_horizon_is_the_cap_unless_a_charge_spent_the_budget(budget):
    # A B = 0 answer never changes, so it holds to the cap like a B > 0 one;
    # the refill tells the two apart.
    state = BudgetState(10, budget)
    cap = MAX_PERIODS * 10
    assert (state.horizon, state.refill) == (cap, cap if budget else -math.inf)
    assert state.check(25) == (1 if budget else 0)
    assert state.horizon == cap
    if budget:
        state.charge(3, 25)
        assert state.horizon == 30
        assert state.check(31) == 1
        assert state.horizon == cap


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


def test_charge_with_clock_moved_backwards_is_contract_violation():
    # Within one period too, where a charge skips the period arithmetic.
    state = BudgetState(period=10, budget=3)
    assert state.check(5) == 1
    with pytest.raises(BudgetContractError, match="backwards"):
        state.charge(1, 4)
    assert state.remaining == 3


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        BudgetState(period=10, budget=11)
    with pytest.raises(ValueError):
        BudgetState(period=10, budget=-1)
    with pytest.raises(ValueError):
        BudgetState(period=0, budget=0)
    with pytest.raises(ValueError):
        BudgetState(period=5, budget=math.inf)


def test_period_and_budget_are_the_only_constructor_arguments():
    with pytest.raises(TypeError):
        BudgetState(period=10, budget=3, period_index=1)
    hidden = [f.name for f in dataclasses.fields(BudgetState) if not f.init]
    assert {"period_index", "remaining", "horizon", "refill"} <= set(hidden)
    for name in hidden:
        with pytest.raises(TypeError):
            BudgetState(10, 3, **{name: 0})


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
    assert state.period_loads()[:-1] == [2, 0, 0]
    assert state.period_loads() == [2, 0, 0, 0]


def test_period_history_keeps_the_type_of_each_load():
    # Loads that compare equal but differ in type stay apart, as stepping
    # each period keeps them: 2 and 2.0, and a 0.0 load and the empty (int 0)
    # periods after it.
    state = BudgetState(period=10, budget=3)
    state.charge(2, 0)
    state.check(10)
    state.charge(2.0, 10)
    state.check(20)
    state.charge(0.0, 20)
    state.check(45)
    loads = state.period_loads()
    assert loads == [2, 2.0, 0.0, 0, 0] == [2, 2, 0, 0, 0]
    assert list(map(type, loads)) == [int, float, float, int, int]


def test_int_zero_charge_reads_as_the_skipped_periods_after_it():
    state = BudgetState(period=10, budget=3)
    state.charge(0, 0)
    state.check(35)
    loads = state.period_loads()
    assert loads == [0, 0, 0, 0]
    assert list(map(type, loads)) == [int] * 4


def test_float_zero_charge_keeps_its_float_load():
    state = BudgetState(period=10, budget=3)
    state.check(12)
    state.charge(0.0, 12)
    state.check(41)
    loads = state.period_loads()
    assert loads == [0, 0.0, 0, 0, 0]
    assert list(map(type, loads)) == [int, float, int, int, int]


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

    def peek(self, now):
        """What check(now) would answer, leaving this model as it is."""
        return 1 if self.left(now) > 0 else 0

    def left(self, now):
        """The budget that a charge at `now` would find, leaving this model
        as it is."""
        probe = copy.copy(self)
        probe.history = []
        probe.advance(now)
        return probe.remaining


@settings(deadline=None)
@given(
    period=st.one_of(st.sampled_from([0.1, 0.3, 1 / 3, 0.7, 1, 2.5, 7, math.inf]),
                     st.floats(min_value=0.01, max_value=20)),
    share=st.one_of(st.sampled_from([0, 1]), st.floats(min_value=0, max_value=1)),
    # A move is a time step, or (j, ulps): the j-th boundary after the open
    # period's start, moved by `ulps` (-1, 0 or 1) units in the last place.
    steps=st.lists(st.tuples(st.one_of(st.integers(0, 40), st.floats(0, 40),
                                       st.tuples(st.integers(1, 3),
                                                 st.sampled_from([-1, 0, 1]))),
                             st.integers(0, 5)), max_size=60),
    probes=st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=4),
)
def test_closed_form_advance_matches_stepping_each_period(period, share, steps, probes):
    # Also the horizon that run() reads: after every check and charge, the
    # model's check gives the same answer at every time from `now` up to
    # `horizon`.
    budget = period * share if share else 0
    state, model = BudgetState(period=period, budget=budget), SteppingBudget(period, budget)

    def answer_holds_until_horizon(answer, now):
        until = state.horizon
        assert until > now
        # Stepping the model is linear in periods, so probe at most 50 ahead.
        reach = min(until, now + 50 * period if period < math.inf else now + 1e6)
        times = [now + f * (reach - now) for f in probes]
        if reach == until < math.inf:
            times.append(math.nextafter(until, -math.inf))
        for later in times:
            if now <= later < until:
                assert model.peek(later) == answer

    def loads(values):
        return [(value, type(value)) for value in values]

    now = 0
    for move, cost in steps:
        if not isinstance(move, tuple):
            now += move
        elif period < math.inf:
            j, ulps = move
            edge = (model.index + j) * period
            if ulps:
                edge = math.nextafter(edge, ulps * math.inf)
            now = max(now, edge)
        answer = state.check(now)
        assert answer == model.check(now)
        answer_holds_until_horizon(answer, now)
        if model.remaining > 0:
            model.charge(cost, now)
            answer = state.charge(cost, now)
            assert answer == model.check(now)
            answer_holds_until_horizon(answer, now)
        assert state.period_index == model.index
        assert loads(state.period_loads()) == loads(model.history + [model.load])
        assert state.remaining == model.remaining
    assert state.overshoot_log == model.overshoots


@settings(deadline=None)
@given(
    period=st.one_of(st.sampled_from([0.1, 1 / 3, 1, 2.5, 7, math.inf]),
                     st.floats(min_value=0.01, max_value=20)),
    share=st.one_of(st.sampled_from([0, 1]), st.floats(min_value=0, max_value=1)),
    steps=st.lists(st.tuples(st.one_of(st.integers(0, 40), st.floats(0, 40),
                                       st.tuples(st.integers(1, 3),
                                                 st.sampled_from([-1, 0, 1]))),
                             st.one_of(st.just(0.0), st.floats(0, 5))), max_size=60),
    probes=st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=4),
)
def test_closed_form_advance_matches_stepping_each_period_with_float_costs(
        period, share, steps, probes):
    # The same replay with float costs, 0.0 among them: a period charged
    # only 0.0 keeps that float load, unlike an uncharged period's int 0.
    test_closed_form_advance_matches_stepping_each_period.hypothesis.inner_test(
        period, share, steps, probes)


def charged(state, charges):
    """`state` after `charges`, (time step, cost) pairs, each made only
    where a check at its time would pass, as run() makes them."""
    now = state._last_now
    for step, cost in charges:
        now += step
        if copy.deepcopy(state).check(now):
            state.charge(cost, now)
    return state


def single_charges(state, cost, now, lap, n):
    """How many of `n` charge() calls at now, now + lap, ... `state` takes
    before the first one that would spend its budget or raise, and the
    state after them."""
    made = 0
    while made < n:
        trial = copy.deepcopy(state)
        try:
            if not trial.charge(cost, now + made * lap):
                break
        except BudgetContractError:
            break
        state, made = trial, made + 1
    return made, state


@settings(deadline=None)
@given(period=st.integers(1, 30), data=st.data(),
       before=st.lists(st.tuples(st.integers(0, 25), st.integers(1, 12)), max_size=6),
       after=st.lists(st.tuples(st.integers(0, 25), st.integers(1, 12)), max_size=3),
       wait=st.integers(0, 40), cost=st.integers(1, 6), lap=st.integers(1, 15),
       n=st.integers(0, 50))
def test_charge_series_matches_single_charges(period, data, before, after, wait, cost, lap,
                                              n):
    # The server is first put where a run may leave it: some charges, one
    # that spends the budget, one past that charge's horizon, and some more.
    # The series then starts `wait` after the last charge, so it may start
    # in the spent period, a later one, or the open one with budget left.
    budget = data.draw(st.integers(1, period))
    state = charged(BudgetState(period, budget), before)
    state = charged(state, [(0, budget)])
    state = charged(state, [(state.horizon - state._last_now, 1)] + after)
    now = state._last_now + wait
    made, expected = single_charges(copy.deepcopy(state), cost, now, lap, n)
    assert state.charge_series(cost, now, lap, n) == made
    # Every field: the period index, the closed periods' records and the
    # open one's load, remaining, horizon, overshoots and last time.
    assert vars(state) == vars(expected)


@pytest.mark.parametrize("period, budget, spent, cost, now, lap", [
    (10.0, 3, 1, 1, 6, 1), (10, 3.0, 1, 1, 6, 1), (10, 3, 0.5, 1, 6, 1),
    (10, 3, 1, 1.0, 6, 1), (10, 3, 1, 1, 6.0, 1), (10, 3, 1, 1, 6, 1.0),
    (math.inf, math.inf, 1, 1, 6, 1), (2.5, 1, 0, 1, 6, 1),
    (10, 3, 1, 0, 6, 1), (10, 3, 1, 1, 6, 0), (10, 3, 1, 1, 4, 1)])
def test_charge_series_makes_no_charge_off_the_ints(period, budget, spent, cost, now, lap):
    # A float among the numbers (the remaining budget after a charge of
    # `spent` at 5 included), a cost or lap of 0, or a time before that
    # charge's: the caller charges one call at a time, and charge()
    # decides, or raises.
    state = charged(BudgetState(period, budget), [(5, spent)])
    before = copy.deepcopy(vars(state))
    assert state.charge_series(cost, now, lap, 5) == 0
    assert vars(state) == before


def charge_cycles(state, start, offsets, cost, length, count):
    """Snapshots of `state` at start, start + length, ..., start + count *
    length, with `count` cycles of charges between them: charges of `cost`
    at the `offsets` from each cycle's start, each made only where a check
    at its time would pass, as run() makes them."""
    marks = [state.snapshot(start)]
    for c in range(count):
        for offset in offsets:
            now = start + c * length + offset
            if copy.deepcopy(state).check(now):
                state.charge(cost, now)
        marks.append(state.snapshot(start + (c + 1) * length))
    return marks


@settings(deadline=None)
@given(period=st.integers(1, 12), data=st.data(),
       before=st.lists(st.tuples(st.integers(0, 25), st.integers(1, 12)), max_size=4),
       wait=st.integers(0, 40), periods=st.integers(1, 4), n=st.integers(0, 6))
def test_repeat_matches_single_charges(period, data, before, wait, periods, n):
    # Cycles of `periods` periods, each charged at the same offsets: a cost
    # over B overshoots, a period without an offset stays uncharged between
    # records, and the first cycle starts `wait` after the charges before
    # it, often once the open period has ended.  Where the server's phase
    # at the start of cycle j is its phase at the start of cycle i, n
    # repeats of the cycles from i to j leave it as n * (j - i) more cycles
    # of single charges do.
    budget = data.draw(st.integers(1, period))
    cost = data.draw(st.integers(1, 2 * budget))
    length = periods * period
    offsets = sorted(data.draw(st.sets(st.integers(0, length - 1), min_size=1, max_size=4)))
    first = charged(BudgetState(period, budget), before)
    start = first._last_now + wait
    marks = charge_cycles(copy.deepcopy(first), start, offsets, cost, length, 5)
    pairs = [(i, j) for j in range(len(marks)) for i in range(j) if marks[i][0] == marks[j][0]]
    if not pairs:
        return  # no cycle: the cycles charge nothing
    i, j = pairs[0]
    state = copy.deepcopy(first)
    charge_cycles(state, start, offsets, cost, length, j)
    expected = copy.deepcopy(first)
    charge_cycles(expected, start, offsets, cost, length, j + n * (j - i))
    assert state.repeat(marks[i][1], n) == n
    # Every field: the period index, the closed periods' records and the
    # open one's load, remaining, horizon, overshoots and last time.
    assert vars(state) == vars(expected)


@pytest.mark.parametrize("period, budget, cost", [
    (10.0, 3, 1), (10, 3.0, 1), (10, 3, 1.0), (math.inf, 3, 1), (10, 3, 0.5)])
def test_repeat_makes_nothing_off_the_ints(period, budget, cost):
    # A float among the period, budget and costs, or T = inf, under which no
    # period closes: the caller runs the cycle one call at a time.  The
    # cost 0.5 leaves the remaining budget and the loads floats.
    state = BudgetState(period, budget)
    length = 20 if period == math.inf else 2 * period
    marks = charge_cycles(state, 5, [0, 3, 12], cost, length, 2)
    before = copy.deepcopy(vars(state))
    assert state.repeat(marks[1][1], 5) == 0
    assert vars(state) == before


def test_repeat_stops_before_the_period_count_cap():
    # Cycles of two periods of 3 with charges at offsets 0 and 4, the first
    # 34 units before the cap at 2**53 periods: the sixth cycle's second
    # charge would come right at it, where charge() raises, so the server
    # repeats cycles 3 to 5, 3 of the 10 asked for, as single charges would
    # make them.
    period, length = 3, 6
    start = MAX_PERIODS * period - 34
    state = BudgetState(period, 2)
    marks = charge_cycles(state, start, [0, 4], 2, length, 2)
    assert marks[1][0] == marks[2][0]
    expected = copy.deepcopy(state)
    assert state.repeat(marks[1][1], 10) == 3
    charge_cycles(expected, start + 2 * length, [0, 4], 2, length, 3)
    assert vars(state) == vars(expected)
    assert state.period_index == MAX_PERIODS - 2
    with pytest.raises(BudgetContractError, match="2\\*\\*53"):
        charge_cycles(expected, start + 5 * length, [0, 4], 2, length, 1)


def stepping_series(model, cost, now, lap, n):
    """How many of `n` charges of `cost` at now, now + lap, ... the model
    takes, one at a time, stopping before the first that would spend its
    budget: the rule charge_series keeps."""
    made = 0
    while made < n and model.left(now + made * lap) > cost:
        model.charge(cost, now + made * lap)
        made += 1
    return made


def stepping_cycles(model, start, offsets, cost, length, count):
    """charge_cycles() on the model."""
    for c in range(count):
        for offset in offsets:
            now = start + c * length + offset
            if model.peek(now):
                model.charge(cost, now)


@settings(deadline=None)
@given(period=st.integers(1, 40), data=st.data(),
       before=st.lists(st.tuples(st.integers(0, 60), st.integers(1, 12)), max_size=6),
       wait=st.integers(0, 80), cost=st.integers(1, 6), n=st.integers(0, 3000),
       gap=st.integers(0, 40), periods=st.integers(1, 3), times=st.integers(0, 20))
def test_charge_series_and_repeat_match_stepping_each_period(period, data, before, wait,
                                                            cost, n, gap, periods, times):
    # The server's series and cycle replay against the model that closes
    # one period at a time and makes one charge at a time.  The series
    # starts from where earlier charges left the server, and is long
    # enough to take many whole cycles of periods, at a lap coprime with
    # T or not; then cycles of `periods` periods charged at the same
    # offsets start `gap` after it, and where the server's phase at the
    # start of one cycle comes back at the start of a later one, the
    # server repeats the cycles between them `times` times, which the
    # model charges one call at a time.
    budget = data.draw(st.integers(1, period))
    lap = data.draw(st.integers(1, 3 * period))
    state, model = BudgetState(period, budget), SteppingBudget(period, budget)

    def same():
        assert state.period_index == model.index
        assert ([(load, type(load)) for load in state.period_loads()]
                == [(load, type(load)) for load in model.history + [model.load]])
        assert state.remaining == model.remaining
        assert state.overshoot_log == model.overshoots

    now = 0
    for step, charge in before:
        now += step
        assert state.check(now) == model.check(now)
        if model.remaining > 0:
            state.charge(charge, now)
            model.charge(charge, now)
    now += wait
    assert state.charge_series(cost, now, lap, n) == stepping_series(model, cost, now, lap, n)
    same()
    cost = data.draw(st.integers(1, 2 * budget))
    length = periods * period
    offsets = sorted(data.draw(st.sets(st.integers(0, length - 1), min_size=1, max_size=4)))
    start = state._last_now + gap
    marks = charge_cycles(copy.deepcopy(state), start, offsets, cost, length, 5)
    pairs = [(i, j) for j in range(len(marks)) for i in range(j) if marks[i][0] == marks[j][0]]
    if pairs:
        i, j = pairs[0]
        charge_cycles(state, start, offsets, cost, length, j)
        assert state.repeat(marks[i][1], times) == times
        stepping_cycles(model, start, offsets, cost, length, j + times * (j - i))
        same()


def series_copies(monkeypatch):
    """The cycles that charge_series copies, one count per copy made,
    while the test runs; repeat()'s copies are not counted."""
    copies, inside = [], []
    series, helper = BudgetState.charge_series, BudgetState._repeat

    def charging(self, *args):
        inside.append(True)
        try:
            return series(self, *args)
        finally:
            inside.pop()

    def copying(self, *args):
        made = helper(self, *args)
        if inside:
            copies.append(made)
        return made

    monkeypatch.setattr(BudgetState, "charge_series", charging)
    monkeypatch.setattr(BudgetState, "_repeat", copying)
    return copies


def test_charge_series_raises_at_the_period_count_cap_as_single_charges(monkeypatch):
    # T = 7, B = 5, charges of 1 every 3 units: two or three a period, so
    # none spends the budget, and the series is at the same place in its
    # period every 3 periods.  Starting 20 such cycles before 2**53
    # periods, it copies whole cycles up to the cap, steps through the
    # rest, and raises at the charge that comes first at or past the cap,
    # where single charges raise, with the state they leave.
    period, lap = 7, 3
    start = MAX_PERIODS * period - 20 * 3 * period - 5
    state = charged(BudgetState(period, 5), [(start, 1)])
    expected = copy.deepcopy(state)
    copies = series_copies(monkeypatch)
    with pytest.raises(BudgetContractError, match="2\\*\\*53"):
        state.charge_series(1, start + lap, lap, 10**6)
    assert sum(copies) >= 15
    now = start + lap
    with pytest.raises(BudgetContractError, match="2\\*\\*53"):
        while True:
            expected.charge(1, now)
            now += lap
    assert now >= MAX_PERIODS * period > now - lap
    assert vars(state) == vars(expected)
    assert state.period_index == MAX_PERIODS - 1


@pytest.mark.parametrize("lap, cycle", [(12, 3), (97, 97)])
def test_a_series_closes_a_bounded_number_of_periods_one_at_a_time(monkeypatch, lap, cycle):
    # T = 100, B = 10, charges of 1 every `lap` units: 8 or 9 a period at
    # lap 12 and 1 or 2 at lap 97, where 9 fit, so none spends the budget,
    # and the series is at the same place in its period every `cycle` =
    # lap / gcd(lap, T) periods.  Over 10**5 periods and more, it opens at
    # most about two cycles' periods one at a time: up to the first that
    # comes round again, and through the tail after the whole cycles it
    # copies.
    closes = []
    close = BudgetState._close

    def counting(self, now):
        closes.append(now)
        close(self, now)

    monkeypatch.setattr(BudgetState, "_close", counting)
    state = BudgetState(100, 10)
    n = 2 * 10**7 // lap
    assert state.charge_series(1, 0, lap, n) == n
    assert state.period_index == (n - 1) * lap // 100 >= 10**5
    assert state.remaining + state.t_ins_this_period == 10
    assert len(closes) <= 2 * cycle + 2


def test_one_huge_op_closes_twenty_million_periods_in_one_check():
    # The halt's check comes at t = 2000001 (one analysis call, then the op),
    # 20,000,010 periods of 0.1 in; stepping over them one at a time took
    # seconds and kept a history entry for each.
    program = parse_program("image m 0\n    op 2000000\n    halt\n")
    config = RunConfig(program=program, granularity="all", period=0.1, budget=0.1)
    budget = config.make_budget()
    start = time.perf_counter()
    out = run(config, LogStore("none"), budget)
    assert time.perf_counter() - start < 1.0
    assert out.virtual_time == 2_000_003
    assert budget.period_index == 20_000_010
    assert budget.period_index * 0.1 <= 2_000_001 < (budget.period_index + 1) * 0.1
    assert out.overshoots == (0.9, 0.9)


def test_period_count_past_float_range_is_contract_error():
    # now / T overflows to inf: no period index exists.
    with pytest.raises(BudgetContractError, match="2\\*\\*53"):
        BudgetState(period=1e-300, budget=0).check(1e10)
    # A finite index of ~1e306: (k + 1) * T stops changing as k grows.
    with wall_budget(1.0), pytest.raises(BudgetContractError, match="2\\*\\*53"):
        BudgetState(period=1e-300, budget=0).check(1e6)


def test_period_count_limit_is_exact_at_2_to_the_53():
    state = BudgetState(period=1, budget=1)
    with wall_budget(1.0):
        assert state.check(MAX_PERIODS - 1) == 1
        assert state.period_index == MAX_PERIODS - 1
        with pytest.raises(BudgetContractError):
            state.check(MAX_PERIODS)


def test_a_floor_guess_rounded_up_is_corrected_down():
    # 3 * 2**53 - 1 rounds up to the float 3 * 2**53, so now // T guesses
    # period 2**53; the boundary test moves it down one, to the period that
    # holds `now`.  (period_loads() would list all 2**53 periods.)
    state = BudgetState(period=3.0, budget=1.0)
    now = 3 * MAX_PERIODS - 1
    assert int(now // state.period) == MAX_PERIODS
    with wall_budget(1.0):
        assert state.check(now) == 1
    assert state.period_index == MAX_PERIODS - 1
    assert state.period_index * 3 <= now < (state.period_index + 1) * 3
