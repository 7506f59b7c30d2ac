"""Rate-based instrumentation budget: B time units of analysis per period T.

The server answers budget checks (1 while budget remains, 0 once spent),
absorbs analysis-cost charges, and hard-resets the remaining budget to B at
every period boundary k*T with no carry-over.  An analysis call that starts
with budget left always completes; the amount by which it runs past zero is
recorded as an overshoot and attributed to the period in which the call
started.

A check's answer can change only at a charge that spends the budget or at
the next period boundary after one: with B > 0 the boundary refills the
budget, and with B = 0 the answer is 0 throughout.  The server publishes
both times.  `horizon` is the time before which a check keeps giving the
current answer; only a charge that spends the budget moves it, to the end
of the open period.  `refill` is a constant, the time until which the
answer is 1 wherever no spending charge holds it at 0: MAX_PERIODS * T
when B > 0, and -inf when B = 0.  So a caller asks the server only where
neither tells it the answer, and a run with B > 0 asks it once, after its
last point, however many periods it spans.  A check or charge whose time
is past the open period closes every period up to it in one step
(`_close`), which both share, so a charge that no check came before
closes the periods it skipped as checking at each of them would.
The closed periods are kept as one record per charged period; every other
period's load is the int 0.

`charge_series(cost, now, lap, n)` makes up to n charges of one cost at
evenly spaced times, as that many charge() calls would: it closes the
periods they reach and stops before the first charge that would spend the
budget.  So a series never overshoots, and moves the horizon only by
closing periods.  Each period it opens starts full, so the series is at the
same place in its period again after at most lap / gcd(lap, T) periods; it
steps through the periods up to there, one step each, copies the whole
cycles of periods that its charges hold as repeat() does, and steps through
the rest.  It acts only on ints (cost, times, budget, period and the
remaining budget), where its products equal the sums they replace; with a
float among them it makes no charge, and the caller charges one call at a
time.

`snapshot(t)` gives the server's phase at time t, its state relative to t
and the period grid, and where its records stand.  Where a later phase
equals an earlier one whole periods later, the calls between them may be
made again in the same pattern, and `repeat(since, n)` makes them n more
times in one step: it copies the closed-period records and overshoots made
since the earlier snapshot, shifted by whole periods, and moves the open
period on.  It too acts only on ints, and stops short of 2**53 periods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


# Periods a run may span: (k + 1) * T stays exact for every k below it.
MAX_PERIODS = 2**53


class BudgetContractError(RuntimeError):
    """The executor charged without a passing budget check, time ran
    backwards, or time ran past MAX_PERIODS periods."""


@dataclass
class BudgetState:
    period: float          # T, virtual time units; may be math.inf
    budget: float          # B per period, 0 <= B <= T; may be math.inf
    remaining: float = field(init=False)
    period_index: int = field(default=0, init=False)
    t_ins_this_period: float = field(default=0, init=False)
    overshoot_log: list[tuple[float, float]] = field(default_factory=list, init=False)
    # The time before which check() keeps answering as it would now:
    # MAX_PERIODS * T, unless a charge has spent the budget, which sets it
    # to the end of the open period.  The open period ends at (k + 1) * T
    # with k < MAX_PERIODS, never past the cap.  The cap makes a caller
    # that reuses the answer still check, and so raise BudgetContractError,
    # at the first time past the period-count limit.
    horizon: float = field(init=False)
    # The time until which check() answers 1 wherever no charge has spent
    # the budget in the open period: MAX_PERIODS * T when B > 0, since every
    # boundary refills the budget to B, and -inf when B = 0.  A caller may
    # take 1 before it, and past the horizon of a spending charge, without a
    # check; the next charge or check closes the periods it skipped as
    # checking at each of them would.
    refill: float = field(init=False)
    # The closed periods, one record per charged period (one whose load is
    # not the int 0): the number of uncharged periods between it and the
    # record before it in _gaps, and its load in _loads.  Every other closed
    # period's load is the int 0, so a run of uncharged periods takes no
    # room, however long.  _recorded is the index of the first period after
    # the last record.
    _gaps: list[int] = field(default_factory=list, init=False, repr=False)
    _loads: list[float] = field(default_factory=list, init=False, repr=False)
    _recorded: int = field(default=0, init=False, repr=False)
    _last_now: float = field(default=0, init=False, repr=False)
    # (period_index + 1) * T: the time at which the open period closes
    _period_end: float = field(init=False, repr=False)
    _cap: float = field(init=False, repr=False)  # MAX_PERIODS * T

    def __post_init__(self):
        if not self.period > 0:  # nan included
            raise ValueError("period must be > 0")
        if not 0 <= self.budget <= self.period:
            raise ValueError("budget must satisfy 0 <= B <= T")
        self.remaining = self.budget
        self._period_end = self.period
        self._cap = MAX_PERIODS * self.period
        self.horizon = self._cap
        self.refill = self._cap if self.budget > 0 else -math.inf

    @classmethod
    def unlimited(cls) -> "BudgetState":
        return cls(period=math.inf, budget=math.inf)

    def check(self, now: float) -> int:
        """Advance past any period boundaries <= now, then report 1 iff budget
        remains; `horizon` then holds the time until which that answer holds."""
        if now < self._last_now:
            raise BudgetContractError(f"clock moved backwards: {now} < {self._last_now}")
        self._last_now = now
        if not now < self._period_end:
            self._close(now)
        return 1 if self.remaining > 0 else 0

    def _close(self, now: float) -> None:
        """Close the open period and every later one that ends at or before
        `now`, which is at or past the open period's end, and open the
        period that holds `now` with the budget refilled."""
        # The open period becomes the first k >= `first` with now < (k+1)*T.
        # Floor division guesses k and the boundary tests correct the guess,
        # so a float T crosses boundaries exactly as stepping one period at a
        # time would; k * T is monotonic in k, so both ways find the same k.
        # Past 2**53 periods, k + 1 no longer changes as a float, and the
        # correction could not end.
        period, cap = self.period, self._cap
        if not now < cap:
            raise BudgetContractError(
                f"time {now} is 2**53 or more periods of {period} in; "
                "period counts that large are not exact in floating point")
        index = self.period_index
        first = index + 1
        k = int(now // period)
        if k < first:
            k = first
        end = (k + 1) * period
        while now >= end:
            k += 1
            end = (k + 1) * period
        while k > first and now < k * period:
            k -= 1
            end = (k + 1) * period
        load = self.t_ins_this_period
        if load or type(load) is not int:
            self._gaps.append(index - self._recorded)
            self._loads.append(load)
            self._recorded = first
        self.period_index = k
        self._period_end = end
        self.t_ins_this_period = 0
        self.remaining = self.budget
        self.horizon = cap

    def charge(self, cost: float, now: float) -> int:
        """Consume budget for an analysis call that started at `now`.

        Must come where check(now) would answer 1: after a check at the
        same `now` that returned 1, or before `refill` and not before the
        horizon of a charge that spent the budget; it first closes the
        periods up to `now`, as that check would.  The call is
        atomic: remaining may transiently go negative, in which case the
        deficit is logged as an overshoot and remaining clamps to 0.
        Returns what check(now) would answer after the charge: 0 once the
        call has spent the budget, in which case `horizon` moves to the end
        of the open period.
        """
        if cost < 0:
            raise ValueError("cost must be >= 0")
        if now < self._last_now:
            raise BudgetContractError(f"clock moved backwards: {now} < {self._last_now}")
        self._last_now = now
        if not now < self._period_end:
            self._close(now)
        remaining = self.remaining
        if remaining <= 0:
            raise BudgetContractError("charge without a passing budget check")
        remaining -= cost
        self.t_ins_this_period += cost
        if remaining > 0:
            self.remaining = remaining
            return 1
        if remaining < 0:
            self.overshoot_log.append((now, -remaining))
            remaining = 0
        self.remaining = remaining
        self.horizon = self._period_end
        return 0

    def charge_series(self, cost: int, now: int, lap: int, n: int) -> int:
        """Make up to `n` charges of `cost`, at `now`, `now + lap`, ..., as
        that many charge() calls would, stopping before the first one that
        would spend the budget; return how many it made.

        It steps once per period it opens, not per charge: it closes the
        periods it reaches as charge() would, and in each takes as many
        charges as fall before the period's end and leave budget.  A period
        that it opens starts full and unspent, so what the series does
        there depends only on the time left to the period's end, which
        comes round again after at most lap / gcd(lap, T) periods; from
        there it copies the whole cycles of periods that the charges left
        allow in one step, and steps through the rest.  A series that stops
        before a spending charge never overshoots and moves `horizon` only
        by closing periods; one that reaches 2**53 periods raises there, as
        charge() would.  It makes none unless the cost, times, budget,
        period and remaining budget are ints, so the arithmetic is exact,
        cost and lap are > 0 and `now` is not before the last time the
        server saw: charge() takes, or refuses, such a call alone."""
        budget = self.budget
        if not (type(cost) is type(now) is type(lap) is type(budget) is type(self.period)
                is type(self.remaining) is int and cost > 0 and lap > 0
                and now >= self._last_now):
            return 0
        made = 0
        # The time left to the period's end at each period the series opened
        # -> the charges made and where the records stood after that period's.
        seen = {}
        while made < n:
            # A charge past the open period finds the budget refilled.
            opens = not now < self._period_end
            remaining = budget if opens else self.remaining
            fits = (remaining - 1) // cost  # charges that leave budget
            if fits <= 0:
                break
            if opens:
                self._last_now = now  # where charge() would raise
                self._close(now)
            left = self._period_end - now
            take = min(n - made, fits, (left - 1) // lap + 1)
            made += take
            self.remaining = remaining - take * cost
            self.t_ins_this_period += take * cost
            self._last_now = now + (take - 1) * lap
            now = self._last_now + lap
            if opens and seen is not None:
                if left not in seen:
                    seen[left] = made, self._since()
                else:
                    # Every cycle of periods since takes the same charges.
                    # Copy the whole ones that the charges left hold, from
                    # the end of this period's charges, so that a charge left
                    # over opens the next period itself, and raises there
                    # if that is at 2**53 periods.
                    then, since = seen[left]
                    made += self._repeat(since, (n - made) // (made - then)) * (made - then)
                    now = self._last_now + lap
                    seen = None
        return made

    def snapshot(self, t: float) -> tuple:
        """(phase, since) at time `t`.  The phase is the state relative to
        `t` and the period grid: where two snapshots' phases are equal and
        their times a whole number of periods apart, every call made after
        the second at the same offsets from its `t` as after the first gets
        the same answer and makes the same records, shifted by those
        periods.  `since` is where the records stand, for repeat()."""
        end = self._period_end
        return ((self.remaining, self.t_ins_this_period, end - t, self.horizon == end),
                self._since())

    def _since(self) -> tuple:
        """Where the records stand: the open period and the counts of
        records and overshoots."""
        return (self.period_index, len(self._loads), self._recorded, len(self.overshoot_log))

    def repeat(self, since: tuple, n: int) -> int:
        """Make again, up to `n` times, what the calls since the snapshot
        `since` made, each time shifted by the whole periods that have
        passed since it, as the same calls made again at the shifted times
        would; return how many times it did.

        The caller vouches that the server's phase equals the snapshot's and
        that some period has closed since.  It then appends copies of the
        closed-period records and overshoots made since the snapshot and
        moves the open period, its end, the horizon of a spending charge and
        the last time on; the remaining budget and open load stay as they
        are.  It makes none unless the period, budget, remaining budget,
        open load, last time and every record and overshoot copied are ints,
        so the arithmetic is exact, and makes only as many as leave the last
        call's copy before 2**53 periods, where charge() would raise."""
        index, records, _, overshoots = since
        # A float period refuses before the records since are read.
        if not (self.period_index > index and type(self.period) is int
                and all(type(x) is int for x in (
                    self.budget, self.remaining, self.t_ins_this_period, self._last_now,
                    *self._loads[records:],
                    *(x for entry in self.overshoot_log[overshoots:] for x in entry)))):
            return 0
        return self._repeat(since, n)

    def _repeat(self, since: tuple, n: int) -> int:
        """repeat() without its checks, for an int server whose open period
        has moved on since `since`."""
        index, records, recorded, overshoots = since
        periods = self.period_index - index
        shift = periods * self.period
        n = max(0, min(n, (self._cap - 1 - self._last_now) // shift))
        loads, log = self._loads[records:], self.overshoot_log[overshoots:]
        if loads:
            # Each copy's first record counts its gap from the copy before.
            gaps = self._gaps[records:]
            gaps[0] += recorded + periods - self._recorded
            self._gaps += gaps * n
            self._loads += loads * n
            self._recorded += n * periods
        self.overshoot_log += [(time + k * shift, magnitude) for k in range(1, n + 1)
                               for time, magnitude in log]
        if self.horizon == self._period_end:
            self.horizon += n * shift
        self.period_index += n * periods
        self._period_end += n * shift
        self._last_now += n * shift
        return n

    def period_loads(self) -> list[float]:
        """t_ins of every period so far, in order: the closed ones, then the
        still-open one."""
        loads = []
        for gap, load in zip(self._gaps, self._loads):
            loads += [0] * gap
            loads.append(load)
        return loads + [0] * (self.period_index - self._recorded) + [self.t_ins_this_period]


# Version identifiers shared by the executor and the budget protocol: a budget
# check's result doubles as the trace version it selects.
V_BASE = 0
V_INSTRUMENT = 1
