"""Rate-based instrumentation budget: B time units of analysis per period T.

The server answers budget checks (1 while budget remains, 0 once spent),
absorbs analysis-cost charges, and hard-resets the remaining budget to B at
every period boundary k*T with no carry-over.  An analysis call that starts
with budget left always completes; the amount by which it runs past zero is
recorded as an overshoot and attributed to the period in which the call
started.

A check's answer can change only at a charge that spends the budget or at
the next period boundary; stable_until() gives the time up to which a
caller may reuse it.
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
    period_index: int = 0
    t_ins_this_period: float = 0
    overshoot_log: list[tuple[float, float]] = field(default_factory=list)
    # t_ins of the closed periods, run-length encoded: run i is
    # _run_periods[i] consecutive periods that each had t_ins _run_loads[i]
    _run_loads: list[float] = field(default_factory=list, repr=False)
    _run_periods: list[int] = field(default_factory=list, repr=False)
    _last_now: float = field(default=0, repr=False)
    # (period_index + 1) * T: the time at which the open period closes
    _period_end: float = field(init=False, repr=False)

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("period must be > 0")
        if not 0 <= self.budget <= self.period:
            raise ValueError("budget must satisfy 0 <= B <= T")
        self.remaining = self.budget
        self._period_end = (self.period_index + 1) * self.period

    @classmethod
    def unlimited(cls) -> "BudgetState":
        return cls(period=math.inf, budget=math.inf)

    def _advance(self, now: float) -> None:
        if now < self._last_now:
            raise BudgetContractError(f"clock moved backwards: {now} < {self._last_now}")
        self._last_now = now
        if now < self._period_end:
            return
        first = self.period_index + 1
        # The open period becomes the first k >= `first` with now < (k+1)*T.
        # Floor division guesses k; the boundary test corrects the guess, so
        # a float T crosses boundaries exactly as stepping one period at a
        # time would.  Every period closed after the first one is empty.
        # Past 2**53 periods, k + 1 no longer changes as a float, and the
        # correction could not end.
        period = self.period
        if not now < MAX_PERIODS * period:
            raise BudgetContractError(
                f"time {now} is 2**53 or more periods of {period} in; "
                "period counts that large are not exact in floating point")
        k = max(first, int(now // period))
        while now >= (k + 1) * period:
            k += 1
        while k > first and now < k * period:
            k -= 1
        self._close(self.t_ins_this_period, 1)
        if k > first:
            self._close(0, k - first)
        self.period_index = k
        self._period_end = (k + 1) * period
        self.remaining = self.budget
        self.t_ins_this_period = 0

    def _close(self, load: float, periods: int) -> None:
        if not periods:
            return
        if self._run_loads and self._run_loads[-1] == load:
            self._run_periods[-1] += periods
        else:
            self._run_loads.append(load)
            self._run_periods.append(periods)

    @property
    def period_history(self) -> list[float]:
        """t_ins of every closed period, in order."""
        return [load for load, periods in zip(self._run_loads, self._run_periods)
                for _ in range(periods)]

    def check(self, now: float) -> int:
        """Advance past any period boundaries <= now, then report 1 iff budget remains."""
        self._advance(now)
        return 1 if self.remaining > 0 else 0

    def stable_until(self) -> float:
        """The time before which check() keeps giving its last answer,
        unless a charge spends the budget first.

        The answer changes only at a charge that spends the budget or at the
        next period boundary.  While budget remains, a boundary refills it
        to B > 0, so the answer holds until MAX_PERIODS * T; once it is
        spent (or B = 0) it holds until the next boundary, the time at which
        _advance closes the open period.  The cap at MAX_PERIODS * T makes a
        caller that reuses the answer still check, and so raise
        BudgetContractError, at the first time past the period-count limit.
        """
        cap = MAX_PERIODS * self.period
        if self.remaining > 0:
            return cap
        return min(self._period_end, cap)

    def charge(self, cost: float, now: float) -> int:
        """Consume budget for an analysis call that started at `now`.

        Must follow a check at the same `now` that returned 1.  The call is
        atomic: remaining may transiently go negative, in which case the
        deficit is logged as an overshoot and remaining clamps to 0.
        Returns what check(now) would answer after the charge: 0 once the
        call has spent the budget, which moves stable_until().
        """
        if cost < 0:
            raise ValueError("cost must be >= 0")
        if self._last_now <= now < self._period_end:
            self._last_now = now  # no boundary since the last check: _advance's fast path
        else:
            self._advance(now)
        if self.remaining <= 0:
            raise BudgetContractError("charge without a passing budget check")
        self.remaining -= cost
        self.t_ins_this_period += cost
        if self.remaining < 0:
            self.overshoot_log.append((now, -self.remaining))
            self.remaining = 0
        return 1 if self.remaining > 0 else 0

    def period_loads(self) -> list[float]:
        """t_ins of every period so far, the still-open one included."""
        return self.period_history + [self.t_ins_this_period]

    def overshoots(self) -> list[float]:
        return [magnitude for _, magnitude in self.overshoot_log]


# Version identifiers shared by the executor and the budget protocol: a budget
# check's result doubles as the trace version it selects.
V_BASE = 0
V_INSTRUMENT = 1
