"""Rate-based instrumentation budget: B time units of analysis per period T.

The server answers budget checks (1 while budget remains, 0 once spent),
absorbs analysis-cost charges, and hard-resets the remaining budget to B at
every period boundary k*T with no carry-over.  An analysis call that starts
with budget left always completes; the amount by which it runs past zero is
recorded as an overshoot and attributed to the period in which the call
started.

A check's answer can change only at a charge that spends the budget or at
the next period boundary.  Every check and charge leaves in `horizon` the
time before which a check keeps giving the current answer, so a caller
that reuses the answer reads one attribute and makes no further call.
A check that crosses a boundary closes the periods into a run-length
history in place, so each budget event is one call.
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
    # The time before which check() keeps answering as it would now, unless
    # a charge spends the budget first (which sets a new one):
    # MAX_PERIODS * T while budget remains, since a boundary refills it to
    # B > 0, and the end of the open period once it is spent (or B = 0).
    # The cap at MAX_PERIODS * T makes a caller that reuses the answer still
    # check, and so raise BudgetContractError, at the first time past the
    # period-count limit.  The open period ends at (k + 1) * T with
    # k < MAX_PERIODS, never past the cap.
    horizon: float = field(init=False)
    # t_ins of the closed periods, run-length encoded: run i is
    # _run_periods[i] consecutive periods that each had t_ins _run_loads[i]
    _run_loads: list[float] = field(default_factory=list, repr=False)
    _run_periods: list[int] = field(default_factory=list, repr=False)
    _last_now: float = field(default=0, repr=False)
    # (period_index + 1) * T: the time at which the open period closes
    _period_end: float = field(init=False, repr=False)
    _cap: float = field(init=False, repr=False)  # MAX_PERIODS * T

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("period must be > 0")
        if not 0 <= self.budget <= self.period:
            raise ValueError("budget must satisfy 0 <= B <= T")
        self.remaining = self.budget
        self._period_end = (self.period_index + 1) * self.period
        self._cap = MAX_PERIODS * self.period
        self.horizon = self._cap if self.budget > 0 else self._period_end

    @classmethod
    def unlimited(cls) -> "BudgetState":
        return cls(period=math.inf, budget=math.inf)

    def check(self, now: float) -> int:
        """Advance past any period boundaries <= now, then report 1 iff budget
        remains; `horizon` then holds the time until which that answer holds."""
        if now < self._last_now:
            raise BudgetContractError(f"clock moved backwards: {now} < {self._last_now}")
        self._last_now = now
        if now < self._period_end:
            return 1 if self.remaining > 0 else 0
        # The open period becomes the first k >= `first` with now < (k+1)*T.
        # One multiply settles a crossing of a single boundary.  On the
        # switchstorm workload that is 46 % of crossings; the rest pay the
        # multiply before the search, and its budgeted runs are still faster
        # with the shortcut than without.  Otherwise floor division guesses
        # k and the boundary test corrects the guess, so a float T crosses
        # boundaries exactly as stepping one period at a time would; k * T is
        # monotonic in k, so both ways find the same k.  Past 2**53 periods,
        # k + 1 no longer changes as a float, and the correction could not end.
        period = self.period
        if not now < self._cap:
            raise BudgetContractError(
                f"time {now} is 2**53 or more periods of {period} in; "
                "period counts that large are not exact in floating point")
        first = self.period_index + 1
        end = (first + 1) * period
        if now < end:
            k = first
        else:
            k = max(first, int(now // period))
            while now >= (k + 1) * period:
                k += 1
            while k > first and now < k * period:
                k -= 1
            end = (k + 1) * period
        # Close the open period, then the k - first empty ones after it, into
        # the run-length history.  After the first, the last run's load
        # equals `load`, so the empty periods join it iff load == 0.
        load = self.t_ins_this_period
        loads, runs = self._run_loads, self._run_periods
        if loads and loads[-1] == load:
            runs[-1] += 1
        else:
            loads.append(load)
            runs.append(1)
        if k > first:
            if load == 0:
                runs[-1] += k - first
            else:
                loads.append(0)
                runs.append(k - first)
        self.period_index = k
        self._period_end = end
        self.t_ins_this_period = 0
        self.remaining = budget = self.budget
        if budget > 0:
            self.horizon = self._cap
            return 1
        self.horizon = end
        return 0

    # Charges advance the clock through this alias, so an override of check()
    # or a wrapper around it sees only the checks that callers make.
    _advance = check

    @property
    def period_history(self) -> list[float]:
        """t_ins of every closed period, in order."""
        return [load for load, periods in zip(self._run_loads, self._run_periods)
                for _ in range(periods)]

    def charge(self, cost: float, now: float) -> int:
        """Consume budget for an analysis call that started at `now`.

        Must follow a check at the same `now` that returned 1.  The call is
        atomic: remaining may transiently go negative, in which case the
        deficit is logged as an overshoot and remaining clamps to 0.
        Returns what check(now) would answer after the charge: 0 once the
        call has spent the budget, in which case `horizon` moves to the end
        of the open period.
        """
        if cost < 0:
            raise ValueError("cost must be >= 0")
        if self._last_now <= now < self._period_end:
            self._last_now = now  # no boundary since the last check: check's fast path
        else:
            self._advance(now)
        if self.remaining <= 0:
            raise BudgetContractError("charge without a passing budget check")
        remaining = self.remaining - cost
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

    def period_loads(self) -> list[float]:
        """t_ins of every period so far, the still-open one included."""
        return self.period_history + [self.t_ins_this_period]

    def overshoots(self) -> list[float]:
        return [magnitude for _, magnitude in self.overshoot_log]


# Version identifiers shared by the executor and the budget protocol: a budget
# check's result doubles as the trace version it selects.
V_BASE = 0
V_INSTRUMENT = 1
