"""Rate-based instrumentation budget: B time units of analysis per period T.

The server answers budget checks (1 while budget remains, 0 once spent),
absorbs analysis-cost charges, and hard-resets the remaining budget to B at
every period boundary k*T with no carry-over.  An analysis call that starts
with budget left always completes; the amount by which it runs past zero is
recorded as an overshoot and attributed to the period in which the call
started.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class BudgetContractError(RuntimeError):
    """The executor charged without a passing budget check, or time ran backwards."""


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

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("period must be > 0")
        if not 0 <= self.budget <= self.period:
            raise ValueError("budget must satisfy 0 <= B <= T")
        self.remaining = self.budget

    @classmethod
    def unlimited(cls) -> "BudgetState":
        return cls(period=math.inf, budget=math.inf)

    def _advance(self, now: float) -> None:
        if now < self._last_now:
            raise BudgetContractError(f"clock moved backwards: {now} < {self._last_now}")
        self._last_now = now
        first = self.period_index + 1
        if now < first * self.period:
            return
        # The open period becomes the first k >= `first` with now < (k+1)*T.
        # Floor division guesses k; the boundary test corrects the guess, so
        # a float T crosses boundaries exactly as stepping one period at a
        # time would.  Every period closed after the first one is empty.
        k = max(first, int(now // self.period))
        while now >= (k + 1) * self.period:
            k += 1
        while k > first and now < k * self.period:
            k -= 1
        self._close(self.t_ins_this_period, 1)
        self._close(0, k - first)
        self.period_index = k
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

    def charge(self, cost: float, now: float) -> None:
        """Consume budget for an analysis call that started at `now`.

        Must follow a check at the same `now` that returned 1.  The call is
        atomic: remaining may transiently go negative, in which case the
        deficit is logged as an overshoot and remaining clamps to 0.
        """
        if cost < 0:
            raise ValueError("cost must be >= 0")
        self._advance(now)
        if self.remaining <= 0:
            raise BudgetContractError("charge without a passing budget check")
        self.remaining -= cost
        self.t_ins_this_period += cost
        if self.remaining < 0:
            self.overshoot_log.append((now, -self.remaining))
            self.remaining = 0

    def period_loads(self) -> list[float]:
        """t_ins of every period so far, the still-open one included."""
        return self.period_history + [self.t_ins_this_period]

    def overshoots(self) -> list[float]:
        return [magnitude for _, magnitude in self.overshoot_log]


# Version identifiers shared by the executor and the budget protocol: a budget
# check's result doubles as the trace version it selects.
V_BASE = 0
V_INSTRUMENT = 1
