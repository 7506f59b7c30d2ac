"""The per-campaign trace memo: shared shapes change no result, and each
trace shape is compiled once per campaign.

Runs that share a memo reuse the shapes that earlier runs compiled, so the
memo must be invisible: every ExecutionOutcome field and the final log equal
those of runs that each start from an empty memo, and of runs that take
every trace from a fresh memo, under tight budgets that make both versions
switch and cut traces.
"""

import gc
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from dime import (ConfigError, LogStore, RunConfig, executor, form_trace, make_tool,
                  parse_program, run, run_campaign)
from dime.executor import GRANULARITIES, TraceMemo
from dime.redundancy import STRATEGIES

from conftest import P1
from test_differential import programs

RUNS = 3


class Unshared(TraceMemo):
    """A memo that remembers nothing: every shape comes from a fresh memo
    with this run's cached entries, as when each run compiled its own."""

    def shape(self, entry, cached_entries):
        fresh = TraceMemo(RunConfig(program=self.program, max_trace_len=self.max_len,
                                    granularity=self.granularity))
        return fresh.shape(entry, cached_entries)


def run_sequence(config, memos):
    """RUNS runs against one log, each with the memo `memos` hands it; the
    outcomes and the final log."""
    log = LogStore(config.log_strategy)
    outcomes = []
    for k, memo in zip(range(1, RUNS + 1), memos):
        outcomes.append(run(replace(config, seed=config.seed + k), log,
                            config.make_budget(), make_tool(config.tool), memo=memo))
        log.finalize()
    return outcomes, log


@settings(max_examples=120, deadline=None)
@given(texts=programs(), seed=st.integers(0, 99),
       granularity=st.sampled_from(GRANULARITIES), max_len=st.integers(1, 16),
       strategy=st.sampled_from(STRATEGIES),
       period=st.sampled_from((2, 3, 5, 2.5, 8)), share=st.sampled_from((0.2, 0.4, 0.6)),
       analysis_cost=st.integers(1, 3), compile_cost=st.integers(0, 2))
def test_shared_memo_changes_no_outcome(texts, seed, granularity, max_len, strategy,
                                        period, share, analysis_cost, compile_cost):
    program = parse_program(texts[0])
    config = RunConfig(program=program, granularity=granularity, period=period,
                       budget=period * share, analysis_cost=analysis_cost,
                       compile_cost=compile_cost, max_trace_len=max_len, seed=seed,
                       log_strategy=strategy, capture_path=True)
    memo = TraceMemo(config)
    shared, shared_log = run_sequence(config, [memo] * RUNS)
    fresh, fresh_log = run_sequence(config, [TraceMemo(config) for _ in range(RUNS)])
    direct, direct_log = run_sequence(config, [Unshared(config)] * RUNS)
    assert shared == fresh == direct
    assert shared_log == fresh_log == direct_log


def recording_form_trace(monkeypatch):
    """Record (entry, length) of every form_trace call the executor makes."""
    calls = []

    def recording(memo, entry, max_len):
        shape = form_trace(memo, entry, max_len)
        calls.append((entry, shape[2]))
        return shape

    monkeypatch.setattr(executor, "form_trace", recording)
    return calls


def test_switching_runs_cut_traces_and_share_them(p1, monkeypatch):
    # T = 3, B = 1 at `all`: the budget runs out mid-trace, so execution
    # switches versions and later walks stop before entries made on the way.
    calls = recording_form_trace(monkeypatch)
    config = RunConfig(program=p1, granularity="all", period=3, budget=1, seed=4,
                       log_strategy="none")
    memo = TraceMemo(config)
    outcomes, _ = run_sequence(config, [memo] * RUNS)
    uncut = {entry: form_trace(memo, entry, 16)[2] for entry, _ in calls}
    assert any(length < uncut[entry] for entry, length in calls)  # a cut shape
    assert len(calls) == len(set(calls))
    # The memo serves both versions and every run: far more traces were
    # compiled into the runs' caches than form_trace was called.
    permits = sum(len(out.permits) for out in outcomes)
    assert len(calls) < permits


def test_campaign_compiles_each_trace_shape_once(tmp_path, monkeypatch):
    program = parse_program(P1)
    calls = recording_form_trace(monkeypatch)
    config = RunConfig(program=program, granularity="all", period=3, budget=1, seed=4,
                       max_trace_len=4, log_strategy="bst",
                       log_path=str(tmp_path / "memo.log"))
    first = run_campaign(config, 4)
    compiled = list(calls)
    assert compiled and len(compiled) == len(set(compiled))
    # The oracle's full run and the four budgeted runs each compile every
    # trace they enter, so without sharing the calls would be counted per run.
    assert len(compiled) < sum(len(out.permits) for out in first.outcomes)
    # The memo lives for one campaign: a second one, on the same Program,
    # compiles the same shapes again, in the same order.
    calls.clear()
    second = run_campaign(config, 4)
    assert calls == compiled
    assert second.reports == first.reports


def test_memo_shapes_are_untracked_by_the_collector(p1):
    for granularity in GRANULARITIES:
        memo = TraceMemo(RunConfig(program=p1, granularity=granularity))
        shapes = [memo.shape(entry, set()) for entry in range(1000, 1006)]
        shapes.append(memo.shape(1000, {1003}))
        # A collection untracks a tuple whose items are untracked when it
        # reaches it, so the three levels (shape, body, item) take at most three.
        for _ in range(3):
            gc.collect()
        assert not any(gc.is_tracked(shape) for shape in shapes)


def test_memo_of_other_settings_is_rejected(p1, p1_det):
    config = RunConfig(program=p1, granularity="ctrl", max_trace_len=8)
    for memo in (TraceMemo(replace(config, program=p1_det)),
                 TraceMemo(replace(config, max_trace_len=16)),
                 TraceMemo(replace(config, granularity="all"))):
        with pytest.raises(ConfigError, match="trace memo"):
            run(config, LogStore("none"), config.make_budget(), make_tool("branch"),
                memo=memo)
