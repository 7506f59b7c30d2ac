"""The per-campaign trace memo: shared walks change no result, each
entry's uncut walk is compiled once per campaign, and a cut shape is
compiled at each compile where the cut rule asks for it.

Runs that share a memo reuse the walks that earlier runs compiled, so the
memo must be invisible: every ExecutionOutcome field and the final log equal
those of runs that each start from an empty memo, and of runs that take
every trace from a fresh memo, under tight budgets that make both versions
switch and cut traces.
"""

import gc
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from dime import (ConfigError, LogStore, RunConfig, executor, form_trace, parse_program,
                  run, run_campaign)
from dime.executor import GRANULARITIES, TraceMemo
from dime.redundancy import STRATEGIES

from conftest import P1, marks_of
from test_differential import programs

RUNS = 3


class Unshared(TraceMemo):
    """A memo that remembers nothing: every shape comes from a fresh memo
    with this run's marks, as when each run compiled its own."""

    def shape(self, entry, marks):
        fresh = TraceMemo(RunConfig(program=self.program, max_trace_len=self.max_len,
                                    granularity=self.granularity))
        return fresh.shape(entry, marks)


def run_sequence(config, strategy, memos):
    """RUNS runs against one log of `strategy`, each with the memo `memos`
    hands it; the outcomes and the final log."""
    log = LogStore(strategy)
    outcomes = []
    for k, memo in zip(range(1, RUNS + 1), memos):
        outcomes.append(run(replace(config, seed=config.seed + k), log,
                            config.make_budget(), memo=memo))
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
                       capture_path=True)
    memo = TraceMemo(config)
    shared, shared_log = run_sequence(config, strategy, [memo] * RUNS)
    fresh, fresh_log = run_sequence(config, strategy,
                                    [TraceMemo(config) for _ in range(RUNS)])
    direct, direct_log = run_sequence(config, strategy, [Unshared(config)] * RUNS)
    assert shared == fresh == direct
    assert shared_log == fresh_log == direct_log


@settings(max_examples=200, deadline=None)
@given(texts=programs(), granularity=st.sampled_from(GRANULARITIES),
       max_len=st.one_of(st.integers(1, 16), st.just(math.inf)), data=st.data())
def test_shape_cuts_the_walk_before_its_first_marked_address(texts, granularity,
                                                             max_len, data):
    # The plain rule: walk from the entry as form_trace does, then cut just
    # before the smallest marked address strictly inside the walk, found by
    # a linear scan.  Entries repeat and marked ones are drawn, so the scan
    # must leave out the entry itself and the address at the walk's end; a
    # walk the rule leaves whole is the one the memo compiled for the entry,
    # with nothing else marked.
    program = parse_program(texts[0])
    memo = TraceMemo(RunConfig(program=program, granularity=granularity,
                               max_trace_len=max_len))
    addresses = [addr for img in program.images
                 for addr in range(img.base, img.base + len(img.kinds))]
    marked = data.draw(st.sets(st.sampled_from(addresses)))
    entries = data.draw(st.lists(st.sampled_from(addresses), min_size=1, max_size=8))
    marks = marks_of(program, marked)
    for entry in entries:
        whole = memo.shape(entry, {})
        assert whole == form_trace(memo, entry, max_len)
        walk = whole[2]
        length = next((i for i in range(1, walk) if entry + i in marked), walk)
        shape = memo.shape(entry, marks)
        assert shape == form_trace(memo, entry, length)
        assert (shape is whole) == (length == walk)
        # shape marks its entry, which the run then caches, and nothing else
        marked.add(entry)
        assert marks == marks_of(program, marked)


def recording_compiles(monkeypatch):
    """Record (entry, length) of every form_trace call the executor makes,
    and check each TraceMemo.shape call against the cut rule, read off the
    run's marks by a linear scan: it returns the rule's shape, and it calls
    form_trace for the entry's uncut walk on the memo's first miss only,
    then once more for the rule's cut when that is shorter.  Returns the
    calls and the entry of each shape call, one per compile into a run's
    cache."""
    calls, compiles = [], []

    def recording(memo, entry, max_len):
        shape = form_trace(memo, entry, max_len)
        calls.append((entry, shape[2]))
        return shape

    real_shape = TraceMemo.shape

    def checked_shape(memo, entry, marks):
        image, rel, walk = form_trace(memo, entry, memo.max_len)[:3]
        mark = marks.get(image, b"")
        length = next((i for i in range(1, walk) if mark and mark[rel + i]), walk)
        first = entry not in memo._walks
        before = len(calls)
        shape = real_shape(memo, entry, marks)
        assert shape == form_trace(memo, entry, length)
        assert calls[before:] == [(entry, walk)] * first + [(entry, length)] * (length < walk)
        compiles.append(entry)
        return shape

    monkeypatch.setattr(executor, "form_trace", recording)
    monkeypatch.setattr(TraceMemo, "shape", checked_shape)
    return calls, compiles


def uncut_walks(memo, calls):
    """The calls that compiled an entry's uncut walk."""
    return [(entry, length) for entry, length in calls
            if length == form_trace(memo, entry, memo.max_len)[2]]


def test_switching_runs_cut_traces_and_share_them(p1, monkeypatch):
    # T = 3, B = 1 at `all`: the budget runs out mid-trace, so execution
    # switches versions and later walks stop before entries made on the way.
    calls, compiles = recording_compiles(monkeypatch)
    config = RunConfig(program=p1, granularity="all", period=3, budget=1, seed=4)
    memo = TraceMemo(config)
    outcomes, _ = run_sequence(config, "none", [memo] * RUNS)
    walks = uncut_walks(memo, calls)
    assert len(walks) < len(calls)  # a cut shape
    assert len(walks) == len(set(walks))
    # The memo serves both versions and every run: far more traces were
    # compiled into the runs' caches than form_trace was called.
    permits = sum(len(out.permits) for out in outcomes)
    assert len(calls) < permits < len(compiles)


def test_campaign_compiles_each_uncut_walk_once(tmp_path, monkeypatch):
    program = parse_program(P1)
    calls, compiles = recording_compiles(monkeypatch)
    config = RunConfig(program=program, granularity="all", period=3, budget=1, seed=4,
                       max_trace_len=4, log_strategy="bst",
                       log_path=str(tmp_path / "memo.log"))
    first = run_campaign(config, 4)
    compiled = list(calls)
    walks = uncut_walks(TraceMemo(config), compiled)
    assert walks and len(walks) == len(set(walks))
    # The oracle's full run and the four budgeted runs each compile every
    # trace they enter, so without sharing the calls would be counted per run.
    assert len(compiled) < sum(len(out.permits) for out in first.outcomes) < len(compiles)
    # The memo lives for one campaign: a second one, on the same Program,
    # compiles the same walks and cuts again, in the same order.
    calls.clear()
    second = run_campaign(config, 4)
    assert calls == compiled
    assert second.reports == first.reports


def test_memo_shapes_are_untracked_by_the_collector(p1):
    for granularity in GRANULARITIES:
        memo = TraceMemo(RunConfig(program=p1, granularity=granularity))
        shapes = [memo.shape(entry, {}) for entry in range(1000, 1006)]
        shapes.append(memo.shape(1000, marks_of(p1, {1003})))
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
            run(config, LogStore("none"), config.make_budget(), memo=memo)
