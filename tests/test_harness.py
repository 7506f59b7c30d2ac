import gc
import json
import math
import os
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from dime import (BranchRecord, ConfigError, GroundTruth, LogEntry, LogStore,
                  MetricsObserver, RunConfig, classify, emit_report, parse_program,
                  run_campaign, run_oracle, serialize_program, single_run)
from dime.cli import main
from dime.harness import FN, FP, TRUE_PERMIT, TRUE_REJECT, report_document
from dime.corpus import loop_corpus, random_corpus
from dime.redundancy import STRATEGIES


def config_for(program, tmp_path=None, **overrides):
    defaults = dict(period=10, budget=3, seed=0, log_strategy="hash")
    defaults.update(overrides)
    if tmp_path is not None and defaults["log_strategy"] != "none":
        defaults.setdefault("log_path", str(tmp_path / "camp.log"))
    return RunConfig(program=program, **defaults)


def gt_over(image, lo, hi):
    gt = GroundTruth()
    gt.add_entry(LogEntry(image, lo, hi - lo))
    return gt


# -- classify -------------------------------------------------------------------

def test_classify_permit_against_disjoint_truth_is_clean():
    gt = gt_over("m", 100, 120)
    assert classify(True, LogEntry("m", 150, 20), gt) == TRUE_PERMIT


def test_classify_permit_overlapping_truth_is_fp():
    gt = gt_over("m", 100, 180)
    assert classify(True, LogEntry("m", 150, 20), gt) == FP


def test_classify_reject_with_unanalyzed_portion_is_fn():
    gt = gt_over("m", 100, 120)
    assert classify(False, LogEntry("m", 100, 80), gt) == FN


def test_classify_reject_fully_analyzed_is_clean():
    gt = gt_over("m", 100, 200)
    assert classify(False, LogEntry("m", 120, 30), gt) == TRUE_REJECT


def spans(images):
    return st.tuples(st.sampled_from(images), st.integers(min_value=0, max_value=200),
                     st.integers(min_value=0, max_value=30))


@settings(max_examples=200)
@given(commits=st.lists(spans("ab"), max_size=40),
       queries=st.lists(spans("abc"), min_size=1, max_size=20))
def test_ground_truth_matches_per_address_set(commits, queries):
    # Reference: the set of every analyzed (image, address).  Lengths of 0
    # and an image never committed are in range too.
    gt = GroundTruth()
    analyzed: set[tuple[str, int]] = set()
    for image, rel, length in commits:
        gt.add_entry(LogEntry(image, rel, length))
        analyzed.update((image, a) for a in range(rel, rel + length))
        for q_image, q_rel, q_length in queries:
            addrs = {(q_image, a) for a in range(q_rel, q_rel + q_length)}
            candidate = LogEntry(q_image, q_rel, q_length)
            assert gt.overlap(candidate) == bool(addrs & analyzed)
            assert gt.contains_all(candidate) == (addrs <= analyzed)


def test_observer_ratios_empty_run_are_zero():
    obs = MetricsObserver(GroundTruth())
    assert obs.fp_ratio() == 0.0
    assert obs.fn_ratio() == 0.0


# -- oracle ----------------------------------------------------------------------

def test_oracle_p1_deterministic(p1_det):
    oracle = run_oracle(RunConfig(program=p1_det))
    assert oracle.native_time == 14
    assert oracle.unique_records == {("jump", 1004, 1000), ("jump", 1002, 1005)}


def test_oracle_vacuous_coverage_flagged():
    program = parse_program("image m 0\n    op 1\n    op 1\n    halt\n")
    result = run_campaign(RunConfig(program=program, log_strategy="none"), 1)
    assert result.reports[0].coverage == 1.0
    assert result.reports[0].coverage_vacuous is True


def test_unlimited_budget_run_matches_oracle_unique_set(p1, tmp_path):
    config = config_for(p1, tmp_path, period=math.inf, budget=math.inf, seed=3)
    result = run_campaign(config, 1)
    assert set(result.outcomes[0].tool_output) == result.oracle.unique_records | \
        set(result.outcomes[0].tool_output)
    assert frozenset(result.outcomes[0].tool_output) == result.oracle.unique_records


# -- campaigns --------------------------------------------------------------------

def test_campaign_p1_det_hash_reaches_full_coverage(p1_det, tmp_path):
    result = run_campaign(config_for(p1_det, tmp_path), 3)
    assert result.reports[2].coverage == 1.0
    assert all(r.fn_ratio == 0.0 for r in result.reports)


def test_campaign_none_mode_slowdown_is_full_over_native(p1_det):
    result = run_campaign(RunConfig(program=p1_det, log_strategy="none"), 1)
    r = result.reports[0]
    assert r.coverage == 1.0
    oracle = result.oracle
    assert r.slowdown == oracle.full_instrumentation_time / oracle.native_time


def test_campaign_coverage_monotone_and_sound_on_deterministic_corpus(tmp_path):
    for i, program in enumerate(loop_corpus(seed=5, count=4)):
        for strategy in ("hash", "bst", "merger"):
            config = RunConfig(program=program, period=10, budget=1, seed=i,
                               log_strategy=strategy,
                               log_path=str(tmp_path / f"{strategy}{i}.log"))
            result = run_campaign(config, 4)
            curve = [r.coverage for r in result.reports]
            assert curve == sorted(curve)
            assert all(c <= 1.0 for c in curve)
            for outcome in result.outcomes:
                assert set(outcome.tool_output) <= result.oracle.unique_records


def test_campaign_merger_never_false_negative(tmp_path):
    for i, program in enumerate(random_corpus(seed=9, count=5, max_instructions=80)):
        config = RunConfig(program=program, period=9, budget=2, seed=50 + i,
                           log_strategy="merger",
                           log_path=str(tmp_path / f"m{i}.log"))
        result = run_campaign(config, 3)
        assert all(r.fn_ratio == 0.0 for r in result.reports)


def test_campaign_run1_overwrites_stale_log(p1_det, tmp_path):
    path = tmp_path / "camp.log"
    path.write_text("# dime-log v1 strategy=hash\nmain,999\n")
    result = run_campaign(config_for(p1_det, tmp_path), 1)
    assert "999" not in path.read_text()
    assert result.reports[0].coverage > 0


def test_campaign_rejects_bad_strategy(p1_det):
    with pytest.raises(ConfigError):
        run_campaign(RunConfig(program=p1_det, log_strategy="fancy",
                               log_path="x.log"), 1)
    with pytest.raises(ConfigError, match="log file path"):
        run_campaign(RunConfig(program=p1_det, log_strategy="hash"), 1)
    with pytest.raises(ConfigError, match="at least one run"):
        run_campaign(RunConfig(program=p1_det, log_strategy="none"), 0)


# -- single runs -------------------------------------------------------------------

def test_single_run_resume_requires_existing_log(p1_det, tmp_path):
    config = config_for(p1_det, tmp_path)
    with pytest.raises(ConfigError, match="resume"):
        single_run(config, resume=True)
    report, outcome, log = single_run(config, resume=False)
    assert (tmp_path / "camp.log").exists()
    report2, _, _ = single_run(config, resume=True)
    assert report2.run_index == report.run_index


def test_single_run_detects_strategy_mismatch(p1_det, tmp_path):
    path = tmp_path / "camp.log"
    path.write_text("# dime-log v1 strategy=bst\n")
    config = config_for(p1_det, tmp_path, log_strategy="hash")
    with pytest.raises(ConfigError, match="strategy"):
        single_run(config)


# A single run is a one-run campaign that starts from the log file.  The
# programs are tests/test_golden.py's and three loop nests.
ONE_DRIVER_PROGRAMS = [
    (random_corpus(seed=3, count=6, max_instructions=160)[2],
     dict(period=12, budget=3, max_trace_len=8, seed=7)),
    *((program, dict(period=10, budget=2, seed=i))
      for i, program in enumerate(loop_corpus(seed=11, count=3))),
]


def one_driver_configs(tmp_path, strategy, granularity):
    for i, (program, settings) in enumerate(ONE_DRIVER_PROGRAMS):
        log_path = None if strategy == "none" else str(tmp_path / f"{i}.log")
        yield RunConfig(program=program, granularity=granularity,
                        log_strategy=strategy, log_path=log_path, **settings)


def log_bytes(config):
    if config.log_path is None:
        return None
    with open(config.log_path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("granularity", ["ctrl", "all"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_single_run_on_missing_log_is_one_run_campaign(strategy, granularity, tmp_path):
    for config in one_driver_configs(tmp_path, strategy, granularity):
        campaign = run_campaign(config, 1)
        campaign_log = log_bytes(config)
        if config.log_path is not None:
            os.unlink(config.log_path)
        report, outcome, log = single_run(config)
        assert report == campaign.reports[0]
        assert outcome == campaign.outcomes[0]
        assert log_bytes(config) == campaign_log
        assert log.strategy == strategy


@pytest.mark.parametrize("granularity", ["ctrl", "all"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_resumed_single_run_is_next_campaign_run(strategy, granularity, tmp_path):
    for config in one_driver_configs(tmp_path, strategy, granularity):
        campaign = run_campaign(config, 2)
        campaign_log = log_bytes(config)
        run_campaign(config, 1)
        _, outcome, _ = single_run(replace(config, seed=config.seed + 1), resume=True)
        assert outcome == campaign.outcomes[1]
        assert log_bytes(config) == campaign_log


# -- reports ------------------------------------------------------------------------

def test_report_document_shape_and_histogram(p1_det, tmp_path):
    result = run_campaign(config_for(p1_det, tmp_path, analysis_cost=1), 3)
    doc = report_document(result)
    assert doc["format"] == "dime-report v1"
    assert len(doc["runs"]) == 3
    assert doc["campaign"]["log_strategy"] == "hash"
    for r in doc["runs"]:
        # c_a = 1 divides B = 3: remaining hits exactly zero, never negative
        assert r["overshoot_histogram"] == {}


def test_overshoot_histogram_bounded_by_analysis_cost(tmp_path):
    program = loop_corpus(seed=3, count=1)[0]
    config = RunConfig(program=program, period=20, budget=5, analysis_cost=3,
                       granularity="all", seed=2, log_strategy="hash",
                       log_path=str(tmp_path / "o.log"))
    result = run_campaign(config, 2)
    for report in result.reports:
        for magnitude in report.overshoot_histogram:
            assert magnitude <= 3


def test_emit_report_byte_deterministic(p1, tmp_path):
    config = config_for(p1, tmp_path, seed=11)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    emit_report(run_campaign(config, 2), first)
    (tmp_path / "camp.log").unlink()
    emit_report(run_campaign(config, 2), second)
    assert first.read_bytes() == second.read_bytes()
    doc = json.loads(first.read_text())
    assert [r["run_index"] for r in doc["runs"]] == [1, 2]


def test_report_serializes_unbounded_budget(p1_det, tmp_path):
    config = RunConfig(program=p1_det, log_strategy="none")
    doc = report_document(run_campaign(config, 1))
    assert doc["campaign"]["budget"] == "inf"
    assert doc["campaign"]["period"] == "inf"


# -- outcomes and the collector --------------------------------------------------------

def loop_guest(iterations):
    """A loop of `iterations` passes that calls a function on each pass: its
    record, commit and permit counts grow with `iterations`."""
    return parse_program(f"""\
image main 1000
L0: op 1
    call F
    op 2
    br L0 {'T' * (iterations - 1)}N
    halt
F:  op 1
    br F1 TN
    op 1
F1: ret
""")


def tracked_by(make):
    """The objects that make()'s result leaves the collector to track."""
    gc.collect()
    before = len(gc.get_objects())
    result = make()
    gc.collect()
    gc.collect()
    return result, len(gc.get_objects()) - before


@pytest.mark.parametrize("granularity", ["ctrl", "all"])
def test_campaign_result_leaves_the_collector_a_fixed_number_of_objects(granularity,
                                                                        tmp_path):
    # A run keeps its records, commits and permit queries as plain tuples,
    # which a collection stops tracking, so a held result costs the same
    # full scans whatever the guest's length.
    def campaign(iterations):
        config = config_for(loop_guest(iterations), tmp_path, granularity=granularity,
                            period=20, budget=6)
        return tracked_by(lambda: run_campaign(config, 3))

    campaign(50)
    small, small_added = campaign(300)
    big, big_added = campaign(1200)
    assert sum(len(o.committed_entries) for o in big.outcomes) > \
        3 * sum(len(o.committed_entries) for o in small.outcomes)
    assert len(big.oracle.record_stream) > 3 * len(small.oracle.record_stream)
    assert big_added <= small_added + 4
    assert big_added < 100


@pytest.fixture
def named_tuples_built(monkeypatch):
    """Counts of the LogEntry and BranchRecord tuples built, by class name,
    through the constructor or `_make`, while the test runs."""
    built = Counter()
    for cls in (LogEntry, BranchRecord):
        new, make = cls.__new__, cls.__dict__["_make"].__func__

        def counting_new(klass, *args, _new=new, **kwargs):
            built[klass.__name__] += 1
            return _new(klass, *args, **kwargs)

        def counting_make(klass, iterable, _make=make):
            built[klass.__name__] += 1
            return _make(klass, iterable)

        monkeypatch.setattr(cls, "__new__", staticmethod(counting_new))
        monkeypatch.setattr(cls, "_make", classmethod(counting_make))
    return built


@pytest.mark.parametrize("granularity", ["ctrl", "all"])
def test_campaign_builds_no_named_tuples_until_a_view_is_read(granularity, tmp_path,
                                                              named_tuples_built, capsys):
    config = config_for(loop_guest(40), tmp_path, granularity=granularity,
                        period=20, budget=6)
    result = run_campaign(config, 3)
    emit_report(result, tmp_path / "report.json")
    program = tmp_path / "loop.dime"
    program.write_text(serialize_program(config.program))
    for tool in ("branch", "cct"):
        assert main(["campaign", "--program", str(program), "--granularity", granularity,
                     "--tool", tool, "--period", "20", "--budget", "6",
                     "--log-strategy", "bst", "--log-file", str(tmp_path / "cli.log"),
                     "--runs", "2", "--tool-out", str(tmp_path / f"{tool}.out")]) == 0
    capsys.readouterr()
    assert named_tuples_built == {}

    outcome = result.outcomes[0]
    assert outcome.committed_entries and outcome.tool_output and outcome.permits
    assert isinstance(outcome.committed_entries[0], LogEntry)
    assert isinstance(outcome.permits[0][0], LogEntry)
    assert isinstance(outcome.tool_output[0], BranchRecord)
    assert named_tuples_built == {
        "LogEntry": len(outcome.committed_entries) + len(outcome.permits),
        "BranchRecord": len(outcome.tool_output)}
