"""Runs keep plain tuples; the named-tuple views and the protocols that take
either form must give the same values and answers."""

import random
from dataclasses import fields

import pytest

from dime import (BranchRecord, GroundTruth, LogEntry, LogStore, RunConfig, build_cct,
                  classify, make_tool, parse_program, run, run_campaign, write_records)
from dime.corpus import loop_corpus, random_corpus

from conftest import CALLS


def campaign_outcomes(tmp_path):
    """Outcomes of short campaigns over a few corpus guests at both
    granularities and with both tools."""
    programs = ([parse_program(CALLS)] + random_corpus(seed=4, count=3)
                + loop_corpus(seed=4, count=2))
    for i, program in enumerate(programs):
        for granularity in ("ctrl", "all"):
            for tool in ("branch", "cct"):
                config = RunConfig(program=program, granularity=granularity, tool=tool,
                                   period=12, budget=4, seed=i, log_strategy="merger",
                                   log_path=str(tmp_path / "views.log"))
                result = run_campaign(config, 2)
                yield from result.outcomes


def test_outcome_views_are_the_raw_fields_as_named_tuples(tmp_path):
    seen = 0
    for outcome in campaign_outcomes(tmp_path):
        assert outcome.tool_output == tuple(map(BranchRecord._make, outcome.records))
        assert outcome.committed_entries == tuple(map(LogEntry._make, outcome.commits))
        assert outcome.permits == tuple((LogEntry._make(c), ok) for c, ok in outcome.queries)
        assert all(type(r) is BranchRecord for r in outcome.tool_output)
        assert all(type(e) is LogEntry for e in outcome.committed_entries)
        assert all(type(c) is LogEntry and type(ok) is bool for c, ok in outcome.permits)
        assert all(type(r) is tuple for r in outcome.records + outcome.commits)
        assert outcome.tool_output is outcome.tool_output
        assert outcome.committed_entries is outcome.committed_entries
        assert outcome.permits is outcome.permits
        seen += bool(outcome.records and outcome.commits)
    assert seen > 10


def test_outcome_equality_ignores_which_views_were_read(p1):
    config = RunConfig(program=p1, granularity="all", period=10, budget=3)

    def outcome():
        return run(config, LogStore("bst"), config.make_budget(), make_tool("branch"),
                   rng_seed=5)

    read, unread = outcome(), outcome()
    assert read.tool_output and read.committed_entries and read.permits
    assert read == unread and hash(read) == hash(unread)
    assert "tool_output" not in [f.name for f in fields(read)]
    other = run(config, LogStore("bst"), config.make_budget(), make_tool("branch"),
                rng_seed=6)
    assert other.records != read.records and other != read


@pytest.mark.parametrize("name", ["branch", "cct"])
def test_tool_records_view(name):
    tool = make_tool(name)
    stream = [("jump", 1, 2), ("call", 3, 4), ("return", 5, 6), ("jump", 7, 8)]
    for rec in stream[:2]:
        tool.on_branch(*rec)
    first = tool.records
    assert first == list(map(BranchRecord._make, tool.raw_records))
    assert all(type(r) is BranchRecord for r in first)
    assert tool.records is first
    for rec in stream[2:]:
        tool.on_branch(*rec)
    assert tool.records == list(map(BranchRecord._make, tool.raw_records))
    assert all(type(r) is tuple for r in tool.raw_records)
    kept = stream if name == "branch" else stream[1:3]
    assert tool.raw_records == kept
    assert tool.unique_records() == frozenset(map(BranchRecord._make, kept))


def test_tool_output_is_the_same_for_named_and_plain_records(tmp_path):
    for outcome in campaign_outcomes(tmp_path):
        named, plain = outcome.tool_output, outcome.records
        write_records(named, tmp_path / "named")
        write_records(plain, tmp_path / "plain")
        assert (tmp_path / "named").read_bytes() == (tmp_path / "plain").read_bytes()
        assert build_cct(named).dump() == build_cct(plain).dump()


def test_log_and_ground_truth_answer_the_same_for_either_form():
    rng = random.Random(17)
    for strategy in ("hash", "bst", "merger", "none"):
        named, plain = LogStore(strategy), LogStore(strategy)
        named_truth, plain_truth = GroundTruth(), GroundTruth()
        for _ in range(300):
            entry = (rng.choice("ab"), rng.randrange(200), rng.randrange(1, 12))
            if rng.random() < 0.4:
                named.commit(LogEntry(*entry))
                plain.commit(entry)
                named_truth.add_entry(LogEntry(*entry))
                plain_truth.add_entry(entry)
            else:
                assert named.permit(*entry) == plain.permit(*entry)
                assert named_truth.overlap(LogEntry(*entry)) == plain_truth.overlap(entry)
                assert (named_truth.contains_all(LogEntry(*entry))
                        == plain_truth.contains_all(entry))
                for permitted in (True, False):
                    assert (classify(permitted, LogEntry(*entry), named_truth)
                            == classify(permitted, entry, plain_truth))
        assert list(named.entries()) == list(plain.entries())
        assert named == plain
