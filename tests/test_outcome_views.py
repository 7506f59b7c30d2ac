"""Runs keep plain tuples: every outcome field holds them, the record and
commit streams as Streams, and the protocols that take an (image, rel_addr,
length) triple give the same answers for a `LogEntry`."""

import random

import pytest

from dime import (BudgetState, LogEntry, LogStore, MetricsObserver, RunConfig, Stream,
                  parse_program, run, run_campaign)
from dime.corpus import loop_corpus, random_corpus

from conftest import CALLS, TRANSFERS


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


def is_triple(value, types):
    return (type(value) is tuple and len(value) == 3
            and all(type(v) is t for v, t in zip(value, types)))


def test_outcome_fields_are_plain_tuples(tmp_path):
    seen = 0
    for outcome in campaign_outcomes(tmp_path):
        for field in (outcome.tool_output, outcome.committed_entries):
            assert type(field) is Stream
        for field in (outcome.permits, outcome.overshoots):
            assert type(field) is tuple
        assert outcome.distinct_records == frozenset(outcome.tool_output)
        assert all(is_triple(r, (str, int, int)) for r in outcome.tool_output)
        assert all(is_triple(e, (str, int, int)) for e in outcome.committed_entries)
        assert all(type(p) is tuple and len(p) == 2 and is_triple(p[0], (str, int, int))
                   and type(p[1]) is bool for p in outcome.permits)
        seen += bool(outcome.tool_output and outcome.committed_entries)
    assert seen > 10


@pytest.mark.parametrize("name", ["branch", "cct"])
def test_tool_records_are_plain_triples(name):
    # A run keeps its tool's records as plain (kind, src, dst) tuples, one
    # shared tuple per distinct record, whichever the tool.
    config = RunConfig(program=parse_program(TRANSFERS), tool=name, seed=3)
    records = run(config, LogStore("none"), BudgetState.unlimited()).tool_output
    kinds = {"branch": {"jump", "call", "return"}, "cct": {"call", "return"}}[name]
    assert records and all(is_triple(r, (str, int, int)) for r in records)
    assert {kind for kind, _, _ in records} == kinds
    assert len(set(records)) < len(records)
    assert len({id(r) for r in records}) == len(set(records))


def test_log_and_referee_answer_the_same_for_either_form():
    rng = random.Random(17)
    for strategy in ("hash", "bst", "merger", "none"):
        named, plain = LogStore(strategy), LogStore(strategy)
        named_referee, plain_referee = MetricsObserver(), MetricsObserver()
        for _ in range(300):
            entry = (rng.choice("ab"), rng.randrange(200), rng.randrange(1, 12))
            if rng.random() < 0.4:
                named.commit(LogEntry(*entry))
                plain.commit(entry)
                named_referee.on_commit(LogEntry(*entry))
                plain_referee.on_commit(entry)
            else:
                assert named.permit(*entry) == plain.permit(*entry)
                for permitted in (True, False):
                    named_referee.on_permit(LogEntry(*entry), permitted)
                    plain_referee.on_permit(entry, permitted)
                    assert named_referee.counts == plain_referee.counts
        assert list(named.entries()) == list(plain.entries())
        assert named == plain
        assert len(named_referee.counts) == 4  # every verdict was given
