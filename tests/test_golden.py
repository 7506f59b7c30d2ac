"""Golden bytes: a fixed campaign's report and log must never change.

Report and log bytes are dime's behaviour contract, so any change to what a
campaign writes, under any log strategy, shows up here.  The digests were
recorded with an independent implementation of the log and the ground truth
(a prefix-max search for ``bst`` and a set of every analyzed address).

The program mixes loops, forward skips and calls into a second image, and
every log holds entries on both images.  Every strategy makes false
positives on it, and ``hash`` and ``bst`` false negatives too, so the
referee's scoring is pinned as well as the log.
"""

import hashlib

import pytest

from dime import RunConfig, emit_report, run_campaign
from dime.corpus import random_corpus

GOLDEN = {
    "hash": ("04986f535d30214f46502e6ef9be9dc880db7ca5543e6dcf2571ebfc886ca9a1",
             "28c7d6a2cfb77defdee02a049b40c3358fa44e5ebb796500e16167619702ae12"),
    "bst": ("b16699ac42d20629a659d375a47304c1ac690abfdd52ab595bad60bf58086624",
            "69b986313b4941705ceba7248b4857eff93076e0d7919c94f366a7b161007850"),
    "merger": ("54e9146b98a1d14244b0f521d49ec8f7c26223eb20f4f0a05828b9ff8ba19735",
               "484a6048f1f893d8801f467ab53eef8f92b41342f4504d3933ffe36d865e9342"),
}


@pytest.mark.parametrize("strategy", sorted(GOLDEN))
def test_campaign_report_and_log_bytes_are_pinned(strategy, tmp_path, monkeypatch):
    # The report echoes the log path, so it is relative and the same every run.
    monkeypatch.chdir(tmp_path)
    program = random_corpus(seed=3, count=6, max_instructions=160)[2]
    config = RunConfig(program=program, granularity="all", period=12, budget=3,
                       max_trace_len=8, seed=7, log_strategy=strategy,
                       log_path=f"golden-{strategy}.log")
    emit_report(run_campaign(config, 3), "report.json")
    report = (tmp_path / "report.json").read_bytes()
    log = (tmp_path / f"golden-{strategy}.log").read_bytes()
    assert (hashlib.sha256(report).hexdigest(),
            hashlib.sha256(log).hexdigest()) == GOLDEN[strategy]
