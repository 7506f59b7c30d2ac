"""Acceptance suite: one test per shipping criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).

All expected values are exact; every criterion also carries a wall-clock
budget that the test enforces.
"""

import json
import random
import time
from dataclasses import replace

from dime import (BudgetState, LogEntry, LogStore, RunConfig, emit_report, parse_program,
                  run, run_campaign)
from dime.corpus import loop_corpus, random_corpus
from conftest import committed_points
from reference import reference_run

PASS_LINE = "acceptance {num} ({label}): PASS in {dt:.2f}s"


def _done(num, label, t0, budget_s):
    dt = time.time() - t0
    assert dt < budget_s, f"criterion {num} exceeded its {budget_s}s budget ({dt:.1f}s)"
    print(PASS_LINE.format(num=num, label=label, dt=dt))


# -- 1. worked permit/commit examples -------------------------------------------

def test_criterion_1_worked_examples():
    t0 = time.time()
    hash_log = LogStore("hash")
    hash_log.commit(LogEntry("m", 100, 80))
    assert hash_log.permit("m", 150, 20) is True

    hash_log2 = LogStore("hash")
    hash_log2.commit(LogEntry("m", 100, 20))
    assert hash_log2.permit("m", 100, 80) is False

    bst_log = LogStore("bst")
    bst_log.commit(LogEntry("m", 50, 80))
    assert bst_log.permit("m", 100, 200) is False

    merger_log = LogStore("merger")
    merger_log.commit(LogEntry("m", 50, 80))
    assert merger_log.permit("m", 100, 200) is True
    merger_log.commit(LogEntry("m", 100, 200))
    assert list(merger_log.entries()) == [LogEntry("m", 50, 250)]
    _done(1, "worked examples", t0, 1.0)


# -- 2. multi-exit trace scenario -------------------------------------------------

# One loop over a 7-instruction trace at relative 14 whose conditional at
# offset 2 jumps out on run 1 only (runs 2-3 fall into the tail).  The
# loop re-enters the warm-up block at its middle (M), presenting a fresh
# trace start inside the interval run 1 logged for the whole block.
SCENARIO = """\
image main 0
L0: op 1
    op 1
M:  op 1
    op 1
    op 1
    op 1
    op 1
    op 1
    op 1
    op 1
    op 1
    op 1
    op 1
    jmp R
R:  op 1
    op 1
    ndbr X 0.5
    op 0
    op 0
    op 0
    jmp P
P:  op 1
    op 1
    op 1
    op 1
    br M TN
    halt
X:  op 1
    op 1
    halt
"""
SCENARIO_PERIOD = 9
SCENARIO_BUDGET = 1
SCENARIO_SEED = 3
TAIL_RECORD = ("jump", 20, 21)
TAIL_ADDRS = {("main", r) for r in (17, 18, 19, 20)}


def scenario_campaign(strategy, tmp_path):
    program = parse_program(SCENARIO)
    config = RunConfig(program=program, granularity="ctrl",
                       period=SCENARIO_PERIOD, budget=SCENARIO_BUDGET,
                       analysis_cost=1, check_cost=0, compile_cost=1,
                       seed=SCENARIO_SEED, log_strategy=strategy,
                       log_path=str(tmp_path / f"{strategy}.log"))
    return run_campaign(config, 3)


def test_criterion_2_multi_exit_scenario(tmp_path):
    t0 = time.time()
    results = {s: scenario_campaign(s, tmp_path) for s in ("hash", "bst", "merger")}

    def cumulative(result, k):
        records = set()
        for outcome in result.outcomes[:k]:
            records |= set(outcome.tool_output)
        return records

    for strategy, result in results.items():
        # run 1 takes the early exit: the tail never executes, so nobody sees it
        assert ("jump", 16, 27) in cumulative(result, 1)
        assert TAIL_RECORD not in cumulative(result, 1)

    assert TAIL_RECORD in cumulative(results["hash"], 2)  # recovered in run 2
    program = parse_program(SCENARIO)
    for strategy in ("bst", "merger"):
        result = results[strategy]
        assert TAIL_RECORD not in cumulative(result, 3)
        for outcome in result.outcomes:
            assert not (committed_points(program, "ctrl", outcome) & TAIL_ADDRS)

    unique = {s: results[s].reports[-1].unique_records for s in results}
    assert unique["hash"] > unique["merger"] >= unique["bst"]
    # merger loses the tail without ever rejecting un-analyzed code
    assert all(r.fn_ratio == 0.0 for r in results["merger"].reports)
    _done(2, "multi-exit scenario", t0, 1.0)


# -- 3. oracle equivalence ----------------------------------------------------------

def test_criterion_3_oracle_equivalence():
    t0 = time.time()
    programs = random_corpus(seed=77, count=24, max_instructions=200)
    assert len(programs) >= 20
    for i, program in enumerate(programs):
        seed = 1000 + i
        ref_records, ref_time, ref_path = reference_run(program, seed=seed)
        for granularity in ("ctrl", "all"):
            config = RunConfig(program=program, granularity=granularity, seed=seed,
                               capture_path=True)
            out = run(config, LogStore("none"), BudgetState.unlimited())
            assert list(out.tool_output) == ref_records  # order and multiplicity
            assert out.addr_path == tuple(ref_path)
    _done(3, "oracle equivalence", t0, 10.0)


# -- 4. budget respect and overshoot bound -------------------------------------------

def test_criterion_4_budget_respect():
    t0 = time.time()
    rng = random.Random(424242)
    total_runs = 0
    while total_runs < 120:
        program = random_corpus(seed=rng.randrange(10 ** 6), count=1)[0]
        period = rng.randrange(5, 60)
        budget_units = rng.randrange(1, period + 1)
        analysis_cost = rng.randrange(1, 6)
        config = RunConfig(program=program,
                           granularity=rng.choice(("ctrl", "all")),
                           period=period, budget=budget_units,
                           analysis_cost=analysis_cost,
                           check_cost=rng.randrange(0, 2),
                           compile_cost=rng.randrange(0, 2))
        log = LogStore(rng.choice(("hash", "bst", "merger")))
        for _ in range(rng.randrange(1, 4)):  # shared log across a short campaign
            budget = BudgetState(period=period, budget=budget_units)
            out = run(replace(config, seed=rng.randrange(10 ** 6)), log, budget)
            for load in budget.period_loads():
                assert load <= budget_units + analysis_cost
            for magnitude in out.overshoots:
                assert magnitude <= analysis_cost
            total_runs += 1
    assert total_runs >= 100
    _done(4, "budget respect", t0, 30.0)


# -- 5. metric theorems ----------------------------------------------------------------

def test_criterion_5_metric_theorems(tmp_path):
    t0 = time.time()
    # merger never produces a false negative; coverage never decreases
    for i, program in enumerate(random_corpus(seed=31, count=6, max_instructions=120)):
        for strategy in ("hash", "bst", "merger"):
            config = RunConfig(program=program, period=12, budget=2, seed=300 + i,
                               log_strategy=strategy,
                               log_path=str(tmp_path / f"t5-{strategy}-{i}.log"))
            result = run_campaign(config, 4)
            curve = [r.coverage for r in result.reports]
            assert curve == sorted(curve)
            if strategy == "merger":
                assert all(r.fn_ratio == 0.0 for r in result.reports)

    # bst permit decisions match a brute-force linear scan
    rng = random.Random(99)
    for _ in range(4):
        store = LogStore("bst")
        for _ in range(1000):
            store.commit(LogEntry("m", rng.randrange(4000), rng.randrange(1, 50)))
        entries = list(store.entries())
        assert len(entries) <= 1000
        for _ in range(3000):
            rel = rng.randrange(4200)
            length = rng.randrange(1, 60)
            contained = any(e.rel_addr <= rel < e.rel_addr + e.length
                            for e in entries)
            assert store.permit("m", rel, length) == (not contained)
    _done(5, "metric theorems", t0, 30.0)


# -- 6. multi-run completion --------------------------------------------------------------

def test_criterion_6_hash_completion_within_ten_runs(tmp_path):
    t0 = time.time()
    programs = loop_corpus(seed=2026, count=12)
    assert len(programs) >= 10
    for i, program in enumerate(programs):
        config = RunConfig(program=program, granularity="ctrl",
                           period=10, budget=1,  # B/T = 0.1
                           seed=100 + i, log_strategy="hash",
                           log_path=str(tmp_path / f"t6-{i}.log"))
        result = run_campaign(config, 10)
        reached = [r.run_index for r in result.reports if r.coverage >= 1.0]
        assert reached, f"loop program {i} never reached full coverage"
        assert reached[0] <= 10
    _done(6, "multi-run completion", t0, 10.0)


# -- 7. virtual slow-down separation ---------------------------------------------------------

def test_criterion_7_slowdown_separation(tmp_path):
    t0 = time.time()
    program = loop_corpus(seed=11, count=1)[0]
    config = RunConfig(program=program, granularity="all",
                       period=200, budget=20,  # B/T = 0.1
                       analysis_cost=50,       # 50x the unit instruction cost
                       seed=5, log_strategy="hash",
                       log_path=str(tmp_path / "t7.log"))
    result = run_campaign(config, 3)
    oracle = result.oracle
    full_slowdown = oracle.full_instrumentation_time / oracle.native_time
    run1 = result.reports[0].slowdown
    run3 = result.reports[2].slowdown
    assert full_slowdown / run1 >= 10.0
    assert run3 <= run1
    _done(7, "slow-down separation", t0, 10.0)


# -- 8. determinism ----------------------------------------------------------------------------

def test_criterion_8_campaign_determinism(tmp_path):
    t0 = time.time()
    program = parse_program(SCENARIO)
    config = RunConfig(program=program, granularity="ctrl", period=9,
                       budget=1, compile_cost=1, seed=SCENARIO_SEED,
                       log_strategy="bst", log_path=str(tmp_path / "camp.log"))
    artifacts = []
    for _ in range(2):  # repeat the identical campaign end to end
        result = run_campaign(config, 3)
        emit_report(result, tmp_path / "report.json")
        artifacts.append(((tmp_path / "camp.log").read_bytes(),
                          (tmp_path / "report.json").read_bytes()))
    assert artifacts[0] == artifacts[1]
    doc = json.loads(artifacts[0][1].decode())
    assert doc["format"] == "dime-report v1"
    _done(8, "determinism", t0, 10.0)
