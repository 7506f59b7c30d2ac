"""Multi-run campaign driver: oracle, budgeted runs, metrics, reports.

A campaign runs the uninstrumented and fully instrumented oracles once, then
K budgeted runs that share a persisted redundancy log; a single run
(`dime run`) is a one-run campaign that starts from the log file instead of
an empty log.  Per run it reports:

1. coverage - unique records extracted in runs 1..k over the oracle's unique
   record set;
2. false-positive ratio - permitted candidates that overlapped already
   analyzed addresses, over all permitted candidates this run;
3. false-negative ratio - rejected candidates containing never-analyzed
   addresses, over all rejected candidates this run;
4. slow-down - run virtual time over native virtual time;
5. overshoot histogram - magnitude -> count of budget overshoots.

Ground truth for 2-3 is the referee's view: every address covered by a
committed log entry in any run so far, updated live while the run executes.
It is kept as the same per-image interval union the redundancy log uses.

The harness works on the runs' plain tuples: the observer gets
(image, rel_addr, length) triples, which `GroundTruth` and `classify` accept
as they accept a `LogEntry`, and the oracle's record stream, its unique
records and the cumulative record set hold (kind, src, dst) triples, which
compare and hash equal to `BranchRecord`s.  So a campaign builds neither
named tuple.
"""

from __future__ import annotations

import json
import os
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, replace

from . import redundancy
from .budget import BudgetState
from .executor import (ConfigError, ExecutionOutcome, RunConfig, TraceMemo, native_run,
                       run, validate)
from .redundancy import LogStore, STRATEGIES, _Intervals
from .tools import make_tool

FP = "FP"
FN = "FN"
TRUE_PERMIT = "true-permit"
TRUE_REJECT = "true-reject"


class GroundTruth:
    """Addresses ever analyzed in the campaign: per image, the union of the
    committed intervals, coalesced as under the ``merger`` log strategy."""

    def __init__(self):
        self.analyzed: defaultdict[str, _Intervals] = defaultdict(_Intervals)

    def add_entry(self, entry: tuple[str, int, int]) -> None:
        image, rel_addr, length = entry
        self.analyzed[image].add(rel_addr, rel_addr + length)

    def overlap(self, entry: tuple[str, int, int]) -> bool:
        image, rel_addr, length = entry
        return self.analyzed[image].overlaps(rel_addr, rel_addr + length)

    def contains_all(self, entry: tuple[str, int, int]) -> bool:
        image, rel_addr, length = entry
        return self.analyzed[image].covers(rel_addr, rel_addr + length)


def classify(permitted: bool, candidate: tuple[str, int, int],
             ground_truth: GroundTruth) -> str:
    """Score one permit decision on a candidate (image, rel_addr, length)
    against what has really been analyzed."""
    if permitted:
        return FP if ground_truth.overlap(candidate) else TRUE_PERMIT
    return FN if not ground_truth.contains_all(candidate) else TRUE_REJECT


class MetricsObserver:
    """Classifies permit decisions live and grows the ground truth on commits."""

    def __init__(self, ground_truth: GroundTruth):
        self.ground_truth = ground_truth
        self.counts = Counter()

    def on_permit(self, candidate: tuple[str, int, int], permitted: bool) -> None:
        self.counts[classify(permitted, candidate, self.ground_truth)] += 1

    def on_commit(self, entry: tuple[str, int, int]) -> None:
        self.ground_truth.add_entry(entry)

    @property
    def permitted(self) -> int:
        return self.counts[FP] + self.counts[TRUE_PERMIT]

    @property
    def rejected(self) -> int:
        return self.counts[FN] + self.counts[TRUE_REJECT]

    def fp_ratio(self) -> float:
        return self.counts[FP] / self.permitted if self.permitted else 0.0

    def fn_ratio(self) -> float:
        return self.counts[FN] / self.rejected if self.rejected else 0.0


@dataclass(frozen=True)
class OracleResult:
    record_stream: tuple      # the full run's (kind, src, dst) records
    unique_records: frozenset
    native_time: float
    full_instrumentation_time: float


def run_oracle(config: RunConfig, memo: TraceMemo | None = None) -> OracleResult:
    """Native and fully instrumented reference executions.

    Uses the campaign's run-1 seed so the guest path matches run 1 exactly.
    The full run compiles its traces through `memo` when one is given.
    The config is validated as run() would validate it before the native
    pass, so a bad setting costs no guest step.
    """
    tool = make_tool(config.tool)
    validate(config, tool)
    seed = config.seed + 1
    native = native_run(config.program, seed, config.max_steps)
    full = replace(config, period=float("inf"), budget=float("inf"),
                   log_strategy="none", capture_path=False)
    outcome = run(full, LogStore("none"), BudgetState.unlimited(), tool,
                  rng_seed=seed, memo=memo)
    return OracleResult(
        record_stream=outcome.records,
        unique_records=frozenset(outcome.records),
        native_time=native.virtual_time,
        full_instrumentation_time=outcome.virtual_time,
    )


@dataclass(frozen=True)
class RunReport:
    run_index: int
    coverage: float
    coverage_vacuous: bool
    fp_ratio: float
    fn_ratio: float
    slowdown: float
    overshoot_histogram: dict
    unique_records: int  # cumulative unique records through this run
    virtual_time: float
    permitted: int
    rejected: int
    fp_count: int
    fn_count: int

    def as_dict(self) -> dict:
        doc = asdict(self)
        doc["overshoot_histogram"] = {str(k): v for k, v in self.overshoot_histogram.items()}
        doc["virtual_time"] = _num(self.virtual_time)
        return doc


@dataclass(frozen=True)
class CampaignResult:
    reports: tuple
    oracle: OracleResult
    outcomes: tuple  # per-run ExecutionOutcome
    config_echo: dict


def _num(v):
    if v == float("inf"):
        return "inf"
    return v


def _config_echo(config: RunConfig, runs: int) -> dict:
    return {
        "program": config.program_path,
        "granularity": config.granularity,
        "period": _num(config.period),
        "budget": _num(config.budget),
        "analysis_cost": config.analysis_cost,
        "check_cost": config.check_cost,
        "compile_cost": config.compile_cost,
        "max_trace_len": config.max_trace_len,
        "max_steps": config.max_steps,
        "seed": config.seed,
        "log_strategy": config.log_strategy,
        "log_file": str(config.log_path) if config.log_path is not None else None,
        "tool": config.tool,
        "runs": runs,
    }


def _open_log(config: RunConfig, resume: bool = False, fresh: bool = False) -> LogStore:
    """Validate the log settings and return the log a run starts from.

    A new store for the ``none`` strategy, when `fresh`, or when the file is
    missing (an error under `resume`); otherwise the file's contents, which
    must hold the configured strategy.
    """
    strategy = config.log_strategy
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown log strategy {strategy!r}")
    if strategy != "none" and config.log_path is None:
        raise ConfigError("log strategy requires a log file path")
    if strategy == "none" or fresh:
        return LogStore(strategy)
    if not os.path.exists(config.log_path):
        if resume:
            raise ConfigError(f"--resume given but log file {config.log_path} is missing")
        return LogStore(strategy)
    log = redundancy.load(config.log_path)
    if log.strategy != strategy:
        raise ConfigError(f"log file {config.log_path} holds strategy {log.strategy!r}, "
                          f"expected {strategy!r}")
    return log


def single_run(config: RunConfig,
               resume: bool = False) -> tuple[RunReport, ExecutionOutcome, LogStore]:
    """A one-run campaign that starts from the persisted log; used by `dime run`.

    The run uses seed = config seed + 1 and scores FP/FN against its own
    commits.  Under `resume` the log file must exist.  Returns the run's
    report and outcome and the log as the run left it.
    """
    log = _open_log(config, resume=resume)
    result = _campaign(config, 1, log)
    return result.reports[0], result.outcomes[0], log


def _make_report(run_index: int, unique_records: int, oracle: OracleResult,
                 outcome: ExecutionOutcome, observer: MetricsObserver) -> RunReport:
    vacuous = not oracle.unique_records
    coverage = 1.0 if vacuous else unique_records / len(oracle.unique_records)
    histogram = dict(sorted(Counter(outcome.overshoots).items()))
    return RunReport(
        run_index=run_index,
        coverage=coverage,
        coverage_vacuous=vacuous,
        fp_ratio=observer.fp_ratio(),
        fn_ratio=observer.fn_ratio(),
        slowdown=outcome.virtual_time / oracle.native_time,
        overshoot_histogram=histogram,
        unique_records=unique_records,
        virtual_time=outcome.virtual_time,
        permitted=observer.permitted,
        rejected=observer.rejected,
        fp_count=observer.counts[FP],
        fn_count=observer.counts[FN],
    )


def run_campaign(config: RunConfig, runs: int) -> CampaignResult:
    """Oracle once, then `runs` budgeted runs sharing the persisted log; run 1
    starts with an empty log (any existing file is overwritten)."""
    if runs < 1:
        raise ConfigError("a campaign needs at least one run")
    return _campaign(config, runs, _open_log(config, fresh=True))


def _campaign(config: RunConfig, runs: int, log: LogStore) -> CampaignResult:
    """Oracle once, then `runs` budgeted runs: run 1 starts from `log`, each
    later run from the file the run before it saved.  Run k uses seed =
    campaign seed + k.  The oracle's full run and the budgeted runs share one
    trace memo, and the budgeted runs share one ground truth.
    """
    memo = TraceMemo(config.program, config.max_trace_len, config.granularity)
    oracle = run_oracle(config, memo=memo)
    ground_truth = GroundTruth()
    cumulative: set = set()
    reports, outcomes = [], []
    for k in range(1, runs + 1):
        if k > 1:
            log = _open_log(config)
        observer = MetricsObserver(ground_truth)
        outcome = run(config, log, config.make_budget(), make_tool(config.tool),
                      rng_seed=config.seed + k, observer=observer, memo=memo)
        if config.log_strategy != "none":
            log.finalize_and_save(config.log_path)
        cumulative.update(outcome.records)
        reports.append(_make_report(k, len(cumulative), oracle, outcome, observer))
        outcomes.append(outcome)
    return CampaignResult(tuple(reports), oracle, tuple(outcomes),
                          _config_echo(config, runs))


def oracle_document(oracle: OracleResult) -> dict:
    """The oracle's numbers as they appear in reports and `dime oracle`."""
    return {
        "unique_records": len(oracle.unique_records),
        "native_time": _num(oracle.native_time),
        "full_instrumentation_time": _num(oracle.full_instrumentation_time),
    }


def report_document(result: CampaignResult) -> dict:
    return {
        "format": "dime-report v1",
        "campaign": result.config_echo,
        "oracle": oracle_document(result.oracle),
        "runs": [r.as_dict() for r in result.reports],
    }


def emit_report(result: CampaignResult, path) -> None:
    """Write the campaign report as byte-deterministic JSON."""
    text = json.dumps(report_document(result), indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
