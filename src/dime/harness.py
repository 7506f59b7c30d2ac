"""Multi-run campaign driver: oracle, budgeted runs, metrics, reports.

A campaign runs the uninstrumented and fully instrumented oracles once, then
K budgeted runs that share one redundancy log, kept in memory and saved to
the log file after each run; a single run (`dime run`) is a one-run
campaign that starts from the log file instead of an empty log.  Per run it
reports:

1. coverage - unique records extracted in runs 1..k over the oracle's unique
   record set;
2. false-positive ratio - permitted candidates that overlapped already
   analyzed addresses, over all permitted candidates this run;
3. false-negative ratio - rejected candidates containing never-analyzed
   addresses, over all rejected candidates this run;
4. slow-down - run virtual time over native virtual time;
5. overshoot histogram - magnitude -> count of budget overshoots.

The campaign's one `MetricsObserver` is the referee for 2-3: it scores each
permit decision against every address covered by an entry committed in any
run of the campaign so far, updated live while the runs execute, and kept
per image as the interval union that the ``bst`` and ``merger`` logs use.
It is not the log's own union: a ``hash`` or ``none`` log keeps none, and
`dime run` scores a log loaded from a file against that run's commits only.

The harness works on the runs' plain tuples: the observer gets
(image, rel_addr, length) triples, which it unpacks as it would a
`LogEntry`, and the oracle's record stream, its unique records and the
cumulative record set hold (kind, src, dst) triples.  So a campaign builds
no named tuple.  Coverage reads each run's set of distinct records, not its
record stream, so scoring a run costs what its distinct records number.

A log read from a file must fit the program: every entry must name one of
its images and lie within it.  Nothing binds a log to the program that
wrote it, so a log from another program with the same image names and
sizes still passes.
"""

from __future__ import annotations

import json
import os
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, replace

from . import redundancy
from .budget import BudgetState
from .executor import (ConfigError, ExecutionOutcome, RunConfig, Stream, TraceMemo, native_run,
                       run)
from .redundancy import LogStore, _Intervals

REPORT_FORMAT = "dime-report v1"
FP = "FP"
FN = "FN"
TRUE_PERMIT = "true-permit"
TRUE_REJECT = "true-reject"


class MetricsObserver:
    """The referee of a campaign: scores each permit decision against every
    address analyzed so far, and adds each commit to them.

    `analyzed` holds, per image, the union of the intervals committed in any
    run, coalesced as under the ``merger`` log strategy.  `counts` holds the
    verdicts of the current run; the campaign gives each run a new one.
    """

    def __init__(self):
        self.analyzed: defaultdict[str, _Intervals] = defaultdict(_Intervals)
        self.counts = Counter()

    def on_permit(self, candidate: tuple[str, int, int], permitted: bool) -> None:
        image, rel_addr, length = candidate
        if permitted:
            overlaps = self.analyzed[image].overlaps(rel_addr, rel_addr + length)
            self.counts[FP if overlaps else TRUE_PERMIT] += 1
        else:
            covered = self.analyzed[image].end_at(rel_addr) >= rel_addr + length
            self.counts[TRUE_REJECT if covered else FN] += 1

    def on_commit(self, entry: tuple[str, int, int]) -> None:
        image, rel_addr, length = entry
        self.analyzed[image].add(rel_addr, rel_addr + length)


@dataclass(frozen=True)
class OracleResult:
    record_stream: Stream     # the full run's (kind, src, dst) records
    unique_records: frozenset
    native_time: float
    full_instrumentation_time: float


def run_oracle(config: RunConfig, memo: TraceMemo | None = None) -> OracleResult:
    """Native and fully instrumented reference executions.

    Both passes use the campaign's run-1 seed so the guest path matches run 1
    exactly.  The full run compiles its traces through `memo` when one is
    given.  Its record stream is kept as the Stream the run made, whose size
    follows its distinct work, and its unique records are the run's set of
    distinct records, so no step here reads the stream.  A config is checked
    when it is built, so a bad setting costs no guest step.
    """
    oracle = replace(config, seed=config.seed + 1, capture_path=False)
    native = native_run(oracle)
    outcome = run(oracle, LogStore("none"), BudgetState.unlimited(), memo=memo)
    return OracleResult(
        record_stream=outcome.tool_output,
        unique_records=outcome.distinct_records,
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
        "max_trace_len": _num(config.max_trace_len),
        "max_steps": _num(config.max_steps),
        "seed": config.seed,
        "log_strategy": config.log_strategy,
        "log_file": str(config.log_path) if config.log_path is not None else None,
        "tool": config.tool,
        "runs": runs,
    }


def single_run(config: RunConfig,
               resume: bool = False) -> tuple[RunReport, ExecutionOutcome, LogStore]:
    """A one-run campaign that starts from the log file; used by `dime run`.

    The run uses seed = config seed + 1 and scores FP/FN against its own
    commits.  It starts from a new store under the ``none`` strategy or when
    the file is missing (an error under `resume`); otherwise from the file's
    contents, which must hold the configured strategy and fit the program:
    each entry must name one of its images and end within it (a hash entry's
    start must lie in it).  The config has already checked that a strategy
    other than ``none`` comes with a log file path.  Returns the run's report
    and outcome and the log as the run left it.
    """
    strategy, path = config.log_strategy, config.log_path
    if strategy == "none" or not os.path.exists(path):
        if resume and strategy != "none":
            raise ConfigError(f"--resume given but log file {path} is missing")
        log = LogStore(strategy)
    else:
        log = redundancy.load(path)
        if log.strategy != strategy:
            raise ConfigError(f"log file {path} holds strategy {log.strategy!r}, "
                              f"expected {strategy!r}")
        sizes = {img.name: len(img.kinds) for img in config.program.images}
        for image, end in log.ends().items():
            if image not in sizes:
                raise ConfigError(f"log file {path} names image {image!r}, "
                                  "which the program lacks")
            if end > sizes[image]:
                raise ConfigError(f"log file {path} reaches past the end of image {image!r}")
    result = _campaign(config, 1, log)
    return result.reports[0], result.outcomes[0], log


def _make_report(run_index: int, unique_records: int, oracle: OracleResult,
                 outcome: ExecutionOutcome, verdicts: Counter) -> RunReport:
    vacuous = not oracle.unique_records
    coverage = 1.0 if vacuous else unique_records / len(oracle.unique_records)
    histogram = dict(sorted(Counter(outcome.overshoots).items()))
    permitted = verdicts[FP] + verdicts[TRUE_PERMIT]
    rejected = verdicts[FN] + verdicts[TRUE_REJECT]
    return RunReport(
        run_index=run_index,
        coverage=coverage,
        coverage_vacuous=vacuous,
        fp_ratio=verdicts[FP] / permitted if permitted else 0.0,
        fn_ratio=verdicts[FN] / rejected if rejected else 0.0,
        slowdown=outcome.virtual_time / oracle.native_time,
        overshoot_histogram=histogram,
        unique_records=unique_records,
        virtual_time=outcome.virtual_time,
        permitted=permitted,
        rejected=rejected,
        fp_count=verdicts[FP],
        fn_count=verdicts[FN],
    )


def run_campaign(config: RunConfig, runs: int) -> CampaignResult:
    """Oracle once, then `runs` budgeted runs sharing one log; run 1 starts
    with an empty log, and each run's save overwrites any existing file."""
    if runs < 1:
        raise ConfigError("a campaign needs at least one run")
    return _campaign(config, runs, LogStore(config.log_strategy))


def _campaign(config: RunConfig, runs: int, log: LogStore) -> CampaignResult:
    """Oracle once, then `runs` budgeted runs that all commit to `log`: each
    run saves it to the log file and the next run goes on from the store in
    memory, which equals what the file would load.  Run k uses seed =
    campaign seed + k.  The oracle's full run and the budgeted runs share one
    trace memo, and the budgeted runs share one referee, which counts each
    run's verdicts anew.
    """
    memo = TraceMemo(config)
    oracle = run_oracle(config, memo=memo)
    referee = MetricsObserver()
    cumulative: set = set()
    reports, outcomes = [], []
    for k in range(1, runs + 1):
        referee.counts = Counter()
        outcome = run(replace(config, seed=config.seed + k), log, config.make_budget(),
                      observer=referee, memo=memo)
        if config.log_strategy != "none":
            log.finalize_and_save(config.log_path)
        cumulative.update(outcome.distinct_records)
        reports.append(_make_report(k, len(cumulative), oracle, outcome, referee.counts))
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
        "format": REPORT_FORMAT,
        "campaign": result.config_echo,
        "oracle": oracle_document(result.oracle),
        "runs": [r.as_dict() for r in result.reports],
    }


def emit_report(result: CampaignResult, path) -> None:
    """Write the campaign report as byte-deterministic JSON."""
    text = json.dumps(report_document(result), indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
