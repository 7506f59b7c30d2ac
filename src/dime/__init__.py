"""Deterministic simulator of time-aware dynamic binary instrumentation.

A toy virtual machine executes guest programs trace by trace under a virtual
clock while a rate-based budget server enables and disables instrumentation,
and a pluggable redundancy log suppresses re-instrumentation across runs.
"""

from .budget import BudgetContractError, BudgetState, V_BASE, V_INSTRUMENT
from .executor import (ConfigError, ExecutionOutcome, GuestError, RunConfig,
                       TraceDescriptor, TraceMemo, form_trace, native_run, run)
from .harness import (CampaignResult, GroundTruth, MetricsObserver, OracleResult,
                      RunReport, classify, emit_report, run_campaign, run_oracle,
                      single_run)
from .program import (AddressError, Instruction, ParseError, Program,
                      ProgramImage, parse_program, resolve, serialize_program)
from .redundancy import LogEntry, LogFormatError, LogStore, load
from .tools import (AnalysisTool, BranchProfiler, BranchRecord, CallContextTree,
                    CallTraceTool, build_cct, make_tool, write_records)

__all__ = [
    "AddressError", "AnalysisTool", "BranchProfiler", "BranchRecord",
    "BudgetContractError", "BudgetState", "CallContextTree", "CallTraceTool",
    "CampaignResult", "ConfigError", "ExecutionOutcome", "GroundTruth",
    "GuestError", "Instruction", "LogEntry", "LogFormatError", "LogStore",
    "MetricsObserver", "OracleResult", "ParseError", "Program", "ProgramImage",
    "RunConfig", "RunReport", "TraceDescriptor", "TraceMemo", "V_BASE", "V_INSTRUMENT",
    "build_cct", "classify", "emit_report", "form_trace", "load", "make_tool",
    "native_run", "parse_program", "resolve", "run", "run_campaign",
    "run_oracle", "serialize_program", "single_run", "write_records",
]

__version__ = "0.1.0"
