"""Deterministic simulator of time-aware dynamic binary instrumentation.

A toy virtual machine executes guest programs trace by trace under a virtual
clock while a rate-based budget server enables and disables instrumentation,
and a pluggable redundancy log suppresses re-instrumentation across runs.
"""

from .budget import BudgetContractError, BudgetState, V_BASE, V_INSTRUMENT
from .executor import (ConfigError, ExecutionOutcome, GuestError, RunConfig,
                       TraceMemo, form_trace, native_run, run)
from .harness import (CampaignResult, MetricsObserver, OracleResult, RunReport,
                      emit_report, run_campaign, run_oracle, single_run)
from .program import (Instruction, ParseError, Program, ProgramImage, parse_program,
                      serialize_program)
from .redundancy import LogEntry, LogFormatError, LogStore, load
from .tools import CallContextTree, build_cct, write_records

__all__ = [
    "BudgetContractError", "BudgetState", "CallContextTree", "CampaignResult",
    "ConfigError", "ExecutionOutcome", "GuestError", "Instruction", "LogEntry",
    "LogFormatError", "LogStore", "MetricsObserver", "OracleResult", "ParseError",
    "Program", "ProgramImage", "RunConfig", "RunReport", "TraceMemo", "V_BASE",
    "V_INSTRUMENT", "build_cct", "emit_report", "form_trace", "load", "native_run",
    "parse_program", "run", "run_campaign", "run_oracle", "serialize_program",
    "single_run", "write_records",
]

__version__ = "0.1.0"
