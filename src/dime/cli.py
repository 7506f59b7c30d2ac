"""Command-line interface.

    dime oracle   --program P [--tool T] [cost/seed flags]
    dime run      --program P --tool T --log-strategy S --log-file F
                  --budget B --period T --seed N [--resume] [flags]
    dime campaign --runs K ... (same flags as run) [--report OUT.json]
    dime report   --in REPORT.json

Each run flag sets the RunConfig field of its name (--ca sets
analysis_cost, --log-file log_path, ...), and only when it is given, so
RunConfig's defaults are the only ones.

`dime run` is a one-run campaign that starts from the log file (an empty
log when the file is missing) instead of an empty log.  A campaign hands
its log from run to run in memory and only writes the file, but the file
loads back as that store.  So `dime run --seed s` on a missing file, then
`dime run --resume` with seeds s+1, s+2, ..., execute the runs of `dime
campaign --seed s` and save the same log files; each report scores its run
on its own.

Exit codes: 0 success, 1 configuration error (including a malformed flag,
a file that cannot be read or written, a malformed report and a cost above
2**53), 2 guest error (including a run whose virtual time reaches 2**53
budget periods).
A command checks its inputs before any run starts, in this order, and
reports only the first error: the command line as argparse parses it (an
unknown subcommand, a missing required flag, a --tool, --granularity or
--log-strategy that is not one of its choices, a value that does not
parse such as --ca abc), then the program file, then every run setting
(the --budget/--period pair and a --log-strategy without --log-file
included, under `dime oracle` too) as its RunConfig is built, then the
files it will write (--log-file, --report, --tool-out).  So `dime run
--program missing.dime --tool bogus` names --tool, a bad setting is named
even when an output path is bad as well, and a bad setting or output
path, or one that names the program or another output, leaves every file
as it was.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import fields

from . import harness
from .budget import BudgetContractError
from .executor import ConfigError, GRANULARITIES, GuestError, RunConfig
from .program import ParseError, parse_program
from .redundancy import LogFormatError, STRATEGIES
from .tools import TOOLS, write_tool_output


def _time_units(text: str) -> float:
    if text.lower() in ("inf", "infinity"):
        return math.inf
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number or 'inf': {text!r}") from None
    return int(value) if value.is_integer() else value


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    """The run flags.  Each but --tool-out sets the RunConfig field its
    `dest` names, and only when it is given, so RunConfig owns every
    default."""
    p.add_argument("--program", dest="program_path", required=True, help="program file")
    flag = functools.partial(p.add_argument, default=argparse.SUPPRESS)
    flag("--tool", choices=tuple(TOOLS))
    flag("--granularity", choices=GRANULARITIES)
    flag("--budget", type=_time_units, help="instrumentation budget B per period (or 'inf')")
    flag("--period", type=_time_units, help="period length T (or 'inf')")
    flag("--ca", dest="analysis_cost", type=int, help="analysis call cost")
    flag("--cbc", dest="check_cost", type=int, help="budget check cost")
    flag("--cir", dest="compile_cost", type=int, help="trace compile cost")
    flag("--max-len", dest="max_trace_len", type=int, help="max instructions per trace")
    flag("--max-steps", type=int)
    flag("--seed", type=int)
    flag("--log-strategy", choices=STRATEGIES)
    flag("--log-file", dest="log_path")
    p.add_argument("--tool-out", default=None, help="write tool output file here")


_CONFIG_FIELDS = frozenset(field.name for field in fields(RunConfig))


def _load_config(args) -> RunConfig:
    try:
        with open(args.program_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read program: {exc}") from None
    settings = {name: value for name, value in vars(args).items() if name in _CONFIG_FIELDS}
    return RunConfig(program=parse_program(text), **settings)


def _check_writable(program: str, outputs: dict) -> None:
    """Refuse an output file (`outputs` maps each flag to its path or None)
    that cannot be written, or that names the program or another output,
    before any run starts: the runs replace the log file before the outputs
    are written."""
    seen = {os.path.realpath(program): "--program"}
    for flag, path in outputs.items():
        if path is None:
            continue
        directory = os.path.dirname(path) or "."
        target = path if os.path.exists(path) else directory
        if os.path.isdir(path) or not os.path.isdir(directory) or not os.access(
                target, os.W_OK):
            raise ConfigError(f"cannot write output file {path}")
        real = os.path.realpath(path)
        if real in seen:
            raise ConfigError(f"{flag} {path} names the same file as {seen[real]}")
        seen[real] = flag


def _cmd_oracle(args) -> int:
    config = _load_config(args)
    _check_writable(config.program_path, {"--tool-out": args.tool_out})
    oracle = harness.run_oracle(config)
    if args.tool_out:
        write_tool_output(config.tool, oracle.record_stream, args.tool_out)
    doc = {
        "program": config.program_path,
        "tool": config.tool,
        "record_stream_length": len(oracle.record_stream),
        **harness.oracle_document(oracle),
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _log_target(config: RunConfig):
    """The log file that the runs will write, if any."""
    return config.log_path if config.log_strategy != "none" else None


def _cmd_run(args) -> int:
    config = _load_config(args)
    _check_writable(config.program_path, {"--log-file": _log_target(config),
                                          "--tool-out": args.tool_out})
    report, outcome, _ = harness.single_run(config, resume=args.resume)
    if args.tool_out:
        write_tool_output(config.tool, outcome.tool_output, args.tool_out)
    print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_campaign(args) -> int:
    config = _load_config(args)
    _check_writable(config.program_path, {"--log-file": _log_target(config),
                                          "--report": args.report,
                                          "--tool-out": args.tool_out})
    result = harness.run_campaign(config, args.runs)
    if args.report:
        harness.emit_report(result, args.report)
    if args.tool_out:
        # cumulative stream across runs, in execution order
        records = [rec for outcome in result.outcomes for rec in outcome.tool_output]
        write_tool_output(config.tool, records, args.tool_out)
    print(json.dumps(harness.report_document(result), indent=2, sort_keys=True))
    return 0


def _cmd_report(args) -> int:
    try:
        with open(args.infile, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"cannot read report: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != harness.REPORT_FORMAT:
        raise ConfigError("not a dime report file")
    try:
        runs = doc.get("runs", [])
        lines = [f"campaign of {len(runs)} run(s), strategy "
                 f"{doc['campaign']['log_strategy']}, tool {doc['campaign']['tool']}",
                 f"{'run':>4} {'coverage':>9} {'fp':>7} {'fn':>7} {'slowdown':>9} "
                 f"{'overshoots':>11}"]
        for r in runs:
            overshoots = sum(r["overshoot_histogram"].values())
            lines.append(f"{r['run_index']:>4} {r['coverage']:>9.4f} {r['fp_ratio']:>7.3f} "
                         f"{r['fn_ratio']:>7.3f} {r['slowdown']:>9.3f} {overshoots:>11}")
    except (AttributeError, KeyError, TypeError, ValueError):
        raise ConfigError("not a dime report file") from None
    print("\n".join(lines))
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a malformed flag as a configuration error: one line and exit
    1, not argparse's usage text and exit 2, which is the guest-error code.
    Subcommand parsers are of the same class."""

    def error(self, message):
        self.exit(1, f"dime: config error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dime", description="time-aware instrumentation simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("oracle", help="native and fully instrumented reference run")
    _add_run_flags(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("run", help="one budgeted run against a persistent log")
    _add_run_flags(p)
    p.add_argument("--resume", action="store_true",
                   help="require the log file to exist (continue a prior run)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("campaign", help="oracle plus K budgeted runs with one log")
    _add_run_flags(p)
    p.add_argument("--runs", type=int, required=True)
    p.add_argument("--report", default=None, help="write the JSON report here")
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser("report", help="summarize a campaign report file")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParseError, LogFormatError, ValueError, OSError) as exc:
        print(f"dime: config error: {exc}", file=sys.stderr)
        return 1
    except (GuestError, BudgetContractError) as exc:
        print(f"dime: guest error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
