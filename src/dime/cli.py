"""Command-line interface.

    dime oracle   --program P [--tool T] [cost/seed flags]
    dime run      --program P --tool T --log-strategy S --log-file F
                  --budget B --period T --seed N [--resume] [flags]
    dime campaign --runs K ... (same flags as run) [--report OUT.json]
    dime report   --in REPORT.json

`dime run` is a one-run campaign that starts from the log file (an empty
log when the file is missing) instead of an empty log.  So `dime run
--seed s` on a missing file, then `dime run --resume` with seeds s+1, s+2,
..., execute the runs of `dime campaign --seed s` and save the same log
files; each report scores its run on its own.

Exit codes: 0 success, 1 configuration error (including a file that cannot
be read or written, a malformed report and a cost above 2**53), 2 guest
error (including a run whose virtual time reaches 2**53 budget periods).
The run settings are checked before the oracle's native pass.  The files a command
will write (--log-file, --report, --tool-out) are checked before the oracle
runs, so a bad output path fails before any run starts and leaves the log
file as it was.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import harness
from .budget import BudgetContractError
from .executor import ConfigError, GuestError, RunConfig
from .program import ParseError, parse_program
from .redundancy import LogFormatError, STRATEGIES
from .tools import build_cct, write_records


def _time_units(text: str) -> float:
    if text.lower() in ("inf", "infinity"):
        return math.inf
    value = float(text)
    return int(value) if value.is_integer() else value


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--program", required=True, help="program file")
    p.add_argument("--tool", default="branch", choices=("branch", "cct"))
    p.add_argument("--granularity", default="ctrl", choices=("ctrl", "all"))
    p.add_argument("--budget", type=_time_units, default=math.inf,
                   help="instrumentation budget B per period (or 'inf')")
    p.add_argument("--period", type=_time_units, default=math.inf,
                   help="period length T (or 'inf')")
    p.add_argument("--ca", type=int, default=1, help="analysis call cost")
    p.add_argument("--cbc", type=int, default=0, help="budget check cost")
    p.add_argument("--cir", type=int, default=0, help="trace compile cost")
    p.add_argument("--max-len", type=int, default=16, help="max instructions per trace")
    p.add_argument("--max-steps", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--log-strategy", default="none", choices=STRATEGIES)
    p.add_argument("--log-file", default=None)
    p.add_argument("--tool-out", default=None, help="write tool output file here")


def _load_config(args) -> RunConfig:
    try:
        with open(args.program, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read program: {exc}") from None
    program = parse_program(text)
    return RunConfig(
        program=program,
        program_path=args.program,
        granularity=args.granularity,
        period=args.period,
        budget=args.budget,
        analysis_cost=args.ca,
        check_cost=args.cbc,
        compile_cost=args.cir,
        max_trace_len=args.max_len,
        max_steps=args.max_steps,
        seed=args.seed,
        log_strategy=args.log_strategy,
        log_path=args.log_file,
        tool=args.tool,
    )


def _check_writable(*paths) -> None:
    """Refuse an output file that cannot be written before any run starts:
    the runs replace the log file before the outputs are written."""
    for path in paths:
        if path is None:
            continue
        directory = os.path.dirname(path) or "."
        target = path if os.path.exists(path) else directory
        if os.path.isdir(path) or not os.path.isdir(directory) or not os.access(
                target, os.W_OK):
            raise ConfigError(f"cannot write output file {path}")


def _write_tool_output(path, tool_name: str, records) -> None:
    if tool_name == "cct":
        tree = build_cct(records)
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(tree.dump())
    else:
        write_records(records, path)


def _cmd_oracle(args) -> int:
    config = _load_config(args)
    _check_writable(args.tool_out)
    oracle = harness.run_oracle(config)
    if args.tool_out:
        _write_tool_output(args.tool_out, args.tool, oracle.record_stream)
    doc = {
        "program": args.program,
        "tool": args.tool,
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
    _check_writable(_log_target(config), args.tool_out)
    report, outcome, _ = harness.single_run(config, resume=args.resume)
    if args.tool_out:
        _write_tool_output(args.tool_out, args.tool, outcome.records)
    print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_campaign(args) -> int:
    config = _load_config(args)
    _check_writable(_log_target(config), args.report, args.tool_out)
    result = harness.run_campaign(config, args.runs)
    if args.report:
        harness.emit_report(result, args.report)
    if args.tool_out:
        # cumulative stream across runs, in execution order
        records = [rec for outcome in result.outcomes for rec in outcome.records]
        _write_tool_output(args.tool_out, args.tool, records)
    print(json.dumps(harness.report_document(result), indent=2, sort_keys=True))
    return 0


def _cmd_report(args) -> int:
    try:
        with open(args.infile, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"cannot read report: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != "dime-report v1":
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dime",
                                     description="time-aware instrumentation simulator")
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
