import hashlib
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
import time
from dataclasses import fields

import pytest

from dime import RunConfig, cli, harness, redundancy, serialize_program
from dime.cli import main
from dime.corpus import random_corpus

from conftest import P1_DET, CALLS, wall_budget
from test_program import wide_program


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "p1.dime"
    path.write_text(P1_DET)
    return str(path)


def run_flags(program_file, tmp_path, strategy="hash"):
    return ["--program", program_file, "--log-strategy", strategy,
            "--log-file", str(tmp_path / "run.log"),
            "--budget", "3", "--period", "10", "--seed", "0"]


def test_oracle_command(program_file, capsys):
    assert main(["oracle", "--program", program_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["native_time"] == 14
    assert doc["unique_records"] == 2


def test_run_command_writes_log_and_metrics(program_file, tmp_path, capsys):
    assert main(["run", *run_flags(program_file, tmp_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["run_index"] == 1
    assert 0 < doc["coverage"] <= 1
    log_text = (tmp_path / "run.log").read_text()
    assert log_text.startswith("# dime-log v1 strategy=hash\n")


def test_run_resume_missing_log_is_config_error(program_file, tmp_path, capsys):
    code = main(["run", *run_flags(program_file, tmp_path), "--resume"])
    assert code == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("line", [b"main,1\xff00\n", b"9main,100\n"])
def test_run_resume_on_corrupt_log_is_config_error(program_file, tmp_path, capsys, line):
    log = tmp_path / "run.log"
    log.write_bytes(b"# dime-log v1 strategy=hash\n" + line)
    code = main(["run", *run_flags(program_file, tmp_path), "--resume"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("dime: config error:")
    assert str(log) in err


def test_campaign_and_report_roundtrip(program_file, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(["campaign", *run_flags(program_file, tmp_path),
                 "--runs", "3", "--report", str(report_path)])
    assert code == 0
    capsys.readouterr()
    assert main(["report", "--in", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "campaign of 3 run(s)" in out
    doc = json.loads(report_path.read_text())
    assert doc["runs"][-1]["coverage"] == 1.0


def test_campaign_report_bytes_deterministic(program_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        (tmp_path / "run.log").unlink(missing_ok=True)
        assert main(["campaign", *run_flags(program_file, tmp_path),
                     "--runs", "2", "--report", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_tool_output_files(tmp_path, capsys):
    calls = tmp_path / "calls.dime"
    calls.write_text(CALLS)
    branch_out = tmp_path / "branch.txt"
    assert main(["oracle", "--program", str(calls), "--tool", "branch",
                 "--tool-out", str(branch_out)]) == 0
    lines = branch_out.read_text().splitlines()
    assert all(line.split(",")[0] in ("jump", "call", "return") for line in lines)
    cct_out = tmp_path / "cct.txt"
    assert main(["oracle", "--program", str(calls), "--tool", "cct",
                 "--tool-out", str(cct_out)]) == 0
    text = cct_out.read_text()
    assert text.startswith("root\n")
    assert "nodes=4 edges=3" in text


# sha256 of the --tool-out file of one budgeted 3-run campaign per tool and
# granularity, on a guest whose runs take jumps, calls and returns: a record
# dropped, added or reordered anywhere in the campaign changes the bytes.
TOOL_OUT_DIGESTS = {
    ("branch", "ctrl"): "c36f3a83e5d1892b237a8aa711ac074466ba29c37b8952e26e3e19dfef04429f",
    ("branch", "all"): "70722fc92f9fa42fb863fc92368ed702bdd1d54ad2042dae046f889c6015073b",
    ("cct", "ctrl"): "6204b9d84008746d459287d2fe1c4e25f0208e68d1529a3f1d6fa4cac64b8cde",
    ("cct", "all"): "ac4e5193881d7de84822367b8d3428db1ffcae86d197a850e1e458aa17fba5e2",
}


@pytest.mark.parametrize("tool,granularity", sorted(TOOL_OUT_DIGESTS))
def test_campaign_tool_out_bytes_are_pinned(tmp_path, capsys, tool, granularity):
    program = tmp_path / "guest.dime"
    program.write_text(serialize_program(random_corpus(seed=3, count=4,
                                                       max_instructions=160)[3]))
    out = tmp_path / "tool.txt"
    assert main(["campaign", "--program", str(program), "--runs", "3", "--tool", tool,
                 "--granularity", granularity, "--budget", "3", "--period", "12",
                 "--max-len", "8", "--seed", "7", "--tool-out", str(out)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == TOOL_OUT_DIGESTS[tool, granularity]


def test_run_cct_tool_out_on_3000_deep_call_chain(tmp_path, capsys):
    lines = ["image main 0", "    call F0", "    halt"]
    for i in range(3000):
        lines += [f"F{i}: call F{i + 1}", "    ret"]
    lines.append("F3000: ret")
    program = tmp_path / "deep.dime"
    program.write_text("\n".join(lines) + "\n")
    out = tmp_path / "cct.txt"
    assert main(["run", "--program", str(program), "--tool", "cct",
                 "--tool-out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    assert text.startswith("root\n  2\n    4\n")
    assert text.endswith("nodes=3002 edges=3001\n")


def test_missing_program_is_config_error(tmp_path, capsys):
    assert main(["oracle", "--program", str(tmp_path / "nope.dime")]) == 1
    assert "config error" in capsys.readouterr().err


def test_parse_error_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.dime"
    bad.write_text("image m 0\n    jmp NOWHERE\n")
    assert main(["oracle", "--program", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err


@pytest.mark.parametrize("argv,named", [
    (["oracle", "--program", "P", "--ca", "abc"], "--ca"),
    (["campaign", "--program", "P"], "--runs"),
    (["run", "--program", "P", "--budget", "x"], "--budget"),
    (["run", "--program", "P", "--period", "x"], "--period"),
    (["run", "--program", "P", "--tool", "bogus"], "--tool: invalid choice"),
    (["run", "--program", "P", "--granularity", "bogus"], "--granularity: invalid choice"),
    (["run", "--program", "P", "--log-strategy", "bogus"], "--log-strategy: invalid choice"),
    (["replay", "--program", "P"], "'replay'"),
    ([], "command"),
], ids=["bad-int", "missing-runs", "bad-budget", "bad-period", "bad-tool",
        "bad-granularity", "bad-log-strategy", "unknown-command", "no-command"])
def test_malformed_flags_are_one_line_config_errors(argv, named, capsys):
    # Exit 2 is the guest-error code, so argparse's own exit status and
    # usage text would read as a guest failure.  The line names the flag,
    # never the function that parses its value.  No program file P exists:
    # argparse rejects the command line before the program is read.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("dime: config error: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert named in err and "_time_units" not in err


@pytest.mark.parametrize("argv", [["--help"], ["oracle", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: dime" in capsys.readouterr().out


def test_guest_error_exit_code(tmp_path, capsys):
    loop = tmp_path / "loop.dime"
    loop.write_text("image m 0\nL: jmp L\n")
    assert main(["oracle", "--program", str(loop), "--max-steps", "99"]) == 2
    assert "guest error" in capsys.readouterr().err


@pytest.mark.parametrize("strategy", ["hash", "bst", "merger"])
def test_campaign_failing_in_run_2_keeps_run_1s_save(tmp_path, capsys, strategy):
    # At seed 1 the oracle and run 1 fall through the ndbr to the halt, and
    # run 2 takes it to a ret on an empty call stack.
    program = tmp_path / "p.dime"
    program.write_text("image m 0\n    op 1\n    ndbr BAD 0.5\n    halt\nBAD: ret\n")
    ends = []
    for runs in ("1", "2"):
        log = tmp_path / f"{runs}.log"
        code = main(["campaign", "--program", str(program), "--runs", runs, "--seed", "1",
                     "--log-strategy", strategy, "--log-file", str(log)])
        ends.append((code, capsys.readouterr().err, log.read_bytes()))
    (one, one_err, saved), (two, two_err, kept) = ends
    assert (one, one_err) == (0, "")
    assert (two, two_err) == (2, "dime: guest error: ret at 3 with empty call stack\n")
    assert kept == saved


def test_period_count_past_float_range_is_guest_error(tmp_path, capsys):
    # One op of 10**6 units under T = 1e-300: the halt's budget check lands
    # about 1e306 periods in, where (k + 1) * T no longer moves as k grows.
    program = tmp_path / "huge.dime"
    program.write_text("image m 0\n    op 1000000\n    halt\n")
    with wall_budget(1.0):
        code = main(["run", "--program", str(program), "--granularity", "all",
                     "--period", "1e-300", "--budget", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("dime: guest error: ") and "2**53" in err
    assert "Traceback" not in err


def test_bad_report_file(tmp_path, capsys):
    path = tmp_path / "x.json"
    path.write_text("{}")
    assert main(["report", "--in", str(path)]) == 1


def test_deeply_nested_report_is_config_error(tmp_path, capsys):
    # json.load gives up on nesting this deep with a RecursionError.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["report", "--in", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("dime: config error: cannot read report: ")
    assert "Traceback" not in err


def test_log_file_that_is_a_directory_is_config_error(program_file, tmp_path, capsys):
    directory = tmp_path / "logs"
    directory.mkdir()
    code = main(["run", "--program", program_file, "--log-strategy", "hash",
                 "--log-file", str(directory)])
    assert code == 1
    assert capsys.readouterr().err.startswith("dime: config error:")


@pytest.mark.parametrize("command,flag", [
    ("run", "--log-file"), ("campaign", "--report"), ("run", "--tool-out"),
])
def test_file_in_missing_directory_is_config_error(program_file, tmp_path, capsys,
                                                   command, flag):
    argv = [command, *run_flags(program_file, tmp_path),
            flag, str(tmp_path / "missing" / "out")]
    if command == "campaign":
        argv += ["--runs", "2"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("dime: config error:") and "missing" in err


@pytest.mark.parametrize("command,flag,target", [
    ("campaign", "--report", "nodir/r.json"),
    ("run", "--tool-out", "nodir/t.txt"),
    ("campaign", "--tool-out", "."),
    ("campaign", "--log-file", "nodir/x.log"),
    ("run", "--log-file", "nodir/x.log"),
])
def test_bad_output_path_fails_before_the_oracle(program_file, tmp_path, capsys,
                                                 monkeypatch, command, flag, target):
    def oracle(*args, **kwargs):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(harness, "run_oracle", oracle)
    log = tmp_path / "run.log"
    log.write_bytes(b"# dime-log v1 strategy=hash\nmain,999\n")
    argv = [command, *run_flags(program_file, tmp_path), flag, str(tmp_path / target)]
    if command == "campaign":
        argv += ["--runs", "3"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("dime: config error:")
    assert log.read_bytes() == b"# dime-log v1 strategy=hash\nmain,999\n"


@pytest.mark.parametrize("command", ["oracle", "run", "campaign"])
@pytest.mark.parametrize("flags,message", [
    (["--max-steps", "0"], "step limit must be >= 1"),
    (["--ca", "0"], "analysis cost must be > 0"),
    (["--max-len", "0"], "max trace length must be >= 1"),
    (["--budget", "200", "--period", "100"], "budget must satisfy 0 <= B <= T"),
    (["--budget", "-1"], "budget must satisfy 0 <= B <= T"),
    (["--period", "0"], "period must be > 0"),
    (["--log-strategy", "hash"], "log strategy requires a log file path"),
], ids=["max-steps", "ca", "max-len", "budget-past-period", "negative-budget",
        "zero-period", "hash-without-log-file"])
def test_bad_run_setting_fails_before_the_native_pass(program_file, capsys, monkeypatch,
                                                      command, flags, message):
    def native(*args, **kwargs):
        raise AssertionError("the native pass ran")

    monkeypatch.setattr(harness, "native_run", native)
    argv = [command, "--program", program_file, *flags]
    if command == "campaign":
        argv += ["--runs", "2"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"dime: config error: {message}\n"


def without_log_file(flags):
    at = flags.index("--log-file")
    return flags[:at] + flags[at + 2:]


@pytest.mark.parametrize("command,flag", [
    ("campaign", "--report"), ("campaign", "--tool-out"), ("run", "--tool-out"),
])
@pytest.mark.parametrize("edit,message", [
    (lambda flags: [*flags, "--max-steps", "0"], "step limit must be >= 1"),
    (lambda flags: [*flags, "--period", "0"], "period must be > 0"),
    (without_log_file, "log strategy requires a log file path"),
], ids=["max-steps", "zero-period", "hash-without-log-file"])
def test_bad_setting_is_named_before_a_bad_output_path(program_file, tmp_path, capsys,
                                                       command, flag, edit, message):
    # The setting fails as the config is built, before the output paths are
    # checked, so the one error line names it and no file changes.
    log = tmp_path / "run.log"
    log.write_bytes(b"# dime-log v1 strategy=hash\nmain,999\n")
    argv = [command, *edit(run_flags(program_file, tmp_path)),
            flag, str(tmp_path / "nodir" / "out")]
    if command == "campaign":
        argv += ["--runs", "3"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"dime: config error: {message}\n"
    assert log.read_bytes() == b"# dime-log v1 strategy=hash\nmain,999\n"


@pytest.mark.parametrize("flag", ["--ca", "--cbc", "--cir"])
@pytest.mark.parametrize("budget", [["--period", "10", "--budget", "5"], []],
                         ids=["budgeted", "unlimited"])
def test_cost_past_2_to_the_53_is_config_error(program_file, capsys, flag, budget):
    # A cost of 10**400 used to overflow as a float in the budget server or
    # in the slow-down ratio; 2**53 itself is accepted.
    argv = ["run", "--program", program_file, *budget, flag]
    assert main(argv + [str(2**53)]) == 0
    capsys.readouterr()
    for cost in (2**53 + 1, 10**400):
        assert main(argv + [str(cost)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "dime: config error: costs must be <= 2**53\n"


def drop_last_histogram(doc):
    del doc["runs"][-1]["overshoot_histogram"]
    return doc


@pytest.mark.parametrize("malform", [
    lambda doc: {"format": doc["format"]},
    drop_last_histogram,
    lambda doc: [doc],
], ids=["no-campaign", "run-without-histogram", "list"])
def test_malformed_report_is_config_error(program_file, tmp_path, capsys, malform):
    report_path = tmp_path / "report.json"
    assert main(["campaign", *run_flags(program_file, tmp_path),
                 "--runs", "2", "--report", str(report_path)]) == 0
    capsys.readouterr()
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(malform(json.loads(report_path.read_text()))))
    assert main(["report", "--in", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "dime: config error: not a dime report file\n"


def test_nan_period_is_named_in_the_config_error(program_file, capsys):
    # `nan <= 0` is false, so a test of that form let nan through to the
    # budget test, whose message named the budget.
    assert main(["run", "--program", program_file, "--period", "nan",
                 "--budget", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "dime: config error: period must be > 0\n"


@pytest.mark.parametrize("command,outputs", [
    ("oracle", {"--tool-out": "p1.dime"}),
    ("run", {"--log-file": "p1.dime"}),
    ("run", {"--tool-out": "p1.dime"}),
    ("run", {"--tool-out": "run.log"}),
    ("campaign", {"--log-file": "sub/../p1.dime"}),
    ("campaign", {"--report": "p1.dime"}),
    ("campaign", {"--report": "run.log"}),
    ("campaign", {"--report": "out.txt", "--tool-out": "out.txt"}),
    ("campaign", {"--tool-out": "link.log"}),
], ids=["oracle-tool-out-program", "run-log-program", "run-tool-out-program",
        "run-tool-out-log", "campaign-log-program-dotdot", "campaign-report-program",
        "campaign-report-log", "campaign-report-tool-out", "campaign-tool-out-log-symlink"])
def test_output_naming_the_program_or_another_output_is_config_error(
        program_file, tmp_path, capsys, monkeypatch, command, outputs):
    def oracle(*args, **kwargs):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(harness, "run_oracle", oracle)
    (tmp_path / "sub").mkdir()
    log = tmp_path / "run.log"
    log.write_bytes(b"# dime-log v1 strategy=hash\nmain,999\n")
    (tmp_path / "link.log").symlink_to(log)
    files = {path: path.read_bytes() for path in (tmp_path / "p1.dime", log)}
    argv = [command, *run_flags(program_file, tmp_path)]
    if command == "oracle":
        argv = [command, "--program", program_file]
    for flag, name in outputs.items():
        argv += [flag, str(tmp_path / name)]
    if command == "campaign":
        argv += ["--runs", "2"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("dime: config error:") and err.count("\n") == 1
    assert "names the same file as" in err
    assert {path: path.read_bytes() for path in files} == files
    assert not (tmp_path / "out.txt").exists()


def test_log_file_of_the_none_strategy_may_name_the_program(program_file, capsys):
    # The none strategy writes no log, so its --log-file names nothing written.
    with open(program_file, "rb") as fh:
        before = fh.read()
    assert main(["run", "--program", program_file, "--log-strategy", "none",
                 "--log-file", program_file]) == 0
    with open(program_file, "rb") as fh:
        assert fh.read() == before


def test_campaign_keeps_files_named_like_the_logs_temporary_file(tmp_path, capsys):
    # A save once wrote `<log>.tmp` and renamed it over the log, so it
    # destroyed any file of that name, the program included.
    program, other = tmp_path / "run.log.tmp", tmp_path / "other.log.tmp"
    program.write_text(P1_DET)
    other.write_bytes(b"not a log\n")
    for log in ("run.log", "other.log"):
        assert main(["campaign", "--program", str(program), "--runs", "2",
                     "--log-strategy", "hash", "--log-file", str(tmp_path / log),
                     "--budget", "3", "--period", "10"]) == 0
    assert program.read_text() == P1_DET
    assert other.read_bytes() == b"not a log\n"
    assert sorted(os.listdir(tmp_path)) == ["other.log", "other.log.tmp", "run.log",
                                            "run.log.tmp"]


# Each run flag with a value, and the field and value it must set.  The values
# differ from RunConfig's defaults, and the numbers from each other, so two
# swapped fields show.  The flags of a group are given together: --period
# alone leaves B = inf above T, and a log strategy needs a log file.  One
# group spells inf in the two forms --period and --budget accept; those are
# the defaults, and it comes before the finite pair, which all flags
# together then set.
FLAG_GROUPS = [
    [("--tool", "cct", "tool", "cct")],
    [("--granularity", "all", "granularity", "all")],
    [("--period", "Infinity", "period", math.inf), ("--budget", "inf", "budget", math.inf)],
    [("--budget", "3", "budget", 3), ("--period", "10", "period", 10)],
    [("--ca", "2", "analysis_cost", 2)],
    [("--cbc", "4", "check_cost", 4)],
    [("--cir", "5", "compile_cost", 5)],
    [("--max-len", "6", "max_trace_len", 6)],
    [("--max-steps", "70", "max_steps", 70)],
    [("--seed", "8", "seed", 8)],
    [("--log-strategy", "bst", "log_strategy", "bst"),
     ("--log-file", "x.log", "log_path", "x.log")],
]
RUN_COMMANDS = [["oracle"], ["run"], ["campaign", "--runs", "2"]]


def built_config(argv):
    """The RunConfig a command line builds, and the RunConfig fields its
    parsed arguments name."""
    args = cli.build_parser().parse_args(argv)
    named = set(vars(args)) & {field.name for field in fields(RunConfig)}
    return cli._load_config(args), named


def settings_of(config) -> dict:
    return {field.name: getattr(config, field.name) for field in fields(RunConfig)
            if field.name != "program"}


@pytest.mark.parametrize("command", RUN_COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("group", [[], *FLAG_GROUPS], ids=lambda g: g[0][0] if g else "none")
def test_a_flag_not_given_leaves_runconfigs_default(program_file, command, group):
    # With only the required flags the config is RunConfig's defaults; with
    # one group of flags more, only that group's fields differ from them.
    argv = [*command, "--program", program_file]
    for flag, text, _, _ in group:
        argv += [flag, text]
    config, named = built_config(argv)
    given = {field: value for _, _, field, value in group}
    assert named == {"program_path", *given}
    expected = RunConfig(program=config.program, program_path=program_file, **given)
    assert settings_of(config) == settings_of(expected)


@pytest.mark.parametrize("command", RUN_COMMANDS, ids=lambda c: c[0])
def test_every_run_flag_sets_its_field(program_file, command):
    flags = [flag for group in FLAG_GROUPS for flag in group]
    argv = [*command, "--program", program_file]
    for flag, text, _, _ in flags:
        argv += [flag, text]
    config, _ = built_config(argv)
    expected = {"program_path": program_file, "capture_path": False,
                **{field: value for _, _, field, value in flags}}
    assert settings_of(config) == expected


# Two images of 3 and 2 instructions.
SHORT = """\
image main 0
    op 1
    op 1
    halt
image lib 100
    op 1
    ret
"""


def run_short(tmp_path, strategy, body):
    """`dime run --resume` of SHORT from a log holding `body`: the exit code
    and whether the log file's bytes are unchanged."""
    program = tmp_path / "short.dime"
    program.write_text(SHORT)
    log = tmp_path / "short.log"
    log.write_bytes(f"# dime-log v1 strategy={strategy}\n".encode() + body)
    before = log.read_bytes()
    code = main(["run", "--program", str(program), "--log-strategy", strategy,
                 "--log-file", str(log), "--budget", "3", "--period", "10", "--resume"])
    return code, log.read_bytes() == before


@pytest.mark.parametrize("strategy, body, message", [
    ("hash", b"nosuch,5\n", "names image 'nosuch', which the program lacks"),
    ("hash", b"main,10" + b"0" * 29 + b"\n", "reaches past the end of image 'main'"),
    ("hash", b"main,3\n", "reaches past the end of image 'main'"),
    ("hash", b"lib,1\nlib,2\n", "reaches past the end of image 'lib'"),
    ("bst", b"main,0,4\n", "reaches past the end of image 'main'"),
    ("bst", b"main,2,2\n", "reaches past the end of image 'main'"),
    ("merger", b"lib,0,1\nlib,1,2\n", "reaches past the end of image 'lib'"),
    ("merger", b"main,0,1\nother,0,1\n", "names image 'other', which the program lacks"),
    ("bst", b"main, 0,1_0\n", ":2: number not in the form save writes"),
    ("hash", b"main, 1\n", ":2: number not in the form save writes"),
    ("hash", b"main,+1\n", ":2: number not in the form save writes"),
    ("hash", b"main,01\n", ":2: number not in the form save writes"),
    ("bst", b"main,0,2 \n", ":2: number not in the form save writes"),
    ("bst", b"main,-0,2\n", ":2: number not in the form save writes"),
    ("merger", b"main,0,1_0\n", ":2: number not in the form save writes"),
], ids=["hash-no-image", "hash-10e29", "hash-at-end", "hash-lib-at-end", "bst-past-end",
        "bst-overhang", "merger-overhang", "merger-no-image", "bst-space-underscore",
        "hash-space", "hash-plus", "hash-leading-zero", "bst-trailing-space",
        "bst-minus-zero", "merger-underscore"])
def test_log_that_does_not_fit_the_program_is_config_error(tmp_path, capsys, strategy,
                                                            body, message):
    code, unchanged = run_short(tmp_path, strategy, body)
    out, err = capsys.readouterr()
    assert (code, out, unchanged) == (1, "", True)
    assert err.startswith("dime: config error:") and err.count("\n") == 1
    assert message in err and str(tmp_path / "short.log") in err


@pytest.mark.parametrize("strategy, body", [
    ("hash", b"main,0\nmain,2\nlib,1\n"),
    ("bst", b"main,0,3\nlib,0,2\n"),
    ("merger", b"main,1,2\nlib,1,1\n"),
], ids=["hash", "bst", "merger"])
def test_log_that_fits_the_program_runs(tmp_path, capsys, strategy, body):
    # Entries that end exactly at an image's end (a hash start at its last
    # instruction) fit.
    code, _ = run_short(tmp_path, strategy, body)
    assert code == 0
    assert capsys.readouterr().err == ""


def test_killed_campaign_leaves_a_log_some_save_wrote(tmp_path):
    # A campaign whose log grows at every run is killed (SIGKILL) after
    # seeded delays spread over its run time.  The log file must then load
    # and hold either the bytes it held before the campaign or those of
    # one of the campaign's saves; a temporary file of the killed process
    # may be left beside it.
    program, log = tmp_path / "wide.dime", tmp_path / "run.log"
    program.write_text(wide_program(300))
    before = b"# dime-log v1 strategy=bst\nmain,0,1\n"
    runs = 40
    argv = ["--program", str(program), "--runs", str(runs), "--log-strategy", "bst",
            "--log-file", str(log), "--budget", "1", "--period", "300"]
    saves = []
    real_save = redundancy.LogStore.finalize_and_save

    def save(store, path):
        real_save(store, path)
        saves.append(log.read_bytes())

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(redundancy.LogStore, "finalize_and_save", save)
        assert main(["campaign", *argv]) == 0
    assert len(set(saves)) == runs and before not in saves
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    command = [sys.executable, "-m", "dime.cli", "campaign", *argv]

    def start():
        log.write_bytes(before)
        return subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)

    child = start()
    began = time.monotonic()
    try:
        assert child.wait(timeout=60) == 0
        duration = time.monotonic() - began
        assert log.read_bytes() == saves[-1]
        rng, kills, killed, pids = random.Random(11), 10, 0, set()
        for i in range(kills):
            child = start()
            time.sleep(duration * (i + rng.random()) / kills)
            child.kill()
            killed += child.wait(timeout=60) == -signal.SIGKILL
            pids.add(child.pid)
            assert log.read_bytes() in (before, *saves)
            redundancy.load(log)
            for name in set(os.listdir(tmp_path)) - {"wide.dime", "run.log"}:
                stray = re.fullmatch(r"run\.log\.(\d+)\.tmp", name)
                assert stray and int(stray[1]) in pids, name
        assert killed
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
