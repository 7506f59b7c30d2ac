import json

import pytest

from dime import harness
from dime.cli import main

from conftest import P1_DET, CALLS, wall_budget


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


def test_guest_error_exit_code(tmp_path, capsys):
    loop = tmp_path / "loop.dime"
    loop.write_text("image m 0\nL: jmp L\n")
    assert main(["oracle", "--program", str(loop), "--max-steps", "99"]) == 2
    assert "guest error" in capsys.readouterr().err


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
@pytest.mark.parametrize("flag,message", [
    ("--max-steps", "step limit must be >= 1"),
    ("--ca", "analysis cost must be > 0 when a tool is attached"),
    ("--max-len", "max trace length must be >= 1"),
], ids=["max-steps", "ca", "max-len"])
def test_bad_run_setting_fails_before_the_native_pass(program_file, capsys, monkeypatch,
                                                      command, flag, message):
    def native(*args, **kwargs):
        raise AssertionError("the native pass ran")

    monkeypatch.setattr(harness, "native_run", native)
    argv = [command, "--program", program_file, flag, "0"]
    if command == "campaign":
        argv += ["--runs", "2"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"dime: config error: {message}\n"


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
