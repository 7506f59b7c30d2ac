import json

import pytest

from dime.cli import main

from conftest import P1_DET, CALLS


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


def test_bad_report_file(tmp_path, capsys):
    path = tmp_path / "x.json"
    path.write_text("{}")
    assert main(["report", "--in", str(path)]) == 1
