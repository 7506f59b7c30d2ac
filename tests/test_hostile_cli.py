"""Hostile input through `cli.main`, in-process: mutated program texts,
extreme flag values and stale or corrupt log files, among them valid saved
logs of each strategy with one mutation.

Whatever the draw, the command exits 0, 1 or 2.  A nonzero exit writes
exactly one `dime: ` line to stderr and no traceback.  A configuration
error (exit 1), and a guest error (exit 2) of a command with one run, leave
the log file as it was.  `dime run` refuses a saved log with a line break
that save never writes.  The step limit stays at 10**4 or below, so a
mutated program that loops ends in a guest error."""

import contextlib
import functools
import io
import os
import random
import tempfile

from hypothesis import given, settings, strategies as st

from dime.cli import main
from dime.corpus import random_program
from dime.redundancy import STRATEGIES

from conftest import wall_budget
from test_program import _mutate

# 0, negative, nan, inf, subnormal, the largest exact float integer and one
# past it, and a numeral past float range.
VALUES = ("0", "-1", "nan", "inf", "1e-320", str(2**53 - 1), str(2**53 + 1), str(10**400))
VALUE_FLAGS = ("--ca", "--cbc", "--cir", "--budget", "--period", "--seed")
# The log file's bytes before the command: none, valid logs, one whose entry
# may not fit the program, and bytes that are no log.
OLD_LOGS = (None, b"# dime-log v1 strategy=hash\n", b"# dime-log v1 strategy=bst\nmain,0,2\n",
            b"# dime-log v1 strategy=merger\nmain,1,99999\n", b"image main 0\n\xff\n")
SAVED = ("hash", "bst", "merger")
# Numbers that int() reads but that save never writes.
NUMBER_FORMS = ("+{}", "0{}", " {}", "{} ", "{}.0", "-{}", "1_{}", "{}\t")
# Line breaks to str.splitlines() that save never writes: save ends each line
# with a line feed, and load splits at nothing else.
LINE_BREAKS = (b"\r", b"\x0c", b"\x1c", b"\x1d", b"\x1e")


@st.composite
def program_texts(draw):
    """A generated program with one or two of the parse corpus's mutations."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    lines = random_program(rng, max_instructions=rng.choice((30, 60))).splitlines()
    for _ in range(draw(st.integers(1, 2))):
        _mutate(rng, lines)
    return "\n".join(lines) + "\n"


@functools.cache
def saved_log(strategy):
    """(program text, log bytes) of a two-run campaign under `strategy`."""
    text = random_program(random.Random(3))
    with tempfile.TemporaryDirectory() as tmp:
        program, log = os.path.join(tmp, "p.dime"), os.path.join(tmp, "run.log")
        with open(program, "w", encoding="utf-8") as fh:
            fh.write(text)
        assert invoke(["campaign", "--program", program, "--runs", "2", "--budget", "3",
                       "--period", "10", "--log-strategy", strategy,
                       "--log-file", log]) == (0, "")
        with open(log, "rb") as fh:
            data = fh.read()
    assert data.count(b"\n") >= 3  # a header and at least two entries
    return text, data


@st.composite
def mutated_logs(draw, strategy):
    """(kind, bytes) of `strategy`'s saved log with one mutation of that
    kind: one bit flipped, a dropped, duplicated or swapped line, another
    header strategy, truncation, a number in a form save never writes, or a
    line feed replaced by, or put after, another line break."""
    data = saved_log(strategy)[1]
    lines = data.split(b"\n")[:-1]
    kind = draw(st.sampled_from(("flip", "drop", "duplicate", "swap", "header",
                                 "truncate", "number", "line break")))
    if kind == "flip":
        i = draw(st.integers(0, len(data) - 1))
        return kind, data[:i] + bytes([data[i] ^ 1 << draw(st.integers(0, 7))]) + data[i + 1:]
    if kind == "truncate":
        return kind, data[:draw(st.integers(0, len(data) - 1))]
    if kind == "line break":
        i = draw(st.sampled_from([i for i, byte in enumerate(data) if byte == ord("\n")]))
        # data[i + 1:] drops the line feed, data[i:] keeps it after the break
        return kind, (data[:i] + draw(st.sampled_from(LINE_BREAKS))
                      + data[i + draw(st.integers(0, 1)):])
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "header":
        other = draw(st.sampled_from(("hash", "bst", "merger", "none", "", "BST")))
        lines[0] = b"# dime-log v1 strategy=" + other.encode()
    else:  # a number of an entry line
        i = max(i, 1)
        fields = lines[i].split(b",")
        k = draw(st.integers(1, len(fields) - 1))
        form = draw(st.sampled_from(NUMBER_FORMS))
        fields[k] = form.format(fields[k].decode()).encode()
        lines[i] = b",".join(fields)
    return kind, b"\n".join(lines) + b"\n"


@st.composite
def commands(draw):
    """A command and its flags, without --program and --log-file."""
    command = draw(st.sampled_from(("oracle", "run", "campaign")))
    argv = [command, "--max-steps", str(draw(st.integers(0, 10**4))),
            "--log-strategy", draw(st.sampled_from(STRATEGIES))]
    if command == "campaign":
        argv += ["--runs", str(draw(st.integers(1, 2)))]
    elif command == "run" and draw(st.booleans()):
        argv.append("--resume")
    for flag in VALUE_FLAGS:
        if draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(VALUES))]
    return argv


def invoke(argv):
    """main(argv)'s exit code and stderr text."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's errors exit
            code = exc.code
    return code, err.getvalue()


def check_command(text, argv, old_log):
    """Run argv[0] on program `text` and a log file holding `old_log` (None:
    no file), and check the exit code, stderr and the log's bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        program, log = os.path.join(tmp, "p.dime"), os.path.join(tmp, "run.log")
        with open(program, "w", encoding="utf-8") as fh:
            fh.write(text)
        if old_log is not None:
            with open(log, "wb") as fh:
                fh.write(old_log)
        with wall_budget(20.0):
            code, err = invoke([argv[0], "--program", program, "--log-file", log, *argv[1:]])
        # The budget's TimeoutError is an OSError, which main reports as exit 1.
        assert "wall budget" not in err
        assert code in (0, 1, 2)
        if code == 0:
            assert err == ""
        else:
            assert err.startswith("dime: ") and err.endswith("\n")
            assert err.count("\n") == 1 and "Traceback" not in err
        # A config error stops a command before any run, and a one-run
        # command saves the log only once its run ends, so neither that nor
        # a guest error in its one run may touch the log.
        runs = int(argv[argv.index("--runs") + 1]) if "--runs" in argv else 1
        if code == 1 or (code == 2 and runs == 1):
            if old_log is None:
                assert not os.path.exists(log)
            else:
                with open(log, "rb") as fh:
                    assert fh.read() == old_log
    return code, err


@settings(max_examples=300, deadline=None)
@given(program_texts(), commands(),
       st.one_of(st.sampled_from(OLD_LOGS),
                 st.sampled_from(SAVED).flatmap(mutated_logs).map(lambda m: m[1])))
def test_hostile_command_lines_exit_with_one_error_line(text, argv, old_log):
    check_command(text, argv, old_log)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SAVED).flatmap(
           lambda strategy: st.tuples(st.just(strategy), mutated_logs(strategy))),
       st.sampled_from(("run", "run --resume", "campaign --runs 2")),
       st.integers(0, 3))
def test_mutated_saved_logs_exit_with_one_error_line(saved, command, seed):
    # The program and strategy the log was saved for, and valid flags, so
    # that the mutated bytes reach load and the checks of a loaded log.
    strategy, (kind, old_log) = saved
    argv = [*command.split(), "--log-strategy", strategy, "--budget", "3",
            "--period", "10", "--seed", str(seed)]
    code, err = check_command(saved_log(strategy)[0], argv, old_log)
    if kind == "line break" and argv[0] == "run":
        # load refuses a line break save never writes (exit 1 keeps the old
        # bytes, as check_command asserts); a campaign reads no log file.
        assert code == 1 and err.startswith("dime: config error: ")
