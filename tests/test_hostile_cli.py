"""Hostile input through `cli.main`, in-process: mutated program texts,
extreme flag values and stale or corrupt log files.

Whatever the draw, the command exits 0, 1 or 2.  A nonzero exit writes
exactly one `dime: ` line to stderr and no traceback.  A configuration
error (exit 1), and a guest error (exit 2) of a command with one run, leave
the log file as it was.  The step limit stays at 10**4 or below, so a
mutated program that loops ends in a guest error."""

import contextlib
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


@st.composite
def program_texts(draw):
    """A generated program with one or two of the parse corpus's mutations."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    lines = random_program(rng, max_instructions=rng.choice((30, 60))).splitlines()
    for _ in range(draw(st.integers(1, 2))):
        _mutate(rng, lines)
    return "\n".join(lines) + "\n"


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


@settings(max_examples=300, deadline=None)
@given(program_texts(), commands(), st.sampled_from(OLD_LOGS))
def test_hostile_command_lines_exit_with_one_error_line(text, argv, old_log):
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
