"""Trace-based virtual machine with versioned instrumentation.

Execution proceeds trace by trace under a virtual clock.  A trace is a
straight-line run of instructions with a single entry point: conditionals may
sit anywhere (each is an exit), and the first jmp/call/ret/halt closes it.
A run keeps one trace cache per version, keyed by entry address, and the
trace shapes are kept in a TraceMemo that the runs of a campaign share.
TraceMemo.shape is the only way to a shape: it applies the cut rule (_cut)
and compiles each shape it has not seen with form_trace, once.

Two versions exist per trace: V_INSTRUMENT carries analysis calls at its
instrumentation points (when the redundancy log permits), V_BASE carries
none.  A budget check comes before every instrumentation point in both
versions; when its result disagrees with the running trace's version, the
trace is abandoned at that instruction and execution re-enters a trace of
the other version starting there.  Analysis calls are atomic: once the
check passes, the call completes even if it spends the budget past zero.

The check's answer can change only at a charge that spends the budget or at
the next period boundary.  Each check, and each charge that spends the
budget, leaves on the server the time its answer holds until
(BudgetState.horizon), and the server publishes the time until which the
answer is 1 from there on (BudgetState.refill: with B > 0, every boundary
refills the budget).  So run() reuses the answer at the points before the
horizon with one float compare, takes 1 past the horizon of a spending
charge without asking, asks the server only when neither holds, and checks
once more at the last point when the run ends, so the server closes the
same periods.  check_cost is still charged to the clock at every point.
An unlimited server (B = inf, so T = inf) is asked twice however long the
run is, and charged once: no charge can change its answer, so run() sums
analysis_cost per analysis call and charges the sum before the last check,
which leaves the server's loads as the per-call charges would.  A run that
raises leaves such a server uncharged.

When execution leaves an instrumented trace (fall-through, taken exit,
version switch, or halt), the portion from the trace start through the last
instruction whose analysis call executed is committed to the log.

A compiled trace is executed from its body.  Each item is one instruction
that is not an op, as its (kind, target, arg) tuple from TraceMemo.code,
together with the maximal run of ops before it that holds no
instrumentation point: ops touch no guest state, so the item adds their
cost to the clock in the same step, before the instruction's point check
when it has one.  At `all` every op is a point and an item of its own.  An
op run that ends the trace, or that a halt at `ctrl` ends, is an item
without an instruction.  run() dispatches each item's instruction inline
from its tuple, with no call per instruction, and no op is ever
dispatched; a tool record is built only for a taken transfer whose
analysis call ran and whose instruction kind the tool keeps, and the run
keeps one shared tuple per distinct record.  The native pass dispatches
the instruction that ends each of its cached straight runs inline in the
same way.  Steps are counted per trace exit: an entry executes the
straight addresses pc .. pc+end-1, so run() adds `end` to the step count
(and that range to a captured path) once.  The step limit is tested once
per entry; only an entry that could pass it runs a cut body, which stops
at the first instruction past the limit after that instruction's point
check, and then raises.

An instrumented trace keeps the longest (image, rel_start, prefix) entry
that the run committed from it, and an exit with the same prefix records
that very tuple again, so a loop's repeated commits share one.

A br's outcomes come from its pattern, in order and cyclically, counted
per run and per address.  A cold br keeps in the run's `pattern_pos` the
number of times it has executed, and reads its outcome from the pattern by
that count.  On its HOT_BRANCH-th execution in the run the count gives way
to an itertools.cycle over the pattern, rotated to the next outcome, and
each later execution is one next() on it.  The cursor is kept per address,
so every trace, version and native block that ends at the br draws from it.
Making a cursor costs about two cold executions and adds an object the
collector tracks, so a br that runs only a few times per run stays cold.

Trace walks and the native pass read the program's instruction columns, so
no run builds an Instruction object.  An analysis call does no bookkeeping
beyond its clock and its charge: every point that an entry reaches before
its exit either switches versions, which ends the entry, or is analyzed,
so the points an entry analyzed are those of its committed prefix, and the
committed entries are the run's only record of them.

Both interpreters take every setting from one RunConfig and return an
ExecutionOutcome.  native_run reads only the program, seed, step limit and
capture_path, and leaves the outcome's record fields empty; run() keeps
the records of the tool that the config names.  A RunConfig checks every
setting, the period and budget, tool and log strategy included, when it is
built, so no pass, native or instrumented, starts from a bad one.

A run keeps what it reports as plain tuples of strings, numbers and bools,
which the garbage collector stops tracking: the tool's (kind, src, dst)
records, the committed (image, rel_addr, length) entries and the permit
queries ((image, rel_addr, length), permitted).  The same triples go to
LogStore.commit and to the observer, and ExecutionOutcome holds them as
they are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, cycle
from random import Random

from .budget import BudgetState, V_BASE, V_INSTRUMENT
from .program import (CONTROL_TRANSFERS, Program, TERMINATORS,
                      BR, CALL, JMP, NDBR, OP, RET)
from .redundancy import LogStore
from .tools import record_kinds

GRANULARITIES = ("ctrl", "all")

# The execution of a br in a run at which its count gives way to a cursor
# (see the module docstring).  A cursor made at the first execution slowed
# the native pass of a guest whose brs run 1-4 times per run by over a quarter.
HOT_BRANCH = 8

# The largest analysis, check or compile cost a run accepts: every cost up to
# it converts to a float exactly, as the budget arithmetic and the slow-down
# ratio need, where a larger one may not convert at all (OverflowError).
MAX_COST = 2**53


class ConfigError(ValueError):
    """Run configuration violates a contract."""


class GuestError(RuntimeError):
    """The guest program misbehaved (bad address, empty-stack ret, step limit)."""


@dataclass(frozen=True)
class ExecutionOutcome:
    """What one run did.  Each record stream is a tuple of plain tuples,
    which the garbage collector stops tracking; native_run leaves them empty."""

    virtual_time: float
    steps: int
    tool_output: tuple        # (kind, src, dst) per tool record, in order
    committed_entries: tuple  # (image, rel_addr, length) per exit that committed
    permits: tuple            # ((image, rel_addr, length), permitted) in query order
    overshoots: tuple
    addr_path: tuple | None = None


@dataclass(frozen=True)
class RunConfig:
    """Every setting of one run; the CLI and campaign driver fill it.

    A config checks itself when it is built, dataclasses.replace included:
    a setting that run() cannot honour raises ConfigError, and a period and
    budget, tool name or log strategy that BudgetState, record_kinds or
    LogStore rejects raises their ValueError.  So every config that exists
    is valid, and a bad setting fails before any guest step.
    """

    program: Program
    program_path: str | None = None
    granularity: str = "ctrl"
    period: float = math.inf      # T
    budget: float = math.inf      # B
    analysis_cost: int = 1        # charged per analysis call, to clock and budget
    check_cost: int = 0           # charged per budget check, to the clock only
    compile_cost: int = 0         # charged per trace compilation, to the clock only
    max_trace_len: int = 16
    max_steps: int = 100_000
    seed: int = 0
    log_strategy: str = "none"
    log_path: str | None = None
    tool: str = "branch"
    capture_path: bool = False

    def __post_init__(self):
        if self.granularity not in GRANULARITIES:
            raise ConfigError(f"unknown granularity {self.granularity!r}")
        if not self.analysis_cost > 0:  # nan included
            raise ConfigError("analysis cost must be > 0")
        for cost in (self.analysis_cost, self.check_cost, self.compile_cost):
            if not 0 <= cost <= MAX_COST:  # nan included
                raise ConfigError("costs must be " + ("<= 2**53" if cost > MAX_COST
                                                      else ">= 0"))
        if not self.max_trace_len >= 1:  # nan included
            raise ConfigError("max trace length must be >= 1")
        if self.max_trace_len % 1 and self.max_trace_len != math.inf:
            # a trace would never reach such a length, and walk off its image
            raise ConfigError("max trace length must be a whole number or inf")
        if not self.max_steps >= 1:
            raise ConfigError("step limit must be >= 1")
        # Not make_budget(): the benchmark's tracer counts runs by its calls.
        BudgetState(self.period, self.budget)
        record_kinds(self.tool)
        LogStore(self.log_strategy)
        if self.log_strategy != "none" and self.log_path is None:
            raise ConfigError("log strategy requires a log file path")

    def make_budget(self) -> BudgetState:
        return BudgetState(period=self.period, budget=self.budget)


def form_trace(memo: TraceMemo, entry: int, max_len: int) -> tuple:
    """(image, rel_start, length, body) of the trace from `entry` in
    `memo`'s program at its granularity, closed at the first
    jmp/call/ret/halt (inclusive), at max_len or at the image end, with its
    body compiled on the way.

    The body holds, in order, (offset, address, is a point, lead, cost,
    (kind, target, arg)) per instruction, where lead is the summed cost of
    the ops folded in before it and the tuple is the one in `memo.code` (an
    op at `all` has None for it); an op run that no instruction ends is an
    item (offset, None, False, 0, its summed cost, None).  Items hold
    numbers, strings and the memo's code tuples only, so the garbage
    collector stops tracking them and cached traces add little to its full
    scans.
    """
    img = memo.program.image_of(entry)
    if img is None:
        raise GuestError(f"address {entry} outside every image")
    every = memo.granularity == "all"
    code = memo.code
    kinds, costs = img.kinds, img.costs
    rel = entry - img.base
    limit = min(max_len, len(kinds) - rel)  # max_len or the image end
    body: list[tuple] = []
    ops = lead = 0  # the open run of ops, which hold no point
    length = 0
    while True:
        i = rel + length
        kind = kinds[i]
        if kind == OP and not every:
            ops += 1
            lead += costs[i]
        else:
            point = every or kind in CONTROL_TRANSFERS
            if ops and not point:
                # A halt at `ctrl`.  Only points add a lead, so its ops stay
                # an item: folding their cost into the halt's would change
                # the order of additions to a float clock.
                body.append((length - ops, None, False, 0, lead, None))
                lead = 0
            ins = None if kind == OP else code[entry + length]
            body.append((length, entry + length, point, lead, costs[i], ins))
            ops = lead = 0
        length += 1
        if kind in TERMINATORS or length == limit:
            break
    if ops:
        body.append((length - ops, None, False, 0, lead, None))
    return img.name, rel, length, tuple(body)


def _cut(entry: int, length: int, cached_entries) -> int:
    """The length of a walk of `length` from `entry` once it stops just
    before the entry point of an already-cached trace of the same version:
    a jump into the middle of cached code starts a fresh trace at the target
    rather than extending across it."""
    if cached_entries.isdisjoint(range(entry + 1, entry + length)):
        return length
    return next(i for i in range(1, length) if entry + i in cached_entries)


class TraceMemo:
    """Trace shapes compiled for the program, max trace length and
    granularity of a config, shared by every run that passes it to run()
    with a config that agrees on those three.

    A shape depends on nothing else, so a campaign compiles each one once:
    per entry address the uncut walk, and per (entry, length) each shorter
    shape that the cut rule asks for.  Shapes are plain tuples of numbers
    and strings, which the garbage collector stops tracking, and V_BASE and
    V_INSTRUMENT traces share them.  `code` maps the address of each
    instruction that does something when executed (every kind but op), at
    both granularities, to its (kind, target, arg), read from the
    program's columns.
    """

    def __init__(self, config: RunConfig):
        self.program = program = config.program
        self.max_len = config.max_trace_len
        self.granularity = config.granularity
        self.code = {addr: (kind, target, arg) for img in program.images
                     for addr, kind, target, arg in zip(count(img.base), img.kinds,
                                                        img.targets, img.args)
                     if kind != OP}
        self._walks: dict[int, tuple] = {}
        self._cuts: dict[tuple[int, int], tuple] = {}

    def shape(self, entry: int, cached_entries) -> tuple:
        """(image, rel_start, length, body) of the trace from `entry`, cut
        just before the first of `cached_entries` (a set of addresses, the
        entry points of already-cached traces of the running version) that
        falls inside it, compiling it only on a miss."""
        walk = self._walks.get(entry)
        if walk is None:
            walk = self._walks[entry] = form_trace(self, entry, self.max_len)
        length = _cut(entry, walk[2], cached_entries)
        if length == walk[2]:
            return walk
        shape = self._cuts.get((entry, length))
        if shape is None:
            shape = self._cuts[(entry, length)] = form_trace(self, entry, length)
        return shape


def _cursor(pattern: str, executions: int):
    """The outcomes of a br with `pattern` after its first `executions`
    executions, one next() each, without end."""
    k = executions % len(pattern)
    return cycle(pattern[k:] + pattern[:k])


def _native_block(program: Program, pc: int) -> tuple:
    """(steps, cost, addr, kind, target, arg) of the straight run from `pc`:
    its leading ops and the instruction at `addr` that ends them, or the ops
    alone, with None for the last four, when they reach the end of their
    image."""
    img = program.image_of(pc)
    if img is None:
        raise GuestError(f"address {pc} outside every image")
    kinds, costs = img.kinds, img.costs
    start = i = pc - img.base
    cost = 0
    while i < len(kinds):
        cost += costs[i]
        if kinds[i] != OP:
            return i + 1 - start, cost, img.base + i, kinds[i], img.targets[i], img.args[i]
        i += 1
    return i - start, cost, None, None, None, None


def native_run(config: RunConfig) -> ExecutionOutcome:
    """Run the guest with no instrumentation at all: pure guest cost.

    Reads only the config's program, seed, max_steps and capture_path, and
    returns an outcome whose record fields are empty.  Straight runs are
    looked up once and then cached by start address, so each later visit
    executes its ops in one step and dispatches the instruction that ends
    them inline.  Once a br is hot, the first block that reaches it after
    that holds its cursor in place of its pattern, so the block draws from
    it with no lookup; the cache lives only as long as the call.
    """
    program = config.program
    max_steps = config.max_steps
    random = Random(config.seed).random
    pattern_pos: dict[int, int | cycle] = {}
    last_cold = HOT_BRANCH - 1
    call_stack: list[int] = []
    blocks: dict[int, tuple] = {}
    pc = program.entry
    t = 0
    steps = 0
    path = [] if config.capture_path else None
    while True:
        block = blocks.get(pc)
        if block is None:
            block = blocks[pc] = _native_block(program, pc)
        n, cost, at, kind, nxt, arg = block
        steps += n
        if steps > max_steps:
            raise GuestError("step limit exceeded")
        if path is not None:
            path.extend(range(pc, pc + n))
        t += cost
        if kind == BR:
            if type(arg) is str:  # the block holds the pattern, not a cursor
                pos = pattern_pos.get(at, 0)
                if type(pos) is int:  # cold: pos counts the executions so far
                    pattern_pos[at] = pos + 1 if pos < last_cold else _cursor(arg, pos + 1)
                    if arg[pos % len(arg)] != "T":
                        nxt = at + 1
                else:  # hot: the block holds the cursor from now on
                    blocks[pc] = n, cost, at, kind, nxt, pos
                    if next(pos) != "T":
                        nxt = at + 1
            elif next(arg) != "T":
                nxt = at + 1
        elif kind == NDBR:
            if not random() < arg:
                nxt = at + 1
        elif kind == CALL:
            call_stack.append(at + 1)
        elif kind == RET:
            if not call_stack:
                raise GuestError(f"ret at {at} with empty call stack")
            nxt = call_stack.pop()
        elif kind is None:  # fall through to the next image, or off every image
            nxt = pc + n
        elif kind != JMP:  # halt
            return ExecutionOutcome(t, steps, (), (), (), (),
                                    tuple(path) if path is not None else None)
        pc = nxt


def run(config: RunConfig, log: LogStore, budget: BudgetState, observer=None,
        memo: TraceMemo | None = None) -> ExecutionOutcome:
    """Execute the guest under the budget server and redundancy log,
    recording the taken transfers that the tool config.tool names keeps.

    Every setting comes from `config`; `log`, `budget` and `memo` are the
    state the run starts from.  Deterministic for a fixed config and initial
    log; the guest's ndbr draws come from config.seed.  The optional
    observer sees permit decisions and commits in event order, which is
    what the campaign's referee (`harness.MetricsObserver`) scores live:
    `on_permit(candidate, permitted)` and `on_commit(entry)`, each entry a
    plain (image, rel_addr, length) tuple, as `log.commit` gets it.
    An exit that commits a prefix no longer than one this run already
    committed from the same compiled trace changes neither the log nor the
    referee, so it is recorded in the outcome's `committed_entries` only.

    `memo` holds trace shapes compiled by earlier runs of the same program,
    max trace length and granularity; without one the run makes its own.
    Either way the run compiles each trace into its own cache and charges
    compile_cost for it, so a memo changes no result.
    """
    program = config.program
    keeps = record_kinds(config.tool)
    if memo is None:
        memo = TraceMemo(config)
    elif (memo.program, memo.max_len, memo.granularity) != (
            program, config.max_trace_len, config.granularity):
        raise ConfigError("trace memo belongs to another program, max trace length "
                          "or granularity")
    # Guest-visible state: per br address its execution count while cold and
    # its cursor once hot (see HOT_BRANCH), the ndbr RNG and the call stack.
    # Instrumentation never touches it, so the executed address sequence is
    # the same with instrumentation on or off.
    random = Random(config.seed).random
    pattern_pos: dict[int, int | cycle] = {}
    last_cold = HOT_BRANCH - 1
    call_stack: list[int] = []
    # Per version (indexed by V_BASE and V_INSTRUMENT): entry ->
    # (image, rel_start, length, body, analysis attached).  A cache's keys
    # are the entry points that cut later walks of its version.
    caches: tuple[dict[int, tuple], dict[int, tuple]] = ({}, {})
    # entry -> the longest (image, rel_start, prefix) committed from its
    # trace, per instrumented trace; an exit that commits the same prefix
    # again records this tuple, so a loop's repeated commits share one.
    longest: dict[int, tuple[str, int, int]] = {}
    check, charge = budget.check, budget.charge
    check_cost = config.check_cost
    analysis_cost = config.analysis_cost
    max_steps = config.max_steps
    t = 0
    steps = 0
    version = V_INSTRUMENT
    pc = program.entry
    committed: list[tuple[str, int, int]] = []
    # The tool's records, one shared tuple per distinct (kind, src, dst).
    records: list[tuple[str, int, int]] = []
    shared: dict[tuple[str, int, int], tuple[str, int, int]] = {}
    queries: list[tuple[tuple[str, int, int], bool]] = []
    path = [] if config.capture_path else None
    halted = False
    # The budget's last answer and the time it holds until, then the time
    # until which V_INSTRUMENT holds from `until` on (the server's refill
    # after a charge that spent the budget); `now` is the time of the last
    # instrumentation point.
    answer = V_INSTRUMENT
    until = refilled = -math.inf
    now = None
    # B = inf (and so T = inf): no charge can change an answer, so the
    # analysis calls are summed here and charged once when the run ends.
    unlimited = budget.budget == math.inf
    spent = 0

    while not halted:
        cache = caches[version]
        compiled = cache.get(pc)
        if compiled is None:
            t += config.compile_cost
            image, rel, length, body = memo.shape(pc, cache.keys())
            analysis = False
            if version == V_INSTRUMENT:
                candidate = (image, rel, length)
                analysis = log.permit(image, rel, length)
                queries.append((candidate, analysis))
                if observer is not None:
                    observer.on_permit(candidate, analysis)
                if analysis:
                    longest[pc] = (image, rel, 0)
            compiled = cache[pc] = (image, rel, length, body, analysis)

        image, rel, length, body, analysis = compiled
        if steps + length > max_steps:
            # This entry may pass the step limit.  Drop the items that start
            # past it, and keep the point check and analysis call of the one
            # whose instruction is the first past it, but never execute that
            # instruction: the body then runs out where a test per item
            # would have raised.
            room = max_steps - steps
            body = [item if item[0] < room else item[:5] + (None,)
                    for item in body if item[0] <= room]
        last_analyzed: int | None = None
        # An exit sets `end`, the instructions this entry executed, and the
        # next pc.
        for off, at, point, lead, cost, ins in body:
            if point:
                now = t = t + lead
                if now >= until:
                    if now < refilled:
                        answer = V_INSTRUMENT
                        until = refilled
                    else:
                        answer = check(now)
                        until = refilled = budget.horizon
                t += check_cost
                if answer != version:
                    version = answer  # abandon before this instruction executes
                    end = off
                    next_pc = pc + off
                    break
                if analysis:
                    if unlimited:
                        spent += analysis_cost
                    elif not charge(analysis_cost, now):
                        answer = V_BASE
                        until = budget.horizon
                        # The refill starts at the horizon, so only a horizon
                        # past the charge, where its 0 holds, can have one.
                        refilled = budget.refill if until > now else until
                    t += analysis_cost
                    last_analyzed = off
            t += cost
            if ins is None:  # ops, which touch no guest state
                continue
            kind, nxt, arg = ins
            if kind == BR:
                pos = pattern_pos.get(at, 0)
                if type(pos) is int:  # cold: pos counts the executions so far
                    pattern_pos[at] = pos + 1 if pos < last_cold else _cursor(arg, pos + 1)
                    if arg[pos % len(arg)] != "T":
                        continue  # not taken: on to the next item
                elif next(pos) != "T":
                    continue
            elif kind == NDBR:
                if not random() < arg:
                    continue
            elif kind == CALL:
                call_stack.append(at + 1)
            elif kind == RET:
                if not call_stack:
                    raise GuestError(f"ret at {at} with empty call stack")
                nxt = call_stack.pop()
            elif kind != JMP:  # halt
                end = off + 1
                next_pc = None
                halted = True
                break
            # A taken transfer exits the trace.
            if last_analyzed == off and kind in keeps:
                record = (keeps[kind], at, nxt)
                records.append(shared.setdefault(record, record))
            end = off + 1
            next_pc = nxt
            break
        else:  # execution falls off the trace's end, or a cut body ran out
            if steps + length > max_steps:
                raise GuestError("step limit exceeded")
            end = length
            next_pc = pc + length

        steps += end
        if path is not None:
            path.extend(range(pc, pc + end))
        if last_analyzed is not None:
            prefix = last_analyzed + 1
            entry = longest[pc]
            if prefix > entry[2]:
                entry = longest[pc] = (image, rel, prefix)
                log.commit(entry)
                if observer is not None:
                    observer.on_commit(entry)
            elif prefix < entry[2]:
                entry = (image, rel, prefix)
            committed.append(entry)
        pc = next_pc

    if now is not None:
        if spent:
            # At the last point rather than the last call: a server may have
            # been checked since, and an unlimited one records no charge time.
            charge(spent, now)
        # Close the periods up to the last point, as checking there would.
        check(now)
    return ExecutionOutcome(
        virtual_time=t,
        steps=steps,
        tool_output=tuple(records),
        committed_entries=tuple(committed),
        permits=tuple(queries),
        overshoots=tuple(magnitude for _, magnitude in budget.overshoot_log),
        addr_path=tuple(path) if path is not None else None,
    )
