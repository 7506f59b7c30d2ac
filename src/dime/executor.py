"""Trace-based virtual machine with versioned instrumentation.

Execution proceeds trace by trace under a virtual clock.  A trace is a
straight-line run of instructions with a single entry point: conditionals may
sit anywhere (each is an exit), and the first jmp/call/ret/halt closes it.
A run keeps one trace cache per version, keyed by entry address, and the
trace shapes are kept in a TraceMemo that the runs of a campaign share.

Two versions exist per trace: V_INSTRUMENT carries analysis calls at its
instrumentation points (when the redundancy log permits), V_BASE carries
none.  A budget check comes before every instrumentation point in both
versions; when its result disagrees with the running trace's version, the
trace is abandoned at that instruction and execution re-enters a trace of
the other version starting there.  Analysis calls are atomic: once the
check passes, the call completes even if it spends the budget past zero.

The check's answer can change only at a charge that spends the budget or at
the next period boundary.  So run() asks the budget server only when the
clock reaches the time its last answer holds until
(BudgetState.stable_until), reuses the answer at the points before that
time, and checks once more at the last point when the run ends, so the
server closes the same periods.  check_cost is still charged to the clock
at every point.

When execution leaves an instrumented trace (fall-through, taken exit,
version switch, or halt), the portion from the trace start through the last
instruction whose analysis call executed is committed to the log.

A compiled trace is executed from its body, in which each maximal run of ops
holding no instrumentation point is one item: ops touch no guest state, so
the run adds its length to the step count and its summed cost to the clock
in one step.  For the same reason no op is ever stepped, not even one that
is an item of its own at `all` granularity: only the other instructions
reach the guest, each as the (kind, target, arg) tuple that TraceMemo.code
holds for its address, and an item whose address has no entry there is ops.

Trace walks and the native pass read the program's instruction columns, so
no run builds an Instruction object.  The analyzed addresses are kept as
plain absolute ints and mapped to (image, rel_addr) once, when the run ends.

A run keeps what it reports as plain tuples of strings, numbers and bools,
which the garbage collector stops tracking: the tool's (kind, src, dst)
records, the committed (image, rel_addr, length) entries and the permit
queries ((image, rel_addr, length), permitted).  The same triples go to
LogStore.commit and to the observer.  ExecutionOutcome builds BranchRecord
and LogEntry views of them only when they are read.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count

from .budget import BudgetState, V_BASE, V_INSTRUMENT
from .program import (AddressError, CONTROL_TRANSFERS, Program, TERMINATORS,
                      BR, CALL, JMP, NDBR, OP, RET)
from .redundancy import LogEntry, LogStore
from .tools import AnalysisTool, BranchRecord

GRANULARITIES = ("ctrl", "all")


class ConfigError(ValueError):
    """Run configuration violates a contract."""


class GuestError(RuntimeError):
    """The guest program misbehaved (bad address, empty-stack ret, step limit)."""


@dataclass(frozen=True)
class TraceDescriptor:
    image: str
    rel_start: int
    length: int
    version: int
    points: tuple[int, ...]  # instrumentation-point offsets within the trace
    # The compiled body, in order: (offset, address, is a point, steps,
    # cost) per instruction, except that each maximal run of ops holding no
    # point is one item (offset, None, False, its length, its summed cost).
    # Items hold numbers only, so the garbage collector stops tracking them
    # and cached traces add little to its full scans.
    # The body follows from the fields above, so it takes no part in equality.
    body: tuple = field(default=(), compare=False, repr=False)


@dataclass(frozen=True)
class ExecutionOutcome:
    """What one run did.  `records`, `commits` and `queries` are plain
    tuples; `tool_output`, `committed_entries` and `permits` are the same
    values as named tuples, built on first read and then cached.  Equality
    compares the fields only, so it does not depend on which views were read."""

    virtual_time: float
    steps: int
    analyzed_addrs: frozenset
    records: tuple    # (kind, src, dst) per tool record, in order
    commits: tuple    # (image, rel_addr, length) per exit that committed
    queries: tuple    # ((image, rel_addr, length), permitted) in query order
    overshoots: tuple
    addr_path: tuple | None = None

    @cached_property
    def tool_output(self) -> tuple:
        """`records` as BranchRecords."""
        return tuple(map(BranchRecord._make, self.records))

    @cached_property
    def committed_entries(self) -> tuple:
        """`commits` as LogEntries."""
        return tuple(map(LogEntry._make, self.commits))

    @cached_property
    def permits(self) -> tuple:
        """`queries` as (candidate LogEntry, permitted) pairs."""
        return tuple((LogEntry._make(c), ok) for c, ok in self.queries)


@dataclass
class RunConfig:
    """Everything one run consumes; the CLI and campaign driver fill it."""

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

    def make_budget(self) -> BudgetState:
        return BudgetState(period=self.period, budget=self.budget)


def _validate(config: RunConfig, tool) -> None:
    if config.granularity not in GRANULARITIES:
        raise ConfigError(f"unknown granularity {config.granularity!r}")
    if tool is not None and config.analysis_cost <= 0:
        raise ConfigError("analysis cost must be > 0 when a tool is attached")
    if config.check_cost < 0 or config.compile_cost < 0:
        raise ConfigError("costs must be >= 0")
    if config.max_trace_len < 1:
        raise ConfigError("max trace length must be >= 1")
    if config.max_steps < 1:
        raise ConfigError("step limit must be >= 1")


def _walk(program: Program, entry: int, max_len: int, every: bool) -> tuple:
    """(image, rel_start, length, body, points) of the walk from `entry`,
    closed at the first jmp/call/ret/halt (inclusive), at max_len or at the
    image end, with its body compiled on the way (see TraceDescriptor)."""
    img = program.image_of(entry)
    if img is None:
        raise AddressError(f"address {entry} outside every image")
    kinds, costs = img.kinds, img.costs
    rel = entry - img.base
    limit = min(max_len, len(kinds) - rel)  # max_len or the image end
    points: list[int] = []
    body: list[tuple] = []
    ops = cost = 0  # the open run of ops, which hold no point
    length = 0
    while True:
        kind = kinds[rel + length]
        if kind == OP and not every:
            ops += 1
            cost += costs[rel + length]
        else:
            if ops:
                body.append((length - ops, None, False, ops, cost))
                ops = cost = 0
            point = every or kind in CONTROL_TRANSFERS
            if point:
                points.append(length)
            body.append((length, entry + length, point, 1, costs[rel + length]))
        length += 1
        if kind in TERMINATORS or length == limit:
            break
    if ops:
        body.append((length - ops, None, False, ops, cost))
    return img.name, rel, length, tuple(body), tuple(points)


def _cut(entry: int, length: int, cached_entries) -> int:
    """The length of a walk of `length` from `entry` once it stops just
    before the entry point of an already-cached trace of the same version:
    a jump into the middle of cached code starts a fresh trace at the target
    rather than extending across it."""
    if cached_entries.isdisjoint(range(entry + 1, entry + length)):
        return length
    return next(i for i in range(1, length) if entry + i in cached_entries)


def form_trace(program: Program, entry: int, version: int = V_INSTRUMENT,
               max_len: int = 16, cached_entries=frozenset(),
               granularity: str = "ctrl") -> TraceDescriptor:
    """Walk from `entry` to the trace end, compiling the body as it goes.

    The trace closes at the first jmp/call/ret/halt (inclusive), at max_len,
    at the image end, or just before the entry point of an already-cached
    trace of the same version (`cached_entries`, a set of addresses).
    """
    if max_len < 1:
        raise ConfigError("max trace length must be >= 1")
    every = granularity == "all"
    image, rel, length, body, points = _walk(program, entry, max_len, every)
    if cached_entries:
        cut = _cut(entry, length, cached_entries)
        if cut < length:
            image, rel, length, body, points = _walk(program, entry, cut, every)
    return TraceDescriptor(image, rel, length, version, points, body)


class TraceMemo:
    """Trace shapes compiled for one program, max trace length and
    granularity, shared by every run that passes it to run().

    A shape depends on nothing else, so a campaign compiles each one once:
    per entry address the uncut walk, and per (entry, length) each shorter
    shape that the cut rule asks for.  Shapes are plain tuples of numbers
    and strings, which the garbage collector stops tracking, and V_BASE and
    V_INSTRUMENT traces share them.  `code` maps the address of each
    instruction that does something when stepped (every kind but op), at
    both granularities, to its (kind, target, arg), read from the
    program's columns.
    """

    def __init__(self, program: Program, max_len: int, granularity: str):
        self.program = program
        self.max_len = max_len
        self.granularity = granularity
        self.code = {addr: (kind, target, arg) for img in program.images
                     for addr, kind, target, arg in zip(count(img.base), img.kinds,
                                                        img.targets, img.args)
                     if kind != OP}
        self._walks: dict[int, tuple] = {}
        self._cuts: dict[tuple[int, int], tuple] = {}

    def shape(self, entry: int, version: int, cached_entries) -> tuple:
        """(image, rel_start, length, body) of the trace that form_trace
        would compile for these arguments, compiling it only on a miss."""
        walk = self._walks.get(entry)
        if walk is None:
            desc = form_trace(self.program, entry, version, self.max_len, (), self.granularity)
            walk = self._walks[entry] = (desc.image, desc.rel_start, desc.length, desc.body)
        length = _cut(entry, walk[2], cached_entries)
        if length == walk[2]:
            return walk
        shape = self._cuts.get((entry, length))
        if shape is None:
            desc = form_trace(self.program, entry, version, length, (), self.granularity)
            shape = self._cuts[(entry, length)] = (desc.image, desc.rel_start, length,
                                                   desc.body)
        return shape


class _GuestState:
    """Guest-visible machine state: branch-pattern cursors, the ndbr RNG, and
    the call stack.  Instrumentation never touches it, so the executed address
    sequence is identical with instrumentation on or off."""

    def __init__(self, program: Program, seed: int):
        self.program = program
        self.rng = random.Random(seed)
        self.pattern_pos: dict[int, int] = {}
        self.call_stack: list[int] = []

    def step(self, addr, ins):
        """Execute the instruction at `addr`, given as its (kind, target,
        arg): (next pc or None on halt, taken-transfer record).  It is never
        an op: an op touches no guest state, so neither interpreter steps one."""
        kind, target, arg = ins
        if kind == JMP:
            return target, ("jump", addr, target)
        if kind == BR:
            pos = self.pattern_pos.get(addr, 0)
            self.pattern_pos[addr] = pos + 1
            if arg[pos % len(arg)] == "T":
                return target, ("jump", addr, target)
            return addr + 1, None
        if kind == NDBR:
            if self.rng.random() < arg:
                return target, ("jump", addr, target)
            return addr + 1, None
        if kind == CALL:
            self.call_stack.append(addr + 1)
            return target, ("call", addr, target)
        if kind == RET:
            if not self.call_stack:
                raise GuestError(f"ret at {addr} with empty call stack")
            dst = self.call_stack.pop()
            return dst, ("return", addr, dst)
        return None, None  # halt


@dataclass(frozen=True)
class NativeOutcome:
    virtual_time: float
    steps: int
    addr_path: tuple | None = None


def _native_block(program: Program, pc: int) -> tuple:
    """(steps, cost, addr, ins) of the straight run from `pc`: its leading
    ops and the instruction at `addr` that ends them, as its (kind, target,
    arg), or the ops alone, with `addr` and `ins` None, when they reach the
    end of their image."""
    img = program.image_of(pc)
    if img is None:
        raise GuestError(f"address {pc} outside every image")
    kinds, costs = img.kinds, img.costs
    start = i = pc - img.base
    cost = 0
    while i < len(kinds):
        cost += costs[i]
        if kinds[i] != OP:
            return i + 1 - start, cost, img.base + i, (kinds[i], img.targets[i], img.args[i])
        i += 1
    return i - start, cost, None, None


def native_run(program: Program, seed: int = 0, max_steps: int = 100_000,
               capture_path: bool = False) -> NativeOutcome:
    """Run the guest with no instrumentation at all: pure guest cost.

    Straight runs are looked up once and then cached by start address, so
    each later visit executes its ops in one step.
    """
    guest = _GuestState(program, seed)
    blocks: dict[int, tuple] = {}
    pc = program.entry
    t = 0
    steps = 0
    path = [] if capture_path else None
    while True:
        block = blocks.get(pc)
        if block is None:
            block = blocks[pc] = _native_block(program, pc)
        n, cost, at, ins = block
        steps += n
        if steps > max_steps:
            raise GuestError("step limit exceeded")
        if path is not None:
            path.extend(range(pc, pc + n))
        t += cost
        if at is None:  # fall through to the next image, or off every image
            pc += n
            continue
        nxt, _ = guest.step(at, ins)
        if nxt is None:
            return NativeOutcome(t, steps, tuple(path) if path is not None else None)
        pc = nxt


def _relative(program: Program, addrs) -> frozenset:
    """The (image, rel_addr) of each address in `addrs`, every one inside
    some image: one sweep of the sorted addresses over the images by base."""
    images = iter(sorted((img for img in program.images if img.kinds),
                         key=lambda img: img.base))
    img = next(images)
    name, base, end = img.name, img.base, img.end
    out = []
    for addr in sorted(addrs):
        while addr >= end:
            img = next(images)
            name, base, end = img.name, img.base, img.end
        out.append((name, addr - base))
    return frozenset(out)


def run(config: RunConfig, log: LogStore, budget: BudgetState, tool: AnalysisTool,
        rng_seed: int | None = None, observer=None,
        memo: TraceMemo | None = None) -> ExecutionOutcome:
    """Execute the guest under the budget server and redundancy log.

    Deterministic for a fixed (config, seed, initial log).  The optional
    observer sees permit decisions and commits in event order, which is what
    the campaign harness uses to classify decisions against live ground truth:
    `on_permit(candidate, permitted)` and `on_commit(entry)`, each entry a
    plain (image, rel_addr, length) tuple, as `log.commit` gets it.
    An exit that commits a prefix no longer than one this run already
    committed from the same compiled trace changes neither the log nor the
    ground truth, so it is recorded in the outcome's `commits` only.

    `memo` holds trace shapes compiled by earlier runs of the same program,
    max trace length and granularity; without one the run makes its own.
    Either way the run compiles each trace into its own cache and charges
    compile_cost for it, so a memo changes no result.
    """
    _validate(config, tool)
    if tool is None:
        raise ConfigError("run() needs an analysis tool; use native_run() for none")
    program = config.program
    if memo is None:
        memo = TraceMemo(program, config.max_trace_len, config.granularity)
    elif (memo.program, memo.max_len, memo.granularity) != (
            program, config.max_trace_len, config.granularity):
        raise ConfigError("trace memo belongs to another program, max trace length "
                          "or granularity")
    code = memo.code
    seed = config.seed if rng_seed is None else rng_seed
    guest = _GuestState(program, seed)
    # Per version (indexed by V_BASE and V_INSTRUMENT): entry ->
    # (image, rel_start, length, body, analysis attached).  A cache's keys
    # are the entry points that cut later walks of its version.
    caches: tuple[dict[int, tuple], dict[int, tuple]] = ({}, {})
    # entry -> longest prefix committed from its trace, per instrumented trace
    longest: dict[int, int] = {}
    check, charge, stable_until = budget.check, budget.charge, budget.stable_until
    step, on_branch = guest.step, tool.on_branch
    check_cost = config.check_cost
    analysis_cost = config.analysis_cost
    max_steps = config.max_steps
    t = 0
    steps = 0
    version = V_INSTRUMENT
    pc = program.entry
    analyzed: set[int] = set()  # absolute addresses, mapped to images on output
    committed: list[tuple[str, int, int]] = []
    queries: list[tuple[tuple[str, int, int], bool]] = []
    path = [] if config.capture_path else None
    halted = False
    # The budget's last answer and the time it holds until; `now` is the
    # time of the last instrumentation point.
    answer = V_INSTRUMENT
    until = -math.inf
    now = None

    while not halted:
        cache = caches[version]
        compiled = cache.get(pc)
        if compiled is None:
            t += config.compile_cost
            try:
                image, rel, length, body = memo.shape(pc, version, cache.keys())
            except AddressError as exc:
                raise GuestError(str(exc)) from None
            analysis = False
            if version == V_INSTRUMENT:
                candidate = (image, rel, length)
                analysis = log.permit(image, rel, length)
                queries.append((candidate, analysis))
                if observer is not None:
                    observer.on_permit(candidate, analysis)
                if analysis:
                    longest[pc] = 0
            compiled = cache[pc] = (image, rel, length, body, analysis)

        image, rel, length, body, analysis = compiled
        last_analyzed: int | None = None
        next_pc = pc + length  # where execution falls off the trace's end
        for off, at, point, n, cost in body:
            armed = False
            if point:
                now = t
                if now >= until:
                    answer = check(now)
                    until = stable_until()
                t += check_cost
                if answer != version:
                    version = answer  # abandon before this instruction executes
                    next_pc = pc + off
                    break
                if analysis:
                    if not charge(analysis_cost, now):
                        answer = V_BASE
                        until = stable_until()
                    t += analysis_cost
                    analyzed.add(at)
                    last_analyzed = off
                    armed = True
            steps += n
            if steps > max_steps:
                raise GuestError("step limit exceeded")
            t += cost
            ins = code.get(at)
            if ins is None:  # n ops, which touch no guest state
                if path is not None:
                    path.extend(range(pc + off, pc + off + n))
                continue
            if path is not None:
                path.append(at)
            nxt, record = step(at, ins)
            if record is not None:  # a taken transfer exits the trace
                if armed:
                    on_branch(*record)
                next_pc = nxt
                break
            if nxt is None:
                halted = True
                break

        if last_analyzed is not None:
            prefix = last_analyzed + 1
            entry = (image, rel, prefix)
            if prefix > longest[pc]:
                longest[pc] = prefix
                log.commit(entry)
                if observer is not None:
                    observer.on_commit(entry)
            committed.append(entry)
        pc = next_pc

    if now is not None:
        # Close the periods up to the last point, as checking there would.
        check(now)
    return ExecutionOutcome(
        virtual_time=t,
        steps=steps,
        analyzed_addrs=_relative(program, analyzed),
        records=tuple(tool.raw_records),
        commits=tuple(committed),
        queries=tuple(queries),
        overshoots=tuple(budget.overshoots()),
        addr_path=tuple(path) if path is not None else None,
    )
