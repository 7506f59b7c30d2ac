"""Trace-based virtual machine with versioned instrumentation.

Execution proceeds trace by trace under a virtual clock.  A trace is a
straight-line run of instructions with a single entry point: conditionals may
sit anywhere (each is an exit), and the first jmp/call/ret/halt closes it.
Compiled traces are cached per (version, entry address).

Two versions exist per trace: V_INSTRUMENT carries analysis calls at its
instrumentation points (when the redundancy log permits), V_BASE carries
none.  A budget check runs before every instrumentation point in both
versions; when its result disagrees with the running trace's version, the
trace is abandoned at that instruction and execution re-enters a trace of
the other version starting there.  Analysis calls are atomic: once the check
passes, the call completes even if it spends the budget past zero.

When execution leaves an instrumented trace (fall-through, taken exit,
version switch, or halt), the portion from the trace start through the last
instruction whose analysis call executed is committed to the log.

A compiled trace is executed from its body, in which each maximal run of ops
holding no instrumentation point is one item: ops touch no guest state, so
the run adds its length to the step count and its summed cost to the clock
in one step.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .budget import BudgetState, V_BASE, V_INSTRUMENT
from .program import (AddressError, CONTROL_TRANSFERS, Program, TERMINATORS,
                      BR, CALL, JMP, NDBR, OP, RET)
from .redundancy import LogEntry, LogStore
from .tools import AnalysisTool

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
    # The compiled body, in order: (offset, image-relative address, is a
    # point, steps, cost) per instruction, except that each maximal run of
    # ops holding no point is one item (offset, None, False, its length, its
    # summed cost).  Items hold numbers only, so the garbage collector stops
    # tracking them and cached traces add little to its full scans.
    # The body follows from the fields above, so it takes no part in equality.
    body: tuple = field(default=(), compare=False, repr=False)


@dataclass(frozen=True)
class ExecutionOutcome:
    virtual_time: float
    steps: int
    analyzed_addrs: frozenset
    tool_output: tuple
    committed_entries: tuple
    permits: tuple  # (candidate LogEntry, permitted) in query order
    overshoots: tuple
    addr_path: tuple | None = None


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


def form_trace(program: Program, entry: int, version: int = V_INSTRUMENT,
               max_len: int = 16, cached_entries=frozenset(),
               granularity: str = "ctrl") -> TraceDescriptor:
    """Walk from `entry` to the trace end, compiling the body as it goes.

    The trace closes at the first jmp/call/ret/halt (inclusive), at max_len,
    at the image end, or just before the entry point of an already-cached
    trace of the same version (a jump into the middle of cached code starts
    a fresh trace at the target rather than extending across it).
    """
    if max_len < 1:
        raise ConfigError("max trace length must be >= 1")
    _, image_name, rel = program.resolve(entry)
    img = program.image(image_name)
    instructions = img.instructions
    limit = min(max_len, len(instructions) - rel)  # max_len or the image end
    every = granularity == "all"
    points: list[int] = []
    body: list[tuple] = []
    ops = cost = 0  # the open run of ops, which hold no point
    length = 0
    while True:
        ins = instructions[rel + length]
        kind = ins.kind
        if kind == OP and not every:
            ops += 1
            cost += ins.cost
        else:
            if ops:
                body.append((length - ops, None, False, ops, cost))
                ops = cost = 0
            point = every or kind in CONTROL_TRANSFERS
            if point:
                points.append(length)
            body.append((length, rel + length, point, 1, ins.cost))
        length += 1
        if kind in TERMINATORS or length == limit or entry + length in cached_entries:
            break
    if ops:
        body.append((length - ops, None, False, ops, cost))
    return TraceDescriptor(image_name, rel, length, version, tuple(points), tuple(body))


class _GuestState:
    """Guest-visible machine state: branch-pattern cursors, the ndbr RNG, and
    the call stack.  Instrumentation never touches it, so the executed address
    sequence is identical with instrumentation on or off."""

    def __init__(self, program: Program, seed: int):
        self.program = program
        self.rng = random.Random(seed)
        self.pattern_pos: dict[int, int] = {}
        self.call_stack: list[int] = []

    def step(self, ins):
        """Execute one instruction: (next pc or None on halt, taken-transfer record)."""
        kind = ins.kind
        if kind == OP:
            return ins.addr + 1, None
        if kind == JMP:
            return ins.target, ("jump", ins.addr, ins.target)
        if kind == BR:
            pos = self.pattern_pos.get(ins.addr, 0)
            self.pattern_pos[ins.addr] = pos + 1
            if ins.pattern[pos % len(ins.pattern)] == "T":
                return ins.target, ("jump", ins.addr, ins.target)
            return ins.addr + 1, None
        if kind == NDBR:
            if self.rng.random() < ins.prob:
                return ins.target, ("jump", ins.addr, ins.target)
            return ins.addr + 1, None
        if kind == CALL:
            self.call_stack.append(ins.addr + 1)
            return ins.target, ("call", ins.addr, ins.target)
        if kind == RET:
            if not self.call_stack:
                raise GuestError(f"ret at {ins.addr} with empty call stack")
            dst = self.call_stack.pop()
            return dst, ("return", ins.addr, dst)
        return None, None  # halt


@dataclass
class _Compiled:
    desc: TraceDescriptor
    analysis: bool  # analysis calls attached (V_INSTRUMENT and log permitted)
    instructions: tuple  # of the trace's image, which the body indexes
    committed: int = 0  # longest prefix committed from this trace in this run


@dataclass(frozen=True)
class NativeOutcome:
    virtual_time: float
    steps: int
    addr_path: tuple | None = None


def _native_block(program: Program, pc: int) -> tuple:
    """(steps, cost, last) of the straight run from `pc`: its leading ops and
    the instruction `last` that ends them, or the ops alone, with `last`
    None, when they reach the end of their image."""
    img = program.image_of(pc)
    if img is None:
        raise GuestError(f"address {pc} outside every image")
    instructions = img.instructions
    start = i = pc - img.base
    cost = 0
    while i < len(instructions):
        ins = instructions[i]
        cost += ins.cost
        i += 1
        if ins.kind != OP:
            return i - start, cost, ins
    return i - start, cost, None


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
        n, cost, last = block
        steps += n
        if steps > max_steps:
            raise GuestError("step limit exceeded")
        if path is not None:
            path.extend(range(pc, pc + n))
        t += cost
        if last is None:  # fall through to the next image, or off every image
            pc += n
            continue
        nxt, _ = guest.step(last)
        if nxt is None:
            return NativeOutcome(t, steps, tuple(path) if path is not None else None)
        pc = nxt


def run(config: RunConfig, log: LogStore, budget: BudgetState, tool: AnalysisTool,
        rng_seed: int | None = None, observer=None) -> ExecutionOutcome:
    """Execute the guest under the budget server and redundancy log.

    Deterministic for a fixed (config, seed, initial log).  The optional
    observer sees permit decisions and commits in event order, which is what
    the campaign harness uses to classify decisions against live ground truth.
    An exit that commits a prefix no longer than one this run already
    committed from the same compiled trace changes neither the log nor the
    ground truth, so it is recorded in `committed_entries` only.
    """
    _validate(config, tool)
    if tool is None:
        raise ConfigError("run() needs an analysis tool; use native_run() for none")
    program = config.program
    seed = config.seed if rng_seed is None else rng_seed
    guest = _GuestState(program, seed)
    cache: dict[tuple[int, int], _Compiled] = {}
    entry_points = {V_BASE: set(), V_INSTRUMENT: set()}
    check_cost = config.check_cost
    analysis_cost = config.analysis_cost
    max_steps = config.max_steps
    t = 0
    steps = 0
    version = V_INSTRUMENT
    pc = program.entry
    analyzed: set[tuple[str, int]] = set()
    committed: list[LogEntry] = []
    permits: list[tuple[LogEntry, bool]] = []
    path = [] if config.capture_path else None
    halted = False

    while not halted:
        compiled = cache.get((version, pc))
        if compiled is None:
            t += config.compile_cost
            try:
                desc = form_trace(program, pc, version, config.max_trace_len,
                                  entry_points[version], config.granularity)
            except AddressError as exc:
                raise GuestError(str(exc)) from None
            analysis = False
            if version == V_INSTRUMENT:
                candidate = LogEntry(desc.image, desc.rel_start, desc.length)
                analysis = log.permit(*candidate)
                permits.append((candidate, analysis))
                if observer is not None:
                    observer.on_permit(candidate, analysis)
            compiled = _Compiled(desc, analysis, program.image(desc.image).instructions)
            cache[(version, pc)] = compiled
            entry_points[version].add(pc)

        desc = compiled.desc
        analysis = compiled.analysis
        instructions = compiled.instructions
        last_analyzed: int | None = None
        next_pc = pc + desc.length  # where execution falls off the trace's end
        for off, at, point, n, cost in desc.body:
            armed = False
            if point:
                now = t
                result = budget.check(now)
                t += check_cost
                if result != version:
                    version = result  # abandon before this instruction executes
                    next_pc = pc + off
                    break
                if analysis:
                    budget.charge(analysis_cost, now)
                    t += analysis_cost
                    analyzed.add((desc.image, at))
                    last_analyzed = off
                    armed = True
            steps += n
            if steps > max_steps:
                raise GuestError("step limit exceeded")
            t += cost
            if at is None:  # a run of n ops, which touch no guest state
                if path is not None:
                    path.extend(range(pc + off, pc + off + n))
                continue
            ins = instructions[at]
            if path is not None:
                path.append(ins.addr)
            nxt, record = guest.step(ins)
            if record is not None and armed:
                tool.on_branch(*record)
            if nxt is None:
                halted = True
                break
            if record is not None:
                next_pc = nxt
                break  # taken transfer exits the trace

        if last_analyzed is not None:
            entry = LogEntry(desc.image, desc.rel_start, last_analyzed + 1)
            if entry.length > compiled.committed:
                compiled.committed = entry.length
                log.commit(entry)
                if observer is not None:
                    observer.on_commit(entry)
            committed.append(entry)
        pc = next_pc

    return ExecutionOutcome(
        virtual_time=t,
        steps=steps,
        analyzed_addrs=frozenset(analyzed),
        tool_output=tuple(tool.records),
        committed_entries=tuple(committed),
        permits=tuple(permits),
        overshoots=tuple(budget.overshoots()),
        addr_path=tuple(path) if path is not None else None,
    )
