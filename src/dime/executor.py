"""Trace-based virtual machine with versioned instrumentation.

Execution proceeds trace by trace under a virtual clock.  A trace is a
straight-line run of instructions with a single entry point: conditionals may
sit anywhere (each is an exit), and the first jmp/call/ret/halt closes it.
A run keeps one trace cache per version, keyed by entry address, and the
trace walks are kept in a TraceMemo that the runs of a campaign share.
TraceMemo.shape is the only way to a shape: it applies the cut rule to the
entry's walk, which form_trace compiles once per campaign, and compiles a
cut shape with form_trace each time the rule asks for one.  The cut rule
reads the run's marks, which are run state kept per version: per image the
run has compiled in, a bytearray with one byte per address of the image and
a 1 at each entry point of a cached trace of that version, so a walk is cut
with one bytearray.find.

Two versions exist per trace: V_INSTRUMENT carries analysis calls at its
instrumentation points (when the redundancy log permits), V_BASE carries
none.  A budget check comes before every instrumentation point in both
versions; when its result disagrees with the running trace's version, the
trace is abandoned at that instruction and execution re-enters a trace of
the other version starting there.  Analysis calls are atomic: once the
check passes, the call completes even if it spends the budget past zero.

The check's answer can change only at a charge that spends the budget or at
the next period boundary after one.  The server publishes both times: a
spending charge leaves the end of the open period in BudgetState.horizon,
and BudgetState.refill, which run() reads once, is the time until which the
answer is 1 wherever no spending charge holds it at 0 (with B > 0 every
boundary refills the budget; with B = 0 it is -inf).  So run() takes 1
before `refill` without asking, reuses a spending charge's 0 up to its
horizon with one float compare, and asks the server only where neither
holds: with B = 0 once, at the first point, whose 0 holds to the
period-count cap.  It checks once more at the last point when the run
ends, so the server closes the same periods, and a run with B > 0 makes
that its only check.  check_cost is still charged to the clock at every
point.  An unlimited server (B = inf, so T = inf) is also charged only
once: no charge can change its answer, so run() sums analysis_cost per
analysis call and charges the sum before the last check, which leaves the
server's loads as the per-call charges would.  A run that raises leaves
such a server uncharged.

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

A trace's cache entry is the run's only record of it.  An instrumented
trace's entry holds the log's answer and the longest (image, rel_start,
prefix) that the run committed from it, as one field that is None when the
log rejected the trace (and for every V_BASE trace); a commit that grows
the prefix writes the entry back, and an exit with the same prefix records
that very tuple again, so a loop's repeated commits share one.

A br's outcomes come from its pattern, in order and cyclically, counted
per run and per address.  Both interpreters keep in `pattern_pos` the
number of times each br has executed and read its outcome from the pattern
by that count, so every trace and version that ends at the br reads the
same count, and the run of Ts ahead of a hot br is one find on the pattern.

run() fast-forwards a hot loop by replaying what it did, once it has run
it.  When an entry takes a br that has executed at least HOT_BRANCH - 1
times, on an int clock, run() snapshots the run state at the entry's end:
the clock, `now`, the step count, the br's count, the lengths of the commit
and record streams (a captured path holds `steps` addresses), `spent`, the
version, the answer and `until`, and where rule (c) below needs it, the
server's BudgetState.snapshot.  The br's snapshots form a span, which any
other br ends, as do an ndbr, a ret below the br's call depth, a compile, a
commit that grows a trace's prefix and a check, each of them a branch off
the per-item path already.  While none of them runs, the traces, the call
stack below the br's depth and every br count but the br's own stay as
they were, and nothing reads the RNG, the log or the observer, so what the
run does from the br's target on depends only on the version, the answer,
`until`, the clock and the server.  So at each later taken execution of the
br in the span run() replays, k times in one step, what the run did since
an earlier one, under one of three rules:

- (a) Since the last execution nothing was charged, and the version, the
  answer (equal to it) and `until` are as they were.  Every point of the
  lap came before `until`, and a replayed lap runs as this one did, shifted
  in time, while its points do.  k is the largest number of laps that the
  rest of the pattern's run of Ts, `until` and the step limit (tested as
  each entry would test it) allow; calls that are not charged (the log
  rejected the trace, the version is V_BASE, or the budget is unlimited, so
  the calls are only summed) need no server.
- (b) As (a), but the lap made one charge, the br's own, which left budget.
  The server takes the replayed laps' charges in one
  BudgetState.charge_series, which closes the periods they cross and stops
  before the charge that would spend the budget, and run() replays only
  the laps whose charges it took.
- (c) Neither, but the state (the version, the answer, `until` relative to
  the clock unless it is the refill time, and the server's phase) is the
  state at the saved execution, and some charge came between: the cycle of
  laps since then repeats as it ran.  The phase holds the time left to the
  open period's end, and a period ends at (k + 1) * T, so on an int T the
  clock has moved by whole periods; on a float or infinite T the server
  copies nothing.
  k counts the whole cycles that the pattern's run of Ts, the refill time
  and the step limit allow, and BudgetState.repeat copies the closed-period
  records and overshoots that the cycle made, shifted by whole periods, as
  many times.  The first saved execution is the first after a charge in
  the span; it moves to the current one after `power` more executions, and
  `power` doubles (Brent's cycle detection), so one saved snapshot finds a
  cycle of any length.

A replay adds to each of the commit, record and path streams one piece
that stands for what the stream gained since the earlier snapshot, k times
over, without copying it (see Stream), moves the br's count on by its laps,
and shifts the clock, `now`, the step count, `spent` and `until` (where it
moved at all) by k times their change since then.  The generic loop then
runs the lap that sees the N, crosses `until`, nears the step limit or
spends the budget, and the span goes on.  Every replayed quantity must be
an int, so that the products are exact and equal to the sums they replace:
on a float clock no br is snapshotted, and the server makes no series or
repeat with a float among its numbers, so such a loop runs lap by lap.

The native pass learns a hot loop's lap by running it too, but once per
br.  When a br that has executed at least HOT_BRANCH - 1 times is taken on
an int clock and its lap is not known, the pass marks the br with the
clock, the step count and the call depth.  The next br to execute
unmarks it, and so do an ndbr and a ret below the marked depth.  When that
next br is the marked one, at the marked depth, the blocks run since the
mark are its lap: jmps, fall-throughs, and calls and rets that balance
within the lap, from the br's target back to the br.  Their targets are
fixed, and nothing in the lap reads the RNG, another br's count or a frame
from before it, so the lap, its cost, steps and path, is the same every time
the br is taken, and the pass keeps it per br.  Then at each taken
execution of the br it skips, in one step, as many laps as the rest of the
pattern's run of Ts and the step limit (tested as each block would test it)
allow, adding their cost, steps and the br's executions, and to a captured
path a piece that repeats the lap's addresses, which it ran first.  The
clock must be an int; on a float clock the loop runs lap by lap.

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
records and the committed (image, rel_addr, length) entries, which go to
LogStore.commit and to the observer as they are.  ExecutionOutcome holds
the record, commit and path streams as Streams, whose size follows the
run's distinct work, and the set of distinct records, the keys of the
run's shared records, from which a campaign scores the run without reading
its stream.  The permits ((image, rel_addr, length), permitted) are read
from the V_INSTRUMENT cache when the run ends: each instrumented compile
asks the log once and a dict keeps insertion order, so the cache's order
is the query order.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, count, islice, repeat
from random import Random

from .budget import BudgetState, V_BASE, V_INSTRUMENT
from .program import (CONTROL_TRANSFERS, Program, TERMINATORS,
                      BR, CALL, JMP, NDBR, OP, RET)
from .redundancy import LogStore
from .tools import record_kinds

GRANULARITIES = ("ctrl", "all")

# The execution of a br in a run from which run() and the native pass may
# fast-forward the loop it closes; both learn the lap before it from the
# br's previous, taken execution (see the module docstring).  A
# fast-forward tried at every taken br slowed a guest whose brs run 1-4
# times per run by about a tenth of its campaign.
HOT_BRANCH = 8

# The largest analysis, check or compile cost a run accepts: every cost up to
# it converts to a float exactly, as the budget arithmetic and the slow-down
# ratio need, where a larger one may not convert at all (OverflowError).
MAX_COST = 2**53


class ConfigError(ValueError):
    """Run configuration violates a contract."""


class GuestError(RuntimeError):
    """The guest program misbehaved (bad address, empty-stack ret, step limit)."""


# The most items that Stream iteration gathers into one tuple.
CHUNK = 1024


class Stream(Sequence):
    """One of a run's streams, its tool records, commit entries or path
    addresses: a read-only sequence of the items in the order the run made
    them.

    A stream is kept as the items that the run appended one at a time and,
    between them, pieces that each stand for an earlier stretch of the
    stream repeated some number of times, which is what a replay of a hot
    loop adds (see the module docstring).  A piece's stretch may hold
    earlier pieces.  So a stream's size follows the run's distinct work,
    not its steps, and every item it holds is one of its appended items.
    len() takes O(1), indexing a binary search per piece it passes through,
    and iteration yields the items in order.  == and hash are those of the
    tuple of the items: a stream equals that tuple, and any stream with the
    same items.
    """

    __slots__ = ("_items", "_starts", "_pieces", "_len")

    def __init__(self, items=(), pieces=()):
        self._items = tuple(items)
        # Per piece, (start, base, source, span, copies): from index `start`
        # on it repeats the stream's items source .. source+span-1 `copies`
        # times, and it follows the first `base` appended items, so those
        # after it start at index start + span * copies.
        self._pieces = tuple(pieces)
        self._starts = tuple(start for start, *_ in self._pieces)
        self._len = len(self._items) + sum(span * copies
                                           for *_, span, copies in self._pieces)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(self._len)))
        i = operator.index(index)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("stream index out of range")
        starts, pieces = self._starts, self._pieces
        while True:
            j = bisect_right(starts, i) - 1
            if j < 0:
                return self._items[i]
            start, base, source, span, copies = pieces[j]
            past = i - start - span * copies
            if past >= 0:
                return self._items[base + past]
            i = source + (i - start) % span

    def __iter__(self):
        if not self._pieces:
            return iter(self._items)
        return chain.from_iterable(self._chunks(0, self._len, True))

    def _chunks(self, lo: int, hi: int, fold: bool):
        """Tuples that hold, in order, the items lo .. hi-1.  With `fold`,
        a stretch of at most CHUNK items that a piece repeats is gathered
        once and yielded as one tuple per CHUNK or so of its copies."""
        items, starts, pieces, size = self._items, self._starts, self._pieces, self._len
        todo = [(lo, hi, 1)]  # stretches (lo, hi, times) left to yield, the next last
        while todo:
            lo, hi, times = todo.pop()
            if times > 1:
                if fold and hi - lo <= CHUNK:
                    block = tuple(chain.from_iterable(self._chunks(lo, hi, False)))
                    group = CHUNK // len(block)
                    yield from repeat(block * group, times // group)
                    yield block * (times % group)
                    continue
                todo.append((lo, hi, times - 1))
            while lo < hi:
                j = bisect_right(starts, lo) - 1
                if j >= 0:
                    start, base, source, span, copies = pieces[j]
                    end = start + span * copies
                    if lo < end:
                        # Inside piece j: the rest of the stretch comes after
                        # the copies that the stretch overlaps.
                        stop = min(hi, end)
                        if stop < hi:
                            todo.append((stop, hi, 1))
                        first, head = divmod(lo - start, span)
                        last, tail = divmod(stop - 1 - start, span)
                        if first == last:
                            todo.append((source + head, source + tail + 1, 1))
                        else:
                            todo.append((source, source + tail + 1, 1))
                            if last - first > 1:
                                todo.append((source, source + span, last - first - 1))
                            todo.append((source + head, source + span, 1))
                        break
                    at = base + lo - end
                else:
                    at = lo
                # Appended items up to the next piece or the stretch's end.
                stop = min(hi, starts[j + 1] if j + 1 < len(starts) else size)
                for a in range(at, at + stop - lo, CHUNK):
                    yield items[a:min(a + CHUNK, at + stop - lo)]
                lo = stop

    def __eq__(self, other):
        if not isinstance(other, (Stream, tuple)):
            return NotImplemented
        if self._len != len(other):
            return False
        others = iter(other)
        return all(chunk == tuple(islice(others, len(chunk)))
                   for chunk in self._chunks(0, self._len, True))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        head = ", ".join(map(repr, islice(self, 8)))
        return f"Stream({self._len} items: {head}{', ...' if self._len > 8 else ''})"


class _Growing:
    """A stream that a run is making: the list that it appends items to,
    its pieces, as Stream keeps them, and their length.

    A piece with the items appended just before it is a segment.  A
    replay's stretch ends the stream, and its copies often go on what the
    last piece repeats, or make, with the items since the last piece,
    another copy of the segment before; `repeat` then counts them there, so
    a loop replayed period after period adds no piece per period."""

    __slots__ = ("items", "pieces", "added")

    def __init__(self):
        self.items = []
        self.pieces = []
        self.added = 0  # the items that the pieces stand for

    def repeat(self, start: int, stop: int, copies: int) -> None:
        """Append `copies` more copies of the items start .. stop-1."""
        if stop <= start or not copies:
            return
        items, pieces = self.items, self.pieces
        size = len(items)
        end = size + self.added
        span = stop - start
        self.added += copies * span
        if stop == end and pieces:
            at, base, source, width, n = pieces[-1]
            tail = size - base  # the items since the last piece
            first = pieces[-2][1] if len(pieces) > 1 else 0
            if (source + width == at and start >= source and span % width == tail % width == 0
                    and width <= base - first
                    and items[base:] == items[base - width:base] * (tail // width)):
                # The last piece repeats the items just before it, and the
                # items since it and the stretch go on repeating them.
                pieces[-1] = (at, base, source, width, n + (tail + span * copies) // width)
            elif span > tail:
                # The stretch reaches before the items since the last piece.
                pieces.append((end, size, start, span, copies))
                return
            elif (len(pieces) > 1 and base == first and source + width == at
                    and _segment(pieces, -2) == (span, tail, span, copies)
                    and source == pieces[-2][0] - tail
                    and items[base - tail:base] == items[base:]):
                # The last piece repeats the segment before it, and the items
                # since it and the stretch make that segment once more.
                pieces[-1] = (at, base, source, width, n + 1)
            elif (_segment(pieces, -1) == (span, tail, span, copies)
                    and items[first:base] == items[base:]):
                # The items since the last piece and the stretch make its
                # segment once more: a new piece repeats that segment.
                pieces.append((at + width * n, base, at - tail, tail + width * n, 1))
            else:
                pieces.append((end, size, start, span, copies))
                return
            del items[base:]
            self.added += tail
            return
        pieces.append((end, size, start, span, copies))

    def stream(self) -> Stream:
        return Stream(self.items, self.pieces)


def _segment(pieces: list, j: int) -> tuple:
    """(how far back its stretch starts, its items before it, span, copies)
    of piece j's segment."""
    start, base, source, span, copies = pieces[j]
    return start - source, base - (pieces[j - 1][1] if j > -len(pieces) else 0), span, copies


@dataclass(frozen=True)
class ExecutionOutcome:
    """What one run did.  The record and commit streams are Streams of plain
    tuples, and the distinct records a frozenset of them; native_run leaves
    them empty."""

    virtual_time: float
    steps: int
    tool_output: Stream        # (kind, src, dst) per tool record, in order
    committed_entries: Stream  # (image, rel_addr, length) per exit that committed
    permits: tuple             # ((image, rel_addr, length), permitted) per instrumented
                               # trace, in compile order, read from the run's cache
    overshoots: tuple
    addr_path: Stream | None = None
    distinct_records: frozenset = frozenset()  # the set of tool_output's records


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
        if self.max_steps % 1 and self.max_steps != math.inf:
            raise ConfigError("step limit must be a whole number or inf")
        if type(self.seed) is not int:  # Random(float) seeds by hash, a nan's by its id
            raise ConfigError("seed must be an int")
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


class TraceMemo:
    """Trace shapes compiled for the program, max trace length and
    granularity of a config, shared by every run that passes it to run()
    with a config that agrees on those three.

    A shape depends on nothing else, so the memo keeps one per entry
    address, the uncut walk, which a campaign compiles once; a shorter shape
    that the cut rule asks for is compiled at that compile and kept only in
    the run's cache, as the same cut rarely comes again.  Shapes are plain
    tuples of numbers and strings, which the garbage collector stops
    tracking, and V_BASE and V_INSTRUMENT traces share the walks.  `code`
    maps the address of each instruction that does something when executed
    (every kind but op), at both granularities, to its (kind, target, arg),
    read from the program's columns.  The cut rule reads a run's marks (see
    `shape`), which the memo does not keep.
    """

    def __init__(self, config: RunConfig):
        self.program = program = config.program
        self.max_len = config.max_trace_len
        self.granularity = config.granularity
        self.code = {addr: (kind, target, arg) for img in program.images
                     for addr, kind, target, arg in zip(count(img.base), img.kinds,
                                                        img.targets, img.args)
                     if kind != OP}
        self._sizes = {img.name: len(img.kinds) for img in program.images}
        self._walks: dict[int, tuple] = {}

    def shape(self, entry: int, marks: dict[str, bytearray]) -> tuple:
        """(image, rel_start, length, body) of the trace from `entry`, cut
        just before the first address inside it that `marks` holds: the
        memo's walk when nothing cuts it (compiled on the memo's first
        miss), else a shape compiled now.

        `marks` are the running version's: per image, a bytearray with one
        byte per address and a 1 at the entry of each cached trace of that
        version.  shape allocates an image's bytearray on the run's first
        compile in it and marks `entry`, which the run then caches: a jump
        into the middle of cached code starts a fresh trace at the target
        rather than extending across it."""
        walk = self._walks.get(entry)
        if walk is None:
            walk = self._walks[entry] = form_trace(self, entry, self.max_len)
        image, rel, length, _ = walk
        mark = marks.get(image)
        if mark is None:
            mark = marks[image] = bytearray(self._sizes[image])
        mark[rel] = 1
        cut = mark.find(1, rel + 1, rel + length)
        return walk if cut < 0 else form_trace(self, entry, cut - rel)


def _skips(pattern: str, executions: int, room: int | float, lap_steps: int, now: int,
           lap: int, until: float, laps: int = 1) -> int:
    """How many repeats of `laps` iterations of a loop closed by a taken br
    with `pattern`, each repeat `lap_steps` steps and `lap` clock units long
    with its last point `lap` after the one before, at `now`, can run in
    closed form after the br's `executions`-th execution: the br is taken in
    each of them, every one of their points comes before `until`, and all
    but the first fit in `room`, the step limit less the steps through the
    first.  (An entry that may pass the limit raises only at an instruction
    past it; for a single lap run() also leaves the rest of the br's trace
    out of `room`, so that every entry it skips ends by the limit.)  Where
    no bound is finite, 0, so a loop without end stays on the generic path.
    Every comparison is exact, as `room`, `now` and `lap` are ints or inf
    and `until` an int or float.

    The native pass asks it too, for laps with no point: with `until` inf,
    only the pattern and `room` bound the skips, and `now` and `lap` are
    not read."""
    k = executions % len(pattern)
    taken = (pattern[k:] + pattern[:k]).find("N")
    bounds = [taken // laps] if taken >= 0 else []
    if room != math.inf:
        bounds.append(room // lap_steps + 1)
    if until != math.inf:
        if not now + lap < until:
            return 0
        if lap:
            bounds.append((math.ceil(until) - 1 - now) // lap)
    return max(0, min(bounds, default=0))


def _native_block(program: Program, pc: int) -> tuple:
    """(steps, cost, addr, kind, target, arg) of the straight run from `pc`:
    its leading ops and the instruction at `addr` that ends them.  Ops that
    reach the end of their image end in a jmp that counts no step, at and to
    the address past it: the run falls through to the next image, or off
    every image.  Raises GuestError when `pc` is outside every image."""
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
    return i - start, cost, img.base + i, JMP, img.base + i, None


def native_run(config: RunConfig) -> ExecutionOutcome:
    """Run the guest with no instrumentation at all: pure guest cost.

    Reads only the config's program, seed, max_steps and capture_path, and
    returns an outcome whose record fields are empty.  Straight runs are
    looked up once and then cached by start address, so each later visit
    executes its ops in one step and dispatches the instruction that ends
    them inline.  A hot loop runs in closed form once the pass has run one
    lap of it (see the module docstring); the block cache and the laps live
    only as long as the call.
    """
    program = config.program
    max_steps = config.max_steps
    if max_steps != math.inf:
        max_steps = int(max_steps)  # whole, so every step arithmetic is exact
    random = Random(config.seed).random
    pattern_pos: dict[int, int] = {}
    # A taken br is marked from its (HOT_BRANCH - 1)-th execution on, so that
    # its HOT_BRANCH-th may skip; colder brs skip the lap lookup too.
    first_mark = HOT_BRANCH - 2
    call_stack: list[int] = []
    blocks: dict[int, tuple] = {}
    # Per hot br: its lap as (cost, steps, the step count before it), once
    # the pass has run it; the path holds the lap's addresses from that index.
    laps: dict[int, tuple] = {}
    # (br, t, steps, call depth) just after a hot br whose lap is not known
    # was taken, until the next br; steps also index the path.
    mark = None
    pc = program.entry
    t = 0
    steps = 0
    path = _Growing() if config.capture_path else None
    addrs = path.items if path is not None else None
    while True:
        block = blocks.get(pc)
        if block is None:
            block = blocks[pc] = _native_block(program, pc)
        n, cost, at, kind, nxt, arg = block
        steps += n
        if steps > max_steps:
            raise GuestError("step limit exceeded")
        if addrs is not None:
            addrs.extend(range(pc, pc + n))
        t += cost
        if kind == BR:
            pos = pattern_pos.get(at, 0)  # the executions so far
            pattern_pos[at] = pos + 1
            if mark is not None:
                if mark[0] == at and mark[3] == len(call_stack):
                    # Back at the marked br at its depth: what ran since is its lap.
                    laps[at] = (t - mark[1], steps - mark[2], mark[2])
                mark = None
            if arg[pos % len(arg)] != "T":
                nxt = at + 1
            elif pos >= first_mark and type(t) is int:
                lap = laps.get(at)
                if lap is None:
                    mark = (at, t, steps, len(call_stack))
                else:
                    # Skip the laps that repeat the one the pass ran.
                    lap_cost, lap_steps, lap_start = lap
                    skips = _skips(arg, pos + 1, max_steps - steps - lap_steps, lap_steps,
                                   0, lap_cost, math.inf)
                    if skips:
                        if path is not None:
                            path.repeat(lap_start, lap_start + lap_steps, skips)
                        t += skips * lap_cost
                        steps += skips * lap_steps
                        pattern_pos[at] = pos + 1 + skips
        elif kind == NDBR:
            mark = None
            if not random() < arg:
                nxt = at + 1
        elif kind == CALL:
            call_stack.append(at + 1)
        elif kind == RET:
            if not call_stack:
                raise GuestError(f"ret at {at} with empty call stack")
            nxt = call_stack.pop()
            if mark is not None and len(call_stack) < mark[3]:
                mark = None  # the lap would return to a frame from before it
        elif kind != JMP:  # halt
            return ExecutionOutcome(t, steps, Stream(), Stream(), (), (),
                                    path.stream() if path is not None else None)
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
    # Guest-visible state: per br address its execution count, the ndbr RNG
    # and the call stack.  Instrumentation never touches it, so the executed
    # address sequence is the same with instrumentation on or off.
    random = Random(config.seed).random
    pattern_pos: dict[int, int] = {}
    call_stack: list[int] = []
    # A taken br is hot from its (HOT_BRANCH - 1)-th execution on, so that
    # its HOT_BRANCH-th may replay the lap before it.  `hot` is the
    # executions of a hot br that the entry took, else 0.  `marked` is the
    # br, and `depth` the call depth, of the span that the run is learning:
    # the stretch since that hot br was first taken in which it is the only
    # br executed, and no ndbr, ret below that depth, compile, growing
    # commit or check ran.  `last` is the snapshot at the br's last taken
    # execution, (t, steps, the commit and record streams' lengths, spent,
    # until, version, answer).  `saved` is the one a later state is
    # compared with to find a cycle, moved on after `power` executions,
    # which then doubles (Brent's cycle detection): `last` then, the
    # executions, the state (version, answer, until less t or None at
    # `refill`, the server's phase) and the server's `since`.
    first_hot = HOT_BRANCH - 2
    hot = 0
    marked = last = saved = None
    depth, power = 0, 1
    # Per version (indexed by V_BASE and V_INSTRUMENT): entry ->
    # (image, rel_start, length, body, longest), and the marks (see
    # TraceMemo.shape) of the cache's keys, the entry points that cut later
    # walks of that version.  `longest` is the longest (image, rel_start,
    # prefix) this run committed from the trace, (image, rel_start, 0) once
    # the log permits it, None if the log rejects it or the version is
    # V_BASE; an exit that commits the same prefix again records that tuple,
    # so a loop's repeated commits share one.  Each V_INSTRUMENT compile asks
    # the log once, so that cache, in insertion order, is the permit queries.
    caches: tuple[dict[int, tuple], dict[int, tuple]] = ({}, {})
    marks: tuple[dict[str, bytearray], dict[str, bytearray]] = ({}, {})
    check, charge = budget.check, budget.charge
    check_cost = config.check_cost
    analysis_cost = config.analysis_cost
    max_steps = config.max_steps
    if max_steps != math.inf:
        max_steps = int(max_steps)  # whole, so every step arithmetic is exact
    t = 0
    steps = 0
    version = V_INSTRUMENT
    pc = program.entry
    # The streams, and the lists that the generic path appends to: commit
    # entries, the tool's records, one shared tuple per distinct (kind, src,
    # dst), and a captured path, which holds `steps` addresses.
    commits, outputs = _Growing(), _Growing()
    committed, records = commits.items, outputs.items
    shared: dict[tuple[str, int, int], tuple[str, int, int]] = {}
    # Per shorter prefix committed, one shared (image, rel_start, prefix).
    shorter: dict[tuple[str, int, int], tuple[str, int, int]] = {}
    path = _Growing() if config.capture_path else None
    addrs = path.items if path is not None else None
    # The budget's last answer and the time it holds until, and the time
    # until which V_INSTRUMENT holds wherever no spending charge holds
    # V_BASE; `now` is the time of the last instrumentation point.
    answer = V_INSTRUMENT
    until = -math.inf
    refill = budget.refill
    now = None
    # The analysis calls' cost so far.  With B = inf (and so T = inf) no
    # charge can change an answer, so the calls are only summed here, and
    # charged once when the run ends.
    unlimited = budget.budget == math.inf
    spent = 0

    while pc is not None:  # a halt is the only exit with no next pc
        cache = caches[version]
        compiled = cache.get(pc)
        if compiled is None:
            marked = None
            t += config.compile_cost
            image, rel, length, body = memo.shape(pc, marks[version])
            longest = None
            if version == V_INSTRUMENT:
                permitted = log.permit(image, rel, length)
                if observer is not None:
                    observer.on_permit((image, rel, length), permitted)
                if permitted:
                    longest = (image, rel, 0)
            compiled = cache[pc] = (image, rel, length, body, longest)

        image, rel, length, body, longest = compiled
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
                    if now < refill:
                        answer = V_INSTRUMENT
                        until = refill
                    else:
                        marked = None
                        answer = check(now)
                        until = budget.horizon
                t += check_cost
                if answer != version:
                    version = answer  # abandon before this instruction executes
                    end = off
                    next_pc = pc + off
                    break
                if longest is not None:
                    spent += analysis_cost
                    if not (unlimited or charge(analysis_cost, now)):
                        answer = V_BASE
                        until = budget.horizon
                    t += analysis_cost
                    last_analyzed = off
            t += cost
            if ins is None:  # ops, which touch no guest state
                continue
            kind, nxt, arg = ins
            if kind == BR:
                pos = pattern_pos.get(at, 0)  # the executions so far
                pattern_pos[at] = pos + 1
                if arg[pos % len(arg)] != "T":
                    marked = None
                    continue  # not taken: on to the next item
                if pos < first_hot:
                    marked = None
                else:
                    hot = pos + 1  # see the entry's end
            elif kind == NDBR:
                marked = None
                if not random() < arg:
                    continue
            elif kind == CALL:
                call_stack.append(at + 1)
            elif kind == RET:
                if not call_stack:
                    raise GuestError(f"ret at {at} with empty call stack")
                nxt = call_stack.pop()
                if len(call_stack) < depth:
                    marked = None  # a lap would return to a frame from before it
            elif kind != JMP:  # halt
                end = off + 1
                next_pc = None
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
        if addrs is not None:
            addrs.extend(range(pc, pc + end))
        if last_analyzed is not None:
            prefix = last_analyzed + 1
            entry = longest
            if prefix > entry[2]:
                marked = None
                entry = (image, rel, prefix)
                cache[pc] = compiled[:4] + (entry,)  # the uncut body
                log.commit(entry)
                if observer is not None:
                    observer.on_commit(entry)
            elif prefix < entry[2]:
                entry = (image, rel, prefix)
                entry = shorter.setdefault(entry, entry)
            committed.append(entry)
        if hot:
            # A hot br was taken and its exit recorded; the loop variables
            # still hold its item.  Replay the lap since its last taken
            # execution, or the cycle of laps since the saved one, if what
            # it did repeats (see the module docstring).
            executions, hot = hot, 0
            if type(t) is not int:
                marked = None
            else:
                if at != marked or len(call_stack) != depth:
                    marked, depth, saved = at, len(call_stack), None
                    move = False
                else:
                    # (a) No charge, or (b) one, the br's, that left budget,
                    # and the answer, version and `until` as they were.
                    t0, s0, c0, r0, spent0, until0, version0, answer0 = last
                    k, laps = 0, 1
                    if (version == answer == version0 == answer0 and until == until0 and (
                            unlimited or spent == spent0
                            or spent - spent0 == analysis_cost and last_analyzed == end - 1)):
                        lap, lap_steps = t - t0, steps - s0
                        k = _skips(arg, executions, max_steps - steps - lap_steps - (length - end),
                                   lap_steps, now, lap, until)
                        if k and spent != spent0 and not unlimited:
                            # The server takes the charges up to, not
                            # including, the one that spends the budget.
                            k = budget.charge_series(analysis_cost, now + lap, lap, k)
                    if (not k and saved is not None and spent != saved[4]
                            and (version, answer, None if until == refill else until - t,
                                 budget.snapshot(t)[0]) == saved[9]):
                        # (c) A charged cycle: the state is the saved one's,
                        # whole periods later.
                        t0, s0, c0, r0, spent0, until0 = saved[:6]
                        laps, cycle_steps = executions - saved[8], steps - s0
                        k = _skips(arg, executions, max_steps - steps - cycle_steps,
                                   cycle_steps, now, t - t0, refill, laps)
                        if k:
                            k = budget.repeat(saved[10], k)
                    if k:
                        commits.repeat(c0, len(committed) + commits.added, k)
                        outputs.repeat(r0, len(records) + outputs.added, k)
                        if path is not None:
                            path.repeat(s0, steps, k)
                        shift = k * (t - t0)
                        now += shift
                        t += shift
                        steps += k * (steps - s0)
                        spent += k * (spent - spent0)
                        if until != until0:
                            until += k * (until - until0)
                        executions += k * laps
                        pattern_pos[at] = executions
                    # Only a charged cycle repeats, so the first saved
                    # snapshot is the first after a charge.
                    move = (spent != spent0 and not unlimited if saved is None
                            else executions - saved[8] >= power)
                last = (t, steps, len(committed) + commits.added,
                        len(records) + outputs.added, spent, until, version, answer)
                if move:
                    phase, since = budget.snapshot(t)
                    power = 1 if saved is None else 2 * power
                    saved = (*last, executions,
                             (version, answer, None if until == refill else until - t, phase),
                             since)
        pc = next_pc

    if now is not None:
        if unlimited and spent:
            # At the last point rather than the last call: a server may have
            # been checked since, and an unlimited one records no charge time.
            charge(spent, now)
        # Close the periods up to the last point, as checking there would.
        check(now)
    return ExecutionOutcome(
        virtual_time=t,
        steps=steps,
        tool_output=outputs.stream(),
        committed_entries=commits.stream(),
        permits=tuple((c[:3], c[4] is not None) for c in caches[V_INSTRUMENT].values()),
        overshoots=tuple(magnitude for _, magnitude in budget.overshoot_log),
        addr_path=path.stream() if path is not None else None,
        distinct_records=frozenset(shared),
    )
