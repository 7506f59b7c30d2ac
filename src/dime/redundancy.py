"""Persistent log of instrumented regions with pluggable search strategies.

Entries are <image, relative address, length> intervals.  The strategy decides
what "already instrumented" means when a new candidate trace asks for
permission:

* ``hash``   - keyed by start address only; every entry has length 0.  A
  candidate is rejected iff its exact start address was committed before.
* ``bst``    - address-ordered <start, length> entries.  A candidate is
  rejected iff its start lies inside any logged interval.
* ``merger`` - like bst but commits coalesce overlapping and directly
  adjacent intervals, and a candidate is rejected only when it is strictly
  contained in a single logged interval (its end must fall strictly inside).
* ``none``   - permits everything and persists nothing.

``hash`` and ``bst`` keep their entries in one per-image start -> length map,
which is what ``entries()`` reports and ``save`` writes: length 0 under
``hash``, the longest committed length under ``bst``.  ``bst`` and ``merger``
answer from one per-image union of the committed intervals (``_Intervals``),
as does the campaign's referee, ``harness.MetricsObserver``.

``LogStore.commit`` takes any (image, rel_addr, length) triple: a ``LogEntry``
or the plain tuple the executor passes.  Saving and loading build no
``LogEntry``; ``entries()`` builds them for its callers.

The persisted file is line-oriented, sorted, and byte-deterministic:
``# dime-log v1 strategy=<s>`` then ``image,rel`` (hash) or
``image,rel,length`` (bst/merger) per line, each number in plain decimal as
``str(int)`` writes it.  ``load`` accepts no other form.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from collections import defaultdict
from itertools import count
from typing import Iterator, NamedTuple

from .program import _NAME_RE

STRATEGIES = ("hash", "bst", "merger", "none")
_FILE_HEADER = "# dime-log v1 strategy="


class LogEntry(NamedTuple):
    image: str
    rel_addr: int
    length: int


class LogFormatError(ValueError):
    """Persisted log file does not match the expected schema."""


class _Intervals:
    """Union of address ranges [lo, hi) on one image, as sorted intervals with
    a gap between neighbours: `add` coalesces every interval the new range
    overlaps or touches.  So `ends` is sorted too, and a range lies in the
    union iff one interval holds it.  Empty ranges overlap nothing and are
    always covered."""

    __slots__ = ("starts", "ends")

    def __init__(self):
        self.starts: list[int] = []
        self.ends: list[int] = []

    def add(self, lo: int, hi: int) -> None:
        if lo >= hi:
            return
        starts, ends = self.starts, self.ends
        i = bisect_left(ends, lo)       # first interval ending at or after lo
        j = bisect_right(starts, hi)    # past the last one starting at or before hi
        if i < j:
            lo, hi = min(lo, starts[i]), max(hi, ends[j - 1])
        starts[i:j] = [lo]
        ends[i:j] = [hi]

    def end_at(self, addr: int) -> int:
        """End of the interval holding `addr`, or `addr` itself when none
        does: the first address from `addr` on that is not in the union."""
        i = bisect_right(self.starts, addr) - 1
        return max(addr, self.ends[i]) if i >= 0 else addr

    def holds(self, addr: int) -> bool:
        return self.end_at(addr) > addr

    def overlaps(self, lo: int, hi: int) -> bool:
        """Whether any address in [lo, hi) is in the union."""
        i = bisect_left(self.starts, hi) - 1    # last interval starting below hi
        return lo < hi and i >= 0 and self.ends[i] > lo

    def covers(self, lo: int, hi: int) -> bool:
        """Whether every address in [lo, hi) is in the union."""
        return self.end_at(lo) >= hi


class LogStore:
    """Instrumented-region log under one of the strategies above.

    State is kept per image: for ``hash`` and ``bst`` the start -> length
    map of the entries (length 0 under ``hash``, the longest committed length
    under ``bst``), which `finalize` merges under ``bst``; for ``bst`` and
    ``merger`` an `_Intervals` union of everything committed, which answers
    every permit but a ``hash`` one.
    """

    def __init__(self, strategy: str):
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        self.strategy = strategy
        self._lengths: dict[str, dict[int, int]] = {}
        self._union: defaultdict[str, _Intervals] = defaultdict(_Intervals)

    # -- queries ------------------------------------------------------------

    def permit(self, image: str, rel_addr: int, length: int) -> bool:
        """Decide whether a candidate trace <image, rel_addr, length> may be
        instrumented, by this store's strategy."""
        if length < 1:
            raise ValueError("candidate length must be >= 1")
        if self.strategy == "none":
            return True
        if self.strategy == "hash":
            return rel_addr not in self._lengths.get(image, ())
        union = self._union[image]
        if self.strategy == "bst":
            return not union.holds(rel_addr)
        # merger: reject only when the candidate ends strictly inside the
        # interval holding its start
        return rel_addr + length >= union.end_at(rel_addr)

    def entries(self) -> Iterator[LogEntry]:
        """All entries sorted by (image, rel_addr); hash entries have length 0."""
        return map(LogEntry._make, self._entries())

    def _entries(self) -> Iterator[tuple[str, int, int]]:
        """`entries()` as plain (image, rel_addr, length) tuples."""
        if self.strategy == "merger":
            for image, union in sorted(self._union.items()):
                for start, end in zip(union.starts, union.ends):
                    yield image, start, end - start
        else:
            for image, lengths in sorted(self._lengths.items()):
                for start in sorted(lengths):
                    yield image, start, lengths[start]

    def ends(self) -> dict[str, int]:
        """Per image with entries, the first address past all of them; an
        entry of length 0 (a ``hash`` start) ends one past its start."""
        ends: dict[str, int] = {}
        for image, start, length in self._entries():
            ends[image] = max(ends.get(image, 0), start + (length or 1))
        return ends

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def __eq__(self, other) -> bool:
        return (isinstance(other, LogStore) and self.strategy == other.strategy
                and list(self._entries()) == list(other._entries()))

    # -- updates ------------------------------------------------------------

    def commit(self, entry: tuple[str, int, int]) -> None:
        """Record an instrumented portion, an (image, rel_addr, length)
        triple.  hash: start only, as length 0, idempotent.  bst: keep the
        max length per start.  merger: insert and coalesce with every
        overlapping or directly adjacent neighbour."""
        image, rel_addr, length = entry
        if length < 1:
            raise ValueError("committed length must be >= 1")
        if self.strategy == "none":
            return
        if self.strategy == "hash":
            self._lengths.setdefault(image, {})[rel_addr] = 0
            return
        self._union[image].add(rel_addr, rel_addr + length)
        if self.strategy == "bst":
            lengths = self._lengths.setdefault(image, {})
            lengths[rel_addr] = max(lengths.get(rel_addr, 0), length)

    def finalize(self) -> None:
        """Post-run transform; under bst, merge directly consecutive entries.
        Merged entries meet end to start, so no permit answer changes."""
        if self.strategy != "bst":
            return
        for image, lengths in self._lengths.items():
            merged: dict[int, int] = {}
            last = None
            for start in sorted(lengths):
                if last is not None and last + merged[last] == start:
                    merged[last] += lengths[start]
                else:
                    merged[start] = lengths[start]
                    last = start
            self._lengths[image] = merged

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> None:
        """Write the log to `path`, atomically: the text goes to a temporary
        file beside it, which then replaces `path`.  The temporary file is
        created anew under a name of this process's own,
        `<path>.<pid>.tmp`, or `<path>.<pid>.<n>.tmp` with the first n >= 1
        whose name is free when that one is taken (say, left by a killed
        save of an earlier process with the same pid).  So a save never
        writes to or removes a file that was there before it.  A failure
        mid-write leaves the old file as it was and removes the temporary
        one."""
        if self.strategy == "none":
            raise ValueError("the 'none' strategy has no persistent form")
        lines = [f"{_FILE_HEADER}{self.strategy}"]
        for image, rel_addr, length in self._entries():
            # only a hash entry has length 0, and its line has no length field
            lines.append(f"{image},{rel_addr},{length}" if length else f"{image},{rel_addr}")
        stem = f"{os.fspath(path)}.{os.getpid()}"
        for n in count():
            tmp = f"{stem}.{n}.tmp" if n else f"{stem}.tmp"
            try:
                fh = open(tmp, "x", encoding="ascii", newline="\n")
                break
            except FileExistsError:
                pass
        try:
            with fh:
                fh.write("\n".join(lines) + "\n")
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    def finalize_and_save(self, path) -> None:
        self.finalize()
        self.save(path)


def load(path) -> LogStore:
    """Read a persisted log; the header names the strategy."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError:
        raise LogFormatError(f"{path}: not an ASCII dime log") from None
    if not lines or not lines[0].startswith(_FILE_HEADER):
        raise LogFormatError(f"{path}: missing dime-log header")
    strategy = lines[0][len(_FILE_HEADER):]
    if strategy not in ("hash", "bst", "merger"):
        raise LogFormatError(f"{path}: unknown strategy {strategy!r}")
    store = LogStore(strategy)
    want = 2 if strategy == "hash" else 3
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != want:
            raise LogFormatError(f"{path}:{lineno}: expected {want} fields, got {len(fields)}")
        if not _NAME_RE.match(fields[0]):
            raise LogFormatError(f"{path}:{lineno}: bad image name {fields[0]!r}")
        try:
            rel = int(fields[1])
            length = int(fields[2]) if want == 3 else 1
        except ValueError:
            raise LogFormatError(f"{path}:{lineno}: non-numeric field") from None
        if str(rel) != fields[1] or (want == 3 and str(length) != fields[2]):
            # int() also reads " 1", "+1", "1_0" and "01", which save never writes
            raise LogFormatError(f"{path}:{lineno}: number not in the form save writes")
        if rel < 0 or length < 1:
            raise LogFormatError(f"{path}:{lineno}: bad interval")
        store.commit((fields[0], rel, length))
    return store
