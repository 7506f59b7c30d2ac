"""Guest-facing analysis routines driven by the executor's analysis calls.

The branch profiler records every taken control transfer as
(kind, source address, destination address); a conditional that falls
through emits nothing.  The call-context-tree builder consumes the call and
return records of such a stream after the run.

A tool keeps its records as plain (kind, src, dst) tuples in `raw_records`,
which the garbage collector stops tracking; `records` is the same stream as
`BranchRecord` named tuples, built when it is read.  A plain triple and its
`BranchRecord` compare and hash equal, and `build_cct` and `write_records`
accept either.
"""

from __future__ import annotations

from typing import NamedTuple


class BranchRecord(NamedTuple):
    kind: str  # "jump" | "call" | "return"
    src: int
    dst: int


class AnalysisTool:
    """Base tool: accumulates records appended by analysis calls."""

    name = "null"

    def __init__(self):
        self.raw_records: list[tuple[str, int, int]] = []
        self._view: list[BranchRecord] = []

    def on_branch(self, kind: str, src: int, dst: int) -> None:
        self.raw_records.append((kind, src, dst))

    @property
    def records(self) -> list[BranchRecord]:
        """The records so far as `BranchRecord`s, built on a read after new
        records arrived and otherwise the list the last read returned."""
        if len(self._view) != len(self.raw_records):
            self._view = list(map(BranchRecord._make, self.raw_records))
        return self._view

    def unique_records(self) -> frozenset:
        return frozenset(self.raw_records)


class BranchProfiler(AnalysisTool):
    """Records jump, call, and return transfers with source and destination."""

    name = "branch"


class CallTraceTool(AnalysisTool):
    """Records only call and return transfers, for call-context-tree building."""

    name = "cct"

    def on_branch(self, kind: str, src: int, dst: int) -> None:
        if kind in ("call", "return"):
            self.raw_records.append((kind, src, dst))


TOOLS = {"branch": BranchProfiler, "cct": CallTraceTool}


def make_tool(name: str) -> AnalysisTool:
    try:
        return TOOLS[name]()
    except KeyError:
        raise ValueError(f"unknown tool {name!r}") from None


class CCTNode:
    __slots__ = ("entry", "children", "parent")

    def __init__(self, entry: int | None, parent: "CCTNode | None"):
        self.entry = entry  # routine entry address; None for the synthetic root
        self.parent = parent
        self.children: dict[int, CCTNode] = {}


class CallContextTree:
    """Context tree: one node per (path of callees from the root, routine entry)."""

    def __init__(self):
        self.root = CCTNode(None, None)
        self.node_count = 1
        self.edge_count = 0

    def dump(self) -> str:
        """Indented text form with a nodes/edges trailer: each node, then its
        children in insertion order, one indent deeper."""
        lines: list[str] = []
        stack = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            label = "root" if node.entry is None else str(node.entry)
            lines.append("  " * depth + label)
            stack.extend((child, depth + 1) for child in reversed(node.children.values()))
        lines.append(f"nodes={self.node_count} edges={self.edge_count}")
        return "\n".join(lines) + "\n"


def build_cct(records) -> CallContextTree:
    """Build a call-context tree from an ordered stream of (kind, src, dst)
    records, plain tuples or `BranchRecord`s.

    A call descends to the child named by the callee entry, creating it if
    absent; a return ascends.  A return at the root is tolerated (budget
    truncation can orphan returns), as is a trailing unreturned call.
    """
    tree = CallContextTree()
    cursor = tree.root
    for kind, _, dst in records:
        if kind == "call":
            child = cursor.children.get(dst)
            if child is None:
                child = CCTNode(dst, cursor)
                cursor.children[dst] = child
                tree.node_count += 1
                tree.edge_count += 1
            cursor = child
        elif kind == "return":
            if cursor.parent is not None:
                cursor = cursor.parent
    return tree


def write_records(records, path) -> None:
    """Line-oriented kind,src,dst tool output file, from (kind, src, dst)
    records, plain tuples or `BranchRecord`s."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for kind, src, dst in records:
            fh.write(f"{kind},{src},{dst}\n")
