"""Guest-facing analysis routines driven by the executor's analysis calls.

The branch tool records every taken control transfer as
(kind, source address, destination address), kind being "jump", "call" or
"return"; a conditional that falls through emits nothing.  The
call-context-tree builder consumes the call and return records of such a
stream after the run.

A tool keeps its records as plain (kind, src, dst) tuples in `records`,
which the garbage collector stops tracking; `build_cct` and
`write_records` take any iterable of such triples.
"""

from __future__ import annotations


class AnalysisTool:
    """The branch tool: records jump, call and return transfers, with source
    and destination, as analysis calls report them."""

    name = "branch"

    def __init__(self):
        self.records: list[tuple[str, int, int]] = []

    def on_branch(self, kind: str, src: int, dst: int) -> None:
        self.records.append((kind, src, dst))


class CallTraceTool(AnalysisTool):
    """Records only call and return transfers, for call-context-tree building.

    A run makes the same few calls and returns over and over, so `records`
    holds one shared tuple per distinct (kind, src, dst).
    """

    name = "cct"

    def __init__(self):
        super().__init__()
        self._shared: dict[tuple[str, int, int], tuple[str, int, int]] = {}

    def on_branch(self, kind: str, src: int, dst: int) -> None:
        if kind in ("call", "return"):
            record = (kind, src, dst)
            self.records.append(self._shared.setdefault(record, record))


TOOLS = {"branch": AnalysisTool, "cct": CallTraceTool}


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

    @property
    def edge_count(self) -> int:
        """Every node but the root has one edge, from its parent."""
        return self.node_count - 1

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
    records.

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
            cursor = child
        elif kind == "return":
            if cursor.parent is not None:
                cursor = cursor.parent
    return tree


def write_records(records, path) -> None:
    """Line-oriented kind,src,dst tool output file, from (kind, src, dst)
    records."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for kind, src, dst in records:
            fh.write(f"{kind},{src},{dst}\n")
