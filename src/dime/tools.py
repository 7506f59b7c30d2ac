"""Guest-facing analysis routines: what the executor records at each
analysis call, and what a tool's output file holds.

A tool is the set of taken control transfers it records.  At a taken
transfer whose analysis call ran, run() records (kind, source address,
destination address) when its tool keeps that instruction kind, kind being
"jump", "call" or "return"; a conditional that falls through emits nothing.
The branch tool keeps every taken transfer, the call-context-tree tool only
calls and returns, whose records build the tree after the run.

Records are plain (kind, src, dst) tuples, which the garbage collector
stops tracking; `build_cct`, `write_records` and `write_tool_output` take
any iterable of such triples.
"""

from __future__ import annotations

from .program import BR, CALL, JMP, NDBR, RET

# Per tool, the record kind of each instruction kind whose taken transfers it
# keeps.
TOOLS = {
    "branch": {JMP: "jump", BR: "jump", NDBR: "jump", CALL: "call", RET: "return"},
    "cct": {CALL: "call", RET: "return"},
}


def record_kinds(tool: str) -> dict:
    """The record kind per instruction kind that the tool named `tool`
    keeps; ValueError for a name that is no tool."""
    try:
        return TOOLS[tool]
    except KeyError:
        raise ValueError(f"unknown tool {tool!r}") from None


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


def write_tool_output(tool: str, records, path) -> None:
    """The output file of the tool named `tool` from its (kind, src, dst)
    records: the call-context tree's dump for cct, the records themselves
    for branch."""
    if tool == "cct":
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(build_cct(records).dump())
    else:
        write_records(records, path)
