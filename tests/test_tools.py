from hypothesis import given, strategies as st

from dime import (BudgetState, LogStore, RunConfig, build_cct, parse_program, run,
                  write_records)

from conftest import TRANSFERS
from reference import reference_run


def rec(kind, src=0, dst=0):
    return (kind, src, dst)


def tool_runs(tool):
    """Per granularity, the records of a run of TRANSFERS with every
    analysis call made, and the reference's records of every taken
    transfer."""
    program = parse_program(TRANSFERS)
    ref_records, _, _ = reference_run(program, seed=5)
    for granularity in ("ctrl", "all"):
        config = RunConfig(program=program, granularity=granularity, tool=tool, seed=5)
        out = run(config, LogStore("none"), BudgetState.unlimited())
        yield out.tool_output, tuple(ref_records)


def test_branch_profiler_keeps_all_kinds_in_order():
    for records, ref_records in tool_runs("branch"):
        assert records == ref_records
        assert {kind for kind, _, _ in records} == {"jump", "call", "return"}
        assert len(set(records)) < len(records)


def test_call_trace_tool_drops_jumps():
    for records, ref_records in tool_runs("cct"):
        assert records == tuple(r for r in ref_records if r[0] != "jump")
        assert {kind for kind, _, _ in records} == {"call", "return"}


def test_call_trace_tool_shares_one_tuple_per_distinct_record():
    for records, _ in tool_runs("cct"):
        assert len(records) == 6
        assert len({id(record) for record in records}) == len(set(records)) == 2


def test_cct_empty_stream():
    tree = build_cct([])
    assert tree.node_count == 1
    assert tree.edge_count == 0


def test_cct_repeated_context_creates_no_new_node():
    # call a->b, call b->c, both return, call a->b again
    stream = [rec("call", 100, 200), rec("call", 210, 300),
              rec("return", 310, 211), rec("return", 211, 101),
              rec("call", 100, 200)]
    tree = build_cct(stream)
    assert tree.node_count == 3       # root, 200@root, 300@200
    assert tree.edge_count == 2
    assert set(tree.root.children) == {200}
    assert set(tree.root.children[200].children) == {300}


def test_cct_distinguishes_contexts():
    # the same callee under two different parents is two nodes
    stream = [rec("call", 1, 50), rec("return", 55, 2),
              rec("call", 3, 60), rec("call", 61, 50), rec("return", 55, 62)]
    tree = build_cct(stream)
    assert tree.node_count == 4
    assert tree.edge_count == 3


def test_cct_unbalanced_trailing_call():
    tree = build_cct([rec("call", 1, 50)])
    assert tree.node_count == 2
    assert tree.edge_count == 1


def test_cct_return_at_root_tolerated():
    tree = build_cct([rec("return", 9, 1), rec("call", 1, 50)])
    assert tree.node_count == 2
    assert tree.edge_count == 1


def test_cct_counts_monotone_as_stream_grows():
    stream = [rec("call", 1, 50), rec("call", 51, 60), rec("return", 65, 52),
              rec("return", 52, 2), rec("call", 1, 50), rec("call", 51, 70)]
    nodes, edges = 0, 0
    for k in range(len(stream) + 1):
        tree = build_cct(stream[:k])
        assert tree.node_count >= nodes
        assert tree.edge_count >= edges
        assert tree.edge_count == tree.node_count - 1
        nodes, edges = tree.node_count, tree.edge_count


def test_cct_dump_format():
    tree = build_cct([rec("call", 1, 50), rec("call", 51, 60)])
    assert tree.dump() == "root\n  50\n    60\nnodes=3 edges=2\n"


def recursive_dump(tree):
    """The tree's text form, built by recursion over the nodes."""
    lines = []

    def walk(node, depth):
        lines.append("  " * depth + ("root" if node.entry is None else str(node.entry)))
        for child in node.children.values():
            walk(child, depth + 1)

    walk(tree.root, 0)
    return "\n".join(lines) + f"\nnodes={tree.node_count} edges={tree.edge_count}\n"


@given(st.lists(st.tuples(st.sampled_from(["call", "return"]), st.integers(0, 6)),
                max_size=60))
def test_cct_dump_matches_recursive_walk(stream):
    tree = build_cct([rec(kind, dst, dst) for kind, dst in stream])
    assert tree.dump() == recursive_dump(tree)


def test_cct_dump_of_3000_deep_chain():
    tree = build_cct([rec("call", i, 1000 + i) for i in range(3000)])
    lines = tree.dump().splitlines()
    assert len(lines) == 3002
    assert lines[-2] == "  " * 3000 + "3999"
    assert lines[-1] == "nodes=3001 edges=3000"


def test_write_records(tmp_path):
    path = tmp_path / "out"
    write_records([rec("jump", 10, 20), rec("call", 1, 2)], path)
    assert path.read_text() == "jump,10,20\ncall,1,2\n"
