"""Building a call-context tree from call/return records.

The cct tool records taken call and return transfers; afterwards the tree
builder replays them with a cursor: a call descends (creating the child node
for that callee in that context if new), a return ascends.  The same routine
called from two different contexts becomes two nodes.
"""

from dime import BudgetState, LogStore, RunConfig, build_cct, parse_program, run

PROGRAM = """\
image main 100
    op 1
    call F
    op 1
    call G
    halt
F:  op 2
    ret
G:  op 1
    call F
    ret
"""

program = parse_program(PROGRAM)
config = RunConfig(program=program, tool="cct")
outcome = run(config, LogStore("none"), BudgetState.unlimited())

print("call/return record stream:")
for kind, src, dst in outcome.tool_output:
    print(f"  {kind:>6} {src} -> {dst}")

tree = build_cct(outcome.tool_output)
print("\ncall context tree (routine entry addresses):")
print(tree.dump())
print("F appears twice: once under main, once under G - different contexts.")
