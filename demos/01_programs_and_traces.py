"""Programs, images, and trace formation.

Parses a small looping guest program, resolves addresses to image-relative
form, and shows how traces are carved out of it: a trace runs from its entry
to the first unconditional transfer, conditionals inside it are extra exits,
and a jump into the middle of cached code starts a fresh trace at the target.
Each trace shape comes from a TraceMemo, which compiles it once per campaign
for the program, max trace length and granularity of a run config.
"""

from dime import RunConfig, TraceMemo, parse_program

P1 = """\
image main 1000
L0: op 1
    op 1
    ndbr L5 0.5
    op 1
    jmp L0
L5: halt
"""

program = parse_program(P1)
print("image:", program.images[0].name, "base:", program.images[0].base)
for ins in program.images[0].instructions:
    print(f"  {ins.addr}: {ins.kind}"
          + (f" -> {ins.target}" if ins.target is not None else ""))

image = program.image_of(1002)
print("\nresolve(1002) ->", (image.name, 1002 - image.base), "kind:",
      program.instruction_at(1002).kind)

ctrl = TraceMemo(RunConfig(program=program, max_trace_len=16, granularity="ctrl"))


def show(shape):
    """(image, rel_start, length) and the instrumentation-point offsets."""
    image, rel_start, length, body = shape
    points = tuple(off for off, _, point, *_ in body if point)
    return f"{(image, rel_start, length)} points={points}"


# A run marks, per version, the entry of each trace it caches; shape reads
# the marks to cut a walk and marks the entry it is asked for.
print("\ntrace from the loop head:")
print(" ", show(ctrl.shape(1000, {})))
print("  (covers 1000..1004, ends at the jmp; the ndbr at offset 2 is a side exit)")

marks = {}
print("\ntrace from a mid-region jump target:")
print(" ", show(ctrl.shape(1003, marks)))

print("\nsame entry, but 1003 is already a cached trace start of this version:")
print(" ", show(ctrl.shape(1000, marks)), " <- stops right before the cached entry")

print("\ninstrumentation points at granularity 'all':",
      show(TraceMemo(RunConfig(program=program, max_trace_len=16, granularity="all"))
           .shape(1000, {})))
