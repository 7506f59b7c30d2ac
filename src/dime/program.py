"""Guest program model: images, instructions, and the textual program format.

A program is a set of images, each with a base address and a dense run of
one-address-unit instructions.  The line-oriented format::

    ; comment
    image main 1000
    L0: op 1
        op 1
        ndbr L5 0.5
        op 1
        jmp L0
    L5: halt

`image <name> <base>` opens an image; instruction lines are one of
`op <cost>`, `jmp <label>`, `br <label> <pattern>`, `ndbr <label> <p>`,
`call <label>`, `ret`, `halt`.  A `<label>:` prefix (or a label on its own
line) names the next instruction's address.  Labels are global, so calls
may cross images.  Any whitespace separates tokens, `;` starts a comment,
and every line break that str.splitlines() knows (CRLF included) ends a
line.  Bases and costs are read with int(), so `+1`, `007` and `1_000` are
accepted; probabilities with float(), so `1e-3`, `.5` and `1_0e-1` are too.

An image holds its instructions as four parallel tuples with one entry per
address: `kinds`, `costs`, `targets` (the resolved absolute address, or
None) and `args` (the br pattern, the ndbr probability, or None).  They hold
only strings, numbers and None, so the garbage collector stops tracking
them, and a large program adds next to nothing to its full collections.
`Instruction` objects are built only at the public edges that return them:
`ProgramImage.instructions` (built on first access, then cached) and
`Program.instruction_at`.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import count

OP = "op"
JMP = "jmp"
BR = "br"
NDBR = "ndbr"
CALL = "call"
RET = "ret"
HALT = "halt"

# Kinds that transfer control when executed (halt stops, it does not transfer).
CONTROL_TRANSFERS = frozenset({JMP, BR, NDBR, CALL, RET})
# Kinds that unconditionally end a trace; conditionals are mid-trace exits.
TERMINATORS = frozenset({JMP, CALL, RET, HALT})

_PATTERN_RE = re.compile(r"^[TN]+$")
_NAME_RE = re.compile(r"^[A-Za-z_.$][A-Za-z0-9_.$]*$")
_LABEL_RE = re.compile(r"([A-Za-z_.$][A-Za-z0-9_.$]*)\s*:\s*")
# Instruction mnemonics, mapped to the constants that the kind columns share.
_KINDS = {kind: kind for kind in (OP, JMP, BR, NDBR, CALL, RET, HALT)}


class ParseError(ValueError):
    """Malformed program text; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Instruction:
    """One guest operation occupying exactly one address unit.

    `target` is the resolved absolute address for jmp/br/ndbr/call;
    `pattern` is the cyclic taken/not-taken string for br; `prob` is the
    taken probability for ndbr.
    """

    addr: int
    kind: str
    cost: int = 1
    target: int | None = None
    pattern: str | None = None
    prob: float | None = None


@dataclass(frozen=True)
class ProgramImage:
    """An image's instructions as parallel columns, entry i at address base + i."""

    name: str
    base: int
    kinds: tuple[str, ...]
    costs: tuple[int, ...]
    targets: tuple[int | None, ...]
    args: tuple[str | float | None, ...]  # br pattern, ndbr probability or None

    @property
    def end(self) -> int:
        """One past the last instruction address."""
        return self.base + len(self.kinds)

    @cached_property
    def instructions(self) -> tuple[Instruction, ...]:
        """The columns as Instruction objects, built on first access."""
        return tuple(Instruction(addr, kind, cost, target, arg if kind == BR else None,
                                 arg if kind == NDBR else None)
                     for addr, kind, cost, target, arg in zip(
                         count(self.base), self.kinds, self.costs, self.targets, self.args))


class Program:
    """Loaded images plus an absolute-address lookup index: the non-empty
    images sorted by base, searched by bisection."""

    def __init__(self, images: list[ProgramImage] | tuple[ProgramImage, ...]):
        if not images:
            raise ParseError("no images")
        self.images: tuple[ProgramImage, ...] = tuple(images)
        ranges = sorted((img.base, img.end, img.name) for img in self.images)
        for (_, end_a, name_a), (base_b, _, name_b) in zip(ranges, ranges[1:]):
            if base_b < end_a:
                raise ParseError(f"overlapping images: {name_a} and {name_b}")
        self._sorted = sorted((img for img in self.images if img.kinds),
                              key=lambda img: img.base)
        self._bases = [img.base for img in self._sorted]
        self._ends = [img.end for img in self._sorted]

    @property
    def entry(self) -> int:
        """Program entry: first instruction of the first image."""
        return self.images[0].base

    def image_of(self, addr: int) -> ProgramImage | None:
        i = bisect_right(self._bases, addr) - 1
        if i >= 0 and addr < self._ends[i]:
            return self._sorted[i]
        return None

    def instruction_at(self, addr: int) -> Instruction | None:
        img = self.image_of(addr)
        if img is None:
            return None
        return img.instructions[addr - img.base]


def parse_program(text: str) -> Program:
    """Parse program text into a Program; raises ParseError with line numbers.

    One pass over the lines fills flat columns of every instruction, in line
    order; each image is a slice of them.  The first error is reported in
    the order of a two-stage reading.  First come the errors of the line
    structure (image directives, labels, instructions outside an image), in
    line order, then dangling labels, a text without images and empty
    images.  Then come bad instruction arguments and unresolved labels,
    together in line order, and last overlapping images.
    """
    kinds: list[str] = []
    costs: list[int] = []
    targets: list = []  # label names until they are resolved at the end
    args: list = []
    images: list[tuple[str, int, int]] = []  # (name, base, first row)
    names: set[str] = set()
    labels: dict[str, int] = {}  # label -> address
    pending: list[tuple[str, int]] = []  # (label, line) not yet bound
    refs: list[tuple[int, str, int]] = []  # (row, label, line) of every target
    arg_error: tuple[str, int] | None = None  # the first bad argument's (message, line)
    base = start = 0  # of the open image

    for lineno, line in enumerate(text.splitlines(), start=1):
        if ";" in line:
            line = line[:line.index(";")]
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "image":
            if pending:
                raise ParseError("label before image directive", pending[0][1])
            if len(parts) != 3:
                raise ParseError("expected: image <name> <base>", lineno)
            name = parts[1]
            if not _NAME_RE.match(name):
                raise ParseError(f"bad image name {name!r}", lineno)
            try:
                base = int(parts[2])
            except ValueError:
                raise ParseError(f"bad image base {parts[2]!r}", lineno) from None
            if name in names:
                raise ParseError(f"duplicate image {name!r}", lineno)
            names.add(name)
            start = len(kinds)
            images.append((name, base, start))
            continue
        if ":" in line:
            rest = line.strip()
            match = _LABEL_RE.match(rest)
            if match:
                while match:
                    pending.append((match.group(1), lineno))
                    rest = rest[match.end():]
                    match = _LABEL_RE.match(rest)
                parts = rest.split()
                if not parts:
                    continue
        if not images:
            raise ParseError("instruction before any image directive", lineno)
        if pending:
            addr = base + len(kinds) - start
            for label, at in pending:
                if label in labels:
                    raise ParseError(f"duplicate label {label!r}", at)
                labels[label] = addr
            pending.clear()

        kind, n = _KINDS.get(parts[0]), len(parts)
        cost, target, arg, error = 1, None, None, None
        if kind == OP:
            if n != 2:
                error = "expected: op <cost>"
            else:
                try:
                    cost = int(parts[1])
                except ValueError:
                    error = f"bad cost {parts[1]!r}"
                else:
                    if cost < 0:
                        error = "cost must be >= 0"
        elif kind == JMP or kind == CALL:
            if n != 2:
                error = f"expected: {kind} <label>"
            else:
                target = parts[1]
        elif kind == BR:
            if n != 3:
                error = "expected: br <label> <pattern>"
            elif not _PATTERN_RE.match(parts[2]):
                error = f"bad pattern {parts[2]!r} (T/N only)"
            else:
                target, arg = parts[1], parts[2]
        elif kind == NDBR:
            if n != 3:
                error = "expected: ndbr <label> <p>"
            else:
                try:
                    arg = float(parts[2])
                except ValueError:
                    error = f"bad probability {parts[2]!r}"
                else:
                    if not 0.0 <= arg <= 1.0:
                        error = "probability must be in [0, 1]"
                    else:
                        target = parts[1]
        elif kind is not None:  # ret, halt
            if n != 1:
                error = f"{kind} takes no arguments"
        else:
            error = f"unknown instruction {parts[0]!r}"
        if error is not None and arg_error is None:
            arg_error = (error, lineno)
        if target is not None:
            refs.append((len(kinds), target, lineno))
        kinds.append(kind)
        costs.append(cost)
        targets.append(target)
        args.append(arg)

    if pending:
        raise ParseError("dangling label at end of program", pending[0][1])
    if not images:
        raise ParseError("no images")
    ends = [first for _, _, first in images[1:]] + [len(kinds)]
    for (name, _, first), end in zip(images, ends):
        if first == end:
            raise ParseError(f"image {name!r} has no instructions")
    # A bad argument and an unresolved label: the one on the earlier line wins.
    for row, label, lineno in refs:
        if arg_error is not None and lineno > arg_error[1]:
            break
        if label not in labels:
            raise ParseError(f"unresolved label {label!r}", lineno)
        targets[row] = labels[label]
    if arg_error is not None:
        raise ParseError(*arg_error)
    # Every label names an instruction's address, so every target lies in an image.
    return Program([ProgramImage(name, base, tuple(kinds[first:end]), tuple(costs[first:end]),
                                 tuple(targets[first:end]), tuple(args[first:end]))
                    for (name, base, first), end in zip(images, ends)])


def serialize_program(program: Program) -> str:
    """Canonical text for a Program; parse(serialize(p)) reproduces p's images."""
    targets = {target for img in program.images for target in img.targets
               if target is not None}
    lines: list[str] = []
    for img in program.images:
        lines.append(f"image {img.name} {img.base}")
        for addr, kind, cost, target, arg in zip(count(img.base), img.kinds, img.costs,
                                                 img.targets, img.args):
            prefix = f"A{addr}: " if addr in targets else "    "
            if kind == OP:
                lines.append(f"{prefix}op {cost}")
            elif kind == BR:
                lines.append(f"{prefix}br A{target} {arg}")
            elif kind == NDBR:
                lines.append(f"{prefix}ndbr A{target} {arg!r}")
            elif target is not None:  # jmp, call
                lines.append(f"{prefix}{kind} A{target}")
            else:
                lines.append(f"{prefix}{kind}")
    return "\n".join(lines) + "\n"
