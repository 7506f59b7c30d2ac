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
may cross images.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass

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


class ParseError(ValueError):
    """Malformed program text; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class AddressError(LookupError):
    """An address falls outside every image."""


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
    name: str
    base: int
    instructions: tuple[Instruction, ...]

    @property
    def end(self) -> int:
        """One past the last instruction address."""
        return self.base + len(self.instructions)

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end


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
        self._by_name = {img.name: img for img in self.images}
        self._sorted = sorted((img for img in self.images if img.instructions),
                              key=lambda img: img.base)
        self._bases = [img.base for img in self._sorted]

    @property
    def entry(self) -> int:
        """Program entry: first instruction of the first image."""
        return self.images[0].base

    def image(self, name: str) -> ProgramImage:
        return self._by_name[name]

    def image_of(self, addr: int) -> ProgramImage | None:
        i = bisect_right(self._bases, addr) - 1
        if i >= 0 and self._sorted[i].contains(addr):
            return self._sorted[i]
        return None

    def instruction_at(self, addr: int) -> Instruction | None:
        img = self.image_of(addr)
        if img is None:
            return None
        return img.instructions[addr - img.base]

    def resolve(self, addr: int) -> tuple[Instruction, str, int]:
        """Map an absolute address to (instruction, image name, relative address)."""
        img = self.image_of(addr)
        if img is None:
            raise AddressError(f"address {addr} outside every image")
        return img.instructions[addr - img.base], img.name, addr - img.base


def resolve(program: Program, addr: int) -> tuple[Instruction, str, int]:
    """Module-level form of `Program.resolve`."""
    return program.resolve(addr)


def _split_labels(line: str, lineno: int) -> tuple[list[str], str]:
    labels = []
    rest = line
    while True:
        m = re.match(r"^([A-Za-z_.$][A-Za-z0-9_.$]*)\s*:\s*", rest)
        if not m:
            break
        labels.append(m.group(1))
        rest = rest[m.end():]
    return labels, rest.strip()


def parse_program(text: str) -> Program:
    """Parse program text into a Program; raises ParseError with line numbers."""
    images: list[tuple[str, int, list]] = []  # (name, base, raw instruction rows)
    labels: dict[str, int] = {}
    pending_labels: list[tuple[str, int]] = []
    current: list | None = None
    current_base = 0

    def bind_pending(addr: int) -> None:
        for label, lineno in pending_labels:
            if label in labels:
                raise ParseError(f"duplicate label {label!r}", lineno)
            labels[label] = addr
        pending_labels.clear()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "image":
            if pending_labels:
                raise ParseError("label before image directive", pending_labels[0][1])
            if len(parts) != 3:
                raise ParseError("expected: image <name> <base>", lineno)
            name = parts[1]
            if not _NAME_RE.match(name):
                raise ParseError(f"bad image name {name!r}", lineno)
            try:
                current_base = int(parts[2])
            except ValueError:
                raise ParseError(f"bad image base {parts[2]!r}", lineno) from None
            if any(name == n for n, _, _ in images):
                raise ParseError(f"duplicate image {name!r}", lineno)
            current = []
            images.append((name, current_base, current))
            continue

        lbls, rest = _split_labels(line, lineno)
        for lbl in lbls:
            pending_labels.append((lbl, lineno))
        if not rest:
            continue
        if current is None:
            raise ParseError("instruction before any image directive", lineno)
        addr = current_base + len(current)
        bind_pending(addr)
        current.append((lineno, addr, rest.split()))

    if pending_labels:
        raise ParseError("dangling label at end of program", pending_labels[0][1])
    if not images:
        raise ParseError("no images")
    for name, _, rows in images:
        if not rows:
            raise ParseError(f"image {name!r} has no instructions")

    def target_of(label: str, lineno: int) -> int:
        if label not in labels:
            raise ParseError(f"unresolved label {label!r}", lineno)
        return labels[label]

    built: list[ProgramImage] = []
    for name, base, rows in images:
        instrs: list[Instruction] = []
        for lineno, addr, parts in rows:
            op, args = parts[0], parts[1:]
            if op == OP:
                if len(args) != 1:
                    raise ParseError("expected: op <cost>", lineno)
                try:
                    cost = int(args[0])
                except ValueError:
                    raise ParseError(f"bad cost {args[0]!r}", lineno) from None
                if cost < 0:
                    raise ParseError("cost must be >= 0", lineno)
                instrs.append(Instruction(addr, OP, cost))
            elif op == JMP or op == CALL:
                if len(args) != 1:
                    raise ParseError(f"expected: {op} <label>", lineno)
                instrs.append(Instruction(addr, op, 1, target=target_of(args[0], lineno)))
            elif op == BR:
                if len(args) != 2:
                    raise ParseError("expected: br <label> <pattern>", lineno)
                if not _PATTERN_RE.match(args[1]):
                    raise ParseError(f"bad pattern {args[1]!r} (T/N only)", lineno)
                instrs.append(Instruction(addr, BR, 1, target=target_of(args[0], lineno),
                                          pattern=args[1]))
            elif op == NDBR:
                if len(args) != 2:
                    raise ParseError("expected: ndbr <label> <p>", lineno)
                try:
                    prob = float(args[1])
                except ValueError:
                    raise ParseError(f"bad probability {args[1]!r}", lineno) from None
                if not 0.0 <= prob <= 1.0:
                    raise ParseError("probability must be in [0, 1]", lineno)
                instrs.append(Instruction(addr, NDBR, 1, target=target_of(args[0], lineno),
                                          prob=prob))
            elif op == RET:
                if args:
                    raise ParseError("ret takes no arguments", lineno)
                instrs.append(Instruction(addr, RET, 1))
            elif op == HALT:
                if args:
                    raise ParseError("halt takes no arguments", lineno)
                instrs.append(Instruction(addr, HALT, 1))
            else:
                raise ParseError(f"unknown instruction {op!r}", lineno)
        built.append(ProgramImage(name, base, tuple(instrs)))

    program = Program(built)
    # Targets must land on real instructions (they may cross images).
    for img in built:
        for ins in img.instructions:
            if ins.target is not None and program.image_of(ins.target) is None:
                raise ParseError(f"target {ins.target} of instruction at {ins.addr} "
                                 "resolves outside every image")
    return program


def serialize_program(program: Program) -> str:
    """Canonical text for a Program; parse(serialize(p)) reproduces p's images."""
    targets = {ins.target for img in program.images
               for ins in img.instructions if ins.target is not None}
    lines: list[str] = []
    for img in program.images:
        lines.append(f"image {img.name} {img.base}")
        for ins in img.instructions:
            prefix = f"A{ins.addr}: " if ins.addr in targets else "    "
            if ins.kind == OP:
                lines.append(f"{prefix}op {ins.cost}")
            elif ins.kind == JMP:
                lines.append(f"{prefix}jmp A{ins.target}")
            elif ins.kind == BR:
                lines.append(f"{prefix}br A{ins.target} {ins.pattern}")
            elif ins.kind == NDBR:
                lines.append(f"{prefix}ndbr A{ins.target} {ins.prob!r}")
            elif ins.kind == CALL:
                lines.append(f"{prefix}call A{ins.target}")
            else:
                lines.append(f"{prefix}{ins.kind}")
    return "\n".join(lines) + "\n"
