"""Seeded generators of small guest programs for tests and demos.

All generated programs terminate by construction: backward branches are
pattern-driven with a trailing not-taken, nondeterministic branches only jump
forward, and calls never recurse.
"""

from __future__ import annotations

import random

from .program import Program, parse_program


def random_program(rng: random.Random, max_instructions: int = 200) -> str:
    """Random structured program text: straight runs, bounded loops, forward
    skips, and calls into (sometimes) a second image."""
    label_n = 0

    def label() -> str:
        nonlocal label_n
        label_n += 1
        return f"L{label_n}"

    lines = ["image main 1000"]
    remaining = rng.randrange(max_instructions // 4, max_instructions - 20)
    routines = rng.randrange(0, 3)
    routine_labels = [label() for _ in range(routines)]
    second_image = routines > 0 and rng.random() < 0.5

    def ops(n: int) -> None:
        for _ in range(n):
            lines.append(f"    op {rng.choice((0, 1, 1, 1, 2, 3))}")

    while remaining > 4:
        kind = rng.random()
        if kind < 0.35:
            n = rng.randrange(1, min(8, remaining))
            ops(n)
            remaining -= n
        elif kind < 0.6 and remaining > 8:
            head, body = label(), rng.randrange(1, 5)
            iters = rng.randrange(1, 5)
            lines.append(f"{head}:")
            ops(body)
            lines.append(f"    br {head} {'T' * iters}N")
            remaining -= body + 1
        elif kind < 0.8 and remaining > 6:
            skip, n = label(), rng.randrange(1, 4)
            if rng.random() < 0.5:
                lines.append(f"    ndbr {skip} {rng.choice((0.25, 0.5, 0.75))}")
            else:
                lines.append(f"    br {skip} {rng.choice(('T', 'N', 'TN', 'NT'))}")
            ops(n)
            lines.append(f"{skip}:")
            ops(1)
            remaining -= n + 2
        elif routine_labels and remaining > 4:
            lines.append(f"    call {rng.choice(routine_labels)}")
            remaining -= 1
        else:
            ops(1)
            remaining -= 1
    lines.append("    halt")

    if routine_labels:
        if second_image:
            lines.append("image lib 9000")
        for name in routine_labels:
            lines.append(f"{name}:")
            for _ in range(rng.randrange(1, 5)):
                lines.append(f"    op {rng.choice((1, 1, 2))}")
            lines.append("    ret")
    return "\n".join(lines) + "\n"


def loop_program(rng: random.Random) -> str:
    """Deterministic terminating loop program (no ndbr): counted loops, some
    with a patterned skip branch in the body, so every control transfer
    executes on every run."""
    lines = ["image main 1000"]
    loops = rng.randrange(2, 5)
    for i in range(loops):
        head = f"H{i}"
        body = rng.randrange(2, 7)
        iters = rng.randrange(3, 9)
        lines.append(f"{head}:")
        for _ in range(body):
            lines.append("    op 1")
        if rng.random() < 0.5:
            skip = f"S{i}"
            lines.append(f"    br {skip} {rng.choice(('TN', 'NT', 'TTN'))}")
            lines.append("    op 1")
            lines.append(f"{skip}: op 1")
        lines.append(f"    br {head} {'T' * iters}N")
        for _ in range(rng.randrange(0, 3)):
            lines.append("    op 1")
    lines.append("    halt")
    return "\n".join(lines) + "\n"


def random_corpus(seed: int, count: int, **kwargs) -> list[Program]:
    rng = random.Random(seed)
    return [parse_program(random_program(rng, **kwargs)) for _ in range(count)]


def loop_corpus(seed: int, count: int) -> list[Program]:
    rng = random.Random(seed)
    return [parse_program(loop_program(rng)) for _ in range(count)]
