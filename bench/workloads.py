"""Seeded guest generators and campaign settings for the three benchmark workloads.

Each generator returns program text only; the simulator never sees the seed.
`scale` shrinks a workload for the smoke test (1.0 is the benchmarked size).
Sizes are chosen so that the guest-step count barely depends on the seed,
which keeps run-to-run spread down to timing noise.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 1


def loopnest(rng: random.Random, scale: float = 1.0) -> str:
    """Counted loop nests: a body of 6-10 `op`s closed by a patterned back-edge.

    Every nest runs ~4500 guest steps whatever its body length, so the total
    is fixed and the interpreter loop does almost all the work.
    """
    nests = max(2, round(50 * scale))
    steps = max(20, round(4500 * scale))
    lines = ["image main 1000"]
    for i in range(nests):
        body = rng.randint(6, 10)
        iters = max(2, round(steps / (body + 1)))
        lines.append(f"H{i}:")
        lines.extend(f"    op {rng.choice((1, 1, 2, 3))}" for _ in range(body))
        lines.append(f"    br H{i} {'T' * (iters - 1)}N")
    lines.append("    halt")
    return "\n".join(lines) + "\n"


def _small_function(rng: random.Random, name: str, lines: list[str]) -> None:
    """About a dozen instructions: straight runs, a 2-4 iteration loop and a
    patterned forward skip, in a random order."""
    lines.append(f"{name}:")
    parts = ["run", "loop", "skip", rng.choice(("run", "loop", "skip"))]
    rng.shuffle(parts)
    for j, part in enumerate(parts):
        if part == "run":
            lines.extend(f"    op {rng.choice((1, 1, 2))}" for _ in range(rng.randint(1, 4)))
        elif part == "loop":
            head = f"{name}_l{j}"
            lines.append(f"{head}: op 1")
            lines.extend("    op 1" for _ in range(rng.randint(0, 2)))
            lines.append(f"    br {head} {'T' * rng.randint(1, 3)}N")
        else:
            skip = f"{name}_s{j}"
            lines.append(f"    br {skip} {rng.choice(('T', 'N', 'TN', 'NT'))}")
            lines.extend("    op 1" for _ in range(rng.randint(1, 3)))
            lines.append(f"{skip}: op 1")
    lines.append("    ret")


def widecode(rng: random.Random, scale: float = 1.0) -> str:
    """A `main` image that calls ~3000 small functions once each, spread
    over 8 `lib` images: much code, each trace compiled and run about once."""
    count = max(8, round(3000 * scale))
    libs: list[list[str]] = [[f"image lib{i} {100_000 * (i + 1)}"] for i in range(8)]
    main = ["image main 1000"]
    for f in range(count):
        name = f"F{f}"
        main.append(f"    call {name}")
        _small_function(rng, name, libs[rng.randrange(8)])
    main.append("    halt")
    return "\n".join(main + [line for lib in libs if len(lib) > 1 for line in lib]) + "\n"


def switchstorm(rng: random.Random, scale: float = 1.0) -> str:
    """~60 loop nests whose bodies call into a 12-routine `lib` image, with op
    costs up to 20, so a 6-unit period closes every few instructions.

    Each nest body and each routine holds the same costs in a shuffled order,
    and every routine is called from five nests, so the seed moves where
    periods close but not how many guest steps or native time units a
    campaign takes.
    """
    nests = max(2, round(60 * scale))
    iters = max(2, round(200 * scale))
    callees = [r % 12 for r in range(nests)]
    rng.shuffle(callees)
    lines = ["image main 1000"]
    for i, callee in enumerate(callees):
        costs = rng.sample((2, 7, 13, 20), 4)
        split = rng.randint(1, 3)
        lines.append(f"H{i}:")
        lines.extend(f"    op {c}" for c in costs[:split])
        lines.append(f"    call R{callee}")
        lines.extend(f"    op {c}" for c in costs[split:])
        lines.append(f"    br H{i} {'T' * (iters - 1)}N")
    lines.append("    halt")
    lines.append("image lib 50000")
    for r in range(12):
        lines.append(f"R{r}:")
        lines.extend(f"    op {c}" for c in rng.sample((1, 5, 11, 17), 4))
        lines.append("    ret")
    return "\n".join(lines) + "\n"


# name -> (generator, campaign settings, budgeted runs K, driven through the CLI)
WORKLOADS = {
    "loopnest": (loopnest, dict(log_strategy="hash", granularity="ctrl", budget=10,
                                period=100, analysis_cost=1, tool="branch"), 3, False),
    "widecode": (widecode, dict(log_strategy="bst", granularity="ctrl", budget=10,
                                period=100, analysis_cost=1, tool="branch"), 3, False),
    "switchstorm": (switchstorm, dict(log_strategy="merger", granularity="all", budget=2,
                                      period=6, analysis_cost=2, tool="cct"), 3, True),
}
