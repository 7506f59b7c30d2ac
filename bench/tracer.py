"""Wrappers around the public functions and methods of dime's layers.

A `Tracer` replaces every public function and method of the layer modules
(and every module attribute that names one of them, so `from .x import f`
call sites are caught too) with a wrapper that counts calls and accumulates
total and self time.  Self time is a call's duration minus the
time spent in wrapped calls it made.  Coarse calls also leave a span
(name, run index, start, end, parent span) in memory; the run index is 0
for the oracle and k for budgeted run k, counted by `RunConfig.make_budget`.
Return values of a few calls are kept, with their durations, so
the benchmark can read outcomes and budget states without touching the
simulator.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("program", "executor", "budget", "redundancy", "tools", "harness", "cli")

# Calls made a handful of times per campaign: cheap enough to record as spans.
SPANS = frozenset({
    "program.parse_program", "executor.native_run", "executor.run",
    "redundancy.load", "redundancy.LogStore.finalize_and_save",
    "tools.build_cct", "harness.run_oracle",
    "harness.run_campaign", "harness.emit_report", "cli.main",
})
# Left unwrapped: a one-line test that image_of makes once per image, where
# a wrapper would cost several times the call and bill it to image_of.
UNWRAPPED = frozenset({"program.ProgramImage.contains"})
# Calls whose return values the benchmark reads (outcomes and budget states).
# They are also the only calls an untraced run wraps: a few per campaign, so
# timing them costs microseconds against seconds of simulation.
KEEP = frozenset({"executor.native_run", "executor.run", "harness.run_campaign",
                  "executor.RunConfig.make_budget"})


def _public_callables():
    """(owner, attribute, function, qualified name) for each layer's public
    functions and the public methods of its classes."""
    found = []
    for layer in LAYERS:
        module = importlib.import_module(f"dime.{layer}")
        for attr, value in vars(module).items():
            if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                found.append((module, attr, value, f"{layer}.{attr}"))
            elif inspect.isclass(value) and not issubclass(value, BaseException):
                for name, member in vars(value).items():
                    if not name.startswith("_") and inspect.isfunction(member):
                        found.append((value, name, member, f"{layer}.{value.__name__}.{name}"))
    return found


class Tracer:
    """Install with `with Tracer(...) as tracer:`; everything is restored on exit.

    `only` limits wrapping to the named calls.
    """

    def __init__(self, only: frozenset | None = None):
        self.only = only
        self.stats: dict[str, list] = {}   # name -> [calls, total s, self s]
        self.spans: list[dict] = []
        self.kept: dict[str, list] = {name: [] for name in KEEP}
        self.run_index = 0
        self._frames: list[list] = []      # per open call: [child s, span index]
        self._patched: list[tuple] = []

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        kept = self.kept.get(name)
        span = name in SPANS
        frames = self._frames
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            if name == "harness.run_campaign":
                tracer.run_index = 0
            elif name == "executor.RunConfig.make_budget":
                tracer.run_index += 1
            frame = [0.0, None]
            if span:
                parent = next((f[1] for f in reversed(frames) if f[1] is not None), None)
                frame[1] = len(spans)
                spans.append({"name": name, "id": tracer.run_index, "parent": parent})
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                elapsed = end - start
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if frames:
                    frames[-1][0] += elapsed
                if span:
                    spans[frame[1]].update(start=start, end=end)
            if kept is not None:
                kept.append((result, elapsed))
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = [importlib.import_module("dime")] + [
            importlib.import_module(f"dime.{layer}") for layer in LAYERS]
        for owner, attr, fn, name in _public_callables():
            if name in UNWRAPPED or (self.only is not None and name not in self.only):
                continue
            wrapper = self._wrap(name, fn)
            if inspect.isclass(owner):
                self._patched.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is fn:
                        self._patched.append((module, alias, fn))
                        setattr(module, alias, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()
