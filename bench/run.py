"""Campaign benchmark for dime.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  NAME is one of loopnest, widecode and
switchstorm (see workloads.py and README.md), or `all`, which runs each in
its own process and combines the results.

With --trace 0 the benchmark sets the guest up several times, then runs
whole campaigns (oracle plus K budgeted runs sharing one log file, and a
report) back to back for S seconds and prints the end-to-end metrics as
medians over the campaigns, with host times scaled to a reference host
speed (see CALIBRATION_REF_S).  With --trace 1 it runs one untraced campaign
and one under wrappers on every layer (see tracer.py), checks that the two
simulated the same thing, runs a log-scaling probe and prints the per-layer
metrics.

Every campaign's output is checked: its oracle must agree with the
independent interpreter in tests/reference.py, and its behaviour digest
must repeat across campaigns and, on the default seed, equal the value
recorded below.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.util
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

from tracer import KEEP, Tracer
from workloads import DEFAULT_SEED, WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_run")
MAX_STEPS = 100_000_000

# Behaviour digests of the full-size workloads on the default seed.
DEFAULT_DIGESTS = {
    "loopnest": "12f18d14f3a43afb5fb2c0b8719944578a9828f77ac08150045dfb20c3e4cfd6",
    "widecode": "221d9c11964f5153a8b21b1e22ed17375a1a197b217e7d1999f118990225022b",
    "switchstorm": "32f999bdb31e439802ed244612bf34ac5af0432444c4d8ed8df6dd517698b39a",
}

# (name, unit, power of the host-speed scale) of every end-to-end metric.
# Each sample is multiplied by the scale to that power (see
# CALIBRATION_REF_S), and a run reports the median of its samples.
END_TO_END = (
    ("campaign_s", "s", 1), ("setup_s", "s", 1), ("native_steps_per_s", "steps/s", -1),
    ("full_steps_per_s", "steps/s", -1), ("budgeted_steps_per_s", "steps/s", -1),
    ("peak_rss_mb", "MB", 0), ("coverage_final", "ratio", 0), ("slowdown_final", "ratio", 0),
)
PROBE_STRATEGIES = ("hash", "bst", "merger")
PROBE_SIZES = (2000, 8000)
PER_LAYER = (
    ("program.parse_s", "s"), ("program.lookup_calls", "count"), ("program.lookup_s", "s"),
    ("executor.run_self_s", "s"), ("executor.native_self_s", "s"), ("executor.steps", "count"),
    ("executor.form_trace_calls", "count"), ("executor.form_trace_s", "s"),
    ("executor.self_ns_per_step", "ns"),
    ("budget.check_calls", "count"), ("budget.check_s", "s"), ("budget.charge_calls", "count"),
    ("budget.charge_s", "s"), ("budget.periods_closed", "count"), ("budget.overshoots", "count"),
    ("redundancy.permit_calls", "count"), ("redundancy.permit_s", "s"),
    ("redundancy.permit_us", "us"), ("redundancy.reject_ratio", "ratio"),
    ("redundancy.commit_calls", "count"), ("redundancy.commit_s", "s"),
    ("redundancy.commit_distinct_ratio", "ratio"), ("redundancy.log_entries", "count"),
    ("redundancy.load_s", "s"), ("redundancy.save_s", "s"),
    ("tools.on_branch_calls", "count"), ("tools.on_branch_s", "s"),
    ("tools.build_cct_s", "s"), ("tools.cct_depth", "count"),
    ("harness.oracle_s", "s"), ("harness.classify_calls", "count"), ("harness.classify_s", "s"),
    ("harness.ground_truth_s", "s"), ("harness.emit_report_s", "s"),
    ("cli.self_s", "s"), ("trace.overhead_ratio", "ratio"),
) + tuple((f"redundancy.{s}.op_us.{n}", "us") for s in PROBE_STRATEGIES for n in PROBE_SIZES)

# Program lookups: the address and name lookups of Program.
LOOKUPS = ("program.Program.instruction_at", "program.Program.resolve",
           "program.Program.image_of", "program.Program.image")


# Host-speed calibration.  A shared host can switch between speeds up to 2x
# apart and stay seconds to minutes in each (seen on a 2-vCPU cloud VM), and
# every timing moves with it.  So each timed sample runs between two
# readings of a fixed pure-Python loop, and is scaled by CALIBRATION_REF_S
# over the loop's time: it reads as seconds on a host that runs the loop in
# CALIBRATION_REF_S.  The raw medians are printed too.
CALIBRATION_REF_S = 0.010


class _Cell:
    __slots__ = ("kind", "cost", "target")

    def __init__(self, kind: int, cost: int, target: int):
        self.kind, self.cost, self.target = kind, cost, target


def calibrate(iterations: int = 24_000) -> float:
    """Seconds for a fixed loop shaped like the simulator's inner loops:
    attribute loads, dict updates, a call returning a tuple.  It keeps no
    object it makes, and the collector is off while it runs, so its time
    does not depend on the size of the program's heap."""
    cells = [_Cell(i % 3, i % 5, (i * 7) % 64) for i in range(64)]
    cursors: dict[int, int] = {}

    def step(cell, pc):
        if cell.kind == 0:
            return pc + 1 if pc < 63 else 0, None
        cursors[pc] = cursors.get(pc, 0) + 1
        return cell.target, (cell.kind, pc)

    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        pc = clock = records = 0
        for _ in range(iterations):
            cell = cells[pc]
            clock += cell.cost
            pc, record = step(cell, pc)
            if record is not None:
                records += 1
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def host_scale() -> float:
    """CALIBRATION_REF_S over the median of three calibration loops."""
    return CALIBRATION_REF_S / statistics.median(calibrate() for _ in range(3))


def timed(fn):
    """(result, seconds, host scale) of fn(), read between two host-speed readings."""
    before = host_scale()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    return result, elapsed, (before + host_scale()) / 2


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


def _import_program():
    """Import dime and the reference interpreter from the checkout."""
    src = os.path.join(ROOT, "src")
    ref_path = os.path.join(ROOT, "tests", "reference.py")
    if not os.path.isfile(os.path.join(src, "dime", "__init__.py")) or not os.path.isfile(ref_path):
        raise SetupError(f"no dime sources under {ROOT}; run from a full checkout")
    if src not in sys.path:
        sys.path.insert(0, src)
    spec = importlib.util.spec_from_file_location("dime_reference", ref_path)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    return reference


# -- one campaign ----------------------------------------------------------------

def setup(name: str, seed: int, scale: float, work: str):
    """Generate the guest, then parse it (library workloads) or write it to
    a file (CLI workloads).  Returns the Program or the file path."""
    from dime import parse_program
    generator, _, _, via_cli = WORKLOADS[name]
    text = generator(random.Random(seed), scale)
    if not via_cli:
        return parse_program(text)
    path = os.path.join(work, "guest.dime")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
    return path


def campaign(name: str, guest, seed: int, work: str) -> str:
    """One whole campaign with its report; returns the log file path."""
    from dime import cli, harness
    from dime.executor import RunConfig
    _, settings, runs, via_cli = WORKLOADS[name]
    log, report = os.path.join(work, "campaign.log"), os.path.join(work, "report.json")
    if not via_cli:
        config = RunConfig(program=guest, max_steps=MAX_STEPS, seed=seed, log_path=log,
                           **settings)
        harness.emit_report(harness.run_campaign(config, runs), report)
        return log
    argv = ["campaign", "--program", guest, "--tool", settings["tool"],
            "--granularity", settings["granularity"], "--budget", str(settings["budget"]),
            "--period", str(settings["period"]), "--ca", str(settings["analysis_cost"]),
            "--max-steps", str(MAX_STEPS), "--seed", str(seed),
            "--log-strategy", settings["log_strategy"], "--log-file", log,
            "--runs", str(runs), "--report", report]
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        status = cli.main(argv)
    if status != 0:
        raise RuntimeError(f"dime campaign exited with status {status}")
    return log


def behaviour(result, log_path: str) -> tuple[str, int]:
    """Digest of the final log entries and each run's simulated results,
    and the number of log entries."""
    from dime import redundancy
    entries = [list(e) for e in redundancy.load(log_path).entries()]
    runs = [[r.coverage, r.fp_count, r.fn_count, r.virtual_time,
             sorted(r.overshoot_histogram.items())] for r in result.reports]
    text = json.dumps([entries, runs], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest(), len(entries)


def reference_oracle(reference, name: str, guest, seed: int):
    """Native time and unique records of the independent interpreter, on the
    oracle's seed (campaign seed + 1)."""
    from dime import parse_program
    if isinstance(guest, str):
        with open(guest, encoding="ascii") as fh:
            guest = parse_program(fh.read())
    records, native_time, _ = reference.reference_run(guest, seed + 1, MAX_STEPS)
    if WORKLOADS[name][1]["tool"] == "cct":
        records = [r for r in records if r[0] in ("call", "return")]
    return native_time, frozenset(records)


def kept(tracer, name: str) -> list:
    return [value for value, _ in tracer.kept[name]]


def counts(tracer) -> dict:
    """Simulated counts of the last campaign, from kept outcomes and, when
    every call was wrapped, from call counts."""
    outcomes = kept(tracer, "executor.run")
    budgets = kept(tracer, "executor.RunConfig.make_budget")
    found = {
        "steps": sum(o.steps for o in outcomes + kept(tracer, "executor.native_run")),
        "permits": sum(len(o.permits) for o in outcomes),
        "commits": sum(len(o.committed_entries) for o in outcomes),
        "periods_closed": sum(b.period_index for b in budgets),
        "overshoots": sum(len(b.overshoot_log) for b in budgets),
    }
    if tracer.only is None:
        found.update(
            compiles=tracer.calls("executor.form_trace"),
            checks=tracer.calls("budget.BudgetState.check"),
            charges=tracer.calls("budget.BudgetState.charge"),
            log_permits=tracer.calls("redundancy.LogStore.permit"),
            log_commits=tracer.calls("redundancy.LogStore.commit"))
    return found


class Checker:
    """Output check applied to every campaign; collects the failed ones."""

    def __init__(self, name: str, seed: int, scale: float):
        recorded = (seed, scale) == (DEFAULT_SEED, 1.0)
        self.expected = DEFAULT_DIGESTS[name] if recorded else None
        self.oracles: dict[tuple, list[int]] = {}  # (native time, records) -> campaigns
        self.failed: set[int] = set()
        self.problems: list[str] = []

    def fail(self, index: int, problem: str) -> None:
        self.failed.add(index)
        self.problems.append(f"campaign {index}: {problem}")

    def check(self, index: int, result, log_path: str) -> int:
        """Check one campaign's digest; returns its number of log entries."""
        digest, entries = behaviour(result, log_path)
        oracle = (result.oracle.native_time, result.oracle.unique_records)
        self.oracles.setdefault(oracle, []).append(index)
        if self.expected is None:
            self.expected = digest
        if digest != self.expected:
            self.fail(index, f"behaviour digest {digest} != {self.expected}")
        return entries

    def check_reference(self, reference_result) -> None:
        """Fail every campaign whose oracle disagrees with the reference."""
        for oracle, indices in self.oracles.items():
            if oracle != reference_result:
                for index in indices:
                    self.fail(index, "oracle disagrees with tests/reference.py")


# -- end-to-end pass -------------------------------------------------------------

def timed_setups(name: str, seed: int, scale: float, work: str, record, min_s: float):
    """Set up at least five times and for at least min_s, recording each
    duration; returns the guest."""
    deadline = time.perf_counter() + min_s
    count = 0
    while count < 5 or (time.perf_counter() < deadline and count < 200):
        guest, elapsed, host = timed(lambda: setup(name, seed, scale, work))
        record("setup_s", elapsed, host)
        count += 1
    return guest


def end_to_end(reference, name: str, seed: int, seconds: float, scale: float = 1.0) -> dict:
    runs = WORKLOADS[name][2]
    checker = Checker(name, seed, scale)
    powers = {key: power for key, _, power in END_TO_END}
    raw = {key: [] for key in powers}
    samples = {key: [] for key in powers}
    hosts = []

    def record(key, value, host):
        raw[key].append(value)
        samples[key].append(value * host ** powers[key])
        if powers[key]:
            hosts.append(host)

    attempted = 0
    with tempfile.TemporaryDirectory(dir=WORK) as work:
        guest = timed_setups(name, seed, scale, work, record, seconds / 20)
        begin = time.perf_counter()
        last = 0.0
        while attempted < 3 or time.perf_counter() - begin + last <= seconds:
            index = attempted
            attempted += 1
            try:
                with Tracer(only=KEEP) as watch:
                    log_path, last, host = timed(lambda: campaign(name, guest, seed, work))
                (native, native_s), = watch.kept["executor.native_run"]
                (full, full_s), *budgeted = watch.kept["executor.run"]
                (result, _), = watch.kept["harness.run_campaign"]
                if len(budgeted) != runs:
                    raise RuntimeError(f"{len(budgeted)} budgeted runs, expected {runs}")
                checker.check(index, result, log_path)
            except Exception as exc:  # a failed campaign is counted, not fatal
                traceback.print_exc()
                checker.fail(index, repr(exc))
            if index in checker.failed:
                continue
            record("campaign_s", last, host)
            record("native_steps_per_s", native.steps / native_s, host)
            record("full_steps_per_s", full.steps / full_s, host)
            record("budgeted_steps_per_s",
                   sum(o.steps for o, _ in budgeted) / sum(s for _, s in budgeted), host)
            record("coverage_final", result.reports[-1].coverage, host)
            record("slowdown_final", result.reports[-1].slowdown, host)
            del native, full, budgeted, result, watch
        record("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1.0)
        checker.check_reference(reference_oracle(reference, name, guest, seed))
    failed = len(checker.failed)
    metrics = {key: {"value": statistics.median(samples[key]), "unit": unit}
               for key, unit, _ in END_TO_END if samples[key]}
    host = {"scale": statistics.median(hosts)}
    host.update((f"raw {key}", statistics.median(v)) for key, v in raw.items() if v)
    return {"correct": failed == 0 and len(metrics) == len(END_TO_END),
            "attempted": attempted, "failed": failed, "metrics": metrics,
            "notes": checker.problems, "digest": checker.expected, "host": host}


# -- traced pass -----------------------------------------------------------------

def probe_log(strategy: str, size: int, seed: int, min_s: float = 0.25) -> float:
    """Microseconds per LogStore operation, interleaving commit and permit on a
    log of `size` disjoint entries.  Commits repeat logged entries, as most
    executor commits do, so the log keeps its size while the probe runs."""
    from dime.redundancy import LogEntry, LogStore
    rng = random.Random(seed)
    store = LogStore(strategy)
    entries = [LogEntry("m", 10 * i + rng.randrange(3), rng.randint(1, 6)) for i in range(size)]
    for entry in entries:
        store.commit(entry)
    store.permit("m", 0, 1)
    ops = 0
    start = time.perf_counter()
    while ops < 200 or time.perf_counter() - start < min_s:
        store.commit(rng.choice(entries))
        store.permit("m", rng.randrange(10 * size), rng.randint(1, 16))
        ops += 2
    return (time.perf_counter() - start) / ops * 1e6


def cct_depth(tree) -> int:
    """Depth of a call-context tree, walked without recursion."""
    depth, stack = 0, [(tree.root, 0)]
    while stack:
        node, level = stack.pop()
        depth = max(depth, level)
        stack.extend((child, level + 1) for child in node.children.values())
    return depth


def layer_metrics(t, seen: dict, entries: int, overhead: float, tree) -> dict:
    """Per-layer metrics from a Tracer over one setup and one campaign, that
    campaign's counts and its call-context tree (None for other tools)."""
    runs = kept(t, "executor.run")
    steps = seen["steps"]
    permit_calls = seen["log_permits"]
    committed = [e for o in runs for e in o.committed_entries]
    on_branch = ("tools.AnalysisTool.on_branch", "tools.CallTraceTool.on_branch")
    ground_truth = ("harness.GroundTruth.add_entry", "harness.GroundTruth.overlap",
                    "harness.GroundTruth.contains_all")
    executor_self = t.self_time("executor.run") + t.self_time("executor.native_run")
    return {
        "program.parse_s": t.total("program.parse_program"),
        "program.lookup_calls": sum(t.calls(n) for n in LOOKUPS),
        "program.lookup_s": sum(t.self_time(n) for n in LOOKUPS),
        "executor.run_self_s": t.self_time("executor.run"),
        "executor.native_self_s": t.self_time("executor.native_run"),
        "executor.steps": steps,
        "executor.form_trace_calls": seen["compiles"],
        "executor.form_trace_s": t.self_time("executor.form_trace"),
        "executor.self_ns_per_step": executor_self / steps * 1e9,
        "budget.check_calls": seen["checks"],
        "budget.check_s": t.self_time("budget.BudgetState.check"),
        "budget.charge_calls": seen["charges"],
        "budget.charge_s": t.self_time("budget.BudgetState.charge"),
        "budget.periods_closed": seen["periods_closed"],
        "budget.overshoots": seen["overshoots"],
        "redundancy.permit_calls": permit_calls,
        "redundancy.permit_s": t.self_time("redundancy.LogStore.permit"),
        "redundancy.permit_us": t.self_time("redundancy.LogStore.permit") / permit_calls * 1e6,
        "redundancy.reject_ratio":
            sum(1 for o in runs for _, ok in o.permits if not ok) / permit_calls,
        "redundancy.commit_calls": seen["log_commits"],
        "redundancy.commit_s": t.self_time("redundancy.LogStore.commit"),
        "redundancy.commit_distinct_ratio": len(set(committed)) / max(1, len(committed)),
        "redundancy.log_entries": entries,
        "redundancy.load_s": t.total("redundancy.load"),
        "redundancy.save_s": t.total("redundancy.LogStore.finalize_and_save"),
        "tools.on_branch_calls": sum(t.calls(n) for n in on_branch),
        "tools.on_branch_s": sum(t.self_time(n) for n in on_branch),
        "tools.build_cct_s": t.total("tools.build_cct"),
        "tools.cct_depth": cct_depth(tree) if tree is not None else 0,
        "harness.oracle_s": t.total("harness.run_oracle"),
        "harness.classify_calls": t.calls("harness.classify"),
        "harness.classify_s": t.total("harness.classify"),
        "harness.ground_truth_s": sum(t.self_time(n) for n in ground_truth),
        "harness.emit_report_s": t.total("harness.emit_report"),
        "cli.self_s": sum(s[2] for n, s in t.stats.items() if n.startswith("cli.")),
        "trace.overhead_ratio": overhead,
    }


def layer_shares(t) -> dict:
    """Self time per layer module, as a share of all wrapped self time."""
    by_layer: dict[str, float] = {}
    for name, (_, _, self_s) in t.stats.items():
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + self_s
    total = sum(by_layer.values()) or 1.0
    return {layer: s / total for layer, s in sorted(by_layer.items(), key=lambda kv: -kv[1])}


def traced(reference, name: str, seed: int, scale: float = 1.0) -> dict:
    """An untraced campaign, then one under wrappers on every layer."""
    from dime import tools
    checker = Checker(name, seed, scale)
    passes = {}
    tree = None
    with tempfile.TemporaryDirectory(dir=WORK) as work:
        for index, tracer in enumerate((Tracer(only=KEEP), Tracer())):
            with tracer:
                guest = setup(name, seed, scale, work)
                log_path, elapsed, host = timed(lambda: campaign(name, guest, seed, work))
                (result, _), = tracer.kept["harness.run_campaign"]
                if index and WORKLOADS[name][1]["tool"] == "cct":
                    # The tree `dime campaign --tool-out` builds: the budgeted
                    # runs' records joined in execution order.
                    tree = tools.build_cct(
                        [rec for outcome in result.outcomes for rec in outcome.tool_output])
            entries = checker.check(index, result, log_path)
            passes[index] = (tracer, elapsed * host, entries, counts(tracer))
        checker.check_reference(reference_oracle(reference, name, guest, seed))
    _, untraced_s, _, plain = passes[0]
    t, traced_s, entries, seen = passes[1]
    # Trace compiles, budget checks and charges can only be counted under
    # wrappers, so the untraced pass is compared on the counts it can see.
    if any(seen[key] != value for key, value in plain.items()):
        checker.fail(1, f"traced counts {seen} differ from untraced {plain}")
    values = layer_metrics(t, seen, entries, traced_s / untraced_s, tree)
    for strategy in PROBE_STRATEGIES:
        for size in PROBE_SIZES:
            values[f"redundancy.{strategy}.op_us.{size}"] = probe_log(
                strategy, max(20, round(size * scale)), seed, 0.25 * min(1.0, scale * 4))
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, f"spans-{name}.json"), "w", encoding="ascii") as fh:
        json.dump(t.spans, fh)
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in PER_LAYER}
    return {"correct": not checker.failed, "attempted": 2, "failed": len(checker.failed),
            "metrics": metrics, "notes": checker.problems, "digest": checker.expected,
            "shares": layer_shares(t), "counts": seen}


# -- command line ----------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0) -> dict:
    reference = _import_program()
    os.makedirs(WORK, exist_ok=True)
    if trace:
        return traced(reference, name, seed, scale)
    return end_to_end(reference, name, seed, seconds, scale)


def run_all(args) -> dict:
    """Each workload in its own process, so peak RSS is that workload's."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("loopnest", "widecode", "switchstorm"):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SetupError(f"workload {name} exited with status {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("loopnest", "widecode", "switchstorm", "all"))
    parser.add_argument("--seed", type=int, default=None, help="workload seed")
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = DEFAULT_SEED
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for note in result.pop("notes", ()):
        print(f"check failed: {note}")
    if "digest" in result:
        print(f"behaviour digest: {result.pop('digest')}")
    for layer, share in result.pop("shares", {}).items():
        print(f"share of traced self time: {layer:<10} {share:7.1%}")
    for key, value in result.pop("counts", {}).items():
        print(f"count {key:<16} {value}")
    for key, value in result.pop("host", {}).items():
        print(f"host {key:<31} {value:>16.6g}")
    for key, metric in result["metrics"].items():
        print(f"{key:<36} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'fail_ratio':<36} {result['failed'] / result['attempted']:>16.6g} "
          f"ratio ({result['failed']} of {result['attempted']} campaigns)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Fixed string hashing gives every run the same set and dict
        # layouts, so timings do not depend on the process's hash seed.
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
