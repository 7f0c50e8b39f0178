"""mobyz benchmark: one workload per invocation, results as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or anywhere: paths are resolved from this
file). The benchmark imports mobyz from the checkout's `src/`, never from an
installed copy, and runs single-threaded in one process.

--trace 0 sets up the workload several times (reporting the median set-up),
then runs whole cycles of items until at least S seconds of item time and
the workload's minimum cycle count are reached. It prints a readable
summary and, as its last line, one JSON object with the end-to-end metrics.

--trace 1 runs one cycle of items untraced, wraps mobyz's public functions
(see tracer.py), sets up again and runs the same cycle traced, and prints
the per-layer metrics instead. Spans are written to perfbench/out/.

Host speed drifts by up to 2x over tens of seconds on a shared machine
(other tenants' load slows execution, not scheduling: process time tracks
wall time). So every end-to-end time is speed-adjusted: a fixed,
mobyz-independent reference loop runs between items, and an item's measured
time is multiplied by REFERENCE_S / the median reference time around it
(see `SpeedGauge`). Raw times are printed beside the adjusted ones and kept
in the results file, with every reference time.

Every item is checked outside its timed region; a failed check, a pinned
digest mismatch (pins.json) or an exception counts as a failed item.
`--update-pins` rewrites this workload's digests in pins.json instead of
checking them (needed only when a change alters traces on purpose).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PINS = HERE / "pins.json"
SETUP_REPEATS = 7
WALL_CAP_S = 150.0  # stop adding cycles past this, to finish within 180 s
REFERENCE_S = 0.010  # adjusted times are in units where the reference loop takes 10 ms

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402  (this directory's sibling module)
from tracer import Tracer  # noqa: E402

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: span name -> which of calls / self_s / total_s to report.
SPAN_METRICS = {
    "protocol.round_update": ("calls", "self_s"),
    "comms.TransferRun.step": ("calls", "self_s"),
    "comms.TransferRun.decode": ("calls", "self_s"),
    "comms.TransferRun.receiver_controlled": ("calls", "self_s"),
    "comms.CommScheme.plan": ("self_s",),
    "sim.run": ("calls", "self_s"),
    "sim.StepContext.random_value": ("calls", "self_s"),
    "sim.check_agreement": ("self_s",),
    "sim.check_support_claim": ("self_s",),
    "sim.check_indistinguishable": ("self_s",),
    "core.view_of": ("calls", "self_s"),
    "core.Trace.to_text": ("self_s",),
    "adversary.controlled": ("calls", "self_s"),
    "adversary.forge": ("calls", "self_s"),
    "adversary.rewrite": ("calls", "self_s"),
    "adversary.corrupt_value": ("calls", "self_s"),
    "adversary.five_set_pair": ("self_s",),
    "adversary.cut_set_pair": ("self_s",),
    "graphs.vertex_connectivity": ("calls", "self_s", "total_s"),
    "graphs.local_connectivity": ("calls", "self_s"),
    "graphs.local_connectivity_avoiding_source": ("self_s",),
    "graphs.min_separator_certificate": ("self_s",),
    "graphs.disjoint_paths": ("calls", "self_s"),
    "cli.cmd_analyze": ("self_s",),
    "cli.parse_scenario_text": ("self_s",),
}
STAT_UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}


def reference_work() -> int:
    """Fixed pure-Python work with the simulator's mix of operations (dict and
    set building, counting, sorting), independent of mobyz: ~10 ms here."""
    acc = 0
    for _ in range(300):
        d = {j: (j * 7919) % 101 for j in range(60)}
        odd = frozenset(v for v in d.values() if v & 1)
        acc += len(odd) + max(Counter(d.values()).values())
        acc += sorted(d.items(), key=lambda kv: kv[1])[0][0]
    return acc


class SpeedGauge:
    """Times the reference loop before the first measured interval and after
    each one. `factors` scales interval i by REFERENCE_S over the median of
    the WINDOW reference times on either side of it: the median ignores a
    reference slowed by a brief burst, and the window follows drift that
    lasts seconds."""

    WINDOW = 4

    def __init__(self):
        self.samples = [self._reference()]

    @staticmethod
    def _reference() -> float:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start

    def tick(self) -> None:
        """Call after each measured interval."""
        self.samples.append(self._reference())

    def factors(self) -> list:
        w, refs = self.WINDOW, self.samples
        return [REFERENCE_S / statistics.median(refs[max(0, i - w + 1):i + w + 1])
                for i in range(len(refs) - 1)]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_pins() -> dict:
    """workload -> item kind -> SHA-256 of the kind's pinned text."""
    return json.loads(PINS.read_text()) if PINS.is_file() else {}


class Items:
    """Runs items, times them, checks them and counts the failures."""

    def __init__(self, workload: str, seed: int, pins: dict, update_pins: bool = False,
                 extra_checks: bool = True):
        self.workload = workload
        self.seed = seed
        self.pins = pins
        self.update_pins = update_pins
        # pins and sensitivity checks re-run mobyz; the traced pass skips them
        # so that its spans hold item work only
        self.extra_checks = extra_checks
        self.gauge = SpeedGauge()
        self.raw_durations: list = []
        self.kind_names: list = []
        self.failures: list = []
        self.failed_items = 0
        self.attempted = 0
        self.checked_kinds: set = set()

    def durations(self) -> list:
        """Speed-adjusted item times, in run order."""
        return [d * f for d, f in zip(self.raw_durations, self.gauge.factors())]

    def by_kind(self) -> dict:
        out: dict = {}
        for name, d in zip(self.kind_names, self.durations()):
            out.setdefault(name, []).append(d)
        return out

    def fail(self, what: str, message: str) -> None:
        self.failures.append(f"{what}: {message}")

    def run_one(self, kind, inp, index: int, before=None, after=None) -> None:
        what = f"item {index} ({kind.name})"
        self.attempted += 1
        if before is not None:
            before(index)
        start = time.perf_counter()
        try:
            result = kind.run(inp)
            error = None
        except Exception:  # any exception is a failed item, recorded
            result, error = None, traceback.format_exc(limit=3).strip().splitlines()[-1]
        elapsed = time.perf_counter() - start
        if after is not None:
            after(index)
        self.gauge.tick()
        self.raw_durations.append(elapsed)
        self.kind_names.append(kind.name)
        problem = error if error is not None else self._check(kind, inp, result)
        if problem is not None:
            self.failed_items += 1
            self.fail(what, problem)

    def _check(self, kind, inp, result):
        problem = kind.check(result, inp)
        first = kind.name not in self.checked_kinds
        self.checked_kinds.add(kind.name)
        # the first item of each kind is also pinned and, for pairs, perturbed
        if problem is None and first and self.extra_checks:
            problem = self._check_pins(kind, inp, result)
            if problem is None and kind.sensitivity is not None:
                problem = kind.sensitivity(inp)
        return problem

    def _check_pins(self, kind, inp, result):
        if self.seed != workloads.DEFAULT_SEED:
            return None
        pins = self.pins.setdefault(self.workload, {})
        digest = sha256(kind.pin_text(inp, result))
        if self.update_pins:
            pins[kind.name] = digest
        elif pins.get(kind.name) != digest:
            return f"digest {digest[:16]}... != pinned {str(pins.get(kind.name))[:16]}..."
        return None


def percentile(values: list, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def median_cycle_rate(kinds: list, by_kind: dict) -> float:
    """Items per second of a cycle in which every item takes its kind's
    median time: throughput that a few slow bursts cannot move."""
    cycle_s = sum(statistics.median(by_kind[kind.name]) for kind in kinds)
    return len(kinds) / cycle_s


def set_up(spec, work_dir: Path):
    """(mobyz modules, item kinds, seconds) for one fresh import and set-up."""
    start = time.perf_counter()
    mb = workloads.load_mobyz(SRC)
    kinds = spec.setup(mb, work_dir)
    return mb, kinds, time.perf_counter() - start


def timed_run(args, spec, work_dir: Path, pins: dict):
    gauge = SpeedGauge()
    raw_setups = []
    for _ in range(SETUP_REPEATS):
        _, kinds, elapsed = set_up(spec, work_dir)
        gauge.tick()
        raw_setups.append(elapsed)
    setups = [d * f for d, f in zip(raw_setups, gauge.factors())]
    items = Items(args.workload, args.seed, pins, args.update_pins)
    rng = random.Random(args.seed)
    wall_start = time.perf_counter()
    cycles = 0
    while True:
        for kind in kinds:
            items.run_one(kind, kind.draw(rng), items.attempted)
        cycles += 1
        enough = cycles >= spec.min_cycles and sum(items.raw_durations) >= args.seconds
        if enough or time.perf_counter() - wall_start > WALL_CAP_S:
            break

    durations, by_kind = items.durations(), items.by_kind()
    n = len(durations)
    tail = percentile(durations, spec.tail_pct)
    beyond = sum(1 for d in durations if d > tail)
    completed = items.attempted - items.failed_items
    metrics = {
        "items_per_s": completed / items.attempted * median_cycle_rate(kinds, by_kind),
        "item_ms_p50": statistics.median(durations) * 1e3,
        "item_ms_tail": tail * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"items: {n} in {cycles} cycles of {len(kinds)} items, "
        f"{sum(items.raw_durations):.2f} s of item time",
        f"item_ms_tail is p{spec.tail_pct}: {beyond} of {n} items lie beyond it",
        f"fail_ratio: {items.failed_items / items.attempted:.4f} "
        f"({items.failed_items} of {items.attempted} items)",
        f"setup_s is the median of {SETUP_REPEATS} set-ups: "
        + " ".join(f"{s:.4f}" for s in setups),
        f"raw (not speed-adjusted): items_per_s "
        f"{completed / sum(items.raw_durations):.4f} (all items / all item time), item_ms_p50 "
        f"{statistics.median(items.raw_durations) * 1e3:.2f}, item_ms_tail "
        f"{percentile(items.raw_durations, spec.tail_pct) * 1e3:.2f}, setup_s "
        f"{statistics.median(raw_setups):.4f}",
    ]
    for name, ds in by_kind.items():
        notes.append(f"  {name}: n={len(ds)} median {statistics.median(ds) * 1e3:.1f} ms")
    if beyond < 10:
        items.fail("run", f"only {beyond} items beyond p{spec.tail_pct}")
    detail = {"durations_s": by_kind, "raw_durations_s": items.raw_durations,
              "reference_s": items.gauge.samples,
              "setups_s": setups, "raw_setups_s": raw_setups, "tail_pct": spec.tail_pct,
              "items_beyond_tail": beyond, "cycles": cycles}
    return items, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, notes, detail


def traced_run(args, spec, work_dir: Path, pins: dict):
    mb, kinds, _ = set_up(spec, work_dir)
    rng = random.Random(args.seed)
    inputs = [kind.draw(rng) for kind in kinds]

    plain = Items(args.workload, args.seed, pins)
    for index, (kind, inp) in enumerate(zip(kinds, inputs)):
        plain.run_one(kind, inp, index)

    tracer = Tracer()
    tracer.install(mb)
    tracer.item = "setup"
    root = tracer.open("setup")
    kinds = spec.setup(mb, work_dir)
    tracer.close(root)
    tracer.item = "probe"
    root = tracer.open("probe")
    probe_problems = workloads.run_probe(mb, work_dir)
    tracer.close(root)

    traced = Items(args.workload, args.seed, pins, extra_checks=False)
    roots = {}

    def before(index):
        tracer.item = index
        roots[index] = tracer.open("item")

    def after(index):
        tracer.close(roots[index])

    # Same kinds and inputs as the untraced pass; kinds come from the traced
    # set-up so that their objects are built by the traced functions.
    for index, (kind, inp) in enumerate(zip(kinds, inputs)):
        traced.run_one(kind, inp, index, before=before, after=after)
    for problem in probe_problems:
        traced.fail("probe", problem)

    totals = tracer.totals()
    metrics = {}
    for name, stats in SPAN_METRICS.items():
        entry = totals.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for stat in stats:
            metrics[f"{name}.{stat}"] = (entry[stat], STAT_UNITS[stat])
    c = tracer.counters
    collected = c["comms.copies_collected"]
    metrics["comms.decode_fallbacks"] = (c["comms.decode_fallbacks"], "count")
    metrics["comms.untainted_copy_ratio"] = (
        c["comms.copies_untainted"] / collected if collected else 0.0, "ratio")
    metrics["sim.rounds"] = (c["sim.rounds"], "count")
    metrics["core.trace_bytes"] = (c["core.trace_bytes"], "bytes")
    metrics["adversary.counterfactual_runs"] = (c["adversary.counterfactual_runs"], "count")
    metrics["trace_overhead_ratio"] = (sum(plain.durations()) / sum(traced.durations()), "ratio")
    failed = plain.failed_items + traced.failed_items
    metrics["fail_ratio"] = (failed / (plain.attempted + traced.attempted), "ratio")

    span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(span_file)

    notes = [f"traced {traced.attempted} items (one cycle); spans in {span_file.relative_to(ROOT)}"]
    modules: dict = {}
    for name, entry in totals.items():
        modules[name.split(".")[0]] = modules.get(name.split(".")[0], 0.0) + entry["self_s"]
    items_self = totals.get("item", {}).get("self_s", 0.0)
    notes.append("self time by module, all spans: " + ", ".join(
        f"{m} {s:.3f} s" for m, s in sorted(modules.items(), key=lambda kv: -kv[1])))
    notes.append(f"item time outside any traced function: {items_self:.3f} s")
    if tracer.missing:
        notes.append("not found, so not traced: " + ", ".join(tracer.missing))
    plain.failures += traced.failures
    plain.failed_items += traced.failed_items
    plain.attempted += traced.attempted
    detail = {"totals": totals, "counters": c}
    return plain, metrics, notes, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-pins", action="store_true",
                        help="rewrite this workload's pinned digests (use --seed 0)")
    args = parser.parse_args(argv)
    if not (SRC / "mobyz" / "__init__.py").is_file():
        print(f"error: no mobyz sources under {SRC}", file=sys.stderr)
        return 2
    if args.update_pins and (args.trace or args.seed != workloads.DEFAULT_SEED):
        parser.error("--update-pins needs --trace 0 and the default seed")
    sys.path.insert(0, str(SRC))

    spec = workloads.SPECS[args.workload]
    pins = load_pins()
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        run = traced_run if args.trace else timed_run
        items, metrics, notes, detail = run(args, spec, work_dir, pins)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.update_pins:
        PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
        notes.append(f"pins for {args.workload} written to {PINS.relative_to(ROOT)}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:>14.6g} {unit}")
    for failure in items.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    result_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(
        {"metrics": metrics, "notes": notes, "failures": items.failures, "detail": detail},
        indent=1))
    print(json.dumps({
        "correct": not items.failures,
        "attempted": items.attempted,
        "failed": items.failed_items,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
