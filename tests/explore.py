"""Exhaustive search over a mobile adversary's control schedules, stepping
the engine's own round transition, `sim.logical_round`.

The lie is `CounterfactualBehavior`: a controlled processor sends and keeps
what it would in the fault-free world of a fake source value. That lie
depends only on the round and the pid (see `logical_round`), so two runs that
reach the same states in the same round continue alike under every schedule,
and the search merges them. A configuration after round r holds
  - the states, interned, in pid order;
  - what the checkers still read of rounds 1..r: whether the round-2R
    guarantee is anchored, and by the source or a later pivot (the first
    pivot R honest through its `_round_window`), and the pivot whose window
    is under way, if it has been honest in it so far;
  - the processors ever controlled. Per (states, checker data) only the
    minimal sets are kept: a smaller set makes the final agreement and
    validity checks stricter, and inclusion holds on after every step;
  - a witness schedule that reaches it.
The rest of what `check_agreement` and `check_support_claim` read is checked
as each round is stepped: the covered decisions of every round from the
anchored one on, and the summaries of each honest pivot's crystallization
round. A schedule fails there exactly when its run fails the full verdict
or the support claim. A configuration that fails is not stepped further; it
is reported with its witness, which `replay` runs through the real engine
and checkers.
"""

import copy
import itertools
import random
from dataclasses import dataclass, field

from mobyz import (
    SOURCE,
    ProcessorState,
    ScheduledControl,
    Trace,
    check_agreement,
    check_support_claim,
    run,
)
from mobyz.adversary import CounterfactualBehavior
from mobyz.sim import _round_window, logical_round


@dataclass
class Exploration:
    """configs: how many configurations each round left, the last entry
    counting the good finals. bad: (round, what failed, witness schedule as
    round -> controlled set) per configuration that failed; what failed is
    the round's violations as the checkers word them, or the final
    agreement and validity."""

    configs: list = field(default_factory=list)
    bad: list = field(default_factory=list)


class _Checks:
    """`check_agreement` and `check_support_claim` of a bare scenario, one
    round at a time. In a bare run a logical round is one physical round, so
    round r's `_logical_guard` is [r]: the processors it covers are those not
    controlled in round r."""

    def __init__(self, scenario):
        self.scenario = scenario
        self.windows = {R: _round_window(scenario, R) for R in range(1, scenario.n + 1)}
        self.pivot_of = {rho: R for R, window in self.windows.items() for rho in window}

    def step(self, carry, r: int, controlled, states: dict) -> tuple:
        """(the checker data after round r, the violations the checkers
        report of it), from the data before it, its controlled set and its
        end states."""
        anchor, watching = carry
        sc = self.scenario
        covered = [p for p in states if p not in controlled]
        failed = []
        if anchor is not None:
            values = {states[p].decided for p in covered}
            if len(values) > 1 or (covered and values == {None}):
                failed.append(f"round {r}: decisions {sorted(map(str, values))} among {covered}")
            elif anchor == "source" and covered and values != {sc.source_value}:
                failed.append(f"round {r}: decided {values.pop()} instead of the source value")
        R = self.pivot_of.get(r)
        window = self.windows.get(R, ())
        honest = bool(window) and R not in controlled and (r == window[0] or watching == R)
        if not window or r != window[-1]:
            return (anchor, R if honest else None), failed
        if honest and R >= 2:
            summary = {(states[p].high, states[p].medium) for p in covered}
            if len(summary) > 1 or any(high != medium for high, medium in summary):
                failed.append(f"R={R}: round {r} summaries " + ", ".join(
                    f"p{p}=({states[p].high},{states[p].medium})" for p in covered))
        if honest and anchor is None:  # checked from round 2R on, if the run has it
            anchor = "source" if R == 1 else "pivot"
        return (anchor, None), failed

    def final(self, ever, states: dict) -> tuple:
        """(agreement, validity) as `check_agreement` gives them for a run
        that controlled `ever` and ended in `states`."""
        never = [p for p in states if p not in ever]
        decisions = {states[p].decided for p in never}
        agreement = "vacuous" if not never else "pass" if len(decisions) == 1 else "fail"
        if SOURCE in ever:
            return agreement, "vacuous"
        if agreement != "pass" or decisions != {self.scenario.source_value}:
            return agreement, "fail"
        return agreement, "pass"


def _keep_minimal(entries: list, ever, schedule) -> None:
    """Add (ever, schedule) to `entries` unless a subset of ever is there;
    drop the supersets it replaces."""
    if any(kept <= ever for kept, _ in entries):
        return
    entries[:] = [(kept, s) for kept, s in entries if not ever <= kept]
    entries.append((ever, schedule))


def all_control_sets(n: int, m: int) -> list:
    """Every set of at most m of the processors 1..n, the empty one first."""
    return [
        frozenset(c) for k in range(m + 1) for c in itertools.combinations(range(1, n + 1), k)
    ]


def explore(scenario, control_sets=None) -> Exploration:
    """Step every schedule of `scenario` that picks, in each round r, one of
    `control_sets(r)` (default: every set of at most m processors). The
    scenario is bare and its strategy a `ScheduledControl` over a
    `CounterfactualBehavior`, whose schedule is not read."""
    strategy = scenario.strategy
    if type(strategy) is not ScheduledControl or type(strategy.inner) is not CounterfactualBehavior:
        raise ValueError(
            "the explorer merges runs only under ScheduledControl over CounterfactualBehavior"
        )
    if scenario.mode != "bare":
        raise ValueError("the explorer steps bare runs")
    if control_sets is None:
        every = all_control_sets(scenario.n, scenario.m)
        control_sets = lambda r: every  # noqa: E731
    stepped = copy.copy(scenario)  # no __post_init__: scenarios outside the hypothesis step too
    stepped.strategy, stepped.trace_level = ScheduledControl({}, strategy.inner), "states"
    checks, rng, rounds = _Checks(scenario), random.Random(scenario.seed), scenario.rounds
    ids, table = {}, []

    def intern(state) -> int:
        i = ids.get(state)
        if i is None:
            i = ids[state] = len(table)
            table.append(state)
        return i

    vertices = scenario.network.vertices
    frontier = {((intern(ProcessorState()),) * scenario.n, None, None): [(frozenset(), ())]}
    found = Exploration()
    for r in range(1, rounds + 1):
        by_states: dict = {}
        for key in frontier:
            by_states.setdefault(key[0], []).append(key)
        after: dict = {}
        for state_ids, keys in by_states.items():
            states = dict(zip(vertices, map(table.__getitem__, state_ids)))
            for controlled in control_sets(r):
                stepped.strategy.schedule = {r: controlled}
                end = logical_round(stepped, states, r, rng, Trace(n=scenario.n))
                end_ids = tuple(intern(end[p]) for p in vertices)
                for key in keys:
                    carry, failed = checks.step(key[1:], r, controlled, end)
                    for ever, schedule in frontier[key]:
                        ever, schedule = ever | controlled, schedule + (controlled,)
                        why = failed
                        if not why and r == rounds:
                            agreement, validity = checks.final(ever, end)
                            if "fail" in (agreement, validity):
                                why = [f"agreement {agreement}, validity {validity}"]
                        if why:
                            witness = {i: set(c) for i, c in enumerate(schedule, 1) if c}
                            found.bad.append((r, why, witness))
                        else:
                            _keep_minimal(after.setdefault((end_ids, *carry), []), ever, schedule)
        frontier = after
        found.configs.append(sum(map(len, after.values())))
    return found


def replay(scenario, schedule: dict):
    """(verdict, support-claim violations) of the real run of `scenario`
    with its lie under `schedule`, round -> controlled set."""
    sc = copy.copy(scenario)
    sc.strategy = ScheduledControl(schedule, scenario.strategy.inner)
    trace = run(sc)
    return check_agreement(trace, sc), check_support_claim(trace, sc)
