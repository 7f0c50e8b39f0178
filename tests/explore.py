"""Exhaustive search over a mobile adversary's control schedules, stepping
the engine's own round transition, `sim.logical_round`, and the checkers'
own round step, `sim.check_round`.

The lie is `CounterfactualBehavior`: a controlled processor sends and keeps
what it would in the fault-free world of a fake source value. That lie
depends only on the round and the pid (see `logical_round`), so two runs that
reach the same states in the same round continue alike under every schedule,
and the search merges them. A configuration after round r holds
  - the states, interned, in pid order;
  - the checkers' carry after round r (`check_round`): what anchors the
    round-2R guarantee, if anything, and the pivot whose window is under
    way, if it has been honest in it so far;
  - the processors ever controlled. Per (states, carry) only the minimal
    sets are kept: a smaller set makes the final agreement and validity
    checks (`sim.check_final`) stricter, and inclusion holds on after every
    step;
  - a witness schedule that reaches it.
`check_agreement` and `check_support_claim` are folds of the same step, so
a schedule fails a step exactly when its run fails the full verdict or the
support claim in that round. A configuration that fails is not stepped
further; it is reported with its witness, which `replay` runs through the
real engine and checkers.
"""

import copy
import itertools
import random
from dataclasses import dataclass, field

from mobyz import (
    ProcessorState,
    ScheduledControl,
    Trace,
    check_agreement,
    check_support_claim,
    run,
)
from mobyz.adversary import CounterfactualBehavior
from mobyz.sim import check_final, check_round, logical_round


@dataclass
class Exploration:
    """configs: how many configurations each round left, the last entry
    counting the good finals. bad: (round, what failed, witness schedule as
    round -> controlled set) per configuration that failed; what failed is
    the round's violations as the checkers word them, or the final
    agreement and validity."""

    configs: list = field(default_factory=list)
    bad: list = field(default_factory=list)


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
    rng, rounds = random.Random(scenario.seed), scenario.rounds
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
                    carry, guarantee, claim, _ = check_round(
                        scenario, key[1:], r, (controlled,), end
                    )
                    failed = [f for f in (guarantee, claim) if f]
                    for ever, schedule in frontier[key]:
                        ever, schedule = ever | controlled, schedule + (controlled,)
                        why = failed
                        if not why and r == rounds:
                            agreement, validity, _, _ = check_final(scenario, ever, end, 0)
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
