"""The exhaustive schedule explorer (`explore.py`): every control schedule
of a mobile counterfactual liar, within the n > 6m hypothesis and just
outside it, with each failure replayed through the real engine and
checkers."""

import hashlib
import json
import random

import pytest

from mobyz import (
    EMPTY,
    RandomizedControl,
    Scenario,
    ScheduledControl,
    StaticControl,
    Strategy,
    Value,
    complete_network,
    make_two_clique_network,
)
from mobyz.adversary import AlternatingControl, CounterfactualBehavior
from mobyz.protocol import ProtocolParams

from explore import _keep_minimal, all_control_sets, explore, replay

ONE, ZERO = Value.plain(1), Value.plain(0)


def _liar(n, m, fake=ZERO, alphabet=2):
    return Scenario(
        network=complete_network(n),
        m=m,
        source_value=ONE,
        strategy=ScheduledControl({}, CounterfactualBehavior(fake)),
        alphabet_size=alphabet,
        trace_level="states",
    )


def _outside_hypothesis(n, m):
    """`_liar(n, m)` for n <= 6m. `ProtocolParams` refuses such parameters, so
    the scenario is built for m = 0 and then given m and parameters
    assembled without their guard."""
    scenario = _liar(n, 0)
    params = object.__new__(ProtocolParams)
    for name, value in (("n", n), ("m", m), ("alphabet_size", 2), ("fault_unit", m)):
        object.__setattr__(params, name, value)
    scenario.m, scenario.params = m, params
    return scenario


def _fails(scenario, schedule) -> bool:
    verdict, support = replay(scenario, schedule)
    return not verdict.ok or bool(support)


def _judged(scenario, schedule) -> bool:
    """Whether the explorer, stepping only `schedule`, finds it failing."""
    return bool(explore(scenario, lambda r: [frozenset(schedule.get(r, ()))]).bad)


@pytest.mark.parametrize("strategy", [
    RandomizedControl(),
    StaticControl({2}, 1),
    ScheduledControl({}, Strategy()),
    ScheduledControl({}, AlternatingControl({2}, {3}, ZERO, 1)),
], ids=["random", "static", "scheduled-random", "scheduled-alternating"])
def test_explorer_rejects_lies_it_cannot_merge(strategy):
    scenario = _liar(7, 1)
    scenario.strategy = strategy
    with pytest.raises(ValueError, match="only under ScheduledControl over CounterfactualBehavior"):
        explore(scenario)


def test_explorer_rejects_relay_runs():
    scenario = Scenario(
        network=make_two_clique_network(4, 4), m=1, source_value=ONE,
        strategy=ScheduledControl({}, CounterfactualBehavior(ZERO)), mode="relay",
    )
    with pytest.raises(ValueError, match="steps bare runs"):
        explore(scenario)


def test_only_minimal_ever_controlled_sets_are_kept():
    entries = []
    for ever in ({2, 3}, {2}, {2, 4}, {3}, {2, 3, 4}):
        _keep_minimal(entries, frozenset(ever), ever)
    assert [schedule for _, schedule in entries] == [{2}, {3}]


@pytest.mark.parametrize("alphabet, fake", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
def test_complete_7_every_schedule_agrees(alphabet, fake):
    # all 8^14 schedules of rounds 1..14 for each lie
    found = explore(_liar(7, 1, Value.plain(fake), alphabet))
    assert found.bad == [] and len(found.configs) == 14 and found.configs[-1] > 0


@pytest.mark.parametrize("m", [1, 2])
def test_complete_13_every_schedule_agrees(m):
    found = explore(_liar(13, m))
    assert found.bad == [] and len(found.configs) == 26 and found.configs[-1] > 0


@pytest.mark.parametrize("n", [6, 5])
def test_every_failure_outside_the_hypothesis_replays(n):
    scenario = _outside_hypothesis(n, 1)
    found = explore(scenario)
    assert found.bad
    for r, why, witness in found.bad:
        assert max(witness, default=0) <= r
        assert _fails(scenario, witness), (r, why, witness)


def test_boundary_witness_at_complete_6():
    # n = 6m: one liar in each round of the last pivot's window, rounds 10 and 11
    scenario, witness = _outside_hypothesis(6, 1), {10: {3}, 11: {2}}
    verdict, _ = replay(scenario, witness)
    assert (verdict.agreement, verdict.agreed_value, verdict.validity) == ("pass", EMPTY, "fail")
    assert "round 12: decided empty instead of the source value" in verdict.guarantee_violations
    assert _judged(scenario, witness)


def test_boundary_witness_at_complete_5():
    scenario, witness = _outside_hypothesis(5, 1), {9: {2}}
    verdict, _ = replay(scenario, witness)
    assert (verdict.agreement, verdict.agreed_value, verdict.validity) == ("pass", EMPTY, "fail")
    assert _judged(scenario, witness)


def _random_schedules(scenario, seed, count=120):
    """Random schedules that leave the first rounds quiet, so that failures
    late in a run are reached too."""
    sets, rng = all_control_sets(scenario.n, scenario.m), random.Random(seed)
    for _ in range(count):
        quiet = rng.randrange(scenario.rounds)
        yield {r: set(rng.choice(sets)) for r in range(quiet + 1, scenario.rounds + 1)}


def _scenario(n):
    return _liar(n, 1) if n > 6 else _outside_hypothesis(n, 1)


# the SHA-256 digest of every run's verdict record and support-claim
# violations over `_random_schedules` at n = 7, 6 and 5; generated on the
# checkers before they became folds of one round-by-round checker
RANDOM_SCHEDULE_VERDICTS = "02e62393d0af6f577008ad2a64eb266c570af649d5b9f92f5ca60030658c228e"


def test_random_schedule_verdicts_pinned():
    records, kinds = [], {}
    for n in (7, 6, 5):
        scenario, kinds[n] = _scenario(n), set()
        for schedule in _random_schedules(scenario, n):
            verdict, support = replay(scenario, schedule)
            records.append([verdict.to_record(), support])
            kinds[n].update(kind for kind, hit in (
                ("guarantee", verdict.guarantee_violations), ("support", support),
                ("agreement", verdict.agreement == "fail"),
                ("validity", verdict.validity == "fail"),
            ) if hit)
    assert kinds == {7: set(), 6: {"guarantee", "support", "validity"},
                     5: {"guarantee", "support", "validity"}}
    assert hashlib.sha256(json.dumps(records).encode()).hexdigest() == RANDOM_SCHEDULE_VERDICTS


@pytest.mark.parametrize("n", [7, 6, 5])
def test_explorer_judges_a_schedule_as_the_real_checkers_do(n):
    scenario, outcomes = _scenario(n), set()
    for schedule in _random_schedules(scenario, n):
        failed = _fails(scenario, schedule)
        assert _judged(scenario, schedule) == failed, schedule
        outcomes.add(failed)
    assert outcomes == ({False} if n > 6 else {False, True})
