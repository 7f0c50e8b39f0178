"""The honest rule over histograms against the list adapter and the
per-candidate oracle in `oracles`, and the bare engine's histogram path,
one update per receiver class, against the per-link `sent` table."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mobyz
import mobyz.sim
from mobyz import (
    EMPTY,
    MANY,
    AlternatingControl,
    PairMessage,
    ProcessorState,
    ProtocolParams,
    RandomizedControl,
    Scenario,
    ScheduledControl,
    StaticControl,
    Strategy,
    Value,
    complete_network,
    run,
)
from mobyz.adversary import CounterfactualBehavior
from mobyz.protocol import histogram_update, pivot_index

from oracles import oracle_update, round_update

ZERO, ONE = Value.plain(0), Value.plain(1)


@st.composite
def update_inputs(draw):
    unit = draw(st.integers(0, 3))
    n = draw(st.integers(6 * unit + 1, 6 * unit + 9))
    alphabet = draw(st.integers(1, 3))
    params = ProtocolParams(n=n, m=unit, alphabet_size=alphabet)
    pool = [Value.plain(i) for i in range(alphabet)] + [EMPTY, MANY]
    value = st.sampled_from(pool)
    received = draw(
        st.lists(st.builds(PairMessage, value, value), min_size=n, max_size=n)
    )
    # r = 2n names pivot n+1, outside the processors
    r = draw(st.one_of(st.integers(2, 2 * n), st.just(2 * n)))
    self_id = draw(st.integers(1, n))
    decided = draw(st.one_of(st.none(), value))
    return params, received, r, self_id, ProcessorState(decided=decided)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(update_inputs())
def test_round_update_equals_histogram_rule(inputs):
    params, received, r, self_id, state = inputs
    pivot = r // 2 + 1
    high_counts, medium_counts = {}, {}
    for msg in received:
        high_counts[msg.high] = high_counts.get(msg.high, 0) + 1
        medium_counts[msg.medium] = medium_counts.get(msg.medium, 0) + 1
    pivot_high = received[pivot - 1].high if pivot <= params.n else None

    got = round_update(self_id, state, received, r, params)
    assert got == histogram_update(
        self_id, state, high_counts, medium_counts, pivot_high, r, params
    )
    decided, high_set, medium_set, high, medium = oracle_update(
        self_id, state.decided, received, r, params.n, params.fault_unit
    )
    assert (got.decided, got.high_set, got.medium_set, got.high, got.medium) == (
        decided, high_set, medium_set, high, medium
    )


def _bare_scenarios():
    n, m = 13, 2
    schedule = {r: {(3 * r) % n + 1, (5 * r) % n + 1} for r in range(1, 2 * n + 1)}
    yield "random", lambda: RandomizedControl()
    yield "static-split", lambda: StaticControl({2, 3}, m, ("split", ZERO, ONE))
    yield "alternating", lambda: AlternatingControl({1, 2}, {3, 4}, ZERO, m)
    yield "counterfactual", lambda: ScheduledControl(schedule, CounterfactualBehavior(ZERO))


@pytest.mark.parametrize("name,make", list(_bare_scenarios()))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bare_states_same_at_both_trace_levels(name, make, seed):
    def trace_at(level):
        return run(Scenario(network=complete_network(13), m=2, source_value=ONE,
                            strategy=make(), seed=seed, trace_level=level,
                            alphabet_size=3))

    states_only, full = trace_at("states"), trace_at("full")
    assert [rt.controlled for rt in states_only.rounds] == [rt.controlled for rt in full.rounds]
    assert [rt.states_after for rt in states_only.rounds] == [
        rt.states_after for rt in full.rounds
    ]
    # every honest update of the histogram path is what the list rule gives
    # for the pairs the full trace recorded
    params = ProtocolParams(n=13, m=2, alphabet_size=3)
    for before, rt in zip(full.rounds, full.rounds[1:]):
        for p in range(1, 14):
            if p in rt.controlled:
                continue
            received = [rt.sent[(i, p)] for i in range(1, 14)]
            expected = round_update(p, before.states_after[p], received, rt.round, params)
            assert rt.states_after[p] == expected


PLANTED = (None, ZERO, ONE, MANY)


class _PlantedDecisions(Strategy):
    """Round 1: the controlled source tells processors 2-5 the value 1 and
    the rest 0, and is left with a planted decision 0. Later rounds: one
    liar sends (0, 0) to everyone, so every honest receiver of a round is in
    one class, and is left with a planted decision. The liar is the round's
    pivot in odd rounds and another processor in even ones. In round 2 no
    high reaches n - 2u, so the honest receivers keep the decisions they
    held (0 for the source, None for the rest), and the honest pivot's lower
    threshold admits the 1s that the others' does not."""

    def controlled(self, ctx):
        r, n = ctx.round, ctx.scenario.n
        if r == 1:
            return frozenset({1})
        if r % 2 and pivot_index(r) <= n:
            return frozenset({pivot_index(r)})
        return frozenset({n - r // 2 % (n - 1)})

    def forge(self, ctx, pid):
        if ctx.round == 1:
            return {q: ONE if 2 <= q <= 5 else ZERO for q in ctx.slots(pid)}
        return dict.fromkeys(ctx.slots(pid), PairMessage(ZERO, ZERO))

    def rewrite(self, ctx, pid):
        return ProcessorState(high=ZERO, medium=ZERO, decided=PLANTED[ctx.round % 4])


@pytest.mark.parametrize("name,make,seed", [
    ("planted", _PlantedDecisions, 0),
    ("random", RandomizedControl, 0),
    ("random", RandomizedControl, 1),
    ("random", RandomizedControl, 2),
])
def test_class_updates_equal_per_receiver_updates(monkeypatch, name, make, seed):
    """Receivers sharing an exception signature share one `histogram_update`
    per (decided, is pivot); each honest state must still be what the list
    rule gives for the pairs the full trace recorded."""
    n = 13
    calls: dict = {}

    def counted(p, state, high_counts, medium_counts, pivot_high, r, params):
        calls[r] = calls.get(r, 0) + 1
        return histogram_update(p, state, high_counts, medium_counts, pivot_high, r, params)

    monkeypatch.setattr(mobyz.sim, "histogram_update", counted)
    sc = Scenario(network=complete_network(n), m=1, source_value=ONE, strategy=make(),
                  seed=seed, trace_level="full")
    trace = run(sc)
    shared = 0
    for before, rt in zip(trace.rounds, trace.rounds[1:]):
        honest = [p for p in range(1, n + 1) if p not in rt.controlled]
        assert 1 <= calls[rt.round] <= len(honest)
        shared += calls[rt.round] < len(honest)
        for p in honest:
            received = [rt.sent[(i, p)] for i in range(1, n + 1)]
            expected = round_update(p, before.states_after[p], received, rt.round, sc.params)
            assert rt.states_after[p] == expected
    assert shared, "no round had receivers sharing an update"
    if name == "planted":
        # round 2 is one class holding two decisions and an honest pivot
        after, liar = trace.rounds[1].states_after, trace.rounds[1].controlled
        assert calls[2] == 3
        assert {after[p].decided for p in range(1, n + 1) if p not in liar} == {None, ZERO}
        assert after[2].emission() != after[3].emission()


class _ForgedPivot(Strategy):
    """Round 1: the source splits the others between 0 and 1. Round 2: the
    pivot (processor 2) is controlled and claims (0, 0), which leaves every
    honest processor with (empty, many). Round 3: the still-controlled pivot
    claims (1, 1); one high is far below any threshold, so 1 can enter the
    support sets only through the pivot's medium backing."""

    def controlled(self, ctx):
        return frozenset({1}) if ctx.round == 1 else frozenset({2})

    def forge(self, ctx, pid):
        if ctx.round == 1:
            return {q: Value.plain(q % 2) for q in ctx.slots(pid)}
        claim = ZERO if ctx.round == 2 else ONE
        return {q: PairMessage(claim, claim) for q in ctx.slots(pid)}

    def rewrite(self, ctx, pid):
        return ProcessorState()


@pytest.mark.parametrize("level", ["states", "full"])
def test_controlled_pivot_backing_reaches_every_recipient(level):
    sc = Scenario(network=complete_network(7), m=1, source_value=ONE,
                  strategy=_ForgedPivot(), rounds=3, trace_level=level)
    trace = run(sc)
    assert all(trace.rounds[1].states_after[p].emission() == PairMessage(EMPTY, MANY)
               for p in (1, 3, 4, 5, 6, 7))
    for p in (1, 3, 4, 5, 6, 7):
        assert trace.rounds[2].states_after[p].high_set == frozenset([ONE])


class _FourOfSeven(Strategy):
    """Round 1 only: the source tells processors 2-5 the value 1 and the rest
    0. In round 2 the honest pivot (2) sees four 1s, clears its lower
    threshold and emits (1, 1) while the others emit (empty, 1); in round 3
    the others adopt 1 through that pivot's medium backing."""

    def controlled(self, ctx):
        return frozenset({1}) if ctx.round == 1 else frozenset()

    def forge(self, ctx, pid):
        return {q: ONE if 2 <= q <= 5 else ZERO for q in ctx.slots(pid)}

    def rewrite(self, ctx, pid):
        return ProcessorState()


@pytest.mark.parametrize("level", ["states", "full"])
def test_honest_pivot_backing_crystallizes(level):
    sc = Scenario(network=complete_network(7), m=1, source_value=ONE,
                  strategy=_FourOfSeven(), rounds=3, trace_level=level)
    trace = run(sc)
    after_two = trace.rounds[1].states_after
    assert after_two[2].emission() == PairMessage(ONE, ONE)
    assert all(after_two[p].emission() == PairMessage(EMPTY, ONE) for p in (1, 3, 4, 5, 6, 7))
    for state in trace.rounds[2].states_after.values():
        assert state.high_set == frozenset([ONE])


def test_inconsistent_counts_fail_the_decision_check():
    params = ProtocolParams(n=7, m=1)
    with pytest.raises(ValueError, match="do not describe 7 messages"):
        histogram_update(3, ProcessorState(), {ZERO: 7, ONE: 7}, {ZERO: 14}, ZERO, 4, params)


def test_decision_check_survives_optimized_mode():
    src = str(Path(mobyz.__file__).resolve().parent.parent)
    code = (
        "from mobyz import ProcessorState, ProtocolParams, Value\n"
        "from mobyz.protocol import histogram_update\n"
        "z, o = Value.plain(0), Value.plain(1)\n"
        "try:\n"
        "    histogram_update(3, ProcessorState(), {z: 7, o: 7}, {z: 14}, z, 4,\n"
        "                     ProtocolParams(n=7, m=1))\n"
        "except ValueError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-O", "-c", code], env=env).returncode == 0
