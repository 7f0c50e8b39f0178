"""The honest rule over histograms against the list adapter and the
per-candidate oracle in `oracles`, its cut points, and the bare engine's
histogram path, one update per receiver class, against the per-link `sent`
table."""

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
from mobyz.protocol import cut_points, histogram_update, pivot_index

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


def _assert_per_receiver_updates(trace, params):
    """Every honest state of every pair round is what the list rule gives
    for the pairs the full trace recorded."""
    n = params.n
    for before, rt in zip(trace.rounds, trace.rounds[1:]):
        for p in range(1, n + 1):
            if p not in rt.controlled:
                received = [rt.sent[(i, p)] for i in range(1, n + 1)]
                expected = round_update(p, before.states_after[p], received, rt.round, params)
                assert rt.states_after[p] == expected


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
    _assert_per_receiver_updates(full, ProtocolParams(n=13, m=2, alphabet_size=3))


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
    for rt in trace.rounds[1:]:
        honest = [p for p in range(1, n + 1) if p not in rt.controlled]
        assert 1 <= calls[rt.round] <= len(honest)
        shared += calls[rt.round] < len(honest)
    _assert_per_receiver_updates(trace, sc.params)
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


# --- the cut points and the reach rule -------------------------------------


def _interval(c, cuts):
    """Which interval between the sorted cut points holds count c, as the
    rule's tests `c > k` see it: how many cut points lie below c."""
    return sum(1 for k in cuts if k < c)


@st.composite
def same_interval_count_maps(draw):
    """Two inputs of `histogram_update` that differ only in counts, each
    count (0 standing for an absent value) and the pivot's medium backing
    lying in the same interval between `cut_points` in both."""
    unit = draw(st.integers(0, 3))
    n = draw(st.integers(6 * unit + 1, 6 * unit + 9))
    params = ProtocolParams(n=n, m=unit, alphabet_size=3)
    pool = [Value.plain(i) for i in range(3)] + [EMPTY, MANY]
    cuts = sorted(cut_points(params))
    bounds = [0, *(k + 1 for k in cuts)], [*cuts, n]

    def twin(c):  # another count in c's interval
        i = _interval(c, cuts)
        return draw(st.integers(bounds[0][i], max(bounds[0][i], bounds[1][i])))

    def as_map(counts):  # a count of 0 may be absent or present
        return {v: c for v, c in counts.items() if c or draw(st.booleans())}

    high_a = {v: draw(st.integers(0, n)) for v in pool}
    high_b = {v: twin(c) for v, c in high_a.items()}
    pivot_high = draw(st.sampled_from([None, *pool]))
    medium_a = {v: draw(st.integers(0, n)) for v in pool}
    medium_b = {v: draw(st.integers(0, n)) for v in pool}
    if pivot_high is not None and pivot_high != EMPTY:
        # the backing is pivot_high's medium count, plus MANY's for a plain
        # pivot high; give map b a backing in map a's interval, split
        # between the two at random
        backed = [pivot_high] if pivot_high == MANY else [pivot_high, MANY]
        backing = twin(sum(medium_a[v] for v in backed))
        first = draw(st.integers(0, backing)) if len(backed) == 2 else backing
        medium_b.update(zip(backed, (first, backing - first)))
    r = draw(st.integers(2, 2 * n))
    self_id = draw(st.integers(1, n))
    state = ProcessorState(decided=draw(st.sampled_from([None, *pool])))
    common = (pivot_high, r, params)
    return (
        (self_id, state, as_map(high_a), as_map(medium_a), *common),
        (self_id, state, as_map(high_b), as_map(medium_b), *common),
    )


def _outcome_of(update):
    """The state an update gives, or the message of the decision-consistency
    `ValueError` it raises."""
    try:
        return update()
    except ValueError as e:
        return str(e)


def _outcome(args):
    return _outcome_of(lambda: histogram_update(*args))


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(same_interval_count_maps())
def test_counts_between_the_same_cut_points_give_one_state(inputs):
    """`histogram_update` tells two receivers apart only where `cut_points`
    says: a threshold in the rule and not among the cut points, or the
    reverse, breaks this."""
    a, b = inputs
    assert _outcome(a) == _outcome(b)


@st.composite
def pair_rounds(draw):
    """A pair round as `_count_pairs` takes it: each sender's payload, and
    exceptions by sender, bare-like (a sender absent from the payloads has
    one for every receiver) or lifted-like (a sender with a payload has them
    for some receivers). Payloads mostly repeat one pair, so counts often
    sit next to a cut point."""
    unit = draw(st.integers(1, 2))
    n = draw(st.integers(6 * unit + 1, 6 * unit + 4))
    params = ProtocolParams(n=n, m=unit)
    pair = st.builds(PairMessage, *[st.sampled_from([ZERO, ONE, EMPTY, MANY])] * 2)
    common = draw(pair)
    everyone = range(1, n + 1)
    payloads = {i: draw(st.one_of(st.just(common), pair)) for i in everyone}
    exceptions = {}
    for i in sorted(draw(st.sets(st.sampled_from(everyone), max_size=n))):
        if draw(st.booleans()):  # forged, bare-like
            del payloads[i]
            exceptions[i] = {p: draw(pair) for p in everyone}
        else:
            receivers = draw(st.sets(st.sampled_from(everyone), min_size=1))
            exceptions[i] = {p: draw(pair) for p in sorted(receivers)}
    honest = [p for p in everyone if draw(st.integers(0, 3))]
    r = draw(st.integers(2, 2 * n))
    return params, payloads, exceptions, honest or [1], r


def _assert_classes_update_as_receivers(params, payloads, exceptions, honest, r) -> list:
    """Every honest receiver is in one of `_count_pairs`' classes, and the
    class's counts give it the outcome its own n pairs give, for either
    decision it may hold; returns the classes."""
    counted = mobyz.sim._count_pairs(payloads, exceptions, honest, r, params)
    assert sorted(p for receivers, _counts in counted for p in receivers) == honest
    for receivers, counts in counted:
        for p in receivers:
            received = [exceptions[i][p] if p in exceptions.get(i, ()) else payloads[i]
                        for i in range(1, params.n + 1)]
            for decided in (None, ZERO):
                state = ProcessorState(decided=decided)
                assert _outcome((p, state, *counts, r, params)) == _outcome_of(
                    lambda: round_update(p, state, received, r, params))
    return [receivers for receivers, _counts in counted]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pair_rounds())
def test_each_class_updates_as_its_receivers_would(inputs):
    _assert_classes_update_as_receivers(*inputs)


def _uniform(senders, value):
    return {i: PairMessage(value, value) for i in senders}


def _backing_in_reach():
    """n = 7, u = 1 (cut points 2, 3, 4, 4), round 3 (pivot 2). The high
    counts of the six honest senders, 5 empty and the pivot's one 0, are
    clear of every cut point, but the backing of 0 by MANY mediums is 4;
    forged sender 7 adds a MANY medium for odd receivers only, lifting
    theirs over 4u."""
    payloads = {i: PairMessage(EMPTY, MANY) for i in (1, 3, 4, 6)}
    payloads |= {2: PairMessage(ZERO, EMPTY), 5: PairMessage(EMPTY, EMPTY)}
    forged = {p: PairMessage(EMPTY, MANY if p % 2 else EMPTY) for p in range(1, 8)}
    return ProtocolParams(n=7, m=1), payloads, {7: forged}, [1, 2, 3, 4, 5, 6], 3


def _absent_value_in_reach():
    """n = 20, u = 1 (cut points 2, 3, 4, 17), round 2 (pivot 2). Senders
    1-10 send 1 and 11-20 empty; 11-13 deliver 0 to receivers 5 and 6
    instead. 0 is absent from every payload, and three transfers lift its
    count over 2u for those two receivers only."""
    payloads = _uniform(range(1, 11), ONE) | _uniform(range(11, 21), EMPTY)
    exceptions = {i: _uniform((5, 6), ZERO) for i in (11, 12, 13)}
    return ProtocolParams(n=20, m=1), payloads, exceptions, list(range(1, 21)), 2


def _replaced_payloads_in_reach():
    """n = 20, u = 2 (cut points 4, 6, 8, 15), round 2 (pivot 2). Senders
    1-11 send 1 and 12-20 send 0, but 18-20 deliver 1 to receivers 5 and 6
    instead: those count six 0s, under 3u, the others nine, over 4u. Nine
    0s in all the payloads would be clear of every cut point; the six of
    the senders without exceptions are not."""
    payloads = _uniform(range(1, 12), ONE) | _uniform(range(12, 21), ZERO)
    exceptions = {i: _uniform((5, 6), ONE) for i in (18, 19, 20)}
    return ProtocolParams(n=20, m=2), payloads, exceptions, list(range(1, 21)), 2


@pytest.mark.parametrize("make", [
    _backing_in_reach, _absent_value_in_reach, _replaced_payloads_in_reach,
], ids=["backing", "absent-value", "replaced-payloads"])
def test_a_count_in_reach_of_a_cut_point_splits_the_receivers(make):
    classes = _assert_classes_update_as_receivers(*make())
    assert len(classes) == 2


def _spy_classes(monkeypatch):
    """r -> the receiver classes `_count_pairs` formed in pair round r."""
    classes: dict = {}
    count_pairs = mobyz.sim._count_pairs

    def spied(payloads, exceptions, honest, r, params):
        counted = count_pairs(payloads, exceptions, honest, r, params)
        classes[r] = [receivers for receivers, _counts in counted]
        return counted

    monkeypatch.setattr(mobyz.sim, "_count_pairs", spied)
    return classes


class _PushedAcross(Strategy):
    """n = 15, m = 2, so the cut points are 4, 6, 8 and 10. Round 1: the
    controlled source tells processors 2..1+told the value 1 and the rest 0,
    and keeps (0, 0). Round 2: processors 14 and 15 forge (1, 1) to
    processors 2-5 and (0, 0) to the rest. So receivers 2-5 count told + 2
    highs of 1, the others told: with told = 8 only 2-5 clear the support
    test (> 8), with told = 9 only they decide 1 (>= 11)."""

    def __init__(self, told):
        self.told = told

    def controlled(self, ctx):
        return {1: frozenset({1}), 2: frozenset({14, 15})}.get(ctx.round, frozenset())

    def forge(self, ctx, pid):
        if ctx.round == 1:
            return {q: ONE if 2 <= q <= 1 + self.told else ZERO for q in ctx.slots(pid)}
        return {q: PairMessage(ONE, ONE) if 2 <= q <= 5 else PairMessage(ZERO, ZERO)
                for q in ctx.slots(pid)}

    def rewrite(self, ctx, pid):
        return ProcessorState(high=ZERO, medium=ZERO)


class _SplittingPivot(_ForgedPivot):
    """`_ForgedPivot`, except that in round 3 the controlled pivot claims
    (1, 1) to odd receivers and (0, 0) to even ones. Every high count is
    clear of the cut points 2, 3, 4 and 4, so only the pivot's high tells
    the receivers apart: its backing by the honest MANY mediums puts 1 in
    the odd receivers' support and 0 in the even ones'."""

    def forge(self, ctx, pid):
        if ctx.round != 3:
            return super().forge(ctx, pid)
        return {q: PairMessage(Value.plain(q % 2), Value.plain(q % 2)) for q in ctx.slots(pid)}


@pytest.mark.parametrize("told", [8, 9])
def test_forgeries_across_a_cut_point_split_the_receivers(monkeypatch, told):
    classes = _spy_classes(monkeypatch)
    sc = Scenario(network=complete_network(15), m=2, source_value=ONE,
                  strategy=_PushedAcross(told), rounds=4, trace_level="full")
    trace = run(sc)
    assert classes[2] == [[1, *range(6, 14)], [2, 3, 4, 5]]
    _assert_per_receiver_updates(trace, sc.params)
    after = trace.rounds[1].states_after
    if told == 8:  # across 4u
        assert {p for p in range(1, 14) if ONE in after[p].high_set} == {2, 3, 4, 5}
    else:  # across n - 2u
        assert {p for p in range(1, 14) if after[p].decided == ONE} == {2, 3, 4, 5}


def test_forgeries_from_the_pivot_split_the_receivers(monkeypatch):
    classes = _spy_classes(monkeypatch)
    sc = Scenario(network=complete_network(7), m=1, source_value=ONE,
                  strategy=_SplittingPivot(), rounds=4, trace_level="full")
    trace = run(sc)
    assert classes[3] == [[1, 3, 5, 7], [4, 6]]
    _assert_per_receiver_updates(trace, sc.params)
    after = trace.rounds[2].states_after
    assert {after[p].high_set for p in (1, 3, 5, 7)} == {frozenset([ONE])}
    assert {after[p].high_set for p in (4, 6)} == {frozenset([ZERO])}


def _out_of_reach(rt, params):
    """Whether no cut point lies within reach in bare pair round rt, stated
    from the full trace: the honest senders' pairs give every receiver the
    same rest, and each controlled sender adds one pair."""
    n, reach = params.n, len(rt.controlled)
    pivot = pivot_index(rt.round)
    if pivot in rt.controlled:
        return False
    rest = [rt.sent[(i, 1)] for i in range(1, n + 1) if i not in rt.controlled]
    counts = [sum(msg.high == v for msg in rest) for v in _value_pool(params)]
    if pivot <= n and rt.sent[(pivot, 1)].high != EMPTY:
        pivot_high = rt.sent[(pivot, 1)].high
        counts.append(sum(msg.medium in (pivot_high, MANY) for msg in rest))
    cuts = cut_points(params)
    return not any(c <= k < c + reach for c in counts for k in cuts)


def _value_pool(params):
    return [Value.plain(i) for i in range(params.alphabet_size)] + [EMPTY, MANY]


@pytest.mark.parametrize("n,m,seed", [(25, 4, 5), (13, 2, 11), (49, 1, 1)])
def test_one_update_per_decided_and_role_out_of_reach(monkeypatch, n, m, seed):
    """Where no cut point is in reach, the honest receivers are one class:
    one `histogram_update` per (decided, is pivot) among them."""
    calls: dict = {}

    def counted(p, state, high_counts, medium_counts, pivot_high, r, params):
        calls[r] = calls.get(r, 0) + 1
        return histogram_update(p, state, high_counts, medium_counts, pivot_high, r, params)

    monkeypatch.setattr(mobyz.sim, "histogram_update", counted)
    sc = Scenario(network=complete_network(n), m=m, source_value=ONE,
                  strategy=RandomizedControl(), seed=seed, trace_level="full")
    trace = run(sc)
    merged = 0
    for before, rt in zip(trace.rounds, trace.rounds[1:]):
        if not _out_of_reach(rt, sc.params):
            continue
        merged += 1
        pivot = pivot_index(rt.round)
        keys = {(before.states_after[p].decided, p == pivot)
                for p in range(1, n + 1) if p not in rt.controlled}
        assert calls[rt.round] == len(keys)
    assert merged > len(trace.rounds) // 2
    _assert_per_receiver_updates(trace, sc.params)
