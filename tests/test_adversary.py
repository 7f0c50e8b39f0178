import random

import pytest

from mobyz import (
    EMPTY,
    AlternatingControl,
    GroupSplitControl,
    NoFaults,
    OverrideStrategy,
    PairMessage,
    RandomizedControl,
    Scenario,
    ScheduledControl,
    StaticControl,
    Strategy,
    Trace,
    Value,
    check_agreement,
    check_indistinguishable,
    complete_network,
    cut_set_pair,
    five_set_pair,
    make_two_clique_network,
    run,
)
from mobyz.sim import StepContext

ZERO, ONE = Value.plain(0), Value.plain(1)


def test_no_faults_controls_nobody_and_agrees():
    sc = Scenario(
        network=complete_network(7), m=1, source_value=ONE, strategy=NoFaults()
    )
    trace = run(sc)
    assert all(rt.controlled == frozenset() for rt in trace.rounds)
    verdict = check_agreement(trace, sc)
    assert verdict.agreement == "pass" and verdict.agreed_value == ONE
    # every processor is locked onto the source value from round 2 onward
    for rt in trace.rounds[1:]:
        for st in rt.states_after.values():
            assert st.decided == ONE and st.high == st.medium == ONE


def test_no_faults_trace_deterministic():
    sc1 = Scenario(network=complete_network(7), m=1, source_value=ONE, strategy=NoFaults())
    sc2 = Scenario(network=complete_network(7), m=1, source_value=ONE, strategy=NoFaults())
    assert run(sc1).to_text() == run(sc2).to_text()


def test_static_set_size_checked():
    with pytest.raises(ValueError):
        StaticControl({2, 3}, m=1)
    StaticControl({2}, m=1)
    assert StaticControl(set(), m=1).members == frozenset()


def test_static_constant_lie_still_agrees():
    sc = Scenario(
        network=complete_network(7),
        m=1,
        source_value=ONE,
        strategy=StaticControl({4}, m=1, rule=("constant", ZERO)),
    )
    trace = run(sc)
    verdict = check_agreement(trace, sc)
    assert verdict.agreement == "pass" and verdict.validity == "pass"
    assert verdict.agreed_value == ONE
    # the liar's payloads really are the constant lie
    for rt in trace.rounds[1:]:
        assert rt.sent[(4, 1)] == PairMessage(ZERO, ZERO)


def test_static_split_rule_splits_recipients():
    sc = Scenario(
        network=complete_network(5),
        m=1,
        source_value=ONE,
        strategy=StaticControl({1}, m=1, rule=("split", ZERO, ONE)),
        mode="relay",
    )
    trace = run(sc)
    first = trace.rounds[0].sent
    # recipients 2,3,4,5: the lower half is told 0, the upper half 1
    assert first[(1, 2)] == ZERO and first[(1, 3)] == ZERO
    assert first[(1, 4)] == ONE and first[(1, 5)] == ONE


def test_alternating_schedule_and_planted_state_propagates():
    odd, even = {2}, {3}
    sc = Scenario(
        network=complete_network(5),
        m=1,
        source_value=ONE,
        strategy=AlternatingControl(odd, even, fake_value=ZERO, m=1),
        mode="relay",
    )
    trace = run(sc)
    for rt in trace.rounds:
        assert rt.controlled == frozenset(odd if rt.round % 2 else even)
    # every payload from the alternating pair toward the rest reads the fake value
    for rt in trace.rounds[1:]:
        for sender in (2, 3):
            for receiver in (4, 5):
                assert rt.sent[(sender, receiver)] == PairMessage(ZERO, ZERO)
    # released processors emit exactly what honest code produces from the plant
    for rt in trace.rounds[1:]:
        prev_states = trace.rounds[rt.round - 2].states_after
        for sender in (2, 3):
            if sender in rt.controlled:
                continue
            assert rt.sent[(sender, 4)] == prev_states[sender].emission()


def test_alternating_set_sizes_checked():
    with pytest.raises(ValueError):
        AlternatingControl({2, 3}, {4}, fake_value=ZERO, m=1)


def test_group_split_round_one_facing_values():
    facing = {1: ONE, 2: ZERO, 3: ZERO, 4: ONE, 5: ONE}
    sc = Scenario(
        network=complete_network(5),
        m=1,
        source_value=ONE,
        strategy=GroupSplitControl({1}, facing, m=1, plant_value=ONE),
        mode="relay",
    )
    trace = run(sc)
    first = trace.rounds[0].sent
    assert first[(1, 2)] == ZERO and first[(1, 3)] == ZERO
    assert first[(1, 4)] == ONE and first[(1, 5)] == ONE
    # and the split persists as pair traffic in later rounds
    last = trace.rounds[-1].sent
    assert last[(1, 2)] == PairMessage(ZERO, ZERO)
    assert last[(1, 4)] == PairMessage(ONE, ONE)


def test_five_set_pair_preconditions():
    with pytest.raises(ValueError, match="n <= 5m"):
        five_set_pair(n=6, m=1)
    with pytest.raises(ValueError, match="n > m\\+1"):
        five_set_pair(n=2, m=1)
    with pytest.raises(ValueError, match="non-empty"):
        five_set_pair(n=3, m=1)


def test_five_set_pair_views_match():
    pair = five_set_pair(n=5, m=1)
    assert pair.observers == frozenset({4, 5})
    same, where = check_indistinguishable(pair)
    assert same, where


def test_five_set_pair_views_match_m2():
    pair = five_set_pair(n=10, m=2)
    same, where = check_indistinguishable(pair)
    assert same, where


def test_five_set_swapped_roles():
    pair = five_set_pair(n=5, m=1, swap=True)
    assert pair.observers == frozenset({2, 3})
    same, where = check_indistinguishable(pair)
    assert same, where
    # the swapped observers are pushed to the fake value: agreement in
    # scenario B fixes 0 at the observers, the true value of that scenario
    trace_b = run(pair.scenario_b)
    final = trace_b.final_states()
    assert final[2].decided == ZERO and final[3].decided == ZERO


def test_five_set_scenario_a_splits_the_network():
    pair = five_set_pair(n=5, m=1)
    trace = run(pair.scenario_a)
    # the controlled source splits its story between the halves, verbatim
    first = trace.rounds[0].sent
    assert first[(1, 2)] == ZERO and first[(1, 3)] == ZERO
    assert first[(1, 4)] == ONE and first[(1, 5)] == ONE
    verdict = check_agreement(trace, pair.scenario_a)
    assert verdict.agreement == "fail"  # the halves adopt different values
    final = trace.final_states()
    assert final[2].decided == final[3].decided == ZERO
    assert final[4].decided == final[5].decided == ONE


def test_indistinguishability_rejects_mismatched_pairs():
    from mobyz import ScenarioPair

    short = five_set_pair(n=5, m=1, rounds=10)
    long = five_set_pair(n=5, m=1, rounds=12)
    broken = ScenarioPair(short.scenario_a, long.scenario_b, short.observers)
    with pytest.raises(ValueError, match="mismatch"):
        check_indistinguishable(broken)


def test_cut_set_pair_two_clique():
    g = make_two_clique_network(4, 4)
    pair = cut_set_pair(g, 1, [9, 10, 11, 12], observer=5, m=1)
    same, where = check_indistinguishable(pair)
    assert same, where
    # the observer settles on the same value in both runs even though the
    # true source values differ — which is exactly the impossibility
    final_a = run(pair.scenario_a).final_states()
    final_b = run(pair.scenario_b).final_states()
    assert final_a[5].decided == final_b[5].decided
    assert pair.scenario_a.source_value != pair.scenario_b.source_value


def test_cut_set_pair_on_a_path_with_delayed_diffusion():
    # the cut {3} sits two hops from the source, so the counterfactual value
    # reaches it only in round 2 and the scripted timeline must reflect that
    from mobyz import Network

    g = Network(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    pair = cut_set_pair(g, 1, [3], observer=5, m=1)
    same, where = check_indistinguishable(pair)
    assert same, where
    trace_a = run(pair.scenario_a)
    # the liar stays silent-looking until the counterfactual value would have
    # reached it, then claims the second scenario's value
    assert trace_a.rounds[1].sent[(3, 4)] == PairMessage(EMPTY, EMPTY)
    assert trace_a.rounds[2].sent[(3, 4)] == PairMessage(ONE, ONE)
    # the observer adopts the fake value even though the true value was 0
    assert trace_a.final_states()[5].decided == ONE


def test_cut_set_pair_m2_wide_cut():
    g = make_two_clique_network(5, 8)  # n=18, cut of 8 = 4m for m=2
    cut = list(range(11, 19))
    pair = cut_set_pair(g, 1, cut, observer=6, m=2)
    same, where = check_indistinguishable(pair)
    assert same, where


def test_cut_set_pair_preconditions():
    g = make_two_clique_network(4, 4)
    with pytest.raises(ValueError, match="separate"):
        cut_set_pair(g, 1, [9, 10, 11], observer=5, m=1)  # missing a bridge vertex
    with pytest.raises(ValueError, match="4m"):
        cut_set_pair(g, 1, [8, 9, 10, 11, 12], observer=5, m=1)
    with pytest.raises(ValueError, match="observer"):
        cut_set_pair(g, 1, [9, 10, 11, 12], observer=9, m=1)


def test_perturbed_pair_diverges():
    pair = five_set_pair(n=5, m=1)
    pair.scenario_b.strategy = OverrideStrategy(
        pair.scenario_b.strategy,
        {(3, 2, 4): PairMessage(ONE, ONE)},
    )
    same, where = check_indistinguishable(pair)
    assert not same
    assert where == (3, 4, "message from 2")


def test_randomized_control_respects_m():
    sc = Scenario(
        network=complete_network(13),
        m=2,
        source_value=ONE,
        strategy=RandomizedControl(),
        seed=3,
    )
    trace = run(sc)
    assert all(len(rt.controlled) <= 2 for rt in trace.rounds)
    assert any(rt.controlled for rt in trace.rounds)


RESHAPED = {
    # (first network, second network, mode): the strategy object is reused
    "bare-complete-7-then-9": (complete_network(7), complete_network(9), "bare"),
    "relay-9-complete-then-two-clique": (
        complete_network(9), make_two_clique_network(3, 3), "relay"
    ),
}
WORLD_STRATEGIES = {
    # 4 and 5 sit two hops from the source on two-clique 3 3 but one on a
    # complete network, so their counterfactual states differ between the two
    "alternating": lambda: AlternatingControl({4}, {5}, fake_value=ZERO, m=1),
    "group-split": lambda: GroupSplitControl(
        {4}, {q: (ZERO if q % 2 else ONE) for q in range(1, 10)}, 1, plant_value=ZERO
    ),
    "static-constant": lambda: StaticControl({4}, 1, rule=("constant", ZERO)),
}


@pytest.mark.parametrize("strategy", sorted(WORLD_STRATEGIES))
@pytest.mark.parametrize("reshape", sorted(RESHAPED))
def test_reused_strategy_replays_the_current_world(reshape, strategy):
    first, second, mode = RESHAPED[reshape]
    make = WORLD_STRATEGIES[strategy]

    def scenario(network, strat):
        return Scenario(network=network, m=1, source_value=ONE, strategy=strat, mode=mode)

    reused = make()
    run(scenario(first, reused))
    assert run(scenario(second, reused)).to_text() == run(scenario(second, make())).to_text()


class _OwnLies(Strategy):
    """Defines `corrupt_value` and no batch: one logged call per copy."""

    def __init__(self):
        self.calls = []

    def corrupt_value(self, ctx, pid):
        self.calls.append(pid)
        return Value.plain(len(self.calls) % 2)


class _ScheduledOwnLies(ScheduledControl):
    def corrupt_value(self, ctx, pid):
        return ONE


def test_corrupt_values_calls_an_own_corrupt_value_once_per_copy():
    sc = Scenario(network=complete_network(7), m=1, source_value=ONE, strategy=NoFaults())

    def ctx(seed=3):
        return StepContext(sc, 1, {}, Trace(n=7), random.Random(seed), "value", {})

    own = _OwnLies()
    assert own.corrupt_values(ctx(), 4, 3) == [ONE, ZERO, ONE] and own.calls == [4, 4, 4]
    # a wrapper passes the batch on, so the inner strategy's rule decides
    assert ScheduledControl({}, own).corrupt_values(ctx(), 5, 2) == [ZERO, ONE]
    assert OverrideStrategy(own, {}).corrupt_values(ctx(), 6, 1) == [ZERO]
    assert own.calls == [4, 4, 4, 5, 5, 6]
    # a wrapper's subclass that defines its own corrupt_value is called per copy
    assert _ScheduledOwnLies({}, RandomizedControl()).corrupt_values(ctx(), 2, 2) == [ONE, ONE]
    # without one, the batch is the random draws
    drawn, reference = ctx(), ctx()
    assert ScheduledControl({}, RandomizedControl()).corrupt_values(drawn, 2, 5) == (
        reference.random_payloads(5)
    )
    assert drawn.rng.getstate() == reference.rng.getstate()
