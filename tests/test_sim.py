import random
import re

import pytest

from mobyz import (
    EMPTY,
    NoFaults,
    PairMessage,
    RandomizedControl,
    Scenario,
    ScheduledControl,
    Strategy,
    StrategyViolation,
    Trace,
    Value,
    check_agreement,
    check_support_claim,
    complete_minus_matching,
    complete_network,
    flood_scheme,
    lift,
    make_two_clique_network,
    run,
    two_round_scheme,
)
from mobyz.protocol import ProtocolParams
from mobyz import sim
from mobyz.sim import StepContext, _round_window, _value_choices

from oracles import round_update

ONE = Value.plain(1)
ZERO = Value.plain(0)


def test_scenario_validation():
    with pytest.raises(ValueError, match="complete"):
        Scenario(
            network=make_two_clique_network(4, 4),
            m=1,
            source_value=ONE,
            strategy=NoFaults(),
        )
    with pytest.raises(ValueError, match="n > 6"):
        Scenario(network=complete_network(6), m=1, source_value=ONE, strategy=NoFaults())
    with pytest.raises(ValueError, match="plain"):
        Scenario(network=complete_network(7), m=1, source_value=EMPTY, strategy=NoFaults())


def _lifted_13(m=1, alphabet=2, network=None):
    g = make_two_clique_network(4, 5) if network is None else network
    return lift(two_round_scheme(g, m), ProtocolParams(n=13, m=m, alphabet_size=alphabet))


@pytest.mark.parametrize("mode, network, m, alphabet, lifted, message", [
    ("bare", complete_network(13), 1, 2, lambda: _lifted_13(network=complete_network(13)),
     "bare mode takes no lifted protocol description"),
    ("relay", make_two_clique_network(4, 5), 1, 2, _lifted_13,
     "relay mode takes no lifted protocol description"),
    ("lifted", complete_network(13), 1, 2, _lifted_13,
     "runs on another network than the scenario's"),
    ("lifted", make_two_clique_network(4, 5), 1, 2,
     lambda: lift(two_round_scheme(make_two_clique_network(4, 5), 1), ProtocolParams(n=12, m=1)),
     "the lifted protocol is for n=12, the network has 13"),
    ("lifted", make_two_clique_network(4, 5), 2, 2, _lifted_13,
     "carries m=1 faults a round, the scenario allows m=2"),
    ("lifted", make_two_clique_network(4, 5), 1, 3, _lifted_13,
     "alphabet has 2 symbols, the scenario's 3"),
    ("lifted", make_two_clique_network(4, 5), 1, 2, lambda: _lifted_13(alphabet=3),
     "alphabet has 3 symbols, the scenario's 2"),
], ids=["bare-with-lifted", "relay-with-lifted", "other-network", "other-n", "more-faults",
        "wider-alphabet", "narrower-alphabet"])
def test_lifted_description_must_be_the_scenarios(mode, network, m, alphabet, lifted, message):
    with pytest.raises(ValueError, match=message):
        Scenario(network=network, m=m, source_value=ONE, strategy=NoFaults(), mode=mode,
                 lifted=lifted(), alphabet_size=alphabet)


def test_lifted_description_on_an_equal_network_and_fewer_faults():
    """An equal network built apart passes, and so does a scenario with
    fewer faults than the scheme carries, as a fault-free world has."""
    lifted = _lifted_13()
    for m in (0, 1):
        sc = Scenario(network=make_two_clique_network(4, 5), m=m, source_value=ONE,
                      strategy=NoFaults(), mode="lifted", lifted=lifted)
        assert sc.network is not lifted.scheme.network
        assert check_agreement(run(sc), sc).ok


def test_lifted_rounds_must_match_the_schedule():
    g = make_two_clique_network(4, 5)
    lifted = lift(two_round_scheme(g, 1), ProtocolParams(n=13, m=1))
    with pytest.raises(ValueError, match="52 physical rounds"):
        Scenario(network=g, m=1, source_value=ONE, strategy=NoFaults(),
                 mode="lifted", lifted=lifted, rounds=10)
    sc = Scenario(network=g, m=1, source_value=ONE, strategy=NoFaults(),
                  mode="lifted", lifted=lifted, rounds=52)
    assert len(run(sc).rounds) == 52


def test_source_value_must_lie_in_the_alphabet():
    with pytest.raises(ValueError, match="outside the alphabet 0..1"):
        Scenario(network=complete_network(7), m=1, source_value=Value.plain(5),
                 strategy=NoFaults())
    sc = Scenario(network=complete_network(7), m=1, source_value=Value.plain(2),
                  strategy=NoFaults(), alphabet_size=3)
    assert check_agreement(run(sc), sc).agreed_value == Value.plain(2)


def test_round_count_and_defaults():
    sc = Scenario(network=complete_network(7), m=1, source_value=ONE, strategy=NoFaults())
    assert sc.rounds == 14
    assert len(run(sc).rounds) == 14


@pytest.mark.parametrize("alphabet", range(1, 9))
@pytest.mark.parametrize("kind", ["value", "pair"])
def test_random_draws_are_the_draws_of_rng_choice(alphabet, kind):
    """The table draws consume the seed's stream exactly as `rng.choice`
    does; tables of 3..10 entries cover k = 2, 3 and 4 bits and the exact
    power of two (8 entries, alphabet 6)."""
    sc = Scenario(network=complete_network(7), m=1, source_value=ZERO,
                  strategy=NoFaults(), alphabet_size=alphabet)
    choices = _value_choices(alphabet)
    for seed in (0, 1, 7, 2024):
        ctx = StepContext(sc, 2, {}, Trace(n=7), random.Random(seed), kind, {})
        reference = random.Random(seed)
        for _ in range(300):
            got = ctx.random_payload()
            if kind == "value":
                assert got is reference.choice(choices)
            else:
                high = reference.choice(choices)
                assert got is PairMessage(high, reference.choice(choices))
            assert ctx.random_value() is reference.choice(choices)
        assert ctx.rng.getstate() == reference.getstate()


@pytest.mark.parametrize("alphabet", range(1, 9))
@pytest.mark.parametrize("kind", ["value", "pair"])
def test_random_payloads_are_the_draws_of_rng_choice(alphabet, kind):
    """A batch of k payloads is k `random_payload` draws: the objects of the
    `rng.choice` stream, in order, leaving the same generator state."""
    sc = Scenario(network=complete_network(7), m=1, source_value=ZERO,
                  strategy=NoFaults(), alphabet_size=alphabet)
    choices = _value_choices(alphabet)
    for seed in (0, 1, 7, 2024):
        ctx = StepContext(sc, 2, {}, Trace(n=7), random.Random(seed), kind, {})
        reference = random.Random(seed)
        for k in (0, 1, 2, 7, 50):
            got = ctx.random_payloads(k)
            if kind == "value":
                expected = [reference.choice(choices) for _ in range(k)]
            else:
                expected = [PairMessage(reference.choice(choices), reference.choice(choices))
                            for _ in range(k)]
            assert len(got) == k
            assert all(a is b for a, b in zip(got, expected))
            assert ctx.rng.getstate() == reference.getstate()


@pytest.mark.parametrize("kind, slots", [
    ("value", {1: [2, 3, 4, 5, 6, 7]}),  # the source's round-1 neighbours
    ("pair", {4: [7, 1, 5, 2]}),  # any slot order is kept
    ("pair", {4: []}),
], ids=["value", "pair", "no-slots"])
def test_default_forge_is_the_per_slot_draw(kind, slots):
    """The default `forge` fills its slots from one batch: the objects, the
    slot order and the generator state of one `random_payload` per slot."""
    sc = Scenario(network=complete_network(7), m=1, source_value=ZERO,
                  strategy=NoFaults(), alphabet_size=3)
    (pid,) = slots
    for seed in (0, 5, 99):
        ctx = StepContext(sc, 2, {}, Trace(n=7), random.Random(seed), kind, slots)
        reference = StepContext(sc, 2, {}, Trace(n=7), random.Random(seed), kind, slots)
        forged = Strategy().forge(ctx, pid)
        expected = {q: reference.random_payload() for q in reference.slots(pid)}
        assert list(forged) == list(expected) == slots[pid]
        assert all(forged[q] is expected[q] for q in expected)
        assert ctx.rng.getstate() == reference.rng.getstate()


def test_fault_free_run_decides_from_round_two():
    sc = Scenario(network=complete_network(7), m=1, source_value=ONE, strategy=NoFaults())
    trace = run(sc)
    for rt in trace.rounds[1:]:
        assert all(st.decided == ONE for st in rt.states_after.values())
    verdict = check_agreement(trace, sc)
    assert (verdict.agreement, verdict.validity) == ("pass", "pass")
    assert verdict.first_stable_round == 2
    assert not verdict.guarantee_violations


def test_same_seed_byte_identical_different_seed_not():
    def scenario(seed):
        return Scenario(
            network=complete_network(7),
            m=1,
            source_value=ONE,
            strategy=RandomizedControl(),
            seed=seed,
        )

    assert run(scenario(7)).to_text() == run(scenario(7)).to_text()
    assert run(scenario(7)).to_text() != run(scenario(8)).to_text()


def test_delivery_respects_topology():
    g = make_two_clique_network(3, 2)
    sc = Scenario(network=g, m=1, source_value=ONE, strategy=RandomizedControl(),
                  mode="relay", seed=2)
    trace = run(sc)
    for rt in trace.rounds:
        for (i, j) in rt.sent:
            assert g.adjacent(i, j)
    # bare mode additionally delivers self messages
    sc2 = Scenario(network=complete_network(7), m=1, source_value=ONE,
                   strategy=NoFaults())
    for rt in run(sc2).rounds:
        for (i, j) in rt.sent:
            assert i == j or sc2.network.adjacent(i, j)


def _per_link_sent(delivery) -> dict:
    """Direct delivery's `sent` table as a loop over every slot builds it:
    senders in increasing pid order, each one's receivers in slot order."""
    slots, forged, emitted = delivery.slots, delivery.forged, delivery.emitted
    sent = {}
    for p in sorted(slots):
        for q in slots[p]:
            sent[(p, q)] = forged[p][q] if p in forged else emitted[p]
    return sent


@pytest.mark.parametrize("mode, g, m", [
    ("bare", complete_network(13), 2),
    ("relay", make_two_clique_network(4, 4), 1),
    ("relay", make_two_clique_network(12, 8), 2),
], ids=["bare-complete-13", "relay-two-clique-4-4", "relay-two-clique-12-8"])
@pytest.mark.parametrize("level", ["full", "states"])
def test_direct_sent_table_is_the_per_link_loop(monkeypatch, mode, g, m, level):
    """The `sent` table read from the cached link table has the entries and
    the key order of the per-link loop, in round 1 and in pair rounds, with
    controlled senders forging (the source among them in round 1)."""
    schedule = {r: {r % g.n + 1, (r + 5) % g.n + 1} for r in range(2, 2 * g.n + 1)}
    schedule = {r: set(sorted(pids)[:m]) for r, pids in schedule.items()}
    schedule[1] = {1}
    checked = []
    step = sim._DirectDelivery.step

    def step_and_compare(self, t, controlled, ctx):
        step(self, t, controlled, ctx)
        if self.full or self.r == 1:
            reference = _per_link_sent(self)
            assert self.sent == reference and list(self.sent) == list(reference)
            checked.append((self.r, sorted(self.forged)))

    monkeypatch.setattr(sim._DirectDelivery, "step", step_and_compare)
    run(Scenario(network=g, m=m, source_value=ONE, strategy=ScheduledControl(
        schedule, RandomizedControl()), mode=mode, seed=3, trace_level=level))
    assert checked[0] == (1, [1])
    if level == "full":
        assert len(checked) == 2 * g.n and all(forged for _r, forged in checked)
    else:
        assert len(checked) == 1


def test_honest_states_reproducible_by_replaying_updates():
    sc = Scenario(
        network=complete_network(7),
        m=1,
        source_value=ONE,
        strategy=RandomizedControl(),
        seed=5,
    )
    trace = run(sc)
    honest = [p for p in range(1, 8) if p not in trace.ever_controlled()]
    assert honest, "seed must leave someone never controlled"
    for p in honest:
        state = trace.rounds[0].states_after[p]
        for rt in trace.rounds[1:]:
            received = [rt.sent[(i, p)] for i in range(1, 8)]
            state = round_update(p, state, received, rt.round, sc.params)
            assert state == rt.states_after[p]


def test_strategy_violation_aborts_run():
    class Greedy(Strategy):
        def controlled(self, ctx):
            return frozenset({2, 3})

    sc = Scenario(network=complete_network(7), m=1, source_value=ONE, strategy=Greedy())
    with pytest.raises(StrategyViolation, match="2 controlled > m=1"):
        run(sc)


@pytest.mark.parametrize("mode", ["bare", "lifted"])
@pytest.mark.parametrize("pid", [1.5, True])
def test_non_integer_controlled_id_aborts_run(mode, pid):
    class NotAnInt(Strategy):
        def controlled(self, ctx):
            return frozenset({pid})

    g = complete_network(7) if mode == "bare" else complete_minus_matching(7, 1)
    lifted = lift(two_round_scheme(g, 1), ProtocolParams(n=7, m=1)) if mode == "lifted" else None
    for level in ("states", "full"):
        sc = Scenario(network=g, m=1, source_value=ONE, strategy=NotAnInt(), mode=mode,
                      lifted=lifted, trace_level=level)
        with pytest.raises(StrategyViolation, match=f"round 1: bad processor id {pid}"):
            run(sc)


def test_negative_fault_bound_rejected_in_every_mode():
    g = complete_minus_matching(7, 1)
    lifted = lift(two_round_scheme(g, 1), ProtocolParams(n=7, m=1))
    for mode in ("bare", "lifted", "relay"):
        with pytest.raises(ValueError, match="non-negative"):
            Scenario(network=g if mode != "bare" else complete_network(7), m=-1,
                     source_value=ONE, strategy=RandomizedControl(), mode=mode,
                     lifted=lifted if mode == "lifted" else None)


@pytest.mark.parametrize("rounds", [0, -3])
def test_fewer_than_one_round_rejected_in_every_mode(rounds):
    g = complete_minus_matching(7, 1)
    lifted = lift(two_round_scheme(g, 1), ProtocolParams(n=7, m=1))
    for mode in ("bare", "lifted", "relay"):
        with pytest.raises(ValueError, match=f"rounds must be at least 1, got {rounds}"):
            Scenario(network=g if mode != "bare" else complete_network(7), m=1,
                     source_value=ONE, strategy=RandomizedControl(), mode=mode,
                     lifted=lifted if mode == "lifted" else None, rounds=rounds)


def test_a_run_of_one_round_is_checked():
    sc = Scenario(network=complete_network(7), m=1, source_value=ONE,
                  strategy=NoFaults(), rounds=1)
    verdict = check_agreement(run(sc), sc)
    assert (verdict.agreement, verdict.agreed_value, verdict.first_stable_round) == (
        "pass", None, None)


def test_all_processors_hit_makes_agreement_vacuous():
    class Sweep(Strategy):
        def controlled(self, ctx):
            return frozenset({(ctx.round - 1) % ctx.scenario.n + 1})

    sc = Scenario(network=complete_network(7), m=1, source_value=ONE, strategy=Sweep())
    verdict = check_agreement(run(sc), sc)
    assert verdict.agreement == "vacuous"
    assert verdict.validity == "vacuous"


def test_verdict_records_stability_start_for_late_recovery():
    class HitSourceEarly(Strategy):
        """Controls the source for round 1 and then processor 2 forever, so
        the first qualifying anchor is processor 3 (rounds 4 and 5)."""

        def controlled(self, ctx):
            return frozenset({1}) if ctx.round == 1 else frozenset({2})

    sc = Scenario(network=complete_network(7), m=1, source_value=ONE,
                  strategy=HitSourceEarly())
    verdict = check_agreement(run(sc), sc)
    assert verdict.first_stable_round == 6
    assert not verdict.guarantee_violations
    assert verdict.validity == "vacuous"  # source was faulty in round 1


def test_support_claim_clean_on_random_runs():
    for seed in range(30):
        sc = Scenario(
            network=complete_network(7),
            m=1,
            source_value=ONE,
            strategy=RandomizedControl(),
            seed=seed,
        )
        assert check_support_claim(run(sc), sc) == []


def test_support_claim_rejects_relay_runs():
    sc = Scenario(network=make_two_clique_network(4, 4), m=1, source_value=ONE,
                  strategy=RandomizedControl(), mode="relay")
    with pytest.raises(ValueError, match="not relay mode"):
        check_support_claim(run(sc), sc)


def test_lifted_run_counts_and_verdict():
    g = complete_minus_matching(13, 6)
    lifted = lift(two_round_scheme(g, 1), ProtocolParams(n=13, m=1))
    sc = Scenario(
        network=g,
        m=1,
        source_value=ONE,
        strategy=NoFaults(),
        mode="lifted",
        lifted=lifted,
    )
    trace = run(sc)
    assert len(trace.rounds) == 2 * 13 * 2
    verdict = check_agreement(trace, sc)
    assert (verdict.agreement, verdict.validity) == ("pass", "pass")
    assert verdict.first_stable_round == 2
    assert not verdict.guarantee_violations


def test_lifted_hop_messages_follow_edges():
    g = complete_minus_matching(7, 1)
    lifted = lift(two_round_scheme(g, 1), ProtocolParams(n=7, m=1))
    sc = Scenario(network=g, m=1, source_value=ONE, strategy=RandomizedControl(),
                  mode="lifted", lifted=lifted, seed=4)
    trace = run(sc)
    for rt in trace.rounds:
        for (i, j) in rt.sent:
            assert g.adjacent(i, j), (i, j)


def test_relay_diffusion_reaches_everyone():
    g = make_two_clique_network(4, 4)
    sc = Scenario(network=g, m=0, source_value=ONE, strategy=NoFaults(), mode="relay")
    trace = run(sc)
    assert all(st.decided == ONE for st in trace.final_states().values())


class _ControlsPivotTwo(Strategy):
    def controlled(self, ctx):
        return frozenset({1}) if ctx.round == 1 else frozenset({2})


def test_round_one_forgery_must_be_a_value():
    class PairToEveryone(_ControlsPivotTwo):
        def forge(self, ctx, pid):
            return {q: PairMessage(ONE, ONE) for q in ctx.slots(pid)}

    sc = Scenario(network=complete_network(7), m=1, source_value=ONE,
                  strategy=PairToEveryone())
    with pytest.raises(StrategyViolation, match=r"round 1: 1 forged .* for slot 1, not a Value"):
        run(sc)


@pytest.mark.parametrize("forged, message", [
    ({}, r"round 1: strategy left slots \[1, 2, 3, 4, 5, 6, 7\] of 1 unfilled"),
    ({q: ONE for q in (1, 2, 3, 5, 6, 7)}, r"round 1: strategy left slots \[4\] of 1 unfilled"),
    ({q: None if q == 5 else ONE for q in range(1, 8)},
     r"round 1: 1 forged None for slot 5, not a Value"),
], ids=["no-slot", "one-slot", "none-in-a-slot"])
def test_every_forged_slot_must_be_filled(forged, message):
    class Forges(_ControlsPivotTwo):
        def forge(self, ctx, pid):
            return dict(forged)

    sc = Scenario(network=complete_network(7), m=1, source_value=ONE, strategy=Forges())
    with pytest.raises(StrategyViolation, match=message):
        run(sc)


def test_later_forgery_must_be_a_pair():
    class ValueFromRoundThree(_ControlsPivotTwo):
        def forge(self, ctx, pid):
            if ctx.round < 3:
                return super().forge(ctx, pid)
            return {q: (ONE if q == 3 else PairMessage(ONE, ONE)) for q in ctx.slots(pid)}

    for mode, network in (("bare", complete_network(7)),
                          ("relay", make_two_clique_network(3, 2))):
        sc = Scenario(network=network, m=1, source_value=ONE,
                      strategy=ValueFromRoundThree(), mode=mode)
        with pytest.raises(StrategyViolation,
                           match=r"round 3: 2 forged .* for slot 3, not a PairMessage"):
            run(sc)


def test_planted_state_must_be_a_processor_state():
    class PlantsAPair(_ControlsPivotTwo):
        def rewrite(self, ctx, pid):
            return PairMessage(ONE, ONE)

    bare = Scenario(network=complete_network(7), m=1, source_value=ONE,
                    strategy=PlantsAPair())
    with pytest.raises(StrategyViolation, match="round 1: rewrite of 1 .* not a ProcessorState"):
        run(bare)
    g = complete_minus_matching(7, 1)
    lifted = Scenario(network=g, m=1, source_value=ONE, strategy=PlantsAPair(),
                      mode="lifted", lifted=lift(two_round_scheme(g, 1), ProtocolParams(n=7, m=1)))
    with pytest.raises(StrategyViolation, match="round 1: rewrite of 1 .* not a ProcessorState"):
        run(lifted)


@pytest.mark.parametrize("level", ["states", "full"])
def test_corrupted_copy_must_be_a_value_or_pair(level):
    class CorruptsToAnInt(Strategy):
        def controlled(self, ctx):
            return frozenset({3}) if ctx.round == 1 else frozenset()

        def corrupt_value(self, ctx, pid):
            return 7

    g = complete_minus_matching(13, 6)
    sc = Scenario(network=g, m=1, source_value=ONE, strategy=CorruptsToAnInt(),
                  mode="lifted", lifted=lift(two_round_scheme(g, 1), ProtocolParams(n=13, m=1)),
                  trace_level=level)
    with pytest.raises(StrategyViolation,
                       match="round 1: corrupt_value for 3 returned 7, not a Value or PairMessage"):
        run(sc)


def test_trace_level_must_be_full_or_states():
    with pytest.raises(ValueError, match="unknown trace level 'ful': use 'full' or 'states'"):
        Scenario(network=complete_network(7), m=1, source_value=ONE,
                 strategy=RandomizedControl(), trace_level="ful")


class _CorruptsWrongKind(Strategy):
    """Controls processor 3 in one physical round and corrupts every copy it
    touches with a payload of the other kind."""

    def __init__(self, round_no, payload):
        self.round_no, self.payload = round_no, payload

    def controlled(self, ctx):
        return frozenset({3}) if ctx.round == self.round_no else frozenset()

    def corrupt_value(self, ctx, pid):
        return self.payload


@pytest.mark.parametrize("level", ["states", "full"])
@pytest.mark.parametrize("round_no, payload, expected", [
    (1, PairMessage(ONE, ONE), "Value"),  # logical round 1 carries values
    (3, ONE, "PairMessage"),  # logical round 2 carries pairs
], ids=["pair-in-round-1", "value-in-a-pair-round"])
def test_corrupted_copy_must_have_the_round_kind(level, round_no, payload, expected):
    g = complete_minus_matching(13, 6)
    sc = Scenario(network=g, m=1, source_value=ONE,
                  strategy=_CorruptsWrongKind(round_no, payload), mode="lifted",
                  lifted=lift(two_round_scheme(g, 1), ProtocolParams(n=13, m=1)),
                  trace_level=level)
    with pytest.raises(StrategyViolation, match=re.escape(
            f"round {round_no}: corrupt_value for 3 returned {payload!r}, "
            f"not a {expected}") + "$"):
        run(sc)


class _MisCountsLies(Strategy):
    """Controls processor 3 in one physical round; its batches of lies are
    one payload short, or not a list at all."""

    def __init__(self, round_no, short=True):
        self.round_no, self.short = round_no, short

    def controlled(self, ctx):
        return frozenset({3}) if ctx.round == self.round_no else frozenset()

    def corrupt_values(self, ctx, pid, k):
        return ctx.random_payloads(k - 1) if self.short else None


@pytest.mark.parametrize("level", ["states", "full"])
@pytest.mark.parametrize("round_no", [1, 3])
def test_corrupted_batch_must_have_one_lie_per_copy(level, round_no):
    g = complete_minus_matching(13, 6)
    lifted = lift(two_round_scheme(g, 1), ProtocolParams(n=13, m=1))
    sc = Scenario(network=g, m=1, source_value=ONE, strategy=_MisCountsLies(round_no),
                  mode="lifted", lifted=lifted, trace_level=level)
    with pytest.raises(StrategyViolation) as raised:
        run(sc)
    got, k = map(int, re.fullmatch(
        rf"round {round_no}: corrupt_values for 3 returned (\d+) payloads, not a list of (\d+)",
        str(raised.value)).groups())
    assert got == k - 1
    sc.strategy = _MisCountsLies(round_no, short=False)
    with pytest.raises(StrategyViolation,
                       match=rf"^round {round_no}: corrupt_values for 3 returned None, "
                             rf"not a list of \d+$"):
        run(sc)


def _lifted_cmm_13(strategy, seed, level="states"):
    g = complete_minus_matching(13, 6)
    return Scenario(network=g, m=1, source_value=ONE, strategy=strategy, mode="lifted",
                    lifted=lift(two_round_scheme(g, 1), ProtocolParams(n=13, m=1)),
                    seed=seed, trace_level=level)


def test_lifted_guarantee_window_matches_the_bare_one():
    bare = Scenario(network=complete_network(7), m=1, source_value=ONE,
                    strategy=NoFaults())
    for R in range(2, 8):
        assert _round_window(bare, R) == [2 * R - 2, 2 * R - 1]
    assert _round_window(bare, 1) == [1]
    two_round = _lifted_cmm_13(NoFaults(), 0)  # T=2, K=1
    assert _round_window(two_round, 1) == [1]
    assert _round_window(two_round, 2) == [3, 4, 5]
    assert _round_window(two_round, 3) == [7, 8, 9]
    g = make_two_clique_network(5, 9)
    flood = Scenario(network=g, m=1, source_value=ONE, strategy=NoFaults(), mode="lifted",
                     lifted=lift(flood_scheme(g, 1, 9), ProtocolParams(n=g.n, m=1)))
    assert (flood.T, flood.K) == (3, 2)
    assert _round_window(flood, 1) == [1, 2]
    # sends of logical round 2, receipt of round 2, sends of round 3
    assert _round_window(flood, 2) == [4, 5, 6, 7, 8]


@pytest.mark.parametrize("level", ["states", "full"])
def test_lifted_guarantee_holds_when_the_pivot_lies_in_its_first_round(level):
    # Pivot 2 is controlled in physical round 3, when it sends its pair of
    # logical round 2, so processor 2 does not anchor the guarantee; before
    # the window covered that round this run failed "round 4: decisions
    # ['0', 'None', 'empty']".
    sc = _lifted_cmm_13(RandomizedControl(), 384681428, level)
    trace = run(sc)
    assert 2 in trace.controlled_in(3)
    verdict = check_agreement(trace, sc)
    assert verdict.ok, verdict.guarantee_violations
    assert verdict.first_stable_round == 6


class _SourceThenPivotTwo(RandomizedControl):
    """Controls the source in round 1 and pivot 2 in physical round 3 (its
    sending round of logical round 2); random control otherwise."""

    def controlled(self, ctx):
        if ctx.round == 1:
            return frozenset({1})
        if ctx.round == 3:
            return frozenset({2})
        return super().controlled(ctx)


def test_lifted_guarantee_under_pivot_targeted_control():
    violations = []
    for seed in range(200):
        sc = _lifted_cmm_13(_SourceThenPivotTwo(), seed)
        trace = run(sc)
        verdict = check_agreement(trace, sc)
        assert verdict.first_stable_round is None or verdict.first_stable_round >= 6
        violations += [(seed, v) for v in verdict.guarantee_violations]
        violations += [(seed, v) for v in check_support_claim(trace, sc)]
    assert violations == []
