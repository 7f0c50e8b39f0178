"""The lifted back-end against the marching reference, and states-level runs
against full-trace runs of the same scenario.

Lifted rounds run over `comms.SparseTransfers` at both trace levels: it
visits only the copies a controlled processor holds or receives, and a full
trace renders the hops and buffers from its copy index. The reference,
`oracles.TransferRuns`, marches every copy through `comms.TransferRun`; put
in the engine's place, it must give a byte-identical full trace, count the
same decode fallbacks and make the same adversary calls. The engine draws
a controlled processor's lies in batches and the reference one copy at a
time, so random lies test that the batches keep the draw order, and a
strategy that defines only `corrupt_value` must be called once per copy in
the reference's order. Bare and relay rounds build the per-link `sent`
table only for full traces. The same scenario at both levels must control
the same processors, reach the same states, count the same decode
fallbacks and make the same `forge`, `rewrite` and `corrupt_value` calls in
the same order. Every decode of the back-end, which skips the transfers
that cannot decode otherwise, must equal decoding every ordered pair in the
same state, under random schedules and under pinned ones that reach each
of its paths.
"""

import dataclasses
import functools
import itertools

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from mobyz import (
    SOURCE,
    PairMessage,
    RandomizedControl,
    Scenario,
    ScheduledControl,
    Strategy,
    Value,
    complete_minus_matching,
    complete_network,
    flood_scheme,
    lift,
    make_two_clique_network,
    run,
    two_round_scheme,
)
from mobyz import sim
from mobyz.protocol import ProtocolParams
from oracles import TransferRuns, decode_every_pair

ONE = Value.plain(1)

# A failing example is reported as drawn, not shrunk: each one runs full
# lifted traces, and shrinking them took minutes and hundreds of MB.
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


def _lifted(g, m, make_scheme):
    return Scenario(
        network=g,
        m=m,
        source_value=ONE,
        strategy=None,
        mode="lifted",
        lifted=lift(make_scheme(g, m), ProtocolParams(n=g.n, m=m)),
    )


CASES = {
    "two-round-cmm-13-6-m1": lambda: _lifted(complete_minus_matching(13, 6), 1, two_round_scheme),
    "two-round-complete-13-m2": lambda: _lifted(complete_network(13), 2, two_round_scheme),
    # T=3, K=2; the cliques' members are adjacent, so a round-2 direct copy
    # joins the disjoint-path copies injected in rounds 1 and 2
    "flood-two-clique-5-9-m1": lambda: _lifted(
        make_two_clique_network(5, 9), 1, lambda g, m: flood_scheme(g, m, 9)
    ),
    "bare-complete-13-m2": lambda: Scenario(
        network=complete_network(13), m=2, source_value=ONE, strategy=None
    ),
    "relay-two-clique-4-4-m1": lambda: Scenario(
        network=make_two_clique_network(4, 4), m=1, source_value=ONE, strategy=None,
        mode="relay",
    ),
}
LIFTED = ["flood-two-clique-5-9-m1", "two-round-cmm-13-6-m1", "two-round-complete-13-m2"]
# T = 4, K = 3 (n = 25): a sender injects 9 of a non-adjacent pair's 27
# copies in each of rounds 1-3, and its receiver holds the 9 of round 1 after
# round 2. So the sender in two rounds, or the receiver in round 2 and the
# sender in round 3, override more than half, and each alone fewer. On the
# LIFTED shapes no two footprints together reach half. Only the decode tests
# run it: its full traces are slow.
FOUR_ROUNDS = "flood-two-clique-8-9-m1"
DECODE_ONLY = {
    FOUR_ROUNDS: lambda: _lifted(
        make_two_clique_network(8, 9), 1, lambda g, m: flood_scheme(g, m, 9)
    ),
}


@functools.cache
def _base(case) -> Scenario:
    """One scenario per case; lifted runs share its scheme, so plans and the
    copy index are built once."""
    return (CASES.get(case) or DECODE_ONLY[case])()


class Logged(Strategy):
    """Delegates everything and logs each forge, rewrite and corrupt_value
    call as (hook, round, pid)."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def controlled(self, ctx):
        return self.inner.controlled(ctx)

    def forge(self, ctx, pid):
        self.calls.append(("forge", ctx.round, pid))
        return self.inner.forge(ctx, pid)

    def rewrite(self, ctx, pid):
        self.calls.append(("rewrite", ctx.round, pid))
        return self.inner.rewrite(ctx, pid)

    def corrupt_value(self, ctx, pid):
        self.calls.append(("corrupt_value", ctx.round, pid))
        return self.inner.corrupt_value(ctx, pid)


class CountedLies(RandomizedControl):
    """Random control whose class defines `corrupt_value` and no batch:
    each lie depends on the pid and on how many lies came before, and each
    call is logged as ("corrupt_value", round, pid)."""

    def __init__(self):
        self.calls = []

    def corrupt_value(self, ctx, pid):
        count = len(self.calls)
        self.calls.append(("corrupt_value", ctx.round, pid))
        choices = sim._value_choices(ctx.scenario.alphabet_size)
        high = choices[(pid + count) % len(choices)]
        if ctx.payload_kind == "value":
            return high
        return PairMessage(high, choices[(pid * count) % len(choices)])


def scheduled_counted_lies(schedule):
    """`ScheduledControl` passing its batches to `CountedLies`."""
    inner = CountedLies()
    strategy = ScheduledControl(schedule, inner)
    strategy.calls = inner.calls
    return strategy


def assert_levels_agree(case, make_inner, seed, wrap=Logged):
    """`wrap` gives the strategy with its call log, `calls`."""
    runs = {}
    for level in ("states", "full"):
        strategy = wrap(make_inner())
        scenario = dataclasses.replace(
            _base(case), strategy=strategy, seed=seed, trace_level=level
        )
        runs[level] = (run(scenario), strategy.calls)
    (states, states_calls), (full, full_calls) = runs["states"], runs["full"]
    assert [rt.controlled for rt in states.rounds] == [rt.controlled for rt in full.rounds]
    assert [rt.states_after for rt in states.rounds] == [
        {p: dataclasses.replace(st, buffers=()) for p, st in rt.states_after.items()}
        for rt in full.rounds
    ]
    assert states.decode_fallbacks == full.decode_fallbacks
    assert states_calls == full_calls
    assert full_calls  # the adversary did act


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=4, deadline=None, phases=NO_SHRINK)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_control_matches_reference(case, seed):
    assert_levels_agree(case, RandomizedControl, seed)


@st.composite
def schedules(draw, case):
    """Sparse random control plus three placements: the source in logical
    round 1, a receiver in the last round T of a logical round, and a sender
    in the first round of a pair round, whose later injections (when T > 1)
    are honest copies of its rewritten emission."""
    base = _base(case)
    n, m, T = base.n, base.m, base.T
    logical = base.rounds // T
    pids = st.integers(1, n)
    schedule = draw(
        st.dictionaries(
            st.integers(1, logical * T), st.frozensets(pids, max_size=m), max_size=6
        )
    )
    schedule[draw(st.integers(1, T))] = frozenset({SOURCE})
    schedule[draw(st.integers(1, logical)) * T] = frozenset({draw(pids)})
    schedule[(draw(st.integers(2, logical)) - 1) * T + 1] = frozenset({draw(pids)})
    return schedule


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=4, deadline=None, phases=NO_SHRINK)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_scheduled_control_matches_reference(case, data, seed):
    schedule = data.draw(schedules(case))
    assert_levels_agree(case, lambda: ScheduledControl(schedule, Strategy()), seed)


def first_difference(text, oracle_text):
    """The first line (physical round) at which two traces differ, or None;
    a bare `==` would have pytest diff megabytes of text on failure."""
    lines = itertools.zip_longest(text.splitlines(), oracle_text.splitlines())
    return next((rho for rho, (a, b) in enumerate(lines, start=1) if a != b), None)


def oracle_runs(case, make_strategy, seed) -> list:
    """A full trace through the engine's back-end, then with the reference
    in its place: (text, fallbacks, strategy) of each."""
    runs = []
    for backend in (sim.SparseTransfers, TransferRuns):
        strategy = make_strategy()
        scenario = dataclasses.replace(_base(case), strategy=strategy, seed=seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "SparseTransfers", backend)
            trace = run(scenario)
        runs.append((trace.to_text(), trace.decode_fallbacks, strategy))
    return runs


def assert_matches_oracle(case, make_inner, seed, wrap=Logged):
    """The same text, fallbacks and adversary calls with either back-end."""
    (text, fallbacks, strategy), (oracle_text, oracle_fallbacks, oracle_strategy) = (
        oracle_runs(case, lambda: wrap(make_inner()), seed)
    )
    assert first_difference(text, oracle_text) is None
    assert fallbacks == oracle_fallbacks
    assert strategy.calls == oracle_strategy.calls
    assert strategy.calls  # the adversary did act


@pytest.mark.parametrize("case", LIFTED)
@settings(max_examples=2, deadline=None, phases=NO_SHRINK)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_control_matches_oracle(case, seed):
    assert_matches_oracle(case, RandomizedControl, seed)


@pytest.mark.parametrize("case", LIFTED)
@settings(max_examples=2, deadline=None, phases=NO_SHRINK)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_scheduled_control_matches_oracle(case, data, seed):
    schedule = data.draw(schedules(case))
    assert_matches_oracle(case, lambda: ScheduledControl(schedule, Strategy()), seed)


def _unwrapped(strategy):
    return strategy


@pytest.mark.parametrize("case", LIFTED)
@settings(max_examples=2, deadline=None, phases=NO_SHRINK)
@given(seed=st.integers(0, 2**32 - 1))
def test_batched_random_lies_match_the_oracle(case, seed):
    """Unlogged random control draws each controlled processor's lies in
    batches, the reference one copy at a time: the same trace."""
    (text, fallbacks, _), (oracle_text, oracle_fallbacks, _) = (
        oracle_runs(case, RandomizedControl, seed)
    )
    assert first_difference(text, oracle_text) is None
    assert fallbacks == oracle_fallbacks


@pytest.mark.parametrize("case", LIFTED)
@settings(max_examples=1, deadline=None, phases=NO_SHRINK)
@given(seed=st.integers(0, 2**32 - 1))
def test_per_copy_lies_match_the_oracle(case, seed):
    """A strategy whose class defines only `corrupt_value` is called once
    per copy, in the reference's order: the same calls at both levels and
    with the reference, and, as each lie depends on the calls before it,
    the same trace."""
    assert_levels_agree(case, CountedLies, seed, wrap=_unwrapped)
    assert_matches_oracle(case, CountedLies, seed, wrap=_unwrapped)


@pytest.mark.parametrize("case", LIFTED)
@settings(max_examples=1, deadline=None, phases=NO_SHRINK)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_scheduled_per_copy_lies_match_the_oracle(case, data, seed):
    schedule = data.draw(schedules(case))
    assert_levels_agree(case, lambda: schedule, seed, wrap=scheduled_counted_lies)
    assert_matches_oracle(case, lambda: schedule, seed, wrap=scheduled_counted_lies)


# --- the decode's pending set against decoding every ordered pair ------------


class CheckedTransfers(sim.SparseTransfers):
    """The engine's back-end, each decode checked against
    `oracles.decode_every_pair` in the same state; `log` keeps, per decode,
    its transfers touched in a round with several controlled processors."""

    log: list = []

    def decode(self, honest):
        got = super().decode(honest)
        assert got == decode_every_pair(self, honest)
        CheckedTransfers.log.append(set(self.dirty))
        return got


def checked_run(scenario) -> list:
    """Run `scenario` at states level with every lifted decode checked;
    return the log of the checked decodes."""
    CheckedTransfers.log = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim, "SparseTransfers", CheckedTransfers)
        run(dataclasses.replace(scenario, trace_level="states"))
    assert CheckedTransfers.log
    return CheckedTransfers.log


class KeptState(Strategy):
    """Random lies; a rewrite leaves the state as it was, so a controlled
    sender keeps its payload through the logical round and its transfers
    decode by the same rule as an untouched sender's."""

    def rewrite(self, ctx, pid):
        return ctx.states[pid]


@pytest.mark.parametrize("case", LIFTED)
@pytest.mark.parametrize("inner", [Strategy, KeptState], ids=["rewritten", "kept"])
@settings(max_examples=3, deadline=None, phases=NO_SHRINK)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_decode_matches_decoding_every_pair(case, inner, data, seed):
    """Seeded random schedules (m = 1 on the flood and cmm cases, m = 2 on
    complete 13): the exceptions into the honest receivers and the
    fallbacks into every receiver are those of decoding every pair."""
    schedule = data.draw(schedules(case))
    checked_run(dataclasses.replace(
        _base(case), strategy=ScheduledControl(schedule, inner()), seed=seed
    ))


@pytest.mark.parametrize("case", LIFTED)
@pytest.mark.parametrize("seed", [0, 1])
def test_decode_under_random_control_matches_decoding_every_pair(case, seed):
    checked_run(dataclasses.replace(_base(case), strategy=RandomizedControl(), seed=seed))



def _physical(case, lr, t) -> int:
    """Physical round t of logical round lr."""
    return (lr - 1) * _base(case).T + t


def _light_in_round_one(case, pid, rounds) -> bool:
    """Whether pid controlled alone in `rounds` of logical round 1 overrides
    fewer than half of some transfer's arrived copies: its footprint over
    the source's copy index has a light transfer."""
    return bool(_base(case).lifted.scheme.copy_index((SOURCE,)).footprint(pid, rounds)[1])


def _light_alone_heavy_together(case, transfer, *controls) -> bool:
    """Whether `transfer` is light in the footprint of each (pid, rounds)
    of `controls`, and they override at least half of its arrived copies
    together."""
    index = _base(case).lifted.scheme.copy_index()
    touched = set()
    for pid, rounds in controls:
        if transfer not in index.footprint(pid, rounds)[1]:
            return False
        for t in rounds:
            touched.update(index.visits.get((t, pid), ((), ()))[0], index.stored[(pid, t)])
    arrived = index.ids[transfer]
    return 2 * len(touched.intersection(arrived)) >= len(arrived)


PINNED = {
    # one processor in consecutive physical rounds of a pair round
    "consecutive": (
        FOUR_ROUNDS, {_physical(FOUR_ROUNDS, 2, 1): {1}, _physical(FOUR_ROUNDS, 2, 2): {1}},
        lambda: _light_alone_heavy_together(FOUR_ROUNDS, (1, 9), (1, (1,)), (1, (2,))),
    ),
    # the receiver and the sender of one transfer in different rounds
    "two-footprints": (
        FOUR_ROUNDS, {_physical(FOUR_ROUNDS, 2, 2): {1}, _physical(FOUR_ROUNDS, 2, 3): {9}},
        lambda: _light_alone_heavy_together(FOUR_ROUNDS, (9, 1), (1, (2,)), (9, (3,))),
    ),
    # a receiver controlled in round T: its pairs are read by nobody
    "receiver-in-round-T": (
        "two-round-cmm-13-6-m1", {_physical("two-round-cmm-13-6-m1", 3, 2): {5}}, None,
    ),
    "flood-receiver-in-round-T": (FOUR_ROUNDS, {_physical(FOUR_ROUNDS, 2, 4): {9}}, None),
    # m = 2: two processors in one round take the events path
    "events": (
        "two-round-complete-13-m2",
        {_physical("two-round-complete-13-m2", 2, 1): {2, 3},
         _physical("two-round-complete-13-m2", 2, 2): {4}},
        None,
    ),
    # logical round 1, whose one sender is the source
    "round-one-source": ("flood-two-clique-5-9-m1", {1: {SOURCE}, 2: {SOURCE}}, None),
    "round-one-relay": (
        "two-round-cmm-13-6-m1", {1: {4}},
        lambda: _light_in_round_one("two-round-cmm-13-6-m1", 4, (1,)),
    ),
    "round-one-receiver-in-round-T": (
        "flood-two-clique-5-9-m1", {3: {12}},
        lambda: _light_in_round_one("flood-two-clique-5-9-m1", 12, (3,)),
    ),
    "round-one-events": ("two-round-complete-13-m2", {1: {SOURCE, 3}, 2: {4}}, None),
}


@pytest.mark.parametrize("name", sorted(PINNED))
@pytest.mark.parametrize("seed", [0, 1])
def test_pinned_schedules_match_decoding_every_pair(name, seed):
    case, schedule, forced = PINNED[name]
    if forced is not None:
        assert forced()  # the schedule reaches the path it is named for
    log = checked_run(dataclasses.replace(
        _base(case), strategy=ScheduledControl(schedule, KeptState()), seed=seed
    ))
    # only a round with several controlled processors escapes the footprints
    assert any(log) == any(len(pids) > 1 for pids in schedule.values())


@pytest.mark.parametrize("name", sorted(name for name in PINNED if name.startswith("round-one")))
def test_pinned_round_one_schedules_match_the_oracle(name):
    case, schedule, _forced = PINNED[name]
    assert_matches_oracle(case, lambda: ScheduledControl(schedule, KeptState()), seed=0)
