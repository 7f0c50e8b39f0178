"""The trace writer against the reference: `Trace.to_text` and `View.to_text`
emit each line directly, and must write the bytes of `oracles.record_text`
and `oracles.view_record_text`, which build each record as dicts and lists
and render it with `json.dumps(sort_keys=True)`."""

import dataclasses
import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobyz import (
    EMPTY,
    MANY,
    PairMessage,
    ProcessorState,
    RandomizedControl,
    RoundTrace,
    Scenario,
    Trace,
    Value,
    View,
    complete_minus_matching,
    complete_network,
    flood_scheme,
    lift,
    make_two_clique_network,
    run,
    two_round_scheme,
    view_of,
)
from mobyz.core import _Writer
from mobyz.protocol import ProtocolParams
from oracles import record_text, view_record_text

ZERO, ONE = Value.plain(0), Value.plain(1)


def _scenario(g, m, mode, alphabet, scheme=None):
    lifted = None
    if scheme is not None:
        lifted = lift(scheme, ProtocolParams(n=g.n, m=m, alphabet_size=alphabet))
    return Scenario(
        network=g,
        m=m,
        source_value=ONE if alphabet > 1 else ZERO,
        strategy=RandomizedControl(),
        mode=mode,
        lifted=lifted,
        alphabet_size=alphabet,
    )


MODES = {
    "bare": lambda a: _scenario(complete_network(13), 2, "bare", a),
    "relay": lambda a: _scenario(make_two_clique_network(4, 4), 1, "relay", a),
    "lifted-two-round": lambda a: _scenario(
        complete_minus_matching(13, 6), 1, "lifted", a,
        two_round_scheme(complete_minus_matching(13, 6), 1)),
    "lifted-flood": lambda a: _scenario(
        make_two_clique_network(5, 9), 1, "lifted", a,
        flood_scheme(make_two_clique_network(5, 9), 1, 9)),
}


@functools.cache
def _base(mode, alphabet) -> Scenario:
    """One scenario per mode and alphabet, so lifted runs share a scheme
    and build its plans and copy index once."""
    return MODES[mode](alphabet)


def assert_writes_reference(trace, observers):
    assert trace.to_text() == record_text(trace)
    for p in observers:
        view = view_of(trace, p)
        assert view.to_text() == view_record_text(view)
        for rt, (received, _state) in zip(trace.rounds, view.per_round):
            assert received == {i: x for (i, j), x in rt.sent.items() if j == p}


@pytest.mark.parametrize("mode", sorted(MODES))
@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    alphabet=st.integers(1, 6),
    level=st.sampled_from(["states", "full"]),
)
def test_runs_are_written_as_the_reference_writes_them(mode, seed, alphabet, level):
    scenario = dataclasses.replace(_base(mode, alphabet), seed=seed, trace_level=level)
    trace = run(scenario)
    assert_writes_reference(trace, (1, 2, scenario.n))


def _hand_built() -> Trace:
    """Eleven processors, so string key order ("10" < "2") is not integer
    order: an empty control set, unset and set decisions, buffers with both
    taint flags, direct payloads and lifted hop lists."""
    pair = PairMessage(ONE, MANY)
    buffered = ProcessorState(
        high=ONE,
        medium=MANY,
        high_set=frozenset([ONE]),
        medium_set=frozenset([ONE, ZERO, Value.plain(10), Value.plain(2)]),
        decided=ONE,
        buffers=(("10->2", 0, 1, "1,many", False), ("2->10", 3, 2, "empty,0", True)),
    )
    states = {p: ProcessorState() for p in range(1, 12)}
    states[10] = buffered
    hops = [("11->3", 2, pair), ("1->3", 0, EMPTY)]
    return Trace(n=11, rounds=[
        RoundTrace(1, frozenset(), {(1, 10): ONE, (1, 2): ZERO, (1, 11): MANY}, states),
        RoundTrace(2, frozenset({11, 2, 10}), {
            (10, 2): pair, (2, 10): PairMessage(EMPTY, ZERO), (11, 3): pair,
            (3, 11): PairMessage(MANY, MANY),
        }, {**states, 11: dataclasses.replace(buffered, decided=None)}),
        RoundTrace(3, frozenset({1}), {(11, 10): hops, (10, 11): [], (1, 10): hops[1:]},
                   dict(reversed(states.items()))),
    ])


def test_hand_built_rounds_are_written_as_the_reference_writes_them():
    trace = _hand_built()
    assert_writes_reference(trace, range(1, 12))
    line = trace.to_text().splitlines()[1]
    assert line.startswith('{"controlled":[2,10,11],"round":2,"sent":{"10->2":')
    assert '"states":{"1":' in line and line.index('"10":') < line.index('"2":')


def test_empty_trace_and_view():
    assert Trace(n=3).to_text() == record_text(Trace(n=3)) == ""
    view = View(owner=1, per_round=[])
    assert view.to_text() == view_record_text(view) == "\n"


values = st.sampled_from([EMPTY, MANY] + [Value.plain(s) for s in (0, 1, 2, 5, 10, 12)])
buffer_records = st.tuples(
    st.builds("{}->{}".format, st.integers(1, 12), st.integers(1, 12)),
    st.integers(0, 9),
    st.integers(1, 4),
    st.builds(str, values) | st.builds(str, st.builds(PairMessage, values, values)),
    st.booleans(),
)


@settings(max_examples=200, deadline=None)
@given(
    high=values,
    medium=values,
    high_set=st.frozensets(values),
    medium_set=st.frozensets(values),
    decided=st.none() | values,
    buffers=st.lists(buffer_records, max_size=4).map(tuple),
)
def test_state_fragment_is_its_record(high, medium, high_set, medium_set, decided, buffers):
    state = ProcessorState(high, medium, high_set, medium_set, decided, buffers)
    record = json.dumps(state.to_record(), sort_keys=True, separators=(",", ":"))
    writer = _Writer()
    assert writer.state(state) == record
    assert writer.state(state) == record  # from the memo


@pytest.mark.parametrize("payload", [5, "1", (ONE, ZERO), None, {"value": ONE}])
def test_unknown_payloads_are_rejected(payload):
    state = ProcessorState()
    states = {1: state, 2: state}
    trace = Trace(n=2, rounds=[RoundTrace(1, frozenset(), {(1, 2): payload}, states)])
    name = type(payload).__name__
    with pytest.raises(TypeError, match=f"payload of type {name}"):
        trace.to_text()
    with pytest.raises(TypeError, match=f"payload of type {name}"):
        view_of(trace, 2).to_text()
