import copy

import pytest

from mobyz import (
    EMPTY,
    MANY,
    NoFaults,
    PairMessage,
    ProcessorState,
    Scenario,
    Value,
    complete_network,
    parse_value,
    run,
    view_of,
)


def test_sentinels_distinct_from_all_plains():
    for sym in range(10):
        assert Value.plain(sym) != EMPTY
        assert Value.plain(sym) != MANY


def test_canonical_order():
    ordering = [EMPTY, MANY, Value.plain(0), Value.plain(1), Value.plain(5)]
    assert sorted(reversed(ordering), key=Value.sort_key) == ordering
    assert EMPTY < MANY < Value.plain(0) < Value.plain(1)


def test_value_token_roundtrip():
    for v in (EMPTY, MANY, Value.plain(0), Value.plain(3)):
        assert parse_value(str(v)) == v
    with pytest.raises(ValueError):
        parse_value("bogus")


def test_pair_message_str():
    assert str(PairMessage(Value.plain(1), MANY)) == "1,many"


def test_state_record_is_sorted_and_stable():
    st = ProcessorState(
        high=MANY,
        medium=Value.plain(0),
        high_set=frozenset([Value.plain(1), Value.plain(0)]),
        medium_set=frozenset([MANY]),
        decided=Value.plain(1),
    )
    rec = st.to_record()
    assert rec["high_set"] == ["0", "1"]
    assert rec["decided"] == "1"


def _fault_free(rounds=None):
    return Scenario(
        network=complete_network(7),
        m=1,
        source_value=Value.plain(1),
        strategy=NoFaults(),
        rounds=rounds,
    )


def test_view_round_one_from_source_then_pairs_from_all():
    trace = run(_fault_free(rounds=2))
    view = view_of(trace, 2)
    round1_received, _ = view.per_round[0]
    assert set(round1_received) == {1}
    assert round1_received[1] == Value.plain(1)
    round2_received, state = view.per_round[1]
    assert set(round2_received) == set(range(1, 8))
    assert state.decided == Value.plain(1)


def test_view_is_pure_function_of_trace():
    trace = run(_fault_free())
    assert view_of(trace, 3).to_text() == view_of(trace, 3).to_text()


def test_view_excludes_foreign_state():
    trace_a = run(_fault_free())
    trace_b = copy.deepcopy(trace_a)
    tampered = ProcessorState(high=MANY, medium=MANY)
    trace_b.rounds[4].states_after[5] = tampered
    assert view_of(trace_a, 2).to_text() == view_of(trace_b, 2).to_text()
    assert view_of(trace_a, 5).to_text() != view_of(trace_b, 5).to_text()


def test_view_owner_out_of_range():
    trace = run(_fault_free(rounds=2))
    with pytest.raises(ValueError):
        view_of(trace, 8)
    with pytest.raises(ValueError):
        view_of(trace, 0)


def test_trace_serialization_one_line_per_round():
    trace = run(_fault_free())
    lines = trace.to_text().splitlines()
    assert len(lines) == 14
    assert all(line.startswith("{") for line in lines)
