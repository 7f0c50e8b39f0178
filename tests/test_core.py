import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

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

from test_trace_pins import PINS

ONE = Value.plain(1)


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


# --- interning ------------------------------------------------------------------

ALPHABET_3 = [EMPTY, MANY, Value.plain(0), Value.plain(1), Value.plain(2)]


def test_values_and_pairs_are_interned():
    assert Value.plain(1) is Value.plain(1)
    assert Value(0) is EMPTY and parse_value("many") is MANY
    assert PairMessage(Value.plain(1), MANY) is PairMessage(Value.plain(1), MANY)
    assert ProcessorState(high=MANY, medium=EMPTY).emission() is PairMessage(MANY, EMPTY)


@pytest.mark.parametrize("clone", [
    lambda x: pickle.loads(pickle.dumps(x)),
    copy.copy,
    copy.deepcopy,
    dataclasses.replace,
], ids=["pickle", "copy", "deepcopy", "replace"])
def test_interning_survives_copies(clone):
    pair = PairMessage(Value.plain(2), MANY)
    for x in ALPHABET_3 + [pair]:
        assert clone(x) is x


def test_deep_copies_of_containers_hold_the_canonical_instances():
    pair = PairMessage(ONE, MANY)
    copied_pair, table = copy.deepcopy((pair, {ONE: [pair]}))
    (key, [inner]), = table.items()
    assert copied_pair is pair and key is ONE and inner is pair
    assert pickle.loads(pickle.dumps(table))[ONE][0] is pair


def test_replace_returns_the_canonical_instance():
    assert dataclasses.replace(Value.plain(1), symbol=2) is Value.plain(2)
    pair = PairMessage(ONE, ONE)
    assert dataclasses.replace(pair, medium=MANY) is PairMessage(ONE, MANY)
    state = ProcessorState(high=ONE, medium=ONE)
    assert dataclasses.replace(state, medium=MANY).emission() is PairMessage(ONE, MANY)


@pytest.mark.parametrize("clone", [
    lambda x: pickle.loads(pickle.dumps(x)),
    copy.copy,
    copy.deepcopy,
    dataclasses.replace,
], ids=["pickle", "copy", "deepcopy", "replace"])
def test_cached_emission_is_invisible(clone):
    """A state caches its pair on first use; equality, hashing, its record,
    its pickle and its copies are those of a state that never emitted."""
    def make():
        return ProcessorState(high=ONE, medium=MANY, high_set=frozenset({ONE}),
                              medium_set=frozenset({ONE, MANY}), decided=ONE,
                              buffers=(("2->1", 0, 1, "1", False),))

    fresh, used = make(), make()
    pickled = pickle.dumps(fresh)
    assert used.emission() is PairMessage(ONE, MANY)
    assert used.emission() is used.emission()
    assert used == fresh and hash(used) == hash(fresh)
    assert used.to_record() == fresh.to_record()
    assert pickle.dumps(used) == pickled
    assert vars(clone(used)) == vars(clone(fresh)) == vars(fresh)
    cloned = clone(used)
    assert cloned == fresh and cloned.emission() is PairMessage(ONE, MANY)
    changed = dataclasses.replace(used, high=EMPTY)
    assert changed.emission() is PairMessage(EMPTY, MANY)
    assert used.emission() is PairMessage(ONE, MANY)


def test_holding_is_replace_of_the_buffers():
    """A full trace's snapshot gives a state its buffers with `holding`,
    which must build what `dataclasses.replace` builds: an equal state with
    the same record and pickle, before and after the pair is cached."""
    state = ProcessorState(high=ONE, medium=MANY, high_set=frozenset({ONE}), decided=ONE)
    held = (("2->1", 0, 1, "1", False), ("3->1", 2, 2, "1,many", True))
    for emitted in (False, True):
        if emitted:
            state.emission()
        got, want = state.holding(held), dataclasses.replace(state, buffers=held)
        assert got == want and hash(got) == hash(want)
        assert got.to_record() == want.to_record()
        assert pickle.dumps(got) == pickle.dumps(want)
        assert got.emission() is PairMessage(ONE, MANY)
    assert state.buffers == () and state.holding(()) == state


def test_order_and_rendering_unchanged_over_a_three_symbol_alphabet():
    assert sorted(reversed(ALPHABET_3)) == ALPHABET_3
    assert [v.sort_key() for v in ALPHABET_3] == [(0, -1), (1, -1), (2, 0), (2, 1), (2, 2)]
    assert [str(v) for v in ALPHABET_3] == ["empty", "many", "0", "1", "2"]
    assert repr(MANY) == "Value(many)"
    pairs = [PairMessage(h, m) for h in ALPHABET_3 for m in ALPHABET_3]
    assert sorted(reversed(pairs), key=PairMessage.sort_key) == pairs
    assert pairs[7].sort_key() == (1, -1, 2, 0)
    assert repr(pairs[7]) == "PairMessage(high=Value(many), medium=Value(0))"
    assert str(pairs[7]) == "many,0"


_DIGEST_CHILD = """
import sys
junk = [bytearray(k % 61) for k in range(int(sys.argv[1]))]
sys.path[:0] = sys.argv[2:4]
from mobyz import Value
order = range(6) if int(sys.argv[1]) % 2 else reversed(range(6))
junk += [(Value.plain(s), bytearray(s)) for s in order]
import test_trace_pins as pins
for name in sys.argv[4:]:
    print(name, pins.trace_digest(pins.SCENARIOS[name]()))
"""


def test_traces_do_not_depend_on_hash_seed_or_memory_layout():
    """Values hash by identity, so a set of them iterates in an order set by
    memory addresses; two interpreters with different hash seeds and heaps
    must still write the same traces."""
    root = Path(__file__).resolve().parent.parent
    names = ["bare-13-random-full", "bare-49-random-states",
             "lifted-two-round-13-full", "lifted-two-round-cmm-13-round-one-full",
             "lifted-two-round-cmm-19-states",
             "relay-cut-set-two-clique-12-8-a-full"]
    outputs = []
    for hash_seed, junk in (("0", "1001"), ("4242", "30000")):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run(
            [sys.executable, "-c", _DIGEST_CHILD, junk,
             str(root / "src"), str(root / "tests"), *names],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines() == [f"{name} {PINS[name]}" for name in names]
