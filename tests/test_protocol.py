import random

import pytest

from mobyz import (
    EMPTY,
    MANY,
    PairMessage,
    ProcessorState,
    ProtocolParams,
    Value,
    first_round_state,
    pivot_index,
    termination_round,
)
from mobyz.protocol import pivot_backing

from oracles import oracle_update, round_update

ZERO, ONE = Value.plain(0), Value.plain(1)


def run_both(self_id, state, received, r, params):
    got = round_update(self_id, state, received, r, params)
    decided, high_set, medium_set, high, medium = oracle_update(
        self_id, state.decided, received, r, params.n, params.fault_unit
    )
    assert got.decided == decided
    assert got.high_set == high_set
    assert got.medium_set == medium_set
    assert got.high == high
    assert got.medium == medium
    return got


def pairs(values):
    return [PairMessage(v, v) for v in values]


# --- parameters ---------------------------------------------------------------


def test_params_reject_insufficient_processor_count():
    with pytest.raises(ValueError):
        ProtocolParams(n=6, m=1)
    with pytest.raises(ValueError):
        ProtocolParams(n=12, m=1, fault_unit=2)
    ProtocolParams(n=7, m=1)
    ProtocolParams(n=13, m=1, fault_unit=2)


def test_pivot_index():
    assert pivot_index(2) == 2
    assert pivot_index(3) == 2
    assert pivot_index(7) == 4
    with pytest.raises(ValueError):
        pivot_index(1)


def test_termination_round():
    assert termination_round(ProtocolParams(n=7, m=1)) == 14
    assert termination_round(ProtocolParams(n=10, m=1)) == 20


def test_first_round_adopts_anything_verbatim():
    for v in (ONE, ZERO, MANY):
        st = first_round_state(v)
        assert st.high == v and st.medium == v
        assert st.high_set == frozenset() and st.medium_set == frozenset()
        assert st.decided is None


# --- worked examples cross-checked against the oracle ----------------------------


def test_update_near_unanimous_nonpivot():
    params = ProtocolParams(n=7, m=1)
    received = pairs([ONE, ZERO, ONE, ONE, ONE, ONE, ONE])
    got = run_both(3, ProcessorState(), received, 2, params)
    assert got.decided == ONE
    assert got.high_set == got.medium_set == frozenset([ONE])
    assert got.high == got.medium == ONE


def test_update_near_unanimous_pivot():
    params = ProtocolParams(n=7, m=1)
    received = pairs([ONE, ZERO, ONE, ONE, ONE, ONE, ONE])
    got = run_both(2, ProcessorState(), received, 2, params)
    assert got.high_set == got.medium_set == frozenset([ONE])
    assert got.high == got.medium == ONE


def test_update_unanimous_empty_sentinel():
    params = ProtocolParams(n=7, m=1)
    received = pairs([EMPTY] * 7)
    got = run_both(3, ProcessorState(), received, 2, params)
    assert got.decided == EMPTY  # the decision rule accepts sentinels
    assert got.high_set == frozenset() and got.medium_set == frozenset()
    assert got.high == EMPTY and got.medium == EMPTY


def test_update_requires_full_round():
    params = ProtocolParams(n=7, m=1)
    with pytest.raises(ValueError):
        round_update(1, ProcessorState(), pairs([ONE] * 6), 2, params)


def test_update_decision_unchanged_below_threshold():
    params = ProtocolParams(n=7, m=1)
    received = pairs([ONE, ONE, ONE, ZERO, ZERO, ZERO, MANY])
    before = ProcessorState(decided=ZERO)
    got = run_both(4, before, received, 4, params)
    assert got.decided == ZERO  # 4 of 7 is below n-2m = 5


def test_update_is_pure():
    params = ProtocolParams(n=7, m=1)
    received = pairs([ONE, ZERO, MANY, ONE, EMPTY, ONE, ONE])
    a = round_update(5, ProcessorState(), received, 6, params)
    b = round_update(5, ProcessorState(), received, 6, params)
    assert a == b


def test_empty_sentinel_never_in_support_sets_and_nesting():
    rng = random.Random(99)
    params = ProtocolParams(n=7, m=1)
    pool = [ZERO, ONE, EMPTY, MANY]
    for _ in range(2000):
        received = [
            PairMessage(rng.choice(pool), rng.choice(pool)) for _ in range(7)
        ]
        r = rng.randint(2, 14)
        self_id = rng.randint(1, 7)
        got = run_both(self_id, ProcessorState(), received, r, params)
        assert EMPTY not in got.high_set
        assert EMPTY not in got.medium_set
        # threshold nesting: clearing 4m senders implies clearing 2m
        assert got.high_set <= got.medium_set


def test_oracle_agreement_with_larger_alphabet_and_m2():
    rng = random.Random(123)
    params = ProtocolParams(n=13, m=2, alphabet_size=3)
    pool = [Value.plain(i) for i in range(3)] + [EMPTY, MANY]
    for _ in range(800):
        received = [
            PairMessage(rng.choice(pool), rng.choice(pool)) for _ in range(13)
        ]
        run_both(rng.randint(1, 13), ProcessorState(), received, rng.randint(2, 26), params)


def test_final_round_has_no_pivot():
    # f(2n) = n+1 names no processor; only the plain-count clause applies
    params = ProtocolParams(n=7, m=1)
    received = pairs([ONE] * 5 + [ZERO] * 2)
    got = run_both(3, ProcessorState(), received, 14, params)
    assert got.high_set == frozenset([ONE])


def test_pivot_backing_counts_the_high_and_many_mediums():
    mediums = {ZERO: 3, ONE: 1, MANY: 2, EMPTY: 4}
    assert pivot_backing(ZERO, mediums) == 5  # its own 3 and MANY's 2
    assert pivot_backing(Value.plain(2), mediums) == 2  # absent: MANY's alone
    assert pivot_backing(MANY, mediums) == 2  # MANY backs only itself
    assert pivot_backing(ONE, {}) == 0
    assert pivot_backing(EMPTY, mediums) is None
    assert pivot_backing(None, mediums) is None
