import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from mobyz import (
    EMPTY,
    MANY,
    PairMessage,
    ProtocolParams,
    RandomizedControl,
    Scenario,
    TransferRun,
    Value,
    complete_minus_matching,
    complete_network,
    compute_T,
    flood_plan,
    flood_scheme,
    kappa_sufficiency_bounds,
    lift,
    make_two_clique_network,
    run,
    two_round_plan,
    two_round_scheme,
)
from mobyz.comms import SparseTransfers, _decode, _honest_majority
from oracles import decode_every_pair

ZERO, ONE = Value.plain(0), Value.plain(1)


# --- two-round plans ---------------------------------------------------------


def test_two_round_plan_non_adjacent():
    g = complete_minus_matching(7, 1)
    plan = two_round_plan(g, 1, 2, 1)
    # 4m+1 = 5 length-2 relays through the smallest common neighbors
    assert [r.path for r in plan.routes] == [
        (1, 3, 2), (1, 4, 2), (1, 5, 2), (1, 6, 2), (1, 7, 2)
    ]
    assert all(r.inject_rounds == (1,) for r in plan.routes)


def test_two_round_plan_adjacent_uses_direct_sends():
    plan = two_round_plan(complete_network(7), 1, 2, 1)
    assert [r.path for r in plan.routes] == [
        (1, 3, 2), (1, 4, 2), (1, 5, 2), (1, 2), (1, 2)
    ]
    assert plan.routes[-2].inject_rounds == (1,)
    assert plan.routes[-1].inject_rounds == (2,)
    assert len(plan.routes) == 5  # 4m+1 routes either way


def test_two_round_plan_self_is_trivial():
    plan = two_round_plan(complete_network(7), 3, 3, 1)
    assert plan.is_self and plan.routes == ()


def test_two_round_plan_insufficient_neighbors_names_pair():
    g = make_two_clique_network(4, 4)  # cross-clique pairs share only 4
    with pytest.raises(ValueError, match=r"\(1,5\).*4 common neighbors.*needs 5"):
        two_round_plan(g, 1, 5, 1)


def test_two_round_exhaustive_one_fault_per_round():
    """Every placement of one controlled processor per round that respects the
    endpoint windows still decodes correctly, for every corruption value."""
    g = complete_minus_matching(7, 1)
    cases = 0
    for u, v in ((1, 2), (1, 3)):  # removed edge (non-adjacent) and adjacent
        plan = two_round_plan(g, u, v, 1)
        for c1, c2 in itertools.product(range(1, 8), repeat=2):
            if c1 == u or c2 == v:
                continue  # the endpoint windows: u honest in 1, v honest in 2
            for lie in (ZERO, MANY, EMPTY):
                tr = TransferRun(plan=plan, payload_fn=lambda t: ONE)
                tr.step(1, {c1}, lambda pid: lie)
                if v == c1:
                    tr.receiver_controlled(lambda pid: lie)
                tr.step(2, {c2}, lambda pid: lie)
                decoded, fell_back = tr.decode()
                assert decoded == ONE and not fell_back, (u, v, c1, c2, lie)
                assert tr.tainted_count() <= 2
                cases += 1
    assert cases == 2 * 36 * 3


def test_two_round_sound_on_every_qualifying_small_graph():
    """Exhaustive soundness sweep: every connected graph on <= 7 vertices
    whose pairs all meet the common-neighbor requirement, every ordered pair,
    every admissible one-fault-per-round placement."""
    nx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g

    from mobyz import Network

    qualifying = 0
    for G in graph_atlas_g():
        n = G.number_of_nodes()
        if n < 5 or not nx.is_connected(G):
            continue
        g = Network(n, [(a + 1, b + 1) for a, b in G.edges()])
        try:
            plans = {
                (u, v): two_round_plan(g, u, v, 1)
                for u in g.vertices
                for v in g.vertices
                if u != v
            }
        except ValueError:
            continue
        qualifying += 1
        for (u, v), plan in plans.items():
            for c1, c2 in itertools.product(range(1, n + 1), repeat=2):
                if c1 == u or c2 == v:
                    continue
                tr = TransferRun(plan=plan, payload_fn=lambda t: ONE)
                tr.step(1, {c1}, lambda pid: ZERO)
                if v == c1:
                    tr.receiver_controlled(lambda pid: ZERO)
                tr.step(2, {c2}, lambda pid: ZERO)
                decoded, fell_back = tr.decode()
                assert decoded == ONE and not fell_back, (g.edges(), u, v, c1, c2)
    # the family at this scale: K5, K6, K7 and K7 minus matchings
    assert qualifying == 6


# --- flooding ---------------------------------------------------------------


def test_compute_T_examples():
    assert compute_T(25, 2, 12) == 4
    assert compute_T(13, 1, 9) == 2
    assert compute_T(13, 1, 5) == 8
    with pytest.raises(ValueError):
        compute_T(12, 1, 4)


def test_compute_T_satisfies_sufficient_inequality():
    for n in range(8, 40):
        for m in (1, 2):
            for kappa in range(4 * m + 1, n):
                T = compute_T(n, m, kappa)
                assert T > Fraction(n - 2 - 4 * m, kappa - 4 * m)


def test_flood_plan_uses_kappa_paths_and_all_inject_rounds():
    g = make_two_clique_network(4, 5)  # n=13, kappa=5, T=8
    plan = flood_plan(g, 1, 5, 1, 5)
    assert len(plan.routes) == 5
    assert all(r.inject_rounds == tuple(range(1, 8)) for r in plan.routes)


def test_flood_plan_delegates_to_two_round_when_T_is_two():
    g = complete_minus_matching(13, 1)  # kappa = 11, T = 2
    assert compute_T(13, 1, 11) == 2
    plan = flood_plan(g, 1, 2, 1, 11)
    assert all(len(r.path) == 3 for r in plan.routes)  # length-2 relays


def test_flood_plan_adjacent_direct_exchange_in_round_two():
    g = make_two_clique_network(4, 5)
    plan = flood_plan(g, 1, 9, 1, 5)  # bridge vertex, adjacent
    assert [r.path for r in plan.routes] == [(1, 9)]
    assert plan.routes[0].inject_rounds == (2,)


def test_flood_plan_rejects_low_kappa():
    g = make_two_clique_network(4, 4)
    with pytest.raises(ValueError, match="must exceed 4m"):
        flood_plan(g, 1, 5, 1, 4)


def test_flood_counting_and_decode_under_window_respecting_adversary():
    g = make_two_clique_network(4, 5)
    n, m, kappa, T = 13, 1, 5, 8
    plan = flood_plan(g, 1, 5, m, kappa)
    guaranteed = kappa * T - n + 2
    budget = 2 * m * (T - 1)
    assert budget < Fraction(guaranteed, 2)
    for seed in range(300):
        rng = random.Random(seed)
        tr = TransferRun(plan=plan, payload_fn=lambda t: ONE)
        for t in range(1, T + 1):
            allowed = [
                p for p in range(1, n + 1)
                if not (p == 1 and t <= T - 1) and not (p == 5 and t >= 2)
            ]
            tr.step(t, {rng.choice(allowed)}, lambda pid: ZERO)
        assert len(tr.collected) >= guaranteed
        assert tr.tainted_count() <= budget
        decoded, fell_back = tr.decode()
        assert decoded == ONE and not fell_back


# --- majority decode -----------------------------------------------------------


def test_majority_examples():
    assert _decode([ONE, ONE, ONE, ZERO, ZERO]) == (ONE, False)
    assert _decode([ONE] * 5) == (ONE, False)
    with pytest.raises(ValueError):
        _decode([])


def test_majority_exhaustive_small_scale():
    # 7 copies, up to 3 corrupted to arbitrary values: strict majority forces
    # the original through every corruption pattern
    pool = [ZERO, ONE, EMPTY, MANY]
    for positions in itertools.combinations(range(7), 3):
        for lies in itertools.product(pool, repeat=3):
            copies = [ONE] * 7
            for pos, lie in zip(positions, lies):
                copies[pos] = lie
            assert _decode(copies) == (ONE, False)


def test_majority_25_copies_12_corrupted():
    copies = [ONE] * 13 + [ZERO] * 12
    assert _decode(copies) == (ONE, False)


def test_majority_fallback_is_canonical_smallest():
    assert _decode([ZERO, ONE]) == (ZERO, True)
    assert _decode([MANY, ONE, ZERO, ZERO, ONE]) == (ZERO, True)


PAIRS = [PairMessage(h, m) for h in (MANY, ZERO, ONE) for m in (EMPTY, ZERO, ONE)]
PAYLOADS = [EMPTY, MANY, ZERO, ONE] + PAIRS


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_decode_shortcut_agrees_with_the_full_count(data):
    """`SparseTransfers.decode` skips the count for a transfer whose honest
    copies all carry one payload (an untouched sender's, or a touched
    sender's that kept one payload through every round) and hold a strict
    majority; wherever it does, counting every copy must give that payload,
    with no fallback."""
    rounds = data.draw(st.integers(1, 3), label="rounds")
    if data.draw(st.booleans(), label="kept one payload"):
        sent = [data.draw(st.sampled_from(PAYLOADS), label="honest")] * rounds
    else:
        sent = data.draw(st.lists(st.sampled_from(PAYLOADS), min_size=rounds,
                                  max_size=rounds), label="payload per round")
    arrived = data.draw(st.integers(0, 13), label="arrived copies")
    copies = [(data.draw(st.integers(1, 3)), c) for c in range(arrived)]
    inject = [data.draw(st.integers(1, rounds)) for _ in range(arrived)]
    # overrides may also sit on copies that never arrive (ids >= arrived)
    overridden = data.draw(st.sets(st.integers(0, arrived + 3)), label="overridden")
    overrides = {c: data.draw(st.sampled_from(PAYLOADS)) for c in sorted(overridden)}
    kept = all(payload is sent[0] for payload in sent)
    applies = kept and _honest_majority([c for _arrival, c in copies], overrides)
    event(f"shortcut applies: {applies}")
    values = [overrides.get(c, sent[inject[c] - 1]) for _arrival, c in copies]
    if applies:
        assert _decode(values) == (sent[0], False)
    elif not copies:
        with pytest.raises(ValueError, match="empty copy list"):
            _decode(values)


@pytest.mark.parametrize("scheme", [
    two_round_scheme(complete_minus_matching(9, 4), 1),
    # T = 3: copies of non-adjacent pairs are injected in rounds 1 and 2
    flood_scheme(complete_minus_matching(8, 4), 1, 5),
], ids=["two-round", "flood"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_sparse_decode_equals_counting_every_copy(scheme, data):
    """One lifted logical round of random control, corruption and rewrites,
    from every processor or from a drawn set of senders:
    `SparseTransfers.decode(honest)` must give what counting every arrived
    copy of every transfer gives: the exceptions into the honest receivers,
    and the fallbacks into every receiver."""
    g = scheme.network
    payloads = {i: data.draw(st.sampled_from(PAIRS)) for i in g.vertices}
    senders = data.draw(st.one_of(
        st.just(tuple(g.vertices)),
        st.sets(st.integers(1, g.n), min_size=1).map(lambda drawn: tuple(sorted(drawn))),
    ), label="senders")
    transfers = SparseTransfers(scheme, senders, payloads.__getitem__)

    def corrupt(_pid, k):
        return [data.draw(st.sampled_from(PAIRS)) for _ in range(k)]

    for t in range(1, scheme.T + 1):
        controlled = data.draw(st.sets(st.integers(1, g.n), max_size=2), label="controlled")
        transfers.step(t, controlled, corrupt)
        for pid in sorted(controlled):
            if data.draw(st.booleans(), label="rewritten"):
                payloads[pid] = data.draw(st.sampled_from(PAIRS))
            transfers.receiver_controlled(pid, corrupt)
    event(f"touched senders that kept their payload: "
          f"{sum(s.count(s[0]) == len(s) for s in transfers.sent.values())}")

    honest = sorted(data.draw(st.sets(st.integers(1, g.n)), label="honest"))
    assert transfers.decode(honest) == decode_every_pair(transfers, honest)


def test_decode_shortcut_boundary():
    copies = tuple(range(4))  # copy ids
    assert _honest_majority(copies, {0: ZERO})
    assert not _honest_majority(copies, {0: ZERO, 1: ZERO})  # a tie is no majority
    assert _decode([ZERO, ZERO, ONE, ONE]) == (ZERO, True)
    assert not _honest_majority([], {})


# --- one copy index per sender set ------------------------------------------


def _restricted(index, senders, T) -> dict:
    """The parts of `index` that a copy index of `senders` alone keeps, its
    copies renumbered by (transfer, injection round, route) to that index's
    numbers, ordered as `index` orders them. Keys no copy of `senders`
    reaches are dropped, except `stored`'s, which list every (v, t)."""
    own = {}
    for c, key in enumerate(index.transfer):
        if key[0] in senders:
            own[c] = len(own)

    def copies(listed):
        return tuple(own[c] for c in listed if c in own)

    def kept(parts: dict) -> dict:
        return {key: part for key, part in parts.items() if part}

    return {
        "touches": kept({
            key: tuple((2 * own[c] + (order & 1), own[c], v)
                       for order, c, v in events if c in own)
            for key, events in index.touches.items()
        }),
        "visits": kept({
            key: (copies(listed), copies(received))
            for key, (listed, received) in index.visits.items()
            if copies(listed)
        }),
        "stored": {key: copies(listed) for key, listed in index.stored.items()},
        "moves": kept({
            key: tuple((link, own[c]) for link, c in moved if c in own)
            for key, moved in index.moves.items()
        }),
        "held": {
            key: tuple((own[c], u, head) for c, u, head in rows if c in own)
            for key, rows in index.held.items()
        },
        "hop_rows": {
            t: kept({
                link: tuple((own[c], name, route, u) for c, name, route, u in rows if c in own)
                for link, rows in index.hop_rows(t)
            })
            for t in range(1, T + 1)
        },
    }


@pytest.mark.parametrize("scheme", [
    two_round_scheme(complete_minus_matching(13, 6), 1),
    # T = 3; the cliques' members also exchange directly in round 2
    flood_scheme(make_two_clique_network(5, 9), 1, 9),
], ids=["two-round", "flood"])
@pytest.mark.parametrize("senders", [(1,), (4, 9)], ids=["source", "two-senders"])
def test_copy_index_of_some_senders_is_the_full_index_restricted(scheme, senders):
    """A sender set's copy index holds exactly the every-sender index's
    copies of its senders, in the same relative order, and places them
    alike."""
    full, own = scheme.copy_index(), scheme.copy_index(senders)
    assert own.senders == senders and scheme.copy_index(senders) is own
    assert full.senders == tuple(scheme.network.vertices)
    assert scheme.copy_index(full.senders) is full
    assert [full.transfer[c] for c in range(len(full.transfer))
            if full.transfer[c][0] in senders] == list(own.transfer)
    parts = {
        "touches": own.touches, "visits": own.visits, "stored": own.stored,
        "moves": own.moves, "held": own.held,
        "hop_rows": {t: dict(own.hop_rows(t)) for t in range(1, scheme.T + 1)},
    }
    assert parts == _restricted(full, senders, scheme.T)


# --- the lifting reduction --------------------------------------------------------


def test_lift_two_round_scheme():
    g = complete_minus_matching(12, 1)
    lifted = lift(two_round_scheme(g, 1), ProtocolParams(n=12, m=1))
    assert lifted.physical_rounds == 48
    assert lifted.params.fault_unit == 1


def test_lift_flood_scheme():
    g25 = make_two_clique_network(8, 9)  # n=25, kappa=9, so T=4 and K=3
    scheme = flood_scheme(g25, 1, 9)
    assert (scheme.T, scheme.K) == (4, 3)
    lifted = lift(scheme, ProtocolParams(n=25, m=1))  # 3 < 25/6
    assert lifted.params.fault_unit == 3
    assert lifted.physical_rounds == 2 * 25 * 4


def test_lift_rejects_wide_windows():
    class FakeScheme:
        T, K, m = 4, 3, 1

    with pytest.raises(ValueError, match="n/\\(6m\\)"):
        lift(FakeScheme(), ProtocolParams(n=18, m=1))
    # and the same window is fine with more processors
    assert lift(FakeScheme(), ProtocolParams(n=25, m=1)).params.fault_unit == 3


def test_lift_rejects_a_protocol_m_other_than_the_schemes():
    # the scheme's relays are chosen for m = 1 (4m+1 = 5 common neighbours);
    # fault unit 2 over them was once built without complaint
    scheme = two_round_scheme(make_two_clique_network(4, 5), 1)
    for m in (2, 0):
        with pytest.raises(ValueError, match=f"protocol m={m} differs from the scheme's m=1"):
            lift(scheme, ProtocolParams(n=13, m=m))
    assert lift(scheme, ProtocolParams(n=13, m=1)).params.fault_unit == 1


# --- sufficiency bounds --------------------------------------------------------


def test_kappa_bounds_regime_table():
    # at the regime boundary A=12 both ratio formulas give 8m
    for m in (1, 2, 3):
        general, ratio_form = kappa_sufficiency_bounds(12 * m, m)
        assert ratio_form == 8 * m
        A = Fraction(12)
        assert (A / 2 + 2) * m == (10 - 24 / A) * m == 8 * m
        assert general == 10 * m - Fraction(24 * m * m, 12 * m) - Fraction(6 * m, 12 * m)

    general, ratio_form = kappa_sufficiency_bounds(24, 1)
    assert ratio_form == 9  # (10 - 24/24) * 1

    general, _ = kappa_sufficiency_bounds(25, 1)
    assert general == Fraction(44, 5)  # 10 - 24/25 - 6/25 = 8.8, exactly

    with pytest.raises(ValueError):
        kappa_sufficiency_bounds(6, 1)


def test_kappa_bounds_low_ratio_regime():
    general, ratio_form = kappa_sufficiency_bounds(8, 1)  # A = 8
    assert ratio_form == Fraction(8, 2) + 2  # (A/2 + 2) * m = 6
    assert general == 10 - Fraction(24, 8) - Fraction(6, 8)


def test_full_trace_index_parts_are_built_on_first_full_use():
    g = complete_minus_matching(13, 6)
    scheme = two_round_scheme(g, 1)
    scenario = Scenario(
        network=g, m=1, source_value=ONE, strategy=RandomizedControl(), mode="lifted",
        lifted=lift(scheme, ProtocolParams(n=13, m=1)), trace_level="states",
    )
    run(scenario)
    index = scheme.copy_index()
    assert "names" not in vars(index) and "held" not in vars(index) and not index._hop_rows
    run(dataclasses.replace(scenario, trace_level="full"))
    assert "names" in vars(index) and "held" in vars(index) and index._hop_rows
    assert index.names[0] == "1->2"
