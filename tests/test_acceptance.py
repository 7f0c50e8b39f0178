"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Every tolerance is exact or a stated runtime ceiling; nothing is
calibrated after the fact.
"""

import itertools
import random
import time

import pytest

from mobyz import (
    MANY,
    OverrideStrategy,
    PairMessage,
    ProtocolParams,
    RandomizedControl,
    Scenario,
    TransferRun,
    Value,
    check_agreement,
    check_indistinguishable,
    check_support_claim,
    cli,
    complete_minus_matching,
    complete_network,
    compute_T,
    cut_set_pair,
    five_set_pair,
    flood_plan,
    graphs,
    kappa_sufficiency_bounds,
    lift,
    make_two_clique_network,
    run,
    two_round_plan,
    two_round_scheme,
    view_of,
)
from fractions import Fraction

ZERO, ONE = Value.plain(0), Value.plain(1)


def report(number, ok, detail):
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def thousand_seed_campaign():
    """1000 seeded random mobile adversaries on the complete 7-network."""
    t0 = time.time()
    verdicts = []
    claim_violations = []
    for seed in range(1000):
        sc = Scenario(
            network=complete_network(7),
            m=1,
            source_value=ONE,
            strategy=RandomizedControl(),
            seed=seed,
            trace_level="states",
        )
        trace = run(sc)
        verdicts.append(check_agreement(trace, sc))
        claim_violations.extend(check_support_claim(trace, sc))
    elapsed = time.time() - t0
    return verdicts, claim_violations, elapsed


def test_criterion_1_sufficiency_campaign(thousand_seed_campaign):
    verdicts, _, elapsed = thousand_seed_campaign
    bad = [i for i, v in enumerate(verdicts) if not v.ok]
    stability_gaps = [v for v in verdicts if v.guarantee_violations]
    ok = not bad and not stability_gaps and elapsed < 10.0
    report(
        1,
        ok,
        f"n=7 m=1, 1000 seeds: {len(bad)} verdict failures, "
        f"{len(stability_gaps)} stability violations, {elapsed:.1f}s (< 10 s)",
    )


def test_criterion_2_crystallization_claim(thousand_seed_campaign):
    _, claim_violations, _ = thousand_seed_campaign
    report(
        2,
        not claim_violations,
        f"same campaign: {len(claim_violations)} pivot-round summary violations",
    )


def test_criterion_3_bounded_exhaustive_adversary():
    from mobyz.adversary import CounterfactualBehavior, ScheduledControl

    t0 = time.time()
    g = complete_network(7)
    violations = 0
    for schedule in itertools.product(range(1, 8), repeat=4):
        sched = {r: {p} for r, p in enumerate(schedule, start=1)}
        strategy = ScheduledControl(sched, CounterfactualBehavior(ZERO))
        sc = Scenario(
            network=g, m=1, source_value=ONE, strategy=strategy, trace_level="states"
        )
        trace = run(sc)
        verdict = check_agreement(trace, sc)
        if not verdict.ok or check_support_claim(trace, sc):
            violations += 1
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 300.0
    report(
        3,
        ok,
        f"all 7^4 = 2401 four-round control schedules with the counterfactual "
        f"lie: {violations} violations, {elapsed:.1f}s (< 5 min)",
    )


def test_criterion_4_five_set_views_byte_identical():
    pair = five_set_pair(n=5, m=1)
    assert pair.scenario_a.rounds >= 10  # at least 2n rounds
    trace_a, trace_b = run(pair.scenario_a), run(pair.scenario_b)
    identical = all(
        view_of(trace_a, p).to_text() == view_of(trace_b, p).to_text()
        for p in sorted(pair.observers)
    )
    perturbed = five_set_pair(n=5, m=1)
    perturbed.scenario_b.strategy = OverrideStrategy(
        perturbed.scenario_b.strategy, {(3, 2, 4): PairMessage(MANY, MANY)}
    )
    diverged, where = check_indistinguishable(perturbed)
    ok = identical and not diverged and where[0] == 3
    report(
        4,
        ok,
        f"n=5 m=1 five-set pair: views byte-identical={identical} over "
        f"{pair.scenario_a.rounds} rounds; perturbed pair diverges at {where}",
    )


def test_criterion_5_cut_set_pair_and_analyze(tmp_path, capsys):
    g = make_two_clique_network(4, 4)
    pair = cut_set_pair(g, 1, [9, 10, 11, 12], observer=5, m=1)
    trace_a, trace_b = run(pair.scenario_a), run(pair.scenario_b)
    identical = (
        view_of(trace_a, 5).to_text() == view_of(trace_b, 5).to_text()
    )
    path = tmp_path / "tc44.edges"
    path.write_text(graphs.write_edge_list(g))
    code = cli.main(["analyze", str(path), "-m", "1"])
    out = capsys.readouterr().out
    impossible = code == 0 and "IMPOSSIBLE" in out and "{9, 10, 11, 12}" in out
    ok = identical and impossible
    report(
        5,
        ok,
        f"two-clique(4,4): observer views identical={identical}, "
        f"analyze verdict IMPOSSIBLE with 4-vertex certificate={impossible}",
    )


def test_criterion_6_two_round_exhaustive():
    g = complete_minus_matching(7, 1)
    u, v = 1, 2  # the removed edge: the non-adjacent pair
    plan = two_round_plan(g, u, v, 1)
    cases = failures = 0
    for c1, c2 in itertools.product(range(1, 8), repeat=2):
        if c1 == u or c2 == v:
            continue  # endpoint conditions: u honest in round 1, v in round 2
        tr = TransferRun(plan=plan, payload_fn=lambda t: ONE)
        tr.step(1, {c1}, lambda pid: ZERO)
        if c1 == v:
            tr.receiver_controlled(lambda pid: ZERO)
        tr.step(2, {c2}, lambda pid: ZERO)
        decoded, fell_back = tr.decode()
        cases += 1
        if decoded != ONE or fell_back:
            failures += 1
    ok = failures == 0 and cases == 36
    report(
        6,
        ok,
        f"K7 minus an edge, m=1: {cases} admissible control placements, "
        f"{failures} decode failures (exact)",
    )


def test_criterion_7_flood_counting_campaign():
    n, m, kappa = 13, 1, 5
    g = make_two_clique_network(4, 5)
    T = compute_T(n, m, kappa)
    assert T == 8
    plan = flood_plan(g, 1, 5, m, kappa)
    guaranteed = kappa * T - n + 2
    budget = 2 * m * (T - 1)
    assert Fraction(budget) < Fraction(guaranteed, 2)
    violations = 0
    for seed in range(1000):
        rng = random.Random(seed)
        tr = TransferRun(plan=plan, payload_fn=lambda t: ONE)
        for t in range(1, T + 1):
            allowed = [
                p for p in range(1, n + 1)
                if not (p == 1 and t <= T - 1) and not (p == 5 and t >= 2)
            ]
            tr.step(t, {rng.choice(allowed)}, lambda pid: ZERO)
        decoded, fell_back = tr.decode()
        if (
            len(tr.collected) < guaranteed
            or tr.tainted_count() > budget
            or decoded != ONE
            or fell_back
        ):
            violations += 1
    report(
        7,
        violations == 0,
        f"flood on n=13 kappa=5 (T={T}): 1000 seeded window-respecting "
        f"adversaries; arrivals >= {guaranteed}, tainted <= {budget}, decode "
        f"correct; {violations} violations",
    )


def test_criterion_8_lifted_protocol_campaign():
    g = complete_minus_matching(13, 6)
    threshold = Fraction(13, 2) + 2 * 1 - 1
    assert graphs.min_degree(g) > threshold  # the degree bound holds
    lifted = lift(two_round_scheme(g, 1), ProtocolParams(n=13, m=1))
    failures = 0
    claim_violations = 0
    round_counts = set()
    for seed in range(200):
        sc = Scenario(
            network=g,
            m=1,
            source_value=ONE,
            strategy=RandomizedControl(),
            mode="lifted",
            lifted=lifted,
            seed=seed,
            trace_level="states",
        )
        trace = run(sc)
        round_counts.add(len(trace.rounds))
        if not check_agreement(trace, sc).ok:
            failures += 1
        claim_violations += len(check_support_claim(trace, sc))
    ok = failures == 0 and claim_violations == 0 and round_counts == {52}
    report(
        8,
        ok,
        f"lifted two-round protocol on K13 minus a perfect matching: 200 "
        f"seeds, {failures} failures, {claim_violations} pivot-round summary "
        f"violations, physical rounds {sorted(round_counts)} (= 2nT = 52)",
    )


def _connected_atlas():
    nx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g

    catalog = []
    for G in graph_atlas_g():
        if G.number_of_nodes() < 2 or not nx.is_connected(G):
            continue
        n = G.number_of_nodes()
        edges = [(a + 1, b + 1) for a, b in G.edges()]
        catalog.append(graphs.Network(n, edges))
    assert len(catalog) == 995  # all connected graphs on 2..7 vertices
    return catalog


def test_criterion_9_graph_oracle_equivalence():
    from oracles import brute_local_connectivity, brute_vertex_connectivity

    catalog = _connected_atlas()
    mismatches = 0
    for g in catalog:
        if graphs.vertex_connectivity(g) != brute_vertex_connectivity(g):
            mismatches += 1
            continue
        if g.n >= 3:
            mine = graphs.source_separation(g, 1)[0]
            brute = min(
                brute_local_connectivity(g, 1, p) for p in range(2, g.n + 1)
            )
            if mine != brute:
                mismatches += 1
    report(
        9,
        mismatches == 0,
        f"connectivity vs brute-force separator search on all {len(catalog)} "
        f"connected graphs with <= 7 vertices: {mismatches} mismatches",
    )


def test_criterion_9_separator_certificate_oracle():
    from oracles import brute_min_separator

    catalog = _connected_atlas()
    mismatches = 0
    for g in catalog:
        far = [p for p in range(2, g.n + 1) if not g.adjacent(1, p)]
        cert = graphs.source_separation(g, 1)[1]
        if not far:
            mismatches += cert is not None
            continue
        size, cut, p = cert
        brute = [brute_min_separator(g, 1, q) for q in far]
        if (size != min(brute) or p != far[brute.index(size)] or len(cut) != size
                or 1 in cut or g.connected_avoiding(1, p, cut)):
            mismatches += 1
    report(
        9,
        mismatches == 0,
        f"source-avoiding separator certificate vs brute-force separator search "
        f"on all {len(catalog)} connected graphs with <= 7 vertices: "
        f"{mismatches} mismatches",
    )


def test_criterion_10_bound_calculators_exact():
    checks = []
    for m in (1, 2, 3, 5):
        general, ratio_form = kappa_sufficiency_bounds(12 * m, m)
        checks.append(ratio_form == 8 * m)
        A = Fraction(12)
        checks.append((A / 2 + 2) * m == (10 - 24 / A) * m == 8 * m)
        checks.append(general == 10 * m - Fraction(24 * m, 12) - Fraction(1, 2))
    # regime table: below ratio 12 the degree-derived form, above it the
    # flood-derived form
    for m, n, expected in [
        (1, 8, Fraction(6)),          # A=8: (A/2+2)m
        (1, 10, Fraction(7)),         # A=10
        (1, 24, Fraction(9)),         # A=24: (10-24/A)m
        (1, 25, Fraction(226, 25)),   # A=25
        (2, 48, Fraction(18)),        # A=24, m=2
    ]:
        _, ratio_form = kappa_sufficiency_bounds(n, m)
        checks.append(ratio_form == expected)
    general_25, _ = kappa_sufficiency_bounds(25, 1)
    checks.append(general_25 == Fraction(44, 5))
    report(
        10,
        all(checks),
        f"connectivity threshold table exact in rational arithmetic, "
        f"including the boundary ratio 12 where both forms give 8m "
        f"({sum(checks)}/{len(checks)} identities hold)",
    )
