import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import mobyz
from mobyz import (
    Network,
    common_neighbors,
    complete_minus_matching,
    complete_network,
    cycle_network,
    disjoint_paths,
    flood_scheme,
    graphs,
    local_connectivity,
    make_two_clique_network,
    min_degree,
    read_edge_list,
    source_separation,
    star_network,
    vertex_connectivity,
    write_edge_list,
)


from oracles import (
    brute_local_connectivity,
    brute_vertex_connectivity,
    reference_augment,
    reference_read_edge_list,
)


# --- basic queries -----------------------------------------------------------


def test_network_rejects_self_loops_and_bad_ids():
    with pytest.raises(ValueError):
        Network(3, [(1, 1)])
    with pytest.raises(ValueError):
        Network(3, [(1, 4)])


def test_min_degree_examples():
    assert min_degree(complete_network(7)) == 6
    assert min_degree(cycle_network(5)) == 2
    # the extremal construction at n=12, m=1: degree bound value n/2+2m-1 = 7
    assert min_degree(make_two_clique_network(4, 4)) == 7


def test_common_neighbors_examples():
    k5 = complete_network(5)
    assert len(common_neighbors(k5, 1, 2)) == 3
    k7_minus = complete_minus_matching(7, 1)
    assert common_neighbors(k7_minus, 1, 2) == frozenset({3, 4, 5, 6, 7})
    tc = make_two_clique_network(4, 4)
    assert common_neighbors(tc, 1, 5) == frozenset({9, 10, 11, 12})
    with pytest.raises(ValueError):
        common_neighbors(k5, 2, 2)


def test_vertex_connectivity_examples():
    assert vertex_connectivity(complete_network(7)) == 6
    assert vertex_connectivity(cycle_network(5)) == 2
    assert vertex_connectivity(make_two_clique_network(4, 4)) == 4
    assert vertex_connectivity(make_two_clique_network(4, 5)) == 5
    disconnected = Network(4, [(1, 2), (3, 4)])
    assert vertex_connectivity(disconnected) == 0


def test_local_connectivity_avoiding_source_examples():
    assert source_separation(complete_network(7), 1)[0] == 6
    assert source_separation(make_two_clique_network(4, 4), 1)[0] == 4
    star = star_network(6)
    assert source_separation(star, 2)[0] == 1


def test_separator_certificate_two_clique():
    g = make_two_clique_network(4, 4)
    size, cut, far = source_separation(g, 1)[1]
    assert size == 4
    assert cut == frozenset({9, 10, 11, 12})
    assert not g.connected_avoiding(1, far, cut)


def test_separator_certificate_none_for_universal_source():
    assert source_separation(star_network(5), 1)[1] is None


def test_disjoint_paths_examples():
    assert disjoint_paths(complete_network(4), 1, 2, 3).paths == (
        (1, 2),
        (1, 3, 2),
        (1, 4, 2),
    )
    assert disjoint_paths(cycle_network(5), 1, 3, 2).paths == (
        (1, 2, 3),
        (1, 5, 4, 3),
    )
    tc = make_two_clique_network(4, 4)
    system = disjoint_paths(tc, 1, 5, 4)
    assert system.paths == ((1, 9, 5), (1, 10, 5), (1, 11, 5), (1, 12, 5))
    system.validate(tc)


def test_disjoint_paths_error_names_the_maximum():
    with pytest.raises(ValueError, match="maximum is 2"):
        disjoint_paths(cycle_network(5), 1, 3, 3)


def test_disjoint_paths_rejects_a_negative_k():
    # a negative k once sliced the path list: -1 gave 3 of these 4 paths
    with pytest.raises(ValueError, match="requested -1 disjoint paths"):
        disjoint_paths(make_two_clique_network(4, 4), 1, 5, -1)


def test_local_connectivity_rejects_a_missing_vertex():
    with pytest.raises(ValueError, match="vertex 99 outside 1..12"):
        local_connectivity(make_two_clique_network(4, 4), 1, 99)


def test_source_separation_rejects_a_missing_vertex():
    with pytest.raises(ValueError, match="vertex 99 outside 1..12"):
        source_separation(make_two_clique_network(4, 4), 99)


def test_disjoint_paths_deterministic():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(4, 8)
        edges = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < 0.6
        ]
        g = Network(n, edges)
        u, v = rng.sample(range(1, n + 1), 2)
        k = local_connectivity(g, u, v)
        if k == 0:
            continue
        first = disjoint_paths(g, u, v, k)
        second = disjoint_paths(g, u, v, k)
        assert first == second
        first.validate(g)


def test_two_clique_construction():
    g = make_two_clique_network(4, 4)
    assert g.n == 12
    assert min_degree(g) == 7
    assert vertex_connectivity(g) == 4
    degenerate = make_two_clique_network(1, 0)
    assert degenerate.n == 2 and not degenerate.is_connected()


def test_two_clique_parameter_sweep():
    # min degree = c-1+b; the bridge is the bottleneck seen from inside a clique
    for c in (2, 3, 4):
        for b in (1, 2, 4):
            g = make_two_clique_network(c, b)
            assert min_degree(g) == c - 1 + b
            assert source_separation(g, 1)[0] == b


def test_min_degree_at_least_connectivity():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(2, 8)
        edges = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < rng.choice([0.3, 0.6, 0.9])
        ]
        g = Network(n, edges)
        assert min_degree(g) >= vertex_connectivity(g)


def test_connectivity_matches_brute_force_on_random_graphs():
    rng = random.Random(23)
    for _ in range(150):
        n = rng.randint(2, 7)
        edges = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < rng.choice([0.3, 0.5, 0.8])
        ]
        g = Network(n, edges)
        assert vertex_connectivity(g) == brute_vertex_connectivity(g)


def test_edge_list_roundtrip():
    g = make_two_clique_network(3, 2)
    text = write_edge_list(g)
    back = read_edge_list(text)
    assert back.n == g.n and back.edges() == g.edges()


def test_edge_list_isolated_vertices_and_errors():
    g = read_edge_list("1 2\n4\n")
    assert g.n == 4 and g.degree(4) == 0 and g.degree(3) == 0
    with pytest.raises(ValueError, match="line 1"):
        read_edge_list("1 two\n")
    with pytest.raises(ValueError):
        read_edge_list("")


def _read_or_error(read, text):
    try:
        g = read(text)
    except ValueError as e:
        return "error", str(e)
    return g.n, g.edges()


EDGE_LIST_CASES = {
    "blank lines": "1 2\n\n   \n2 3\n",
    "comments": "# a triangle\n1 2\n# more\n2 3\n3 1\n",
    "trailing comments": "1 2 # first\n2 3#second\n4 # 5 6 7\n",
    "crlf": "1 2\r\n2 3\r\n\r\n4\r\n",
    "isolated ids": "1 2\n7\n4\n2 5\n",
    "only isolated ids": "3\n",
    "tabs and vertical tab": "\t1\t 2  \x0b2 3\n",
    "three ids": "1 2\n1 2 3\n",
    "not an id": "1 2\n1 two\n",
    "bad id before three ids": "1 x\n1 2 3\n",
    "three words, one not an id": "1 2 x\n",
    "three ids before a bad id": "1 2 3\n1 x\n",
    "comment only": "# nothing here\n   # nor here\n",
    "empty": "",
    "self-loop": "1 2\n3 3\n",
    "vertex zero": "0 1\n",
    "negative isolated id": "-2\n",
}


@pytest.mark.parametrize("name", sorted(EDGE_LIST_CASES))
def test_edge_list_reader_matches_the_line_by_line_reader(name):
    text = EDGE_LIST_CASES[name]
    assert _read_or_error(read_edge_list, text) == _read_or_error(reference_read_edge_list, text)


def test_edge_list_reader_matches_on_seeded_random_lists():
    """Written random graphs with comments, blank lines, CRLF, swapped ends
    and isolated ids, and lines of random tokens."""
    rng = random.Random(19)
    tokens = ["1", "2", "3", "9", "0", "-1", "+4", "x", "#", "#c", "", "\t"]
    outcomes = set()
    for _ in range(400):
        if rng.random() < 0.5:
            n = rng.randint(1, 12)
            lines = write_edge_list(Network(n, [
                (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.4
            ])).splitlines()
            rng.shuffle(lines)
            lines = [" ".join(reversed(line.split())) if rng.random() < 0.3 else line
                     for line in lines]
            for _ in range(rng.randint(0, 3)):
                lines.insert(rng.randint(0, len(lines)), rng.choice(["", "# c", str(n + 2)]))
            lines = [line + " # note" if rng.random() < 0.2 else line for line in lines]
        else:
            lines = [" ".join(rng.choice(tokens) for _ in range(rng.randint(0, 4)))
                     for _ in range(rng.randint(0, 6))]
        text = rng.choice(["\n", "\r\n"]).join(lines) + rng.choice(["", "\n"])
        expected = _read_or_error(reference_read_edge_list, text)
        assert _read_or_error(read_edge_list, text) == expected, text
        outcomes.add(expected[0] == "error")
    assert outcomes == {False, True}


# --- the connectivity floor ------------------------------------------------------


def _without_floor(g):
    """A copy of g whose floor no count meets, so every pass runs in full."""
    h = Network(g.n, g.edges())
    h.__dict__["_connectivity_floor"] = -1
    return h


def _assert_floor_sound(g):
    """The floor is at most kappa, and the queries that stop at it give
    what brute force gives and what they give without it."""
    kappa = brute_vertex_connectivity(g)
    assert g._connectivity_floor <= kappa, g.edges()
    local = {}
    for s in g.vertices:
        for p in range(s + 1, g.n + 1):
            local[s, p] = local[p, s] = brute_local_connectivity(g, s, p)
    full = _without_floor(g)
    assert vertex_connectivity(g) == vertex_connectivity(full) == kappa, g.edges()
    for s in g.vertices:
        got = source_separation(g, s)
        assert got[0] == min(local[s, p] for p in g.vertices if p != s), (g.edges(), s)
        assert got == source_separation(full, s), (g.edges(), s)
    return kappa


def test_connectivity_floor_is_sound_on_seeded_random_graphs():
    rng = random.Random(19)
    kinds = set()
    for _ in range(200):
        n = rng.randint(2, 8)
        p = rng.choice([0.2, 0.4, 0.6, 0.8, 1.0])
        g = Network(n, [
            (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p
        ])
        kappa = _assert_floor_sound(g)
        if g.is_complete():
            kinds.add("complete")
        elif kappa < 2:
            kinds.add(("disconnected", "cut vertex")[kappa])
        elif 2 * min_degree(g) + 2 - n < 2:
            kinds.add("floor from the DFS")
    assert kinds == {"complete", "disconnected", "cut vertex", "floor from the DFS"}


def test_connectivity_floor_is_sound_on_the_atlas():
    nx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g

    for G in graph_atlas_g():
        if G.number_of_nodes() >= 2 and nx.is_connected(G):
            _assert_floor_sound(
                Network(G.number_of_nodes(), [(a + 1, b + 1) for a, b in G.edges()]))


def test_connectivity_floor_examples():
    assert complete_network(6)._connectivity_floor == 5
    assert cycle_network(40)._connectivity_floor == 2  # from the DFS
    assert star_network(6)._connectivity_floor == 1  # the centre is a cut vertex
    assert Network(4, [(1, 2), (3, 4)])._connectivity_floor == 0
    assert Network(3, [(1, 2)])._connectivity_floor == 0  # vertex 3 is isolated
    # 2δ+2-n is kappa itself on the dense extremal graphs
    assert make_two_clique_network(8, 4)._connectivity_floor == 4
    assert complete_minus_matching(19, 9)._connectivity_floor == 17
    # a cut vertex at the DFS root (vertex 1 joins two triangles) and below it
    bowtie = [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5)]
    assert Network(5, bowtie)._connectivity_floor == 1
    assert Network(6, [(6, 1)] + bowtie)._connectivity_floor == 1


def test_connectivity_stops_at_the_floor_on_the_cycle(monkeypatch):
    # every count on a cycle is 2: one flow for the certificate, none more
    flows = []
    real_flow, real_capped = graphs._max_disjoint_flow, graphs._capped_count
    monkeypatch.setattr(graphs, "_max_disjoint_flow",
                        lambda *a: flows.append(a[1:3]) or real_flow(*a))
    monkeypatch.setattr(graphs, "_capped_count", lambda *a: flows.append(a[1:3]) or real_capped(*a))
    g = cycle_network(40)
    assert vertex_connectivity(g) == 2
    assert source_separation(g, 1) == (2, (2, frozenset({2, 40}), 3))
    assert flows == [(1, 3)]


# --- connectivity against networkx and a flow-identity pin ---------------------


def _relabelled(g, rng):
    perm = list(g.vertices)
    rng.shuffle(perm)
    label = dict(zip(g.vertices, perm))
    return Network(g.n, [(label[a], label[b]) for a, b in g.edges()])


def _pivot_in_every_separator():
    """Cliques 2..6 and 7..11 joined through {1, 12, 13}. Vertex 1 ties for
    the minimum degree 6 and sits in every 3-vertex separator, so only the
    flows between its non-adjacent neighbours find kappa = 3: its own flows
    to non-neighbours all give at least 5."""
    A, B = range(2, 7), range(7, 12)
    edges = {(a, b) for side in (A, B) for a in side for b in side if a < b}
    edges |= {(x, s) for s in (12, 13) for x in range(2, 12)} | {(12, 13)}
    edges |= {(1, x) for x in (2, 3, 4, 7, 8, 9)}
    return Network(13, edges)


def test_vertex_connectivity_when_the_pivot_is_in_every_separator():
    g = _pivot_in_every_separator()
    assert min_degree(g) == g.degree(1) == 6
    assert min(local_connectivity(g, 1, w) for w in (5, 6, 10, 11, 12, 13)) == 5
    assert vertex_connectivity(g) == 3


def _differential_catalogue():
    """Seeded random graphs on 8..30 vertices, plus seeded relabellings of
    the extremal constructions and of the graph above (the
    Esfahanian-Hakimi pivot depends on labels)."""
    rng = random.Random(20240)
    catalogue = []
    for _ in range(40):
        n = rng.randint(8, 30)
        p = rng.choice([0.15, 0.3, 0.5, 0.7, 0.9])
        catalogue.append(Network(n, [
            (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p
        ]))
    for build, *args in ((make_two_clique_network, 4, 4), (make_two_clique_network, 5, 9),
                         (make_two_clique_network, 8, 4), (make_two_clique_network, 10, 8),
                         (complete_minus_matching, 13, 6), (complete_minus_matching, 19, 9),
                         (complete_minus_matching, 24, 3), (_pivot_in_every_separator,)):
        g = build(*args)
        catalogue.append(g)
        catalogue += [_relabelled(g, rng) for _ in range(3)]
    return catalogue


def _as_networkx(g):
    nx = pytest.importorskip("networkx")
    G = nx.Graph()
    G.add_nodes_from(g.vertices)
    G.add_edges_from(g.edges())
    return G


def test_vertex_connectivity_matches_networkx():
    nx = pytest.importorskip("networkx")
    for g in _differential_catalogue():
        assert vertex_connectivity(g) == nx.node_connectivity(_as_networkx(g)), g.edges()


def test_separator_certificate_matches_networkx():
    pytest.importorskip("networkx")
    from networkx.algorithms.connectivity import local_node_connectivity

    rng = random.Random(4)
    for g in _differential_catalogue():
        G = _as_networkx(g)
        for s in sorted({1, rng.randint(1, g.n)}):
            far = [p for p in g.vertices if p != s and not g.adjacent(s, p)]
            cert = source_separation(g, s)[1]
            if not far:
                assert cert is None
                continue
            size, cut, p = cert
            assert size == min(local_node_connectivity(G, s, q) for q in far)
            assert len(cut) == size and s not in cut and p in far
            assert not g.connected_avoiding(s, p, cut)


def test_connectivity_floor_changes_no_answer_on_larger_graphs():
    rng = random.Random(8)
    for g in _differential_catalogue():
        full = _without_floor(g)
        assert vertex_connectivity(g) == vertex_connectivity(full), g.edges()
        for s in sorted({1, *rng.sample(range(1, g.n + 1), 2)}):
            assert source_separation(g, s) == source_separation(full, s), (g.edges(), s)


def test_max_flow_leaves_no_passage_without_edges():
    # The first path is 1-2-8-6-3-10. The second, 1-4-3-6-8-2-9-10 in the
    # residual graph, pushes a unit from 6 to 8 while 8 still sends one to 6.
    # That closes the circulation 6-8-6, which must go with both vertex
    # passages: kept as passing flow with no edges, 6 and 8 block the third
    # path, through 7, and the count comes out 2 with a failing certificate.
    g = Network(10, [(1, 2), (1, 4), (1, 7), (2, 8), (2, 9), (3, 4), (3, 5), (3, 6),
                     (3, 9), (3, 10), (4, 5), (5, 10), (6, 7), (6, 8), (7, 8), (8, 9),
                     (9, 10)])
    count, through, edge_flow, _ = graphs._max_disjoint_flow(g, 1, 10)
    assert count == 3
    assert through == {a for a, _ in edge_flow if a != 1}
    assert disjoint_paths(g, 1, 10, 3).paths == (
        (1, 2, 9, 10), (1, 4, 5, 10), (1, 7, 6, 3, 10),
    )
    assert vertex_connectivity(g) == 3
    assert source_separation(g, 1)[1] == (3, frozenset({2, 4, 7}), 3)


# --- the integer-encoded search against the tuple-encoded reference ----------


def _encoded(reach):
    return None if reach is None else {2 * v + (side == "out") for side, v in reach}


def _assert_flows_match_reference(g, ends=None):
    """Each ordered pair, or each with an endpoint in `ends`: the flow at
    limits None/1/2/3 leaves the reference's count, passages, edge units
    and reachable set, and `_capped_count` is min(cap, reference count) for
    caps 0..8. A flow limited to L <= count is the reference's state after L
    augmentations, and one limited to count + 1 is the maximum flow; it runs
    before the uncapped flow, so a search that finds a path too many fails
    here instead of augmenting for ever. Other limits above count, and caps
    above count + 1, run the same augmentations as one checked here, so they
    are skipped."""
    for s in g.vertices:
        for t in g.vertices:
            if s == t or ends is not None and s not in ends and t not in ends:
                continue
            through, edge_flow = set(), set()
            states = [(set(), set())]
            while (reach := reference_augment(g, s, t, through, edge_flow)) is None:
                states.append((set(through), set(edge_flow)))
            count = len(states) - 1
            for limit in [L for L in (1, 2, 3) if L <= count] + [count + 1, None]:
                if limit is not None and limit <= count:
                    expected = (limit, *states[limit], None)
                else:
                    expected = (count, through, edge_flow, _encoded(reach))
                got = graphs._max_disjoint_flow(g, s, t, limit)
                got = got[:3] + (None if got[3] is None else set(got[3]),)
                assert got == expected, (g.edges(), s, t, limit)
            for cap in range(min(8, count + 1) + 1):
                assert graphs._capped_count(g, s, t, cap) == min(cap, count), (
                    g.edges(), s, t, cap)


def test_max_flow_matches_reference_on_random_and_analyze_graphs():
    rng = random.Random(15)
    for _ in range(20):
        n = rng.randint(4, 14)
        p = rng.choice([0.2, 0.35, 0.5, 0.7, 0.9])
        _assert_flows_match_reference(Network(n, [
            (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p
        ]))
    # the analyze workload's graphs, relabelled; past 20 vertices, every
    # pair through three seeded vertices
    for g in (make_two_clique_network(8, 4), make_two_clique_network(10, 8),
              make_two_clique_network(12, 10), make_two_clique_network(20, 12),
              complete_minus_matching(19, 9), cycle_network(40)):
        g = _relabelled(g, rng)
        _assert_flows_match_reference(g, None if g.n <= 20 else rng.sample(range(1, g.n + 1), 3))


def test_max_flow_matches_reference_on_the_atlas():
    nx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g

    for G in graph_atlas_g():
        if G.number_of_nodes() >= 2 and nx.is_connected(G):
            _assert_flows_match_reference(
                Network(G.number_of_nodes(), [(a + 1, b + 1) for a, b in G.edges()]))


def _flood_plans_text():
    g = make_two_clique_network(5, 9)
    scheme = flood_scheme(g, 1, 9)
    lines = []
    for u in g.vertices:
        for v in g.vertices:
            routes = " ".join(
                "-".join(map(str, r.path)) + "@" + ",".join(map(str, r.inject_rounds))
                for r in scheme.plan(u, v).routes
            )
            lines.append(f"{u} {v}: {routes}")
    return "\n".join(lines) + "\n"


def _all_disjoint_paths_text(g):
    lines = []
    for u in g.vertices:
        for v in g.vertices:
            if u != v and not g.adjacent(u, v):
                system = disjoint_paths(g, u, v, local_connectivity(g, u, v))
                lines.append(f"{u} {v}: " + " ".join("-".join(map(str, p)) for p in system.paths))
    return "\n".join(lines) + "\n"


# SHA-256 of the texts above, generated before the connectivity queries were
# capped: every pre-agreed route must stay the same.
FLOW_PINS = {
    "flood two-clique 5 9 m=1 kappa=9": (
        _flood_plans_text,
        "f2f773e52ec496cdbe8429aeee3c9a0ddcfbd0a1ddae18f8fec6922140049267",
    ),
    "disjoint paths two-clique 8 4": (
        lambda: _all_disjoint_paths_text(make_two_clique_network(8, 4)),
        "d81de7f9d027ce33231f18decacf320f8f376195e38b35fe12e277dfecbb3d10",
    ),
    "disjoint paths cycle 12": (
        lambda: _all_disjoint_paths_text(cycle_network(12)),
        "395d187ff74cc33265ae99c2fe150de7499f1cbf34a135d9c02f1c5cb9f0cb11",
    ),
}


@pytest.mark.parametrize("name", sorted(FLOW_PINS))
def test_flow_identity_pin(name):
    text, digest = FLOW_PINS[name]
    assert hashlib.sha256(text().encode()).hexdigest() == digest


def test_certificate_check_survives_optimized_mode():
    src = str(Path(mobyz.__file__).resolve().parent.parent)
    code = (
        "from mobyz import graphs\n"
        "augment = graphs._augment\n"
        "graphs._augment = lambda g, s, t, through, edge_flow: (\n"
        "    augment(g, s, t, through, edge_flow) and {2 * s + 1})\n"
        "try:\n"
        "    graphs.source_separation(graphs.make_two_clique_network(4, 4), 1)\n"
        "except RuntimeError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-O", "-c", code], env=env).returncode == 0
