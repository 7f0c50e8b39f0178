import hashlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mobyz import cli, graphs, sim

from test_trace_pins import PINS


def invoke(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


BASELINE = """\
# complete-network baseline
network = complete 7
m = 1
source-value = 1
protocol = bare
strategy = random
seed = 42
"""


def test_run_writes_trace_and_verdict(tmp_path, capsys):
    scenario = write(tmp_path, "s.txt", BASELINE)
    out = tmp_path / "out"
    code, stdout, _ = invoke(capsys, "run", scenario, "-o", str(out))
    assert code == 0
    assert "agreement: pass" in stdout
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["agreement"] == "pass"
    trace_lines = (out / "trace.jsonl").read_text().splitlines()
    assert len(trace_lines) == 14


def test_run_rejects_bare_on_incomplete_graph(tmp_path, capsys):
    scenario = write(
        tmp_path, "bad.txt", "network = two-clique 4 4\nm = 1\nprotocol = bare\n"
    )
    code, _, err = invoke(capsys, "run", scenario)
    assert code == 2
    assert "complete network" in err


def test_run_reports_missing_keys(tmp_path, capsys):
    scenario = write(tmp_path, "bad.txt", "network = complete 7\n")
    code, _, err = invoke(capsys, "run", scenario)
    assert code == 2
    assert "m" in err


def test_run_rejects_lifted_rounds_it_cannot_honour(tmp_path, capsys):
    scenario = write(
        tmp_path,
        "lifted.txt",
        "network = two-clique 4 5\nm = 1\nprotocol = lifted two-round\nrounds = 10\n",
    )
    code, _, err = invoke(capsys, "run", scenario)
    assert code == 2
    assert "52 physical rounds" in err


@pytest.mark.parametrize("text, message", [
    ("network = complete 7\nm = 1\nrounds = 0\n", "scenario error: rounds must be at least 1, got 0"),
    ("network = complete 7\nm = 1\nrounds = -3\n", "scenario error: rounds must be at least 1, got -3"),
    ("network = complete 7\nm = 1\nprotocol = relay\nrounds = 0\n",
     "scenario error: rounds must be at least 1, got 0"),
    ("network = complete 5\nm = 1\npair = five-set\nrounds = 0\n",
     "scenario error: pair: rounds must be at least 1, got 0"),
    ("network = two-clique 4 4\nm = 1\npair = cut-set\ncut = 9,10,11,12\nobserver = 5\n"
     "rounds = -3\n", "scenario error: pair: rounds must be at least 1, got -3"),
], ids=["bare-0", "bare-negative", "relay-0", "five-set-0", "cut-set-negative"])
def test_run_rejects_fewer_than_one_round(tmp_path, capsys, text, message):
    code, _, err = invoke(capsys, "run", write(tmp_path, "short.txt", text))
    assert (code, err.splitlines()) == (2, [message])


def test_run_rejects_negative_fault_bound(tmp_path, capsys):
    scenario = write(
        tmp_path, "relay.txt",
        "network = two-clique 4 4\nm = -1\nprotocol = relay\nstrategy = random\n",
    )
    code, _, err = invoke(capsys, "run", scenario)
    assert code == 2
    assert "non-negative" in err


def test_run_rejects_source_value_outside_the_alphabet(tmp_path, capsys):
    text = BASELINE.replace("source-value = 1\n", "source-value = 5\n")
    scenario = write(tmp_path, "bad.txt", text)
    code, _, err = invoke(capsys, "run", scenario)
    assert code == 2
    assert "outside the alphabet" in err


def test_run_rejects_a_malformed_source_value(tmp_path, capsys):
    text = BASELINE.replace("source-value = 1\n", "source-value = banana\n")
    scenario = write(tmp_path, "bad.txt", text)
    code, _, err = invoke(capsys, "run", scenario)
    assert code == 2
    assert "source-value: not a value: 'banana'" in err


def test_run_rejects_a_malformed_cut(tmp_path, capsys):
    scenario = write(
        tmp_path,
        "pair.txt",
        "network = two-clique 4 4\nm = 1\npair = cut-set\ncut = 9,x\nobserver = 5\n",
    )
    code, _, err = invoke(capsys, "run", scenario)
    assert code == 2
    assert "cut: not a list of processor ids: '9,x'" in err


def test_run_five_set_pair_file(tmp_path, capsys):
    scenario = write(tmp_path, "pair.txt", "network = complete 5\nm = 1\npair = five-set\n")
    code, stdout, _ = invoke(capsys, "run", scenario)
    assert code == 0
    assert "indistinguishable" in stdout


def test_run_cut_set_pair_file(tmp_path, capsys):
    scenario = write(
        tmp_path,
        "pair.txt",
        "network = two-clique 4 4\nm = 1\npair = cut-set\ncut = 9,10,11,12\nobserver = 5\n",
    )
    code, stdout, _ = invoke(capsys, "run", scenario)
    assert code == 0
    assert "indistinguishable" in stdout


def test_run_pair_writes_both_traces_from_one_run_each(tmp_path, capsys, monkeypatch):
    calls = []
    real_run = sim.run
    monkeypatch.setattr(sim, "run", lambda scenario: calls.append(scenario) or real_run(scenario))
    scenario = write(
        tmp_path,
        "pair.txt",
        "network = two-clique 4 4\nm = 1\npair = cut-set\ncut = 9,10,11,12\nobserver = 5\n",
    )
    out = tmp_path / "out"
    code, stdout, _ = invoke(capsys, "run", scenario, "-o", str(out))
    assert code == 0 and "indistinguishable" in stdout
    assert len(calls) == 2
    for which in ("a", "b"):
        written = (out / f"trace_{which}.jsonl").read_bytes()
        assert hashlib.sha256(written).hexdigest() == PINS[f"cut-set-two-clique-4-4-{which}"]


def test_run_inline_edges(tmp_path, capsys):
    scenario = write(
        tmp_path,
        "inline.txt",
        "network = inline\nm = 1\nprotocol = relay\nstrategy = none\n"
        "[edges]\n1 2\n2 3\n1 3\n",
    )
    code, stdout, _ = invoke(capsys, "run", scenario)
    assert code == 0


@pytest.mark.parametrize("section, row, message", [
    ("1 2\n1 two\n", 2, "not vertex ids: '1 two'"),
    ("1 two\n", 1, "not vertex ids: '1 two'"),
    ("\n# the graph\n1 two  # bad\n", 3, "not vertex ids: '1 two  # bad'"),
    ("1 2 3\n", 1, "expected 1 or 2 ids"),
    ("", None, "empty edge list"),
    ("1 1\n", None, "self-loop at 1"),
], ids=["second-line", "not-an-id", "after-blank-and-comment", "three-ids", "empty", "self-loop"])
@pytest.mark.parametrize("kind", ["single-run", "cut-set"])
def test_run_reports_a_malformed_inline_edge_list(tmp_path, capsys, section, row, message, kind):
    # a bad row is named by its line in the scenario file
    head = "# inline\n\nnetwork = inline\nm = 1\n"
    if kind == "cut-set":
        head += "pair = cut-set\ncut = 2\nobserver = 3\n"
    if row is not None:
        line = head.count("\n") + 1 + row  # the [edges] line, then the row
        message = f"edge list line {line}: {message}"
    scenario = write(tmp_path, "s.txt", head + "[edges]\n" + section)
    code, stdout, err = invoke(capsys, "run", scenario)
    assert code == 2
    assert stdout == ""
    assert err.splitlines() == [f"scenario error: network: {message}"]


def test_analyze_impossible_with_certificate(tmp_path, capsys):
    g = graphs.make_two_clique_network(4, 4)
    path = write(tmp_path, "g.edges", graphs.write_edge_list(g))
    code, stdout, _ = invoke(capsys, "analyze", path, "-m", "1")
    assert code == 0
    assert "IMPOSSIBLE" in stdout
    assert "{9, 10, 11, 12}" in stdout


def test_analyze_possible_by_degree(tmp_path, capsys):
    g = graphs.complete_minus_matching(7, 1)
    path = write(tmp_path, "g.edges", graphs.write_edge_list(g))
    code, stdout, _ = invoke(capsys, "analyze", path, "-m", "1")
    assert code == 0
    assert "POSSIBLE" in stdout and "degree bound" in stdout
    assert "min degree: 5" in stdout
    assert "9/2" in stdout  # the exact threshold n/2+2m-1 = 4.5


def test_analyze_possible_by_connectivity(tmp_path, capsys):
    # kappa = 9 on n=25 gives T=4, K=3 < 25/6 while the degree bound fails
    g = graphs.make_two_clique_network(8, 9)
    path = write(tmp_path, "g.edges", graphs.write_edge_list(g))
    code, stdout, _ = invoke(capsys, "analyze", path, "-m", "1")
    assert code == 0
    assert "min degree: 16" in stdout  # threshold is 27/2 = 13.5 < 16... met
    assert "POSSIBLE" in stdout


def test_analyze_cycle_impossible(tmp_path, capsys):
    g = graphs.cycle_network(9)
    path = write(tmp_path, "g.edges", graphs.write_edge_list(g))
    code, stdout, _ = invoke(capsys, "analyze", path, "-m", "2")
    assert code == 0
    assert "IMPOSSIBLE" in stdout  # cycles always have 2-vertex cuts


def test_analyze_unknown_when_no_bound_applies(tmp_path, capsys):
    # a star with the source at the center: every separator contains the
    # source, so the impossibility argument cannot fire, yet no sufficiency
    # bound comes close either
    g = graphs.star_network(8)
    path = write(tmp_path, "g.edges", graphs.write_edge_list(g))
    code, stdout, _ = invoke(capsys, "analyze", path, "-m", "1")
    assert code == 0
    assert "UNKNOWN" in stdout


def _relabelled(g, seed):
    """g with its vertex ids permuted by a seeded shuffle."""
    ids = list(g.vertices)
    random.Random(seed).shuffle(ids)
    new = dict(zip(g.vertices, ids))
    return graphs.Network(g.n, [(new[u], new[v]) for u, v in g.edges()])


# SHA-256 of `mobyz analyze` stdout, as (graph, m, source, digest): the six
# benchmark graphs at their m, a source adjacent to every vertex (no
# certificate), a source on the far side of a cut, and two relabellings that
# move the certificate. Generated before the source queries shared one flow
# pass; every figure and certificate must stay the same.
ANALYZE_PINS = {
    "two-clique 8 4 m=1": (
        lambda: graphs.make_two_clique_network(8, 4), 1, 1,
        "3513cf532fc553dde6b1b3a2003baab8a0d05e0b7e7332014fed519b0cb6466d",
    ),
    "two-clique 10 8 m=2": (
        lambda: graphs.make_two_clique_network(10, 8), 2, 1,
        "114eb991948a58a3e66f3e701499b80be3bf8c95c93bf9da9ba5d46b2d873764",
    ),
    "two-clique 12 10 m=2": (
        lambda: graphs.make_two_clique_network(12, 10), 2, 1,
        "8a92065e42a220c3bc8fa65998a643ba5466ebfb1818afa00b9494a87bc6e5f4",
    ),
    "two-clique 20 12 m=3": (
        lambda: graphs.make_two_clique_network(20, 12), 3, 1,
        "aea796ec8bb1b4cf720eec903b18d53c8312fab1643afe6723c6e8937827a847",
    ),
    "complete-minus-matching 19 9 m=1": (
        lambda: graphs.complete_minus_matching(19, 9), 1, 1,
        "1c407919317f8f736649af3f31bd935aaaca08516fffaaefcc55e3c20a74d20b",
    ),
    "cycle 40 m=1": (
        lambda: graphs.cycle_network(40), 1, 1,
        "029cc9079bec33938ec2e2b550d7f6a683fd7e0ef51a9e4e48de97421435ca35",
    ),
    "star 9 m=1": (
        lambda: graphs.star_network(9), 1, 1,
        "e910f3c6116b7a5ff6b97fadf921224285a56b37f345c082e783f696abe387ed",
    ),
    "two-clique 10 8 m=2 source 12": (
        lambda: graphs.make_two_clique_network(10, 8), 2, 12,
        "9e3eb64f8b7d2140fd8903fdbd6bd40f1cd3faca5370c11ddfc1f831172add68",
    ),
    "two-clique 8 4 m=1 relabelled 1": (
        lambda: _relabelled(graphs.make_two_clique_network(8, 4), 1), 1, 1,
        "141acae55c0534f97db7a80ec75fa9aa64c38e1f2ff0ef66b5e062b6508321f1",
    ),
    "cycle 40 m=1 relabelled 2": (
        lambda: _relabelled(graphs.cycle_network(40), 2), 1, 1,
        "cd920c46305f08be87a075245e5328d8e1b821b5d48e0fc986c0bf23c4dab917",
    ),
}


@pytest.mark.parametrize("name", sorted(ANALYZE_PINS))
def test_analyze_stdout_pin(name, tmp_path, capsys):
    graph, m, source, digest = ANALYZE_PINS[name]
    path = write(tmp_path, "g.edges", graphs.write_edge_list(graph()))
    code, stdout, _ = invoke(capsys, "analyze", path, "-m", str(m), "--source", str(source))
    assert code == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == digest


def test_the_kept_parser_carries_nothing_between_calls(tmp_path, capsys):
    assert cli._parser() is cli._parser()
    g = graphs.make_two_clique_network(10, 8)
    path = write(tmp_path, "g.edges", graphs.write_edge_list(g))
    for argv, name in (([], "two-clique 10 8 m=2"),
                       (["--source", "12"], "two-clique 10 8 m=2 source 12"),
                       ([], "two-clique 10 8 m=2")):
        code, stdout, _ = invoke(capsys, "analyze", path, "-m", "2", *argv)
        assert code == 0
        assert hashlib.sha256(stdout.encode()).hexdigest() == ANALYZE_PINS[name][3], argv
    out = tmp_path / "c5.edges"
    assert invoke(capsys, "generate", "cycle", "5", "-o", str(out))[:2] == (
        0, f"wrote 5 vertices, 5 edges to {out}\n")
    code, stdout, _ = invoke(capsys, "generate", "complete", "4")
    assert (code, stdout) == (0, graphs.write_edge_list(graphs.complete_network(4)))
    code, stdout, _ = invoke(capsys, "run", write(tmp_path, "s.txt", BASELINE))
    assert code == 0 and "agreement: pass" in stdout


def test_the_parser_is_not_built_at_import():
    src = str(Path(cli.__file__).resolve().parent.parent)
    code = "from mobyz import cli\nraise SystemExit(cli._parser.cache_info().currsize)\n"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@pytest.mark.parametrize("edges, argv, message", [
    ("1 2\n2 3\n", ["-m", "0"], "-m must be at least 1, got 0"),
    ("1 2\n2 3\n", ["-m", "-1"], "-m must be at least 1, got -1"),
    ("1 2\n2 3\n", ["-m", "1", "--source", "99"], "--source 99 is not a vertex of 1..3"),
    ("1 2\n2 3\n", ["-m", "1", "--source", "0"], "--source 0 is not a vertex of 1..3"),
    ("1 2\n", ["-m", "1"], "analyze needs at least three vertices, got 2"),
], ids=["m-zero", "m-negative", "source-too-large", "source-zero", "two-vertices"])
def test_analyze_rejects_bad_input(tmp_path, capsys, edges, argv, message):
    path = write(tmp_path, "g.edges", edges)
    code, stdout, err = invoke(capsys, "analyze", path, *argv)
    assert code == 2
    assert stdout == ""
    assert err.splitlines() == [f"error: {message}"]


def test_campaign_aggregates(tmp_path, capsys):
    scenario = write(tmp_path, "s.txt", BASELINE)
    code, stdout, _ = invoke(capsys, "campaign", scenario, "--seeds", "50")
    assert code == 0
    assert "seeds: 50" in stdout
    assert "fail: 0" in stdout


def test_campaign_without_seeds_runs_the_file_seed(tmp_path, capsys, monkeypatch):
    ran = []
    real_run = sim.run

    def recording_run(scenario):
        ran.append(scenario.seed)
        return real_run(scenario)

    monkeypatch.setattr(sim, "run", recording_run)
    scenario = write(tmp_path, "s.txt", BASELINE)
    code, stdout, _ = invoke(capsys, "campaign", scenario)
    assert code == 0
    assert "seeds: 1" in stdout
    assert ran == [42]


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_campaign_rejects_fewer_than_one_seed(tmp_path, capsys, seeds):
    scenario = write(tmp_path, "s.txt", BASELINE)
    code, stdout, err = invoke(capsys, "campaign", scenario, "--seeds", seeds)
    assert code == 2
    assert stdout == ""
    assert err.splitlines() == [f"error: --seeds must be at least 1, got {seeds}"]


def test_campaign_rejects_undersized_network(tmp_path, capsys):
    scenario = write(tmp_path, "s.txt", "network = complete 6\nm = 1\n")
    code, _, err = invoke(capsys, "campaign", scenario, "--seeds", "5")
    assert code == 2
    assert "n > 6" in err


def test_campaign_lifted_scheme_on_two_clique(tmp_path, capsys):
    # the degree-qualifying two-clique with one extra bridge vertex supports
    # the two-round scheme end to end
    scenario = write(
        tmp_path,
        "lifted.txt",
        "network = two-clique 4 5\nm = 1\nprotocol = lifted two-round\n"
        "strategy = random\n",
    )
    code, stdout, _ = invoke(capsys, "campaign", scenario, "--seeds", "3")
    assert code == 0
    assert "seeds: 3" in stdout and "fail: 0" in stdout


def test_analyze_impossible_consistent_with_local_connectivity(tmp_path, capsys):
    # IMPOSSIBLE verdicts always coincide with a small source-avoiding cut
    for clique, bridge, m in [(4, 4, 1), (3, 2, 1), (5, 8, 2)]:
        g = graphs.make_two_clique_network(clique, bridge)
        path = write(tmp_path, f"g{clique}{bridge}.edges", graphs.write_edge_list(g))
        code, stdout, _ = invoke(capsys, "analyze", path, "-m", str(m))
        assert code == 0
        if "IMPOSSIBLE" in stdout:
            assert graphs.source_separation(g, 1)[0] <= 4 * m


def test_generate_roundtrip(tmp_path, capsys):
    out = tmp_path / "k7.edges"
    code, stdout, _ = invoke(capsys, "generate", "complete", "7", "-o", str(out))
    assert code == 0
    g = graphs.read_edge_list(out.read_text())
    assert g.n == 7 and g.is_complete()


def test_generate_to_stdout(capsys):
    code, stdout, _ = invoke(capsys, "generate", "cycle", "5")
    assert code == 0
    assert len(stdout.splitlines()) == 5


FIVE_SET = "network = complete 5\nm = 1\npair = five-set\n"
CUT_SET = "network = two-clique 4 4\nm = 1\npair = cut-set\ncut = 9,10,11,12\nobserver = 5\n"


def test_pair_is_not_a_command(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["pair", "five-set"])
    assert exit_.value.code == 2
    assert "invalid choice: 'pair'" in capsys.readouterr().err


def test_run_perturbed_pair_diverges(tmp_path, capsys):
    scenario = write(tmp_path, "pair.txt", FIVE_SET + "perturb = 3 2\n")
    code, stdout, _ = invoke(capsys, "run", scenario)
    assert code == 1
    assert "DISTINGUISHABLE" in stdout
    assert "round 3" in stdout


def test_run_perturb_that_overrides_nothing_is_an_error(tmp_path, capsys):
    # processor 5 is in no set the five-set adversary controls in round 3
    scenario = write(tmp_path, "pair.txt", FIVE_SET + "perturb = 3 5\n")
    code, stdout, err = invoke(capsys, "run", scenario)
    assert code == 1
    assert stdout == ""
    assert err.splitlines() == [
        "error: perturb: sender 5 is not controlled in round 3 of the second run, "
        "so no forged payload was overridden"
    ]


def test_run_five_set_pair_rejects_n_above_5m(tmp_path, capsys):
    scenario = write(tmp_path, "pair.txt", FIVE_SET.replace("complete 5", "complete 6"))
    code, _, err = invoke(capsys, "run", scenario)
    assert code == 2
    assert "5m" in err


def test_run_five_set_pair_swapped(tmp_path, capsys):
    scenario = write(tmp_path, "pair.txt", FIVE_SET + "swap = true\n")
    code, stdout, _ = invoke(capsys, "run", scenario)
    assert code == 0
    assert "indistinguishable: observers [2, 3]" in stdout


@pytest.mark.parametrize("text, message", [
    (BASELINE + "sed = 5\n", "sed: not a key of a single-run scenario"),
    (BASELINE + "cut = 3\n", "cut: not a key of a single-run scenario"),
    (FIVE_SET + "strategy = random\n", "strategy: not a key of a five-set pair scenario"),
    (FIVE_SET + "seed = 3\n", "seed: not a key of a five-set pair scenario"),
    (CUT_SET + "fake-value = 2\n", "fake-value: not a key of a cut-set pair scenario"),
    (CUT_SET + "swap = true\n", "swap: not a key of a cut-set pair scenario"),
    (FIVE_SET + "swap = yes\n", "swap: not true or false: 'yes'"),
    (FIVE_SET.replace("five-set", "six-set"), "pair: unknown kind 'six-set'"),
    (FIVE_SET.replace("complete 5", "cycle 5"),
     "pair: five-set needs a complete network, not 'cycle 5'"),
    (FIVE_SET + "perturb = 3\n", "perturb: not ROUND SENDER: '3'"),
    (FIVE_SET + "perturb = 3 2 1\n", "perturb: not ROUND SENDER: '3 2 1'"),
    (FIVE_SET + "perturb = 11 2\n", "perturb: round 11 or sender 2 is outside the run"),
    (CUT_SET + "perturb = 3 13\n", "perturb: round 3 or sender 13 is outside the run"),
    (BASELINE + "source-value = 0\n", "source-value: given twice, on lines 4 and 8"),
    (FIVE_SET + "m = 1\n", "m: given twice, on lines 2 and 4"),
    ("network = inline\nm = 0\n[edges]\n1 2\n[edges]\n2 3\n",
     "[edges]: given twice, on lines 3 and 5"),
    # every transfer plan is built when the file is read, not mid-run
    ("network = cycle 13\nm = 1\nprotocol = lifted two-round\n",
     "protocol: pair (1,2) has 0 common neighbors, needs 3"),
    ("network = two-clique 8 9\nm = 1\nprotocol = lifted flood 10\n",
     "protocol: requested 10 disjoint paths between 1 and 9; maximum is 9"),
    ("network = two-clique 8 9\nm = 1\nprotocol = lifted flood x\n",
     "protocol: kappa is not an integer: 'x'"),
    # an empty value, or words past what the key takes
    (BASELINE.replace("protocol = bare", "protocol ="), "protocol: no value given"),
    (BASELINE.replace("strategy = random", "strategy ="), "strategy: no value given"),
    (BASELINE.replace("network = complete 7", "network ="), "network: no value given"),
    (BASELINE.replace("protocol = bare", "protocol = bare junk"),
     "protocol: unexpected 'junk' after 'bare'"),
    (BASELINE.replace("protocol = bare", "protocol = relay junk"),
     "protocol: unexpected 'junk' after 'relay'"),
    (BASELINE.replace("protocol = bare", "protocol = banana"), "protocol: unknown kind 'banana'"),
    ("network = complete-minus-matching 13 6\nm = 1\nprotocol = lifted two-round junk\n",
     "protocol: unexpected 'junk' after 'lifted two-round'"),
    ("network = two-clique 5 9\nm = 1\nprotocol = lifted flood 9 9\n",
     "protocol: unexpected '9' after 'lifted flood 9'"),
    (BASELINE.replace("strategy = random", "strategy = random junk"),
     "strategy: unexpected 'junk' after 'random'"),
    (BASELINE.replace("strategy = random", "strategy = static 2 constant:1 junk"),
     "strategy: unexpected 'junk' after 'static 2 constant:1'"),
    (BASELINE.replace("strategy = random", "strategy = static 2 constant:1:0"),
     "strategy: static rule constant takes 1 value(s): 'constant:1:0'"),
    (BASELINE.replace("strategy = random", "strategy = static 2 split:0"),
     "strategy: static rule split takes 2 value(s): 'split:0'"),
    (BASELINE.replace("strategy = random", "strategy = alternating 2 3 fake=0 junk"),
     "strategy: unexpected 'junk' after 'alternating 2 3 fake=0'"),
    (BASELINE.replace("strategy = random", "strategy = alternating 2 3 fak=0"),
     "strategy: alternating needs fake=V, not 'fak=0'"),
    ("network = inline junk\nm = 1\n[edges]\n1 2\n", "network: unexpected 'junk' after 'inline'"),
], ids=[
    "typo", "cut-in-single-run", "strategy-in-pair", "seed-in-pair",
    "fake-value-in-cut-set", "swap-in-cut-set", "swap-not-boolean", "unknown-pair",
    "five-set-on-cycle", "perturb-one-id", "perturb-three-ids", "perturb-round-too-late",
    "perturb-no-such-sender", "repeated-key", "repeated-key-in-pair", "repeated-edges",
    "two-round-without-common-neighbours", "flood-kappa-above-connectivity", "flood-kappa-not-int",
    "empty-protocol", "empty-strategy", "empty-network", "bare-extra", "relay-extra",
    "unknown-protocol", "two-round-extra", "flood-extra", "random-extra", "static-extra",
    "constant-extra-value", "split-missing-value", "alternating-extra", "alternating-not-fake",
    "inline-extra",
])
def test_run_rejects_what_the_file_kind_does_not_read(tmp_path, capsys, text, message):
    scenario = write(tmp_path, "s.txt", text)
    code, stdout, err = invoke(capsys, "run", scenario)
    assert code == 2
    assert stdout == ""
    assert err.splitlines() == [f"scenario error: {message}"]


def _readme_section(title):
    text = (Path(__file__).parent.parent / "README.md").read_text()
    return text.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def _readme_scenario_examples():
    """The README's runnable scenario files, by pair kind ("single-run")."""
    blocks = _readme_section("Scenario files").split("```")[1::2]
    return {
        re.search(r"^pair = (\S+)", b, re.M)[1] if "pair =" in b else "single-run": b
        for b in blocks if "network =" in b
    }


def test_readme_lists_every_scenario_key():
    section = _readme_section("Scenario files")
    for key in sorted(set().union(*cli.KEYS.values())):
        assert re.search(rf"^{key} = ", section, re.M), key


@pytest.mark.parametrize("kind", ["single-run", "five-set", "cut-set"])
def test_readme_scenario_examples_run(tmp_path, capsys, kind):
    scenario = write(tmp_path, "s.txt", _readme_scenario_examples()[kind])
    code, stdout, _ = invoke(capsys, "run", scenario)
    assert code == 0
    assert ("indistinguishable" if kind != "single-run" else "agreement: pass") in stdout
