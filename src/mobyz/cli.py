"""Batch front-end: scenario files in, traces/verdicts/reports out.

Scenario files are flat `key = value` text (hand-editable, diff-friendly),
with an optional [edges] section for inline graphs; `#` starts a comment.
See the README for the full grammar. Exit codes: 0 all verdicts pass or are
vacuous, 1 a verdict failed, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import adversary, comms, graphs, sim
from .core import MANY, PairMessage, parse_value
from .protocol import ProtocolParams


class ScenarioError(Exception):
    """A scenario file problem, naming the offending field."""


GENERATORS = {
    "complete": (graphs.complete_network, 1),
    "two-clique": (graphs.make_two_clique_network, 2),
    "complete-minus-matching": (graphs.complete_minus_matching, 2),
    "cycle": (graphs.cycle_network, 1),
    "star": (graphs.star_network, 1),
}


def _words(key: str, value: str) -> list:
    """The words of a key's value; an empty value is an error."""
    words = value.split()
    if not words:
        raise ScenarioError(f"{key}: no value given")
    return words


def _no_more(key: str, words: list, used: int) -> None:
    """Reject the words of a key's value past the first `used`."""
    if len(words) > used:
        raise ScenarioError(
            f"{key}: unexpected {' '.join(words[used:])!r} after {' '.join(words[:used])!r}"
        )


def _build_graph(desc: str, base_dir: Path, inline_edges):
    parts = _words("network", desc)
    kind = parts[0]
    if kind == "inline":
        _no_more("network", parts, 1)
        if inline_edges is None:
            raise ScenarioError("network: inline requires an [edges] section")
        try:
            return graphs.read_edge_list(inline_edges)
        except ValueError as e:
            raise ScenarioError(f"network: {e}") from None
    if kind == "file":
        if len(parts) != 2:
            raise ScenarioError("network: file needs exactly one path")
        try:
            return graphs.read_edge_list((base_dir / parts[1]).read_text())
        except (OSError, ValueError) as e:
            raise ScenarioError(f"network: {e}") from None
    if kind not in GENERATORS:
        raise ScenarioError(f"network: unknown kind {kind!r}")
    fn, argc = GENERATORS[kind]
    if len(parts) != argc + 1:
        raise ScenarioError(f"network: {kind} takes {argc} integer argument(s)")
    try:
        return fn(*[int(p) for p in parts[1:]])
    except ValueError as e:
        raise ScenarioError(f"network: {e}") from None


def _parse_ids(text: str):
    return [int(t) for t in text.replace(",", " ").split()]


# strategy kind -> the most words its value takes, the kind included
_STRATEGY_WORDS = {"none": 1, "random": 1, "static": 3, "alternating": 4}
# static rule -> the number of its ':'-separated parts
_STATIC_RULE_PARTS = {"random": 1, "constant": 2, "split": 3}


def _lie(key: str, text: str, alphabet: int):
    """A value the file names for a lie: a plain symbol of the alphabet."""
    value = _parsed(key, text, parse_value, "a value")
    if not value.is_plain or value.symbol >= alphabet:
        raise ScenarioError(
            f"{key}: lie {text} is not a plain symbol of the alphabet 0..{alphabet - 1}"
        )
    return value


def _build_strategy(desc: str, m: int, alphabet: int):
    parts = _words("strategy", desc)
    kind = parts[0]
    if kind not in _STRATEGY_WORDS:
        raise ScenarioError(f"strategy: unknown kind {kind!r}")
    _no_more("strategy", parts, _STRATEGY_WORDS[kind])
    try:
        if kind == "none":
            return adversary.NoFaults()
        if kind == "random":
            return adversary.RandomizedControl()
        if kind == "static":
            members = _parse_ids(parts[1])
            rule = ("random",)
            if len(parts) > 2:
                bits = parts[2].split(":")
                if bits[0] not in _STATIC_RULE_PARTS:
                    raise ScenarioError(f"strategy: unknown static rule {bits[0]!r}")
                if len(bits) != _STATIC_RULE_PARTS[bits[0]]:
                    raise ScenarioError(
                        f"strategy: static rule {bits[0]} takes "
                        f"{_STATIC_RULE_PARTS[bits[0]] - 1} value(s): {parts[2]!r}"
                    )
                rule = (bits[0], *(_lie("strategy", bit, alphabet) for bit in bits[1:]))
            return adversary.StaticControl(members, m, rule)
        odd = _parse_ids(parts[1])
        even = _parse_ids(parts[2])
        name, _, fake = parts[3].partition("=")
        if name != "fake":
            raise ScenarioError(f"strategy: alternating needs fake=V, not {parts[3]!r}")
        return adversary.AlternatingControl(odd, even, _lie("strategy", fake, alphabet), m)
    except ScenarioError:
        raise
    except (IndexError, ValueError) as e:
        raise ScenarioError(f"strategy: bad arguments for {kind!r}: {e}") from None


# The keys each kind of scenario file reads, by its `pair` value (None: a
# single run). Any other key is an error.
_COMMON = {"network", "m", "rounds"}
KEYS = {
    None: _COMMON | {"source-value", "alphabet", "protocol", "strategy", "seed"},
    "five-set": _COMMON | {"pair", "source-value", "fake-value", "swap", "perturb"},
    "cut-set": _COMMON | {"pair", "cut", "observer", "perturb"},
}


def _need(keys: dict, key: str) -> str:
    if key not in keys:
        raise ScenarioError(f"missing required key: {key}")
    return keys[key]


def _parsed(key: str, value: str, parse=int, what="an integer"):
    try:
        return parse(value)
    except ValueError:
        raise ScenarioError(f"{key}: not {what}: {value!r}") from None


def _symbol(keys: dict, key: str, default: str):
    return _parsed(key, keys.get(key, default), parse_value, "a value")


def _round_and_sender(text: str):
    rno, sender = _parse_ids(text)
    return rno, sender


def _build_pair(kind: str, keys: dict, network, m: int, rounds):
    try:
        if kind == "five-set":
            if not network.is_complete():
                raise ScenarioError(
                    f"pair: five-set needs a complete network, not {keys['network']!r}"
                )
            swap = keys.get("swap", "false")
            if swap not in ("true", "false"):
                raise ScenarioError(f"swap: not true or false: {swap!r}")
            pair = adversary.five_set_pair(
                n=network.n,
                m=m,
                source_value=_symbol(keys, "source-value", "1"),
                fake_value=_lie("fake-value", keys.get("fake-value", "0"), 2),
                rounds=rounds,
                swap=swap == "true",
            )
        else:
            cut = _parsed("cut", _need(keys, "cut"), _parse_ids, "a list of processor ids")
            observer = _parsed("observer", _need(keys, "observer"))
            pair = adversary.cut_set_pair(
                network, sim.SOURCE, cut, observer, m, rounds=rounds
            )
    except ValueError as e:
        raise ScenarioError(f"pair: {e}") from None
    if "perturb" in keys:
        rno, sender = _parsed("perturb", keys["perturb"], _round_and_sender, "ROUND SENDER")
        if not (1 <= rno <= pair.scenario_b.rounds and 1 <= sender <= network.n):
            raise ScenarioError(f"perturb: round {rno} or sender {sender} is outside the run")
        # the sensitivity control: one forged payload toward an observer
        pair.scenario_b.strategy = adversary.OverrideStrategy(
            pair.scenario_b.strategy,
            {(rno, sender, min(pair.observers)): PairMessage(MANY, MANY)},
        )
    return pair


def _build_lifted(protocol: list, network, m: int, alphabet: int):
    """The lifted protocol of `protocol = lifted NAME [KAPPA]`, with the plan
    of every transfer built, so that a network the scheme cannot serve is a
    scenario error here and not a failure in the middle of a run."""
    if len(protocol) < 2:
        raise ScenarioError("protocol: lifted needs a scheme name")
    try:
        if protocol[1] == "two-round":
            _no_more("protocol", protocol, 2)
            scheme = comms.two_round_scheme(network, m)
        elif protocol[1] == "flood":
            if len(protocol) < 3:
                raise ScenarioError("protocol: lifted flood needs kappa")
            _no_more("protocol", protocol, 3)
            try:
                kappa = int(protocol[2])
            except ValueError:
                raise ScenarioError(f"protocol: kappa is not an integer: {protocol[2]!r}") from None
            scheme = comms.flood_scheme(network, m, kappa)
        else:
            raise ScenarioError(f"protocol: unknown scheme {protocol[1]!r}")
    except ValueError as e:
        raise ScenarioError(f"protocol: {e}") from None
    lifted = comms.lift(scheme, ProtocolParams(n=network.n, m=m, alphabet_size=alphabet))
    try:
        for u in network.vertices:
            for v in network.vertices:
                scheme.plan(u, v)
    except ValueError as e:
        raise ScenarioError(f"protocol: {e}") from None
    return lifted


def _build_single(keys: dict, network, m: int, rounds):
    source_value = _symbol(keys, "source-value", "1")
    protocol = _words("protocol", keys.get("protocol", "bare"))
    alphabet = _parsed("alphabet", keys.get("alphabet", "2"))
    mode = protocol[0]
    if mode in ("bare", "relay"):
        _no_more("protocol", protocol, 1)
    elif mode != "lifted":
        raise ScenarioError(f"protocol: unknown kind {mode!r}")
    try:
        lifted = _build_lifted(protocol, network, m, alphabet) if mode == "lifted" else None
        return sim.Scenario(
            network=network,
            m=m,
            source_value=source_value,
            strategy=_build_strategy(keys.get("strategy", "none"), m, alphabet),
            mode=mode,
            lifted=lifted,
            alphabet_size=alphabet,
            rounds=rounds,
            seed=_parsed("seed", keys.get("seed", "0")),
        )
    except ValueError as e:
        raise ScenarioError(str(e)) from None


def _first_time(seen: dict, name: str, lineno: int) -> None:
    if name in seen:
        raise ScenarioError(f"{name}: given twice, on lines {seen[name]} and {lineno}")
    seen[name] = lineno


def parse_scenario_text(text: str, base_dir: Path):
    """Parse a scenario file into ("single", Scenario) or ("pair", ScenarioPair).
    A key, or the [edges] section, given twice is an error."""
    keys = {}
    edges_from = None  # the [edges] line; the section runs to the end
    seen = {}  # key or section -> the line that gave it
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if line != "[edges]":
                raise ScenarioError(f"line {lineno}: unknown section {line}")
            _first_time(seen, line, lineno)
            edges_from = lineno
            continue
        if edges_from is not None:
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        _first_time(seen, key, lineno)
        keys[key] = value.strip()

    kind = keys.get("pair")
    if kind not in KEYS:
        raise ScenarioError(f"pair: unknown kind {kind!r}")
    unknown = sorted(set(keys) - KEYS[kind])
    if unknown:
        what = f"a {kind} pair" if kind else "a single-run"
        raise ScenarioError(f"{unknown[0]}: not a key of {what} scenario")

    # blank lines stand for the ones above the section, so that an edge
    # list error names its line in the file
    inline_edges = None
    if edges_from is not None:
        inline_edges = "\n" * edges_from + "\n".join(lines[edges_from:])
    m = _parsed("m", _need(keys, "m"))
    network = _build_graph(_need(keys, "network"), base_dir, inline_edges)
    rounds = _parsed("rounds", keys["rounds"]) if "rounds" in keys else None
    if kind:
        return "pair", _build_pair(kind, keys, network, m, rounds)
    return "single", _build_single(keys, network, m, rounds)


def _load_scenario(path: str):
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as e:
        raise ScenarioError(f"cannot read scenario: {e}") from None
    return parse_scenario_text(text, p.parent)


# --- subcommands ------------------------------------------------------------------


def _checked(trace, scenario) -> tuple:
    """(verdict, crystallization-claim violations) of a single run; the claim
    is the agreement protocol's, so a relay run has none."""
    claims = [] if scenario.mode == "relay" else sim.check_support_claim(trace, scenario)
    return sim.check_agreement(trace, scenario), claims


def cmd_run(args) -> int:
    kind, obj = _load_scenario(args.scenario)
    outdir = Path(args.output) if args.output else None
    if outdir:
        outdir.mkdir(parents=True, exist_ok=True)
    if kind == "pair":
        trace_a, trace_b = sim.run(obj.scenario_a), sim.run(obj.scenario_b)
        perturbed = obj.scenario_b.strategy
        if isinstance(perturbed, adversary.OverrideStrategy) and not perturbed.applied:
            ((rno, sender, _observer),) = perturbed.overrides
            print(f"error: perturb: sender {sender} is not controlled in round {rno} "
                  f"of the second run, so no forged payload was overridden", file=sys.stderr)
            return 1
        same, where = sim._compare_views(obj, trace_a, trace_b)
        if outdir:
            (outdir / "trace_a.jsonl").write_text(trace_a.to_text())
            (outdir / "trace_b.jsonl").write_text(trace_b.to_text())
        if same:
            print(f"indistinguishable: observers {sorted(obj.observers)} see identical views")
            return 0
        rno, obs, field = where
        print(f"DISTINGUISHABLE: first divergence round {rno}, observer {obs}, {field}")
        return 1
    trace = sim.run(obj)
    verdict, claims = _checked(trace, obj)
    if outdir:
        (outdir / "trace.jsonl").write_text(trace.to_text())
        (outdir / "verdict.json").write_text(
            json.dumps(verdict.to_record(), indent=2, sort_keys=True) + "\n"
        )
    print(f"agreement: {verdict.agreement}   validity: {verdict.validity}")
    if verdict.agreed_value is not None:
        print(f"agreed value: {verdict.agreed_value}")
    elif verdict.agreement == "pass":
        print("agreed value: unset")
    if verdict.first_stable_round is not None:
        print(f"stable from round: {verdict.first_stable_round}")
    for v in verdict.guarantee_violations:
        print(f"guarantee violation: {v}")
    for v in claims:
        print(f"support claim violation: {v}")
    for note in verdict.notes:
        print(f"note: {note}")
    return 0 if verdict.ok and not claims else 1


def cmd_analyze(args) -> int:
    m = args.m
    s = args.source
    try:
        g = graphs.read_edge_list(Path(args.graph).read_text())
        if g.n < 3:
            raise ValueError(f"analyze needs at least three vertices, got {g.n}")
        if m < 1:
            raise ValueError(f"-m must be at least 1, got {m}")
        if not 1 <= s <= g.n:
            raise ValueError(f"--source {s} is not a vertex of 1..{g.n}")
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    n = g.n
    delta = graphs.min_degree(g)
    kappa = graphs.vertex_connectivity(g)
    local, cert = graphs.source_separation(g, s)

    print(f"n: {n}   edges: {g.edge_count()}   m: {m}   source: {s}")
    print(f"min degree: {delta}")
    print(f"vertex connectivity: {kappa}")
    print(f"local connectivity avoiding source: {local}")
    degree_threshold = Fraction(n, 2) + 2 * m - 1
    print(f"degree threshold n/2+2m-1: {degree_threshold}"
          f"   ({'met' if delta > degree_threshold else 'not met'})")
    if n > 6 * m:
        general, ratio_form = comms.kappa_sufficiency_bounds(n, m)
        print(f"connectivity thresholds: general {general}, ratio-form {ratio_form}")
    if kappa > 4 * m:
        T = comms.compute_T(n, m, kappa)
        print(f"transfer rounds T at kappa: {T}")
    else:
        T = None
        print("transfer rounds T at kappa: n/a (kappa <= 4m)")

    if cert is not None and cert[0] <= 4 * m:
        size, cut, far = cert
        print(
            f"verdict: IMPOSSIBLE — cut of size {size} <= 4m avoiding the source "
            f"separates processor {far}: {{{', '.join(map(str, sorted(cut)))}}}"
        )
    elif n > 6 * m and delta > degree_threshold:
        print("verdict: POSSIBLE — degree bound met (two-round scheme applies)")
    elif (
        T is not None
        and not g.is_complete()
        and 6 * m * (T - 1) < n
    ):
        print(
            f"verdict: POSSIBLE — connectivity bound met "
            f"(flood scheme, T={T}, window K={T - 1} below n/(6m))"
        )
    else:
        print("verdict: UNKNOWN — no sufficiency bound met, no small cut found")
    return 0


def cmd_campaign(args) -> int:
    if args.seeds is not None and args.seeds < 1:
        print(f"error: --seeds must be at least 1, got {args.seeds}", file=sys.stderr)
        return 2
    kind, base = _load_scenario(args.scenario)
    if kind == "pair":
        print("error: campaigns need a single-run scenario", file=sys.stderr)
        return 2
    seeds = range(args.seeds) if args.seeds is not None else [base.seed]
    tallies = {name: dict.fromkeys(("pass", "vacuous", "fail"), 0)
               for name in ("agreement", "validity")}
    failing = []
    for seed in seeds:
        scenario = dataclasses.replace(base, seed=seed, trace_level="states")
        verdict, claims = _checked(sim.run(scenario), scenario)
        tallies["agreement"][verdict.agreement] += 1
        tallies["validity"][verdict.validity] += 1
        if not verdict.ok or claims:
            failing.append((seed, verdict, claims))
    print(f"seeds: {len(seeds)}   fail: {len(failing)}")
    for name, tally in tallies.items():
        print(f"{name}: " + "   ".join(f"{outcome} {count}" for outcome, count in tally.items()))
    if failing:
        seed, verdict, claims = failing[0]
        print(f"first failing seed: {seed}")
        claim = [f"support claim violation: {claims[0]}"] if claims else []
        for line in [*verdict.guarantee_violations, *claim, *verdict.notes]:
            print(f"  {line}")
        return 1
    return 0


def cmd_generate(args) -> int:
    fn, argc = GENERATORS[args.kind]
    if len(args.params) != argc:
        print(f"error: {args.kind} takes {argc} parameter(s)", file=sys.stderr)
        return 2
    try:
        g = fn(*args.params)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    text = graphs.write_edge_list(g)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {g.n} vertices, {g.edge_count()} edges to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first `main` call and kept:
    each `parse_args` fills a fresh namespace, so no call sees another's."""
    parser = argparse.ArgumentParser(
        prog="mobyz",
        description="Deterministic simulator for agreement under a mobile adversary",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a scenario file, write trace and verdict")
    p.add_argument("scenario")
    p.add_argument("-o", "--output", help="directory for trace/verdict files")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("analyze", help="report graph metrics and a feasibility verdict")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("-m", type=int, required=True, help="per-round fault bound")
    p.add_argument("--source", type=int, default=1)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("campaign", help="run a scenario under many seeds")
    p.add_argument("scenario")
    p.add_argument("--seeds", type=int, help="run seeds 0..N-1")
    p.set_defaults(fn=cmd_campaign)

    p = sub.add_parser("generate", help="write a generated network as an edge list")
    p.add_argument("kind", choices=sorted(GENERATORS))
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_generate)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as e:
        print(f"scenario error: {e}", file=sys.stderr)
        return 2
    except sim.StrategyViolation as e:
        print(f"strategy violation: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
