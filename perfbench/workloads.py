"""The benchmark's four workloads: set-up, item kinds and per-item checks.

A workload's set-up builds everything its items share (scenarios parsed
through `cli.parse_scenario_text`, networks, filled `CommScheme` plan
caches, edge-list files). An item is one call sequence a mobyz user makes;
one *cycle* runs the workload's item kinds in a fixed order, and runs
always consist of whole cycles so each kind keeps its share of the items.

Every kind has three parts: `draw` makes the item's input from the
workload's seeded generator (untimed), `run` is the timed work, and `check`
inspects the result (untimed) and returns a problem string or None.
`pin_text` returns the text whose SHA-256 is pinned in `pins.json` for the
first item of each kind at the default seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional

DEFAULT_SEED = 0
MOBYZ_MODULES = ("core", "graphs", "protocol", "comms", "sim", "adversary", "cli")


def load_mobyz(src: Path) -> SimpleNamespace:
    """Import mobyz afresh from `src`, so that each set-up repetition pays
    the package's own import, and return its modules by name."""
    for name in [n for n in sys.modules if n == "mobyz" or n.startswith("mobyz.")]:
        del sys.modules[name]
    mb = SimpleNamespace(
        **{name: importlib.import_module(f"mobyz.{name}") for name in MOBYZ_MODULES}
    )
    if Path(mb.core.__file__).resolve().parent != (src / "mobyz").resolve():
        raise ImportError(f"mobyz was imported from {mb.core.__file__}, not {src}")
    return mb


@dataclass
class Kind:
    name: str
    draw: Callable[[random.Random], object]
    run: Callable[[object], object]
    check: Callable[[object, object], Optional[str]]  # (result, input)
    pin_text: Callable[[object, object], str]
    # untimed proof that the kind's check can fail (pair kinds only)
    sensitivity: Optional[Callable[[object], Optional[str]]] = None


@dataclass(frozen=True)
class Spec:
    """Static description of a workload.

    tail_pct is fixed per workload rather than recomputed from each run's
    sample size: runs hold whole cycles, so a fixed percentile always falls
    in the same item kind, while a percentile that moved with the sample
    size would jump between kinds. Each is placed near the middle of its
    kind's items, where the order statistic is steadiest, and min_cycles
    guarantees at least ten items beyond it.
    """

    setup: Callable  # (mobyz modules, work dir) -> list of Kind, one cycle
    tail_pct: int
    min_cycles: int


def _parse(mb, text: str):
    kind, scenario = mb.cli.parse_scenario_text(text, Path("."))
    if kind != "single":
        raise ValueError(f"expected a single scenario, got a {kind}")
    return scenario


def _fill_plans(scenario) -> None:
    scheme = scenario.lifted.scheme
    for u in scenario.network.vertices:
        for v in scenario.network.vertices:
            scheme.plan(u, v)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"invalid benchmark shape: {message}")


def _campaign_seed(rng: random.Random) -> int:
    return rng.getrandbits(32)


def _scenario_text(network: str, m: int, protocol: str) -> str:
    return f"network = {network}\nm = {m}\nprotocol = {protocol}\nstrategy = random\n"


# --- campaign items -------------------------------------------------------------


def _campaign_kind(mb, name: str, base, support_claim: bool) -> Kind:
    """One `mobyz campaign` seed: run at states level, then the verdicts."""
    sim = mb.sim

    def run(seed):
        scenario = dataclasses.replace(base, seed=seed, trace_level="states")
        trace = sim.run(scenario)
        verdict = sim.check_agreement(trace, scenario)
        claim = sim.check_support_claim(trace, scenario) if support_claim else []
        return trace, verdict, claim

    def check(result, _inp):
        _trace, verdict, claim = result
        if not verdict.ok:
            return f"verdict failed: {verdict.to_record()}"
        if claim:
            return f"support claim violated: {claim[0]}"
        return None

    return Kind(name, _campaign_seed, run, check, lambda _inp, res: res[0].to_text())


def setup_bare(mb, work_dir: Path) -> list:
    kinds = []
    for n, m in ((25, 4), (37, 6), (49, 1)):
        base = _parse(mb, _scenario_text(f"complete {n}", m, "bare"))
        _require(base.mode == "bare" and base.n == n and base.n > 6 * base.m,
                 f"bare complete {n} m={m}")
        kinds.append(_campaign_kind(mb, f"bare-complete-{n}-m{m}", base, True))
    return kinds


def setup_lifted(mb, work_dir: Path) -> list:
    shapes = (
        ("complete-minus-matching 19 9", "lifted two-round", 2, 1),
        ("two-clique 5 9", "lifted flood 9", 3, 2),
    )
    kinds = []
    for network, protocol, T, K in shapes:
        base = _parse(mb, _scenario_text(network, 1, protocol))
        scheme = base.lifted.scheme
        _require((scheme.T, scheme.K) == (T, K),
                 f"{protocol} on {network}: T={scheme.T} K={scheme.K}, want T={T} K={K}")
        _fill_plans(base)
        name = "-".join([protocol.split()[1], *network.split()])
        kinds.append(_campaign_kind(mb, name, base, False))
    return kinds


# --- full-trace items -----------------------------------------------------------


def _perturbed_diverges(mb, pair, sender_of_round_3) -> Optional[str]:
    """Patch one forged payload toward an observer, as `mobyz pair --perturb`
    does; the views must then differ."""
    victim = min(pair.observers)
    sender = sender_of_round_3(pair.scenario_b.strategy)
    pair.scenario_b.strategy = mb.adversary.OverrideStrategy(
        pair.scenario_b.strategy,
        {(3, sender, victim): mb.core.PairMessage(mb.core.MANY, mb.core.MANY)},
    )
    same, _where = mb.sim.check_indistinguishable(pair)
    return "perturbed pair stayed indistinguishable" if same else None


def _pair_text(mb, pair) -> str:
    return (mb.sim.run(pair.scenario_a).to_text()
            + mb.sim.run(pair.scenario_b).to_text())


def setup_full_trace(mb, work_dir: Path) -> list:
    sim, core, adversary = mb.sim, mb.core, mb.adversary
    base = _parse(mb, _scenario_text("complete-minus-matching 13 6", 1, "lifted two-round"))
    _require(base.lifted.scheme.T == 2, "lifted two-round on complete-minus-matching 13 6")
    _fill_plans(base)
    two_clique = mb.graphs.make_two_clique_network(12, 8)
    bridges = list(range(25, 33))
    _require(not two_clique.connected_avoiding(1, 13, bridges),
             "the bridges of two-clique 12 8 separate the cliques")

    def run_full(seed):
        scenario = dataclasses.replace(base, seed=seed, trace_level="full")
        trace = sim.run(scenario)
        verdict = sim.check_agreement(trace, scenario)
        views = [core.view_of(trace, p) for p in range(1, scenario.n + 1)]
        return trace, verdict, views, trace.to_text()

    def check_full(result, _inp):
        trace, verdict, views, text = result
        if not verdict.ok:
            return f"verdict failed: {verdict.to_record()}"
        if any(len(view.per_round) != len(trace.rounds) for view in views):
            return "a view does not cover every round"
        if text.count("\n") != len(trace.rounds):
            return "trace text does not hold one line per round"
        return None

    def draw_five(rng):
        return rng.random() < 0.5  # swap roles: both halves of the construction

    def five(swap):
        return adversary.five_set_pair(n=15, m=3, swap=swap)

    def draw_cut(rng):
        return rng.randint(13, 24)  # any vertex of the far clique observes

    def cut(observer):
        return adversary.cut_set_pair(two_clique, 1, bridges, observer, 2)

    def run_pair(build):
        return lambda inp: sim.check_indistinguishable(build(inp))

    def check_pair(result, _inp):
        same, where = result
        return None if same else f"views diverged at {where}"

    kinds = [
        Kind("full-two-round-cmm-13-6", _campaign_seed, run_full, check_full,
             lambda _inp, res: res[3]),
        Kind("five-set-15-3", draw_five, run_pair(five), check_pair,
             lambda inp, _res: _pair_text(mb, five(inp)),
             sensitivity=lambda inp: _perturbed_diverges(
                 mb, five(inp), lambda s: min(s.odd_set))),
        Kind("cut-set-two-clique-12-8", draw_cut, run_pair(cut), check_pair,
             lambda inp, _res: _pair_text(mb, cut(inp)),
             sensitivity=lambda inp: _perturbed_diverges(
                 mb, cut(inp), lambda s: min(s.schedule[3]))),
    ]
    return kinds


# --- analyze items ----------------------------------------------------------------

# (generator, parameters, m, items per cycle). The cheapest graph runs twice
# per cycle: with six equally frequent kinds the median item would fall
# between two kinds and swing between them.
ANALYZE_GRAPHS = (
    ("two-clique", (8, 4), 1, 1),
    ("two-clique", (10, 8), 2, 1),
    ("two-clique", (12, 10), 2, 1),
    ("two-clique", (20, 12), 3, 1),
    ("complete-minus-matching", (19, 9), 1, 2),
    ("cycle", (40,), 1, 1),
)
_CERTIFICATE = re.compile(r"cut of size (\d+) <= 4m avoiding the source "
                          r"separates processor (\d+): \{([\d, ]*)\}")


def setup_analyze(mb, work_dir: Path) -> list:
    """The graphs are fixed and do not depend on the workload seed:
    relabelling their vertices changes the max-flow work by 10-15%, more
    than any bound."""
    cli, graphs = mb.cli, mb.graphs
    kinds = []
    for generator, params, m, per_cycle in ANALYZE_GRAPHS:
        name = "-".join([generator, *map(str, params), f"m{m}"])
        g = cli.GENERATORS[generator][0](*params)
        path = work_dir / f"{name}.txt"
        path.write_text(graphs.write_edge_list(g))
        argv = ["analyze", str(path), "-m", str(m)]

        def run(_inp, argv=argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue()

        def check(result, _inp, g=g):
            code, stdout = result
            if code != 0:
                return f"exit code {code}"
            found = _CERTIFICATE.search(stdout)
            if found:
                size, far = int(found.group(1)), int(found.group(2))
                cut = [int(v) for v in found.group(3).split(", ")]
                if len(cut) != size or g.connected_avoiding(1, far, cut):
                    return f"certificate {cut} does not separate {far} from the source"
            return None

        kind = Kind(name, lambda _rng: None, run, check, lambda _inp, res: res[1])
        kinds += [kind] * per_cycle
    return kinds


SPECS = {
    "bare-campaign": Spec(setup_bare, tail_pct=80, min_cycles=22),
    "lifted-campaign": Spec(setup_lifted, tail_pct=75, min_cycles=20),
    "full-trace": Spec(setup_full_trace, tail_pct=80, min_cycles=22),
    "analyze": Spec(setup_analyze, tail_pct=65, min_cycles=5),
}


# --- the traced run's probe ---------------------------------------------------------


def run_probe(mb, work_dir: Path) -> list:
    """One tiny instance of every traced layer, run by each traced run after
    its set-up, so that no per-layer figure is empty on any workload. Its
    counts are the same on every run, so they cancel in comparisons."""
    sim, adversary, graphs = mb.sim, mb.adversary, mb.graphs
    problems = []
    bare = dataclasses.replace(_parse(mb, _scenario_text("complete 7", 1, "bare")), seed=1)
    trace = sim.run(bare)
    if not sim.check_agreement(trace, bare).ok or sim.check_support_claim(trace, bare):
        problems.append("probe: bare run failed its checks")
    lifted = _parse(mb, _scenario_text("complete-minus-matching 7 3", 1, "lifted two-round"))
    lifted = dataclasses.replace(lifted, seed=1, trace_level="full")
    trace = sim.run(lifted)
    if not sim.check_agreement(trace, lifted).ok:
        problems.append("probe: lifted run failed its checks")
    mb.core.view_of(trace, 1)
    trace.to_text()
    mb.comms.flood_scheme(graphs.make_two_clique_network(5, 9), 1, 9).plan(1, 6)
    small = graphs.make_two_clique_network(4, 4)
    for pair in (adversary.five_set_pair(n=5, m=1),
                 adversary.cut_set_pair(small, 1, [9, 10, 11, 12], 5, 1)):
        if not sim.check_indistinguishable(pair)[0]:
            problems.append(f"probe: {pair.label} pair diverged")
    path = work_dir / "probe-two-clique-4-4.txt"
    path.write_text(graphs.write_edge_list(small))
    with contextlib.redirect_stdout(io.StringIO()):
        if mb.cli.main(["analyze", str(path), "-m", "1"]) != 0:
            problems.append("probe: analyze failed")
    return problems
