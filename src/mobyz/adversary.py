"""Adversary strategies: the generic capability model plus the scripted
constructions behind the impossibility arguments.

A strategy picks at most m processors per round, forges their outgoing
messages, and rewrites their stored state. Scripted strategies derive their
lies from counterfactual honest runs ("act as if the source sent x"), so a
released processor's honest code keeps propagating the lie.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .core import PairMessage, ProcessorState, Trace, Value
from .graphs import Network
from .sim import SOURCE, Scenario, logical_round, run


class Strategy:
    """Baseline capability: whatever it controls behaves randomly.

    Hooks receive a StepContext (full trace so far, current states, the run's
    seeded generator) — the adversary is omniscient. The lifted engine asks
    `corrupt_values(ctx, pid, k)` for the k lies controlled pid writes to a
    run of copies, in copy order; by default they are `ctx.random_payloads`,
    the draws of k `corrupt_value` calls. A subclass that defines
    `corrupt_value` but not `corrupt_values` is called once per copy, in the
    same order.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "corrupt_value" in vars(cls) and "corrupt_values" not in vars(cls):
            cls.corrupt_values = Strategy._corrupt_each

    def controlled(self, ctx):
        return frozenset()

    def forge(self, ctx, pid) -> dict:
        slots = ctx.slots(pid)
        return dict(zip(slots, ctx.random_payloads(len(slots))))

    def rewrite(self, ctx, pid) -> ProcessorState:
        return ctx.random_state()

    def corrupt_value(self, ctx, pid):
        return ctx.random_payload()

    def corrupt_values(self, ctx, pid, k: int) -> list:
        return ctx.random_payloads(k)

    def _corrupt_each(self, ctx, pid, k: int) -> list:
        return [self.corrupt_value(ctx, pid) for _ in range(k)]


class NoFaults(Strategy):
    """Fault-free baseline: controls nobody, ever."""


class RandomizedControl(Strategy):
    """Controls m uniformly drawn processors per round; everything they emit
    or store is drawn from the run's seeded generator."""

    def controlled(self, ctx):
        n, m = ctx.scenario.n, ctx.scenario.m
        return frozenset(ctx.rng.sample(range(1, n + 1), min(m, n)))


class ScheduledControl(Strategy):
    """Fixed control schedule (round -> set); behavior delegates to `inner`."""

    def __init__(self, schedule: dict, inner: Strategy):
        self.schedule = schedule
        self.inner = inner

    def controlled(self, ctx):
        return frozenset(self.schedule.get(ctx.round, ()))

    def forge(self, ctx, pid):
        return self.inner.forge(ctx, pid)

    def rewrite(self, ctx, pid):
        return self.inner.rewrite(ctx, pid)

    def corrupt_value(self, ctx, pid):
        return self.inner.corrupt_value(ctx, pid)

    def corrupt_values(self, ctx, pid, k):
        return self.inner.corrupt_values(ctx, pid, k)


def _counterfactual_states(ctx, source_value: Value) -> list:
    """Per-round states of the fault-free world in which the source sent
    `source_value`; the scripted lies copy this run's payloads and memory."""
    sc = ctx.scenario
    world = Scenario(
        network=sc.network,
        m=0,
        source_value=source_value,
        strategy=NoFaults(),
        mode=sc.mode,
        lifted=sc.lifted,
        alphabet_size=sc.alphabet_size,
        rounds=sc.rounds,
        seed=0,
        trace_level="states",
    )
    return [rt.states_after for rt in run(world).rounds]


class _Worlds:
    """Fault-free counterfactual worlds by source value, for one scenario
    shape at a time. A world depends on the network, mode, scheme, alphabet
    and round count, so a strategy reused on a scenario that differs in any
    of them recomputes its worlds instead of replaying stale ones."""

    def __init__(self):
        self._shape = None
        self._states: dict = {}

    def get(self, ctx, source_value: Value) -> list:
        sc = ctx.scenario
        scheme = None
        if sc.lifted is not None:
            s = sc.lifted.scheme
            scheme = (s.kind, s.T, s.K, s.kappa, s.m, sc.lifted.params)
        shape = (sc.network, sc.mode, scheme, sc.alphabet_size, sc.rounds)
        if shape != self._shape:
            self._shape, self._states = shape, {}
        if source_value not in self._states:
            self._states[source_value] = _counterfactual_states(ctx, source_value)
        return self._states[source_value]


class CounterfactualBehavior(Strategy):
    """Shared machinery for strategies whose lies replay a fake-source world."""

    def __init__(self, fake_value: Value):
        self.fake_value = fake_value
        self._worlds = _Worlds()

    def forge(self, ctx, pid):
        if ctx.round == 1:
            return {q: self.fake_value for q in ctx.slots(pid)}
        world = self._worlds.get(ctx, self.fake_value)
        payload = world[ctx.round - 2][pid].emission()
        return {q: payload for q in ctx.slots(pid)}

    def rewrite(self, ctx, pid):
        return self._worlds.get(ctx, self.fake_value)[ctx.round - 1][pid]


class StaticControl(Strategy):
    """The same processors every round, lying by a fixed rule.

    Rules: ("constant", v) — everyone is told v; ("split", v1, v2) — the
    lower-index half of the recipients is told v1, the rest v2; ("random",) —
    seeded noise.
    """

    def __init__(self, members, m: int, rule=("random",)):
        members = frozenset(members)
        if len(members) > m:
            raise ValueError(f"static set of {len(members)} exceeds m={m}")
        self.members = members
        self.rule = rule
        self._behavior = None

    def controlled(self, ctx):
        return self.members

    def _value_for(self, ctx, slot_index: int, slot_count: int) -> Value:
        if self.rule[0] == "constant":
            return self.rule[1]
        if self.rule[0] == "split":
            return self.rule[1] if slot_index < slot_count // 2 else self.rule[2]
        return ctx.random_value()

    def forge(self, ctx, pid):
        slots = ctx.slots(pid)
        out = {}
        for idx, q in enumerate(slots):
            v = self._value_for(ctx, idx, len(slots))
            out[q] = v if ctx.round == 1 else PairMessage(v, v)
        return out

    def rewrite(self, ctx, pid):
        if self.rule[0] == "random":
            return ctx.random_state()
        if self._behavior is None:
            self._behavior = CounterfactualBehavior(self.rule[1])
        return self._behavior.rewrite(ctx, pid)


class AlternatingControl(CounterfactualBehavior):
    """Controls one set in odd rounds and another in even rounds, planting the
    fake-source world's memory so the released half keeps relaying the lie."""

    def __init__(self, odd_set, even_set, fake_value: Value, m: int):
        super().__init__(fake_value)
        odd_set, even_set = frozenset(odd_set), frozenset(even_set)
        if len(odd_set) > m or len(even_set) > m:
            raise ValueError("alternating sets must each fit within m")
        self.odd_set = odd_set
        self.even_set = even_set

    def controlled(self, ctx):
        return self.odd_set if ctx.round % 2 == 1 else self.even_set


class GroupSplitControl(Strategy):
    """Permanently controlled processors telling each recipient group a
    different story: recipient q is fed the fault-free world with source
    value facing[q]."""

    def __init__(self, members, facing: dict, m: int, plant_value: Value):
        members = frozenset(members)
        if len(members) > m:
            raise ValueError(f"static set of {len(members)} exceeds m={m}")
        self.members = members
        self.facing = facing
        self.plant_value = plant_value
        self._worlds = _Worlds()

    def controlled(self, ctx):
        return self.members

    def forge(self, ctx, pid):
        out = {}
        for q in ctx.slots(pid):
            value = self.facing[q]
            if ctx.round == 1:
                out[q] = value
            else:
                out[q] = self._worlds.get(ctx, value)[ctx.round - 2][pid].emission()
        return out

    def rewrite(self, ctx, pid):
        return self._worlds.get(ctx, self.plant_value)[ctx.round - 1][pid]


class ScriptedStrategy(Strategy):
    """Explicit per-round tables: who is controlled, what they emit (one
    payload to every recipient), and what memory is planted on them."""

    def __init__(self, schedule: dict, emissions: dict, plants: dict):
        self.schedule = schedule
        self.emissions = emissions
        self.plants = plants

    def controlled(self, ctx):
        return frozenset(self.schedule.get(ctx.round, ()))

    def forge(self, ctx, pid):
        payload = self.emissions[(ctx.round, pid)]
        return {q: payload for q in ctx.slots(pid)}

    def rewrite(self, ctx, pid):
        return self.plants[(ctx.round, pid)]


class OverrideStrategy(Strategy):
    """Wraps a strategy, patching selected forged payloads — the sensitivity
    control for the indistinguishability checker. `applied` lists the
    (round, sender, receiver) keys it patched, in the order it did: an
    override whose sender is not controlled in its round patches nothing."""

    def __init__(self, base: Strategy, overrides: dict):
        self.base = base
        self.overrides = overrides  # (round, sender, receiver) -> payload
        self.applied = []

    def controlled(self, ctx):
        return self.base.controlled(ctx)

    def forge(self, ctx, pid):
        out = dict(self.base.forge(ctx, pid))
        for q in list(out):
            key = (ctx.round, pid, q)
            if key in self.overrides:
                out[q] = self.overrides[key]
                self.applied.append(key)
        return out

    def rewrite(self, ctx, pid):
        return self.base.rewrite(ctx, pid)

    def corrupt_value(self, ctx, pid):
        return self.base.corrupt_value(ctx, pid)

    def corrupt_values(self, ctx, pid, k):
        return self.base.corrupt_values(ctx, pid, k)


# --- scenario pairs -------------------------------------------------------------


@dataclass
class ScenarioPair:
    """Two scripted runs that must look identical to the observers."""

    scenario_a: Scenario
    scenario_b: Scenario
    observers: frozenset
    label: str = ""


def _chunk_into(ids: list, parts: int, cap: int) -> list:
    sizes = [len(ids) // parts] * parts
    for i in range(len(ids) % parts):
        sizes[i] += 1
    if any(s > cap for s in sizes):
        raise ValueError(f"cannot split {len(ids)} processors into {parts} sets of <= {cap}")
    out = []
    at = 0
    for s in sizes:
        out.append(frozenset(ids[at:at + s]))
        at += s
    return out


def five_set_pair(
    n: int,
    m: int,
    source_value: Value = Value.plain(1),
    fake_value: Value = Value.plain(0),
    rounds: int = None,
    swap: bool = False,
) -> ScenarioPair:
    """The two indistinguishable runs that rule out agreement for n <= 5m.

    Processors split into five sets S (holding the source), A, B, C, D of
    size at most m. Scenario A: S is controlled forever and tells A∪B the
    fake value but C∪D the real one. Scenario B: the source value is real and
    A, B alternate under control, faking toward everyone. C∪D see identical
    traffic in both. With swap=True the roles flip: scenario B keeps S honest
    with the fake value as the true one, C, D alternate, and A∪B observe.
    """
    if not m + 1 < n:
        raise ValueError(f"need n > m+1, got n={n}, m={m}")
    if n > 5 * m:
        raise ValueError(f"the construction needs n <= 5m, got n={n}, m={m}")
    if source_value == fake_value:
        raise ValueError("the fake value must differ from the real one")
    S, A, B, C, D = _chunk_into(list(range(1, n + 1)), 5, m)
    if not (A | B) or not (C | D):
        raise ValueError("both A∪B and C∪D must be non-empty")
    if rounds is None:
        rounds = 2 * n
    from .graphs import complete_network

    g = complete_network(n)
    facing = {q: fake_value if q in A | B else source_value for q in range(1, n + 1)}
    scenario_a = Scenario(
        network=g,
        m=m,
        source_value=source_value,
        strategy=GroupSplitControl(S, facing, m, plant_value=source_value),
        mode="relay",
        rounds=rounds,
    )
    if swap:
        scenario_b = Scenario(
            network=g,
            m=m,
            source_value=fake_value,
            strategy=AlternatingControl(C, D, fake_value=source_value, m=m),
            mode="relay",
            rounds=rounds,
        )
        observers = A | B
    else:
        scenario_b = Scenario(
            network=g,
            m=m,
            source_value=source_value,
            strategy=AlternatingControl(A, B, fake_value=fake_value, m=m),
            mode="relay",
            rounds=rounds,
        )
        observers = C | D
    return ScenarioPair(scenario_a, scenario_b, frozenset(observers), label="five-set")


def cut_set_pair(
    g: Network,
    s: int,
    cut,
    observer: int,
    m: int,
    value_first: Value = Value.plain(0),
    value_second: Value = Value.plain(1),
    rounds: int = None,
) -> ScenarioPair:
    """The two runs an observer across a <= 4m cut cannot tell apart.

    The cut splits into A, B, C, D of size at most m. First run: the source
    really sent `value_first`; A, B alternate under control and act as if the
    source sent `value_second` with C∪D faulty. Second run: the source really
    sent `value_second`; C, D alternate and act as if it sent `value_first`.
    Each side's script is the other run's honest behavior. The two runs are
    stepped together through the engine's `logical_round`: before each round
    a liar's emission is filled in from its state in the other run, and after
    it the liar's plant, and its state, become its new state there. In a
    relay round a rewrite only shows in later rounds, so until then the
    plant is the liar's own current state.
    """
    cut = sorted(set(cut))
    if s != SOURCE:
        raise ValueError("processor 1 is the source by convention")
    if s in cut:
        raise ValueError("the cut must avoid the source")
    if observer in cut or observer == s:
        raise ValueError("the observer must lie outside the cut")
    if len(cut) > 4 * m:
        raise ValueError(f"cut of {len(cut)} exceeds 4m={4 * m}")
    if g.connected_avoiding(s, observer, cut):
        raise ValueError(f"{cut} does not separate {observer} from the source")
    if rounds is None:
        rounds = 2 * g.n
    A, B, C, D = _chunk_into(cut, 4, m)

    scripts = (
        ScriptedStrategy({r: (A if r % 2 == 1 else B) for r in range(1, rounds + 1)}, {}, {}),
        ScriptedStrategy({r: (C if r % 2 == 1 else D) for r in range(1, rounds + 1)}, {}, {}),
    )
    scenarios = [
        Scenario(network=g, m=m, source_value=value, strategy=script, mode="relay", rounds=rounds)
        for value, script in zip((value_first, value_second), scripts)
    ]
    steppers = [replace(sc, trace_level="states") for sc in scenarios]
    rng = random.Random(0)  # scripted lies draw nothing
    worlds = [dict.fromkeys(g.vertices, ProcessorState())] * 2  # never changed in place
    for r in range(1, rounds + 1):
        for script, here, other in zip(scripts, worlds, reversed(worlds)):
            for p in script.schedule[r]:
                script.emissions[(r, p)] = other[p].emission()
                script.plants[(r, p)] = here[p]
        new = [logical_round(sc, w, r, rng, Trace(n=g.n)) for sc, w in zip(steppers, worlds)]
        for script, here, other in zip(scripts, new, reversed(new)):
            for p in script.schedule[r]:
                here[p] = script.plants[(r, p)] = other[p]
        worlds = new
    return ScenarioPair(scenarios[0], scenarios[1], frozenset([observer]), label="cut-set")
