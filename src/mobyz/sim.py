"""Synchronous round engine, trace recording, and the run checkers.

Each round: (1) the adversary picks at most m processors to control, (2)
everyone emits — honest processors per protocol, controlled ones per the
adversary, (3) messages are delivered along edges, (4) honest processors
update their state per protocol while controlled states are overwritten by
the adversary. Runs are fully deterministic given the scenario seed.

Three protocol modes:
  bare    — the complete-network agreement protocol, one round per round.
  lifted  — the same protocol with every logical round executed as T physical
            rounds of a reliable-communication scheme, thresholds at m*K.
  relay   — sticky value diffusion on an arbitrary graph (adopt the first /
            most frequent value heard, then repeat it); the deterministic
            honest behavior used by the impossibility scenario pairs.

In bare rounds r >= 2 every honest processor broadcasts one identical pair,
so the engine counts the honest emissions once per round and corrects each
recipient's counts only for the payloads forged to it by the <= m controlled
senders; the honest rule is then applied to those histograms
(`protocol.histogram_update`). The per-link `sent` table is built only for
full traces. Lifted rounds decode one pair per link and use the list
adapter `protocol.round_update`, which reaches the same rule.

A lifted logical round moves every sender's message to every receiver in T
physical rounds through one of two transfer back-ends, picked by the trace
level alone. Full traces use `comms.TransferRuns`, the reference: one
`TransferRun` per ordered pair marching every copy, which also records the
hops and collected buffers the trace shows. States-level runs use
`comms.SparseTransfers`, which visits only the copies a controlled processor
holds or receives (from the scheme's cached `CopyIndex`) and treats every
other copy as honest. One loop drives both through `step`,
`receiver_controlled` and `decode`, and both call the strategy's
`corrupt_value` in the same order, so the two levels of one scenario draw
the same lies:
  1. in `step`, transfers in sorted (sender, receiver) order, each one's
     copies by (injection round, route), the holder of a hop before its
     receiver;
  2. then the source's stored round-1 value, when the source is controlled;
  3. then, for each controlled pid in increasing order, its rewrite followed
     by its stored copies in arrival order.
An honest copy carries its sender's payload at step time, before that
round's rewrites.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field, replace
from typing import Optional

from .comms import LiftedProtocol, SparseTransfers, TransferRuns
from .core import (
    EMPTY,
    MANY,
    PairMessage,
    ProcessorState,
    RoundTrace,
    Trace,
    Value,
    view_of,
)
from .graphs import Network
from .protocol import (
    ProtocolParams,
    first_round_state,
    histogram_update,
    honest_emit,
    pivot_index,
    round_update,
    termination_round,
)


class StrategyViolation(Exception):
    """The adversary broke its capability contract: more than m controlled,
    an unknown processor id, an unfilled or mistyped forged slot, a
    corrupted copy that is neither a Value nor a PairMessage, or a planted
    state that is not a ProcessorState."""


# --- relay mode: sticky value diffusion ------------------------------------


def relay_adopted(value: Value) -> ProcessorState:
    return ProcessorState(
        high=value,
        medium=value,
        high_set=frozenset([value]),
        medium_set=frozenset([value]),
        decided=value,
    )


def relay_update(state: ProcessorState, received: dict) -> ProcessorState:
    """Adopt the most frequent non-empty value heard (ties: canonical order),
    then stick with it forever."""
    if state.high != EMPTY:
        return state
    candidates = [p.high for p in received.values() if p.high != EMPTY]
    if not candidates:
        return state
    counts: dict = {}
    for v in candidates:
        counts[v] = counts.get(v, 0) + 1
    top = max(counts.values())
    winner = min((v for v, c in counts.items() if c == top), key=Value.sort_key)
    return relay_adopted(winner)


# --- scenarios ----------------------------------------------------------------


@dataclass
class Scenario:
    """Everything one deterministic run needs."""

    network: Network
    m: int
    source_value: Value
    strategy: object
    mode: str = "bare"  # bare | lifted | relay
    lifted: Optional[LiftedProtocol] = None
    alphabet_size: int = 2
    rounds: Optional[int] = None  # physical rounds; None = protocol default
    seed: int = 0
    trace_level: str = "full"  # full | states

    def __post_init__(self):
        if self.mode not in ("bare", "lifted", "relay"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not self.source_value.is_plain:
            raise ValueError("the source value must be a plain symbol")
        if self.source_value.symbol >= self.alphabet_size:
            raise ValueError(
                f"source value {self.source_value} lies outside the alphabet "
                f"0..{self.alphabet_size - 1}"
            )
        if self.mode == "bare":
            if not self.network.is_complete():
                raise ValueError("the bare protocol requires a complete network")
            self.params = ProtocolParams(
                n=self.network.n, m=self.m, alphabet_size=self.alphabet_size
            )
            if self.rounds is None:
                self.rounds = termination_round(self.params)
        elif self.mode == "lifted":
            if self.lifted is None:
                raise ValueError("lifted mode needs a lifted protocol description")
            self.params = self.lifted.params
            if self.rounds is None:
                self.rounds = self.lifted.physical_rounds
            elif self.rounds != self.lifted.physical_rounds:
                raise ValueError(
                    f"a lifted run takes {self.lifted.physical_rounds} physical "
                    f"rounds (2n logical rounds of T); rounds = {self.rounds} "
                    f"cannot be honoured"
                )
        else:
            self.params = None
            if self.rounds is None:
                self.rounds = 2 * self.network.n

    @property
    def n(self) -> int:
        return self.network.n


SOURCE = 1


@functools.cache
def _value_choices(alphabet_size: int) -> tuple:
    """What a random payload value is drawn from, in draw order."""
    return tuple(Value.plain(i) for i in range(alphabet_size)) + (EMPTY, MANY)


@dataclass
class StepContext:
    """What adversary hooks get to see: the full run so far, never less."""

    scenario: Scenario
    round: int
    states: dict
    trace: Trace
    rng: random.Random
    payload_kind: str  # value | pair
    _slots: dict

    def slots(self, pid: int) -> list:
        return self._slots.get(pid, [])

    def random_value(self) -> Value:
        return self.rng.choice(_value_choices(self.scenario.alphabet_size))

    def random_payload(self):
        if self.payload_kind == "value":
            return self.random_value()
        return PairMessage(self.random_value(), self.random_value())

    def random_state(self) -> ProcessorState:
        pool = [Value.plain(i) for i in range(self.scenario.alphabet_size)] + [MANY]
        support = frozenset(self.rng.sample(pool, k=self.rng.randint(0, 2)))
        wider = support | frozenset(
            self.rng.sample(pool, k=self.rng.randint(0, 1))
        )
        return ProcessorState(
            high=self.random_value(),
            medium=self.random_value(),
            high_set=support,
            medium_set=wider,
            decided=self.rng.choice([None, self.random_value()]),
        )


def _controlled(strategy, ctx) -> frozenset:
    picked = frozenset(strategy.controlled(ctx))
    if len(picked) > ctx.scenario.m:
        raise StrategyViolation(
            f"round {ctx.round}: {len(picked)} controlled > m={ctx.scenario.m}"
        )
    for pid in picked:
        if not 1 <= pid <= ctx.scenario.n:
            raise StrategyViolation(f"round {ctx.round}: bad processor id {pid}")
    return picked


def _forged(strategy, ctx, pid) -> dict:
    payloads = strategy.forge(ctx, pid)
    slots = ctx.slots(pid)
    missing = [q for q in slots if q not in payloads]
    if missing:
        raise StrategyViolation(
            f"round {ctx.round}: strategy left slots {missing} of {pid} unfilled"
        )
    expected = Value if ctx.payload_kind == "value" else PairMessage
    for q in slots:
        if not isinstance(payloads[q], expected):
            raise StrategyViolation(
                f"round {ctx.round}: {pid} forged {payloads[q]!r} for slot {q}, "
                f"not a {expected.__name__}"
            )
    return payloads


def _corrupted(strategy, ctx, pid):
    value = strategy.corrupt_value(ctx, pid)
    if not isinstance(value, (Value, PairMessage)):
        raise StrategyViolation(
            f"round {ctx.round}: corrupt_value for {pid} returned {value!r}, "
            f"not a Value or PairMessage"
        )
    return value


def _rewritten(strategy, ctx, pid) -> ProcessorState:
    state = strategy.rewrite(ctx, pid)
    if not isinstance(state, ProcessorState):
        raise StrategyViolation(
            f"round {ctx.round}: rewrite of {pid} returned {state!r}, "
            f"not a ProcessorState"
        )
    return state


def run(scenario: Scenario) -> Trace:
    """Execute the scenario for its full round budget and record the trace."""
    if scenario.mode == "lifted":
        return _run_lifted(scenario)
    return _run_flat(scenario)


def _run_flat(scenario: Scenario) -> Trace:
    g = scenario.network
    n = g.n
    strategy = scenario.strategy
    rng = random.Random(scenario.seed)
    trace = Trace(n=n)
    full = scenario.trace_level == "full"
    bare = scenario.mode == "bare"
    states = {p: ProcessorState() for p in g.vertices}
    if bare:
        everyone = list(g.vertices)  # one slot list shared by every sender
        first_slots = {SOURCE: everyone}
        pair_slots = dict.fromkeys(g.vertices, everyone)
    else:
        first_slots = {SOURCE: sorted(g.neighbors(SOURCE))}
        pair_slots = {p: sorted(g.neighbors(p)) for p in g.vertices}

    for r in range(1, scenario.rounds + 1):
        slots = first_slots if r == 1 else pair_slots
        kind = "value" if r == 1 else "pair"
        ctx = StepContext(scenario, r, dict(states), trace, rng, kind, slots)
        controlled = _controlled(strategy, ctx)
        forged = {p: _forged(strategy, ctx, p) for p in sorted(controlled) if p in slots}
        if r == 1:
            emitted = {SOURCE: scenario.source_value}
        else:
            emitted = {p: honest_emit(states[p], r) for p in slots if p not in controlled}
        histograms = bare and r >= 2

        sent = {}
        if full or not histograms:
            for p in sorted(slots):
                for q in slots[p]:
                    sent[(p, q)] = forged[p][q] if p in forged else emitted[p]

        if histograms:
            # honest senders broadcast one pair, so count their emissions once
            # and correct each recipient for the forged payloads only
            high_base, medium_base = {}, {}
            for msg in emitted.values():
                high_base[msg.high] = high_base.get(msg.high, 0) + 1
                medium_base[msg.medium] = medium_base.get(msg.medium, 0) + 1
            pivot = pivot_index(r)
            pivot_emission = emitted.get(pivot)

        new_states = {}
        for p in g.vertices:
            if p in controlled:
                new_states[p] = _rewritten(strategy, ctx, p)
            elif histograms:
                high_counts, medium_counts = dict(high_base), dict(medium_base)
                for payloads in forged.values():
                    msg = payloads[p]
                    high_counts[msg.high] = high_counts.get(msg.high, 0) + 1
                    medium_counts[msg.medium] = medium_counts.get(msg.medium, 0) + 1
                if pivot > n:
                    pivot_high = None
                elif pivot_emission is None:
                    pivot_high = forged[pivot][p].high
                else:
                    pivot_high = pivot_emission.high
                new_states[p] = histogram_update(
                    p, states[p], high_counts, medium_counts, pivot_high, r,
                    scenario.params,
                )
            elif bare:
                new_states[p] = first_round_state(sent[(SOURCE, p)])
            elif r == 1:
                if p == SOURCE:
                    new_states[p] = relay_adopted(scenario.source_value)
                elif (SOURCE, p) in sent and sent[(SOURCE, p)] != EMPTY:
                    new_states[p] = relay_adopted(sent[(SOURCE, p)])
                else:
                    new_states[p] = states[p]
            else:
                received = {i: sent[(i, p)] for i in g.neighbors(p)}
                new_states[p] = relay_update(states[p], received)
        states = new_states
        trace.append(
            RoundTrace(
                round=r,
                controlled=controlled,
                sent=sent if full else {},
                states_after=dict(states),
            )
        )
    return trace


def _run_lifted(scenario: Scenario) -> Trace:
    g = scenario.network
    lifted = scenario.lifted
    T = lifted.scheme.T
    strategy = scenario.strategy
    rng = random.Random(scenario.seed)
    trace = Trace(n=g.n)
    full = scenario.trace_level == "full"
    backend = TransferRuns if full else SparseTransfers
    states = {p: ProcessorState() for p in g.vertices}

    for lr in range(1, lifted.logical_rounds + 1):
        kind = "value" if lr == 1 else "pair"
        if lr == 1:
            source_copy = [scenario.source_value]  # the source's own stored v_s
            transfers = backend(lifted.scheme, [SOURCE], lambda i: source_copy[0])
        else:
            transfers = backend(
                lifted.scheme, list(g.vertices), lambda i: states[i].emission()
            )

        for t in range(1, T + 1):
            rho = (lr - 1) * T + t
            ctx = StepContext(scenario, rho, dict(states), trace, rng, kind, {})
            controlled = _controlled(strategy, ctx)

            def corrupt(pid):
                return _corrupted(strategy, ctx, pid)

            transfers.step(t, controlled, corrupt)
            if lr == 1 and SOURCE in controlled:
                source_copy[0] = corrupt(SOURCE)
            for pid in sorted(controlled):
                states[pid] = _rewritten(strategy, ctx, pid)
                transfers.receiver_controlled(pid, corrupt)

            if t == T:
                decoded, fallbacks = transfers.decode()
                trace.decode_fallbacks += fallbacks
                new_states = {}
                for p in g.vertices:
                    if p in controlled:
                        new_states[p] = states[p]  # already adversary-written
                    elif lr == 1:
                        new_states[p] = first_round_state(
                            _as_value(decoded[(SOURCE, p)])
                        )
                    else:
                        received = [_as_pair(decoded[(i, p)]) for i in g.vertices]
                        new_states[p] = round_update(
                            p, states[p], received, lr, lifted.params
                        )
                states = new_states

            if full:
                held = transfers.buffers()
                snapshot = {
                    p: replace(states[p], buffers=held.get(p, ())) for p in g.vertices
                }
            else:
                snapshot = dict(states)
            trace.append(
                RoundTrace(
                    round=rho,
                    controlled=controlled,
                    sent=transfers.hops if full else {},
                    states_after=snapshot,
                )
            )
    return trace


def _as_value(payload) -> Value:
    if isinstance(payload, Value):
        return payload
    return payload.high  # a pair where a bare value belongs: read its high half


def _as_pair(payload) -> PairMessage:
    if isinstance(payload, PairMessage):
        return payload
    return PairMessage(payload, payload)


# --- verdicts -------------------------------------------------------------------


@dataclass
class Verdict:
    """Outcome of the two agreement conditions plus stability diagnostics.

    agreement: all never-controlled processors decided alike (vacuous when
    every processor was controlled at least once). validity: that value is
    the true source value (vacuous when the source was ever controlled).
    """

    agreement: str
    validity: str
    agreed_value: Optional[Value]
    first_stable_round: Optional[int]
    guarantee_violations: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.agreement in ("pass", "vacuous")
            and self.validity in ("pass", "vacuous")
            and not self.guarantee_violations
        )

    def to_record(self) -> dict:
        return {
            "agreement": self.agreement,
            "validity": self.validity,
            "agreed_value": None if self.agreed_value is None else str(self.agreed_value),
            "first_stable_round": self.first_stable_round,
            "guarantee_violations": self.guarantee_violations,
            "notes": self.notes,
        }


def _round_window(scenario: Scenario, R: int):
    """Physical rounds processor R must stay honest through to anchor the
    guarantee (the pre-anchor part is waived for the source, R=1)."""
    if scenario.mode == "lifted":
        T, K = scenario.lifted.scheme.T, scenario.lifted.scheme.K
    else:
        T, K = 1, 1
    if R == 1:
        return list(range(1, K + 1))
    start = (2 * R - 2) * T - K + 1
    return list(range(start, (2 * R - 2) * T + K + 1))


def _logical_guard(scenario: Scenario, r: int):
    """Physical rounds a processor must be honest through for round r's
    common-value guarantee to cover it."""
    if scenario.mode == "lifted":
        T, K = scenario.lifted.scheme.T, scenario.lifted.scheme.K
    else:
        T, K = 1, 1
    return list(range(r * T - K + 1, r * T + 1))


def check_agreement(trace: Trace, scenario: Scenario) -> Verdict:
    """Evaluate both agreement conditions and the round-2R stability guarantee."""
    n = scenario.n
    ever = trace.ever_controlled()
    never_faulty = [p for p in range(1, n + 1) if p not in ever]
    final = trace.final_states()
    notes = []

    agreed_value = None
    if not never_faulty:
        agreement = "vacuous"
        notes.append("every processor was controlled at least once")
    else:
        decisions = {final[p].decided for p in never_faulty}
        if len(decisions) == 1:
            agreement = "pass"
            agreed_value = decisions.pop()
            if agreed_value is None:
                notes.append("never-faulty processors all terminated undecided")
        else:
            agreement = "fail"
            notes.append(
                "never-faulty decisions differ: "
                + ", ".join(
                    f"p{p}={final[p].decided}" for p in never_faulty
                )
            )

    if trace.decode_fallbacks:
        notes.append(
            f"{trace.decode_fallbacks} transfer decodes lacked a strict "
            f"majority (window-breaking faults); deterministic fallback used"
        )

    if SOURCE in ever:
        validity = "vacuous"
    elif agreement != "pass":
        validity = "fail"
    elif agreed_value == scenario.source_value:
        validity = "pass"
    else:
        validity = "fail"
        notes.append(f"agreed {agreed_value}, source sent {scenario.source_value}")

    first_stable = None
    violations = []
    if scenario.mode in ("bare", "lifted"):
        T = scenario.lifted.scheme.T if scenario.mode == "lifted" else 1
        logical_rounds = scenario.rounds // T
        R_found = None
        for R in range(1, n + 1):
            if 2 * R > logical_rounds:
                break
            window = _round_window(scenario, R)
            if all(R not in trace.controlled_in(rho) for rho in window):
                R_found = R
                break
        if R_found is not None:
            first_stable = 2 * R_found
            for r in range(first_stable, logical_rounds + 1):
                guard = _logical_guard(scenario, r)
                covered = [
                    p
                    for p in range(1, n + 1)
                    if all(p not in trace.controlled_in(rho) for rho in guard)
                ]
                end_states = trace.rounds[r * T - 1].states_after
                values = {end_states[p].decided for p in covered}
                if len(values) > 1 or (covered and values == {None}):
                    violations.append(
                        f"round {r}: decisions {sorted(map(str, values))} among {covered}"
                    )
                elif R_found == 1 and covered and values != {scenario.source_value}:
                    violations.append(
                        f"round {r}: decided {values.pop()} instead of the source value"
                    )

    return Verdict(
        agreement=agreement,
        validity=validity,
        agreed_value=agreed_value,
        first_stable_round=first_stable,
        guarantee_violations=violations,
        notes=notes,
    )


def check_support_claim(trace: Trace, scenario: Scenario) -> list:
    """Violations of the crystallization claim: for every R >= 2 with the
    pivot honest through rounds 2R-2 and 2R-1, all processors honest in round
    2R-1 must end it with one common (high, medium) value."""
    if scenario.mode != "bare":
        raise ValueError("the claim applies to the bare protocol")
    n = scenario.n
    violations = []
    for R in range(2, n + 1):
        if 2 * R - 1 > scenario.rounds:
            break
        if R in trace.controlled_in(2 * R - 2) or R in trace.controlled_in(2 * R - 1):
            continue
        honest = [
            p
            for p in range(1, n + 1)
            if p not in trace.controlled_in(2 * R - 1)
        ]
        states = trace.rounds[2 * R - 2].states_after
        summary = {(states[p].high, states[p].medium) for p in honest}
        pairs_equal = all(states[p].high == states[p].medium for p in honest)
        if len(summary) > 1 or not pairs_equal:
            violations.append(
                f"R={R}: round {2 * R - 1} summaries "
                + ", ".join(f"p{p}=({states[p].high},{states[p].medium})" for p in honest)
            )
    return violations


# --- indistinguishability ---------------------------------------------------------


def check_indistinguishable(pair) -> tuple:
    """Run both scenarios of a pair and compare each observer's view.

    Returns (True, None) when all views match byte for byte, else
    (False, (round, observer, field)) for the first divergence.
    """
    a, b = pair.scenario_a, pair.scenario_b
    if a.n != b.n or a.rounds != b.rounds or a.network.edges() != b.network.edges():
        raise ValueError("scenario pair mismatch: different n, graph, or rounds")
    trace_a = run(a)
    trace_b = run(b)
    for observer in sorted(pair.observers):
        va = view_of(trace_a, observer)
        vb = view_of(trace_b, observer)
        for rno, ((rec_a, st_a), (rec_b, st_b)) in enumerate(
            zip(va.per_round, vb.per_round), start=1
        ):
            for sender in sorted(set(rec_a) | set(rec_b)):
                if rec_a.get(sender) != rec_b.get(sender):
                    return False, (rno, observer, f"message from {sender}")
            if st_a != st_b:
                return False, (rno, observer, "own state")
    return True, None
