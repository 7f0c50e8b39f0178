"""Synchronous round engine, trace recording, and the run checkers.

Three protocol modes:
  bare    — the complete-network agreement protocol, one round per round.
  lifted  — the same protocol with every logical round executed as T physical
            rounds of a (T, K) reliable-communication scheme, thresholds at m*K.
  relay   — sticky value diffusion on an arbitrary graph (adopt the first /
            most frequent value heard, then repeat it); the deterministic
            honest behavior used by the impossibility scenario pairs.

One round transition, `logical_round`, drives every mode, and `run` is its
fold over the logical rounds; bare and relay are the T = K = 1 case
(`Scenario.T`, `Scenario.K`). A logical round builds its delivery back-end
from the states it starts from and takes T physical rounds, and in each (1)
the adversary picks at most m processors to control, (2) the back-end's
`step` moves the messages, (3) each controlled processor is rewritten, in
increasing pid order, followed by the back-end's `receiver_controlled`.
After the T-th, (4) `decode` gives each honest processor what its honest
rule reads: `relay_update` in relay mode (from round 2 on, only to the
receivers whose high is still EMPTY, since it keeps every other state),
otherwise `first_round_state` in round 1 and `histogram_update` later. Runs
are fully deterministic given the scenario seed. The mode picks the
back-end:
  direct delivery (bare, relay) — each message goes straight along its edge.
  `comms.SparseTransfers` (lifted) — visits only the copies a controlled
      processor holds or receives, from the scheme's cached `CopyIndex` of
      the round's senders (the source in round 1, every processor later),
      and treats every other copy as honest. Its decode looks only at the
      transfers that may decode to something other than their sender's
      payload: those whose sender's payload changed during the logical
      round, and those of which at least half of the arrived copies may
      have been overridden. A processor that alone was controlled in some
      rounds overrides only its footprint for them, so a transfer that one
      footprint touches lightly (fewer than half of its arrived copies) and
      no other touches keeps an honest strict majority and is not decoded.
      A transfer into a receiver controlled in round T, whose pair no rule
      reads, is decoded only to count a fallback (`Trace.decode_fallbacks`).
      For a full trace it also renders each round's hops and collected
      buffers from the index.
In a bare or lifted pair round every receiver gets the same pair from most
senders, so each back-end gives each sender's payload and only the
exceptions, by sender and then receiver: the pairs forged by controlled
bare senders, or the transfers that decode to anything but the sender's
payload. `_count_pairs` counts the payloads once and sorts the honest
receivers into classes that share one histogram. `histogram_update` reads
a count only against `protocol.cut_points`, and a receiver's counts differ
from the common rest by at most the round's reach, the number of senders
with exceptions (at most m in a bare round). So when no exception comes
from the pivot and no cut point lies within reach of a count the rule
reads, every honest receiver is in one class. Otherwise a class is an
exception signature, the (sender, payload) exceptions addressed to its
receivers. Either way `histogram_update` reads nothing else of a receiver
than its `decided` and whether it is the pivot, so `_update_classes` runs
it once per (class, decided, is pivot) and those receivers share the
resulting state.

The strategy's hooks are called in one order, the same at both trace levels,
so the two levels of one scenario draw the same lies. In a physical round:
  1. `controlled`;
  2. in `step`: direct delivery calls `forge` for each controlled sender in
     increasing pid order; the lifted back-end lies for each copy a
     controlled processor holds or receives, in copy order: transfers in
     sorted (sender, receiver) order, each one's copies by (injection round,
     route), the holder of a hop before its receiver. One `corrupt_values`
     call covers a run of consecutive copies of one controlled processor, so
     with one processor controlled, the whole step. Then, when the source is
     controlled, one call of one lie for its stored round-1 value;
  3. for each controlled pid in increasing order, `rewrite`, then (lifted)
     one `corrupt_values` call for all its stored copies, by sender and then
     arrival round.
A batch is the lies of one `corrupt_value` call per copy, in this order: a
strategy that defines only `corrupt_value` is called so, and the default
draws them at once (`adversary.Strategy`). Honest rules draw nothing. An
honest copy carries its sender's payload at step time, before that round's
rewrites. Every lie is drawn from the run's one `random.Random(seed)`;
`StepContext` draws a random value with the `getrandbits` calls
`rng.choice` would make, and a batch of k payloads as k such draws in one
loop, so the stream, and with it every trace, is the one `choice` gives.

The run checkers are one step over a logical round, `check_round`, which
reads only the controlled sets of its physical rounds and its end states,
and a final step, `check_final`. `check_agreement` and
`check_support_claim` fold them over a finished trace; a schedule search
calls the step between `logical_round` calls instead.
"""

from __future__ import annotations

import functools
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import repeat
from typing import Optional

from .comms import LiftedProtocol, SparseTransfers
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
    cut_points,
    first_round_state,
    histogram_update,
    pivot_backing,
    pivot_index,
    termination_round,
)


class StrategyViolation(Exception):
    """The adversary broke its capability contract: more than m controlled,
    an unknown or non-int processor id, an unfilled or mistyped forged slot, a
    batch of corrupted copies of the wrong length, a corrupted copy of the
    wrong kind (a Value in round 1, a PairMessage later), or a planted state
    that is not a ProcessorState."""


# --- relay mode: sticky value diffusion ------------------------------------


def relay_adopted(value: Value) -> ProcessorState:
    return ProcessorState(
        high=value,
        medium=value,
        high_set=frozenset([value]),
        medium_set=frozenset([value]),
        decided=value,
    )


def relay_update(
    p: int, state: ProcessorState, received, r: int, source_value: Value
) -> ProcessorState:
    """The honest relay rule. In round 1 the source adopts its own value and
    every other processor adopts what it heard from the source (`received`;
    None for a non-neighbour) unless that is EMPTY. Later, a processor still
    at EMPTY adopts the most frequent non-empty value among `received`, the
    highs of its neighbours' pairs (ties: canonical order), and then sticks
    with it forever."""
    if r == 1:
        if p == SOURCE:
            return relay_adopted(source_value)
        if received is None or received == EMPTY:
            return state
        return relay_adopted(received)
    if state.high != EMPTY:
        return state
    counts: dict = {}
    for v in received:
        if v != EMPTY:
            counts[v] = counts.get(v, 0) + 1
    if not counts:
        return state
    top = max(counts.values())
    winner = min((v for v, c in counts.items() if c == top), key=Value.sort_key)
    return relay_adopted(winner)


# --- scenarios ----------------------------------------------------------------


@dataclass
class Scenario:
    """Everything one deterministic run needs. Construction also sets
    `params` (None in relay mode) and the scheme's `T` and `K`, which are
    (1, 1) outside lifted mode."""

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
        if self.trace_level not in ("full", "states"):
            raise ValueError(
                f"unknown trace level {self.trace_level!r}: use 'full' or 'states'"
            )
        if self.m < 0:
            raise ValueError(f"the fault bound m must be non-negative, got {self.m}")
        if self.rounds is not None and self.rounds < 1:
            raise ValueError(f"rounds must be at least 1, got {self.rounds}")
        if not self.source_value.is_plain:
            raise ValueError("the source value must be a plain symbol")
        if self.source_value.symbol >= self.alphabet_size:
            raise ValueError(
                f"source value {self.source_value} lies outside the alphabet "
                f"0..{self.alphabet_size - 1}"
            )
        self.T, self.K = 1, 1
        if self.mode != "lifted" and self.lifted is not None:
            raise ValueError(f"{self.mode} mode takes no lifted protocol description")
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
            self._check_lifted()
            self.params = self.lifted.params
            self.T, self.K = self.lifted.scheme.T, self.lifted.scheme.K
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

    def _check_lifted(self) -> None:
        """The lifted description must be this scenario's: its scheme on
        this network (by identity first, as `dataclasses.replace` checks
        again for every campaign item), for at least m faults a round, and
        its parameters for this n and alphabet. A scheme for more faults
        also carries fewer, as the fault-free counterfactual worlds (m = 0)
        do."""
        scheme, params = self.lifted.scheme, self.lifted.params
        g = scheme.network
        if g is not self.network and (g.n != self.network.n or g.edges() != self.network.edges()):
            raise ValueError("the lifted scheme runs on another network than the scenario's")
        if params.n != self.network.n:
            raise ValueError(
                f"the lifted protocol is for n={params.n}, the network has {self.network.n}"
            )
        if self.m > scheme.m:
            raise ValueError(
                f"the lifted scheme carries m={scheme.m} faults a round, "
                f"the scenario allows m={self.m}"
            )
        if params.alphabet_size != self.alphabet_size:
            raise ValueError(
                f"the lifted protocol's alphabet has {params.alphabet_size} symbols, "
                f"the scenario's {self.alphabet_size}"
            )

    @property
    def n(self) -> int:
        return self.network.n


SOURCE = 1


@functools.cache
def _value_choices(alphabet_size: int) -> tuple:
    """What a random payload value is drawn from, in draw order."""
    return tuple(Value.plain(i) for i in range(alphabet_size)) + (EMPTY, MANY)


@functools.cache
def _draw_tables(alphabet_size: int) -> tuple:
    """(k, size, values, pairs): `_value_choices` as `values`, its size, the
    k = size.bit_length() random bits that index it, and every pair by the
    indices of its high and medium halves."""
    values = _value_choices(alphabet_size)
    size = len(values)
    pairs = tuple(tuple(PairMessage(high, medium) for medium in values) for high in values)
    return size.bit_length(), size, values, pairs


@dataclass
class StepContext:
    """What adversary hooks get to see: the full run so far, never less.

    A random value is `_value_choices(alphabet_size)[i]` for an index i read
    from k = len(choices).bit_length() bits of `rng.getrandbits`, redrawn
    while it falls past the end: exactly the draws `rng.choice(choices)`
    makes, so the seed's stream is the one `choice` would consume. A random
    pair draws its high and then its medium that way."""

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
        k, size, values, _pairs = _draw_tables(self.scenario.alphabet_size)
        i = self.rng.getrandbits(k)
        while i >= size:
            i = self.rng.getrandbits(k)
        return values[i]

    def random_payload(self):
        return self.random_payloads(1)[0]

    def random_payloads(self, count: int) -> list:
        """`count` random payloads of the round's kind, drawn in one loop:
        the draws, and the objects, of `count` `random_payload` calls."""
        k, size, values, pairs = _draw_tables(self.scenario.alphabet_size)
        bits = self.rng.getrandbits
        out = []
        if self.payload_kind == "value":
            for _ in range(count):
                i = bits(k)
                while i >= size:
                    i = bits(k)
                out.append(values[i])
            return out
        for _ in range(count):
            high = bits(k)
            while high >= size:
                high = bits(k)
            medium = bits(k)
            while medium >= size:
                medium = bits(k)
            out.append(pairs[high][medium])
        return out

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
        if type(pid) is not int or not 1 <= pid <= ctx.scenario.n:
            raise StrategyViolation(f"round {ctx.round}: bad processor id {pid!r}")
    return picked


def _forged(strategy, ctx, pid) -> dict:
    """The strategy's forged payloads of pid, checked as one list: a payload
    of the round's kind for each of its slots. An unfilled slot reads as
    None, so only a failed check looks for which slot failed and why."""
    payloads = strategy.forge(ctx, pid)
    slots = ctx.slots(pid)
    expected = Value if ctx.payload_kind == "value" else PairMessage
    if not all(map(isinstance, map(payloads.get, slots), repeat(expected))):
        missing = [q for q in slots if q not in payloads]
        if missing:
            raise StrategyViolation(
                f"round {ctx.round}: strategy left slots {missing} of {pid} unfilled"
            )
        q = next(q for q in slots if not isinstance(payloads[q], expected))
        raise StrategyViolation(
            f"round {ctx.round}: {pid} forged {payloads[q]!r} for slot {q}, "
            f"not a {expected.__name__}"
        )
    return payloads


def _corrupted(strategy, ctx, pid, k) -> list:
    """The strategy's `corrupt_values` batch of k lies for copies of pid,
    checked: a list (or tuple) of k payloads of the round's kind."""
    values = strategy.corrupt_values(ctx, pid, k)
    if not isinstance(values, (list, tuple)) or len(values) != k:
        got = f"{len(values)} payloads" if isinstance(values, (list, tuple)) else repr(values)
        raise StrategyViolation(
            f"round {ctx.round}: corrupt_values for {pid} returned {got}, "
            f"not a list of {k}"
        )
    expected = Value if ctx.payload_kind == "value" else PairMessage
    if not all(map(isinstance, values, repeat(expected, k))):
        value = next(v for v in values if not isinstance(v, expected))
        payload = isinstance(value, (Value, PairMessage))
        raise StrategyViolation(
            f"round {ctx.round}: corrupt_value for {pid} returned {value!r}, "
            f"not a {expected.__name__ if payload else 'Value or PairMessage'}"
        )
    return values


def _rewritten(strategy, ctx, pid) -> ProcessorState:
    state = strategy.rewrite(ctx, pid)
    if not isinstance(state, ProcessorState):
        raise StrategyViolation(
            f"round {ctx.round}: rewrite of {pid} returned {state!r}, "
            f"not a ProcessorState"
        )
    return state


@functools.lru_cache(maxsize=8)
def _direct_slots(network: Network, bare: bool) -> tuple:
    """(round-1 slots, pair-round slots) of direct delivery on `network`:
    sender -> the receivers it sends to, in increasing pid order."""
    if bare:
        everyone = list(network.vertices)  # one slot list shared by every sender
        return {SOURCE: everyone}, dict.fromkeys(network.vertices, everyone)
    return (
        {SOURCE: sorted(network.neighbors(SOURCE))},
        {p: sorted(network.neighbors(p)) for p in network.vertices},
    )


@functools.lru_cache(maxsize=16)
def _direct_links(network: Network, bare: bool, first: bool) -> tuple:
    """(sender, its links' keys (sender, receiver), its receivers) for each
    sender of round 1's (`first`) or a pair round's `_direct_slots`, in
    increasing pid order: the keys of the `sent` table, in its order."""
    slots = _direct_slots(network, bare)[0 if first else 1]
    return tuple((p, tuple((p, q) for q in slots[p]), slots[p]) for p in sorted(slots))


class _DirectDelivery:
    """Bare and relay rounds, T = K = 1. The per-link `sent` table is built
    for full traces and in round 1, from the cached `_direct_links`."""

    def __init__(self, scenario: Scenario, states: dict, r: int):
        self.network, self.states, self.r = scenario.network, states, r
        self.source_value = scenario.source_value
        self.bare = scenario.mode == "bare"
        self.full = scenario.trace_level == "full"
        self.params = scenario.params
        first_slots, pair_slots = _direct_slots(scenario.network, self.bare)
        self.slots = first_slots if r == 1 else pair_slots

    def step(self, t: int, controlled, ctx) -> None:
        slots, strategy = self.slots, ctx.scenario.strategy
        self.forged = forged = {
            p: _forged(strategy, ctx, p) for p in sorted(controlled) if p in slots
        }
        if self.r == 1:
            self.emitted = emitted = {SOURCE: self.source_value}
        else:
            states = self.states
            self.emitted = emitted = {
                p: states[p].emission() for p in slots if p not in controlled
            }
        self.sent = sent = {}
        if self.full or self.r == 1:
            for p, links, receivers in _direct_links(self.network, self.bare, self.r == 1):
                if p in forged:
                    sent.update(zip(links, map(forged[p].__getitem__, receivers)))
                else:
                    sent.update(zip(links, repeat(emitted[p])))

    def receiver_controlled(self, pid: int, ctx) -> None:
        pass  # no copy is held, so none is corrupted

    def decode(self, honest: list):
        """(what each honest receiver's rule reads, 0 fallbacks): the source's
        payload in round 1 (None for a non-neighbour); in relay pair rounds
        the highs of the neighbours' pairs, for the receivers whose high is
        still EMPTY (`relay_update` keeps every other state); in bare pair
        rounds `_count_pairs` of the honest emissions, with the forged
        payloads as the exceptions."""
        forged, r = self.forged, self.r
        if r == 1:
            return {p: self.sent.get((SOURCE, p)) for p in honest}, 0
        if not self.bare:
            neighbors, states = self.network.neighbors, self.states
            highs = {i: msg.high for i, msg in self.emitted.items()}
            return {
                p: [forged[i][p].high if i in forged else highs[i] for i in neighbors(p)]
                for p in honest
                if states[p].high == EMPTY
            }, 0
        return _count_pairs(self.emitted, forged, honest, r, self.params), 0

    def shown(self) -> tuple:
        """What a full trace records of the round: `sent`, and no buffers."""
        return self.sent, None


class _LiftedDelivery:
    """Lifted rounds over `SparseTransfers`, at both trace levels; a full
    trace also reads its hops and buffers. The adversary corrupts copies and
    forges no slots; in round 1 a controlled source also has its own stored
    value corrupted after each `step`."""

    def __init__(self, scenario: Scenario, states: dict, r: int):
        self.r, self.params, self.slots = r, scenario.params, {}
        if r == 1:
            self.source_copy = scenario.source_value  # the source's own stored v_s
            senders, payload = (SOURCE,), lambda i: self.source_copy
        else:
            senders, payload = tuple(scenario.network.vertices), lambda i: states[i].emission()
        self.transfers = SparseTransfers(scenario.lifted.scheme, senders, payload)

    def step(self, t: int, controlled, ctx) -> None:
        corrupt = functools.partial(_corrupted, ctx.scenario.strategy, ctx)
        self.transfers.step(t, controlled, corrupt)
        if self.r == 1 and SOURCE in controlled:
            (self.source_copy,) = corrupt(SOURCE, 1)

    def receiver_controlled(self, pid: int, ctx) -> None:
        corrupt = functools.partial(_corrupted, ctx.scenario.strategy, ctx)
        self.transfers.receiver_controlled(pid, corrupt)

    def decode(self, honest: list):
        """(what each honest receiver's rule reads, decodes that fell back):
        the source's decoded value in round 1, later `_count_pairs` of the
        n decoded pairs."""
        payloads, exceptions, fallbacks = self.transfers.decode(honest)
        if self.r == 1:
            source = payloads[SOURCE]
            return {p: exceptions.get((SOURCE, p), source) for p in honest}, fallbacks
        by_sender: dict = {}
        for (i, p), value in sorted(exceptions.items()):  # keys are unique: no value compared
            by_sender.setdefault(i, {})[p] = value
        return _count_pairs(payloads, by_sender, honest, self.r, self.params), fallbacks

    def shown(self) -> tuple:
        """What a full trace records of the round: hops and buffers."""
        return self.transfers.hops, self.transfers.buffers()


def _count_pairs(
    payloads: dict, exceptions: dict, honest: list, r: int, params: ProtocolParams
) -> list:
    """What the honest receivers' `histogram_update` reads in pair round r,
    one entry per receiver class: (its receivers, in `honest` order; the
    high and medium count histograms of the n pairs each of them received;
    the pivot's high, None when the pivot index exceeds n). Sender i sent
    payloads[i] to every receiver except where exceptions[i][p] says what p
    got instead; `exceptions` holds its senders in increasing order, and a
    sender absent from `payloads` reaches receivers only through it.

    The payloads are counted once. When no exception comes from the pivot
    and `_cut_in_reach` finds no cut point within the round's reach of a
    count the rule reads, each test `histogram_update` makes of a
    receiver's counts (every support, the decision, and the
    decision-consistency `ValueError`) comes out alike for all honest
    receivers. They then form one class, counted as the first of them
    received, and each gets the state, or the error, that its own counts
    give: traces are those of per-receiver updates. Otherwise a receiver's
    class is its exception signature, the (sender, payload) exceptions
    addressed to it in sender order, and the receivers without exceptions
    share one class. Each class with exceptions gets corrected copies of the
    base histograms."""
    high_base, medium_base = {}, {}
    for msg in payloads.values():
        high_base[msg.high] = high_base.get(msg.high, 0) + 1
        medium_base[msg.medium] = medium_base.get(msg.medium, 0) + 1
    n = params.n
    pivot = pivot_index(r)
    base_pivot = payloads.get(pivot)
    if pivot not in exceptions and not _cut_in_reach(
        payloads, exceptions, high_base, medium_base,
        base_pivot.high if pivot <= n else None, params,
    ):
        first = honest[0]
        classes = {tuple((i, got[first]) for i, got in exceptions.items() if first in got): honest}
    else:
        by_receiver: dict = {}
        for i, got in exceptions.items():
            for p, msg in got.items():
                by_receiver.setdefault(p, []).append((i, msg))
        classes = {}
        for p in honest:
            classes.setdefault(tuple(by_receiver.get(p, ())), []).append(p)
    counted = []
    for signature, receivers in classes.items():
        high_counts, medium_counts, pivot_msg = high_base, medium_base, base_pivot
        if signature:
            high_counts, medium_counts = dict(high_base), dict(medium_base)
            for i, msg in signature:
                replaced = payloads.get(i)
                if replaced is not None:  # a count of 0 reads as never received
                    high_counts[replaced.high] -= 1
                    medium_counts[replaced.medium] -= 1
                high_counts[msg.high] = high_counts.get(msg.high, 0) + 1
                medium_counts[msg.medium] = medium_counts.get(msg.medium, 0) + 1
                if i == pivot:
                    pivot_msg = msg
        pivot_high = pivot_msg.high if pivot <= n else None
        counted.append((receivers, (high_counts, medium_counts, pivot_high)))
    return counted


def _cut_in_reach(payloads, exceptions, high_base, medium_base, pivot_high, params) -> bool:
    """Whether some receiver's test `c > k`, for a count c the rule reads
    and k in `cut_points`, can come out unlike another's. The senders
    without exceptions give every receiver the same rest of the histograms.
    Each of the reach senders with exceptions adds one pair to each
    receiver's, its payload or an exception, so in a bare round, where no
    forged sender has a payload, reach is what every honest receiver has.
    A count lies in [c, c + reach] for c its value in the rest: a high count
    (0 for a value absent from it), or the `pivot_backing` of pivot_high.
    The test can differ only if a cut point k has c <= k < c + reach."""
    touched = [payloads[i] for i in exceptions if i in payloads]
    if touched:  # lifted rounds: take the senders with exceptions out
        high_base, medium_base = dict(high_base), dict(medium_base)
        for msg in touched:
            high_base[msg.high] -= 1
            medium_base[msg.medium] -= 1
    cuts, reach = sorted(cut_points(params)), len(exceptions)

    def crossed(c):
        return bisect_left(cuts, c) != bisect_left(cuts, c + reach)

    if crossed(0) or any(map(crossed, high_base.values())):
        return True
    backing = pivot_backing(pivot_high, medium_base)
    return backing is not None and crossed(backing)


def _update_classes(states: dict, counted: list, r: int, params: ProtocolParams) -> None:
    """Apply `histogram_update` to every receiver of `_count_pairs`' classes,
    in place. The rule reads of a receiver only the class's counts, its
    `decided` and whether it is the round's pivot, so it runs once per
    (class, decided, is pivot) and the receivers of each share the frozen
    result."""
    pivot = pivot_index(r)
    for receivers, counts in counted:
        updated: dict = {}
        for p in receivers:
            state = states[p]
            key = (state.decided, p == pivot)
            if key not in updated:
                updated[key] = histogram_update(p, state, *counts, r, params)
            states[p] = updated[key]


def logical_round(scenario: Scenario, states: dict, lr: int, rng, trace: Trace) -> dict:
    """Run the T physical rounds of logical round `lr` from `states` (pid ->
    state at its start), append their `RoundTrace`s and decode fallbacks to
    `trace`, and return the states at its end. `states` is left unchanged.

    The strategy's hooks see `rng`, `trace` and the states. No built-in
    strategy reads `ctx.trace` or `ctx.states`, so for each of them except
    those that draw from `rng` (`Strategy`'s defaults, `RandomizedControl`,
    `StaticControl`'s random rule) a lie depends only on the round, the
    pid and the control set: two runs that reach the same states in the
    same round continue alike under the same schedule, whatever came
    before. That is what lets a search over schedules merge them."""
    g, T, strategy = scenario.network, scenario.T, scenario.strategy
    full = scenario.trace_level == "full"
    states = dict(states)  # updated in place
    kind = "value" if lr == 1 else "pair"
    delivery = (_LiftedDelivery if scenario.mode == "lifted" else _DirectDelivery)(
        scenario, states, lr
    )
    for t in range(1, T + 1):
        rho = (lr - 1) * T + t
        ctx = StepContext(scenario, rho, dict(states), trace, rng, kind, delivery.slots)
        controlled = _controlled(strategy, ctx)
        delivery.step(t, controlled, ctx)
        for pid in sorted(controlled):
            states[pid] = _rewritten(strategy, ctx, pid)
            delivery.receiver_controlled(pid, ctx)

        if t == T:
            received, fallbacks = delivery.decode(
                [p for p in g.vertices if p not in controlled]
            )
            trace.decode_fallbacks += fallbacks
            if scenario.mode == "relay":
                for p, got in received.items():
                    states[p] = relay_update(p, states[p], got, lr, scenario.source_value)
            elif lr == 1:
                for p, got in received.items():
                    states[p] = first_round_state(got)
            else:
                _update_classes(states, received, lr, scenario.params)

        sent, held = delivery.shown() if full else ({}, None)
        snapshot = dict(states)
        if held is not None:  # a state holds its buffers only in the snapshot
            for p, state in states.items():
                buffers = held.get(p, ())
                if buffers or state.buffers:
                    snapshot[p] = state.holding(buffers)
        trace.append(RoundTrace(rho, controlled, sent, snapshot))
    return states


def run(scenario: Scenario) -> Trace:
    """Execute the scenario for its full round budget and record the trace:
    the fold of `logical_round` over its logical rounds."""
    rng = random.Random(scenario.seed)
    trace = Trace(n=scenario.n)
    states = {p: ProcessorState() for p in scenario.network.vertices}
    for lr in range(1, scenario.rounds // scenario.T + 1):
        states = logical_round(scenario, states, lr, rng, trace)
    return trace


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


def check_round(scenario: Scenario, carry: tuple, lr: int, sets, states: dict) -> tuple:
    """The checkers' step over logical round `lr`: (carry, guarantee
    violation, claim violation, anchored pivot) from the carry before it, the
    controlled sets of its T physical rounds and its end states (pid ->
    state, in pid order). The carry starts as (None, None); an output is
    None when the round gives none.

    The carry is all the checkers keep of earlier rounds: what anchors the
    round-2R guarantee (None, "source" or "pivot") and the pivot whose
    window is under way, if it has been honest in it so far. A transfer of
    a logical round delivers the sender's payload when the sender is honest
    in its first K physical rounds and the receiver in its last K
    (criterion 6), so round lr covers the processors not controlled in its
    last K. Once the guarantee is anchored, those must end round lr with
    one decision, the source value when the source anchored it.

    Round lr is in the window of pivot R = lr // 2 + 1 (if R <= n), the
    physical rounds R must stay honest through to anchor the guarantee from
    round 2R on. The hypothesis is that the pivot of logical rounds 2R-2
    and 2R-1, processor R, is honest through both. What the others read of
    it there is what it sends: its pair of round 2R-2, which every receiver
    reads as that round's pivot high, and its pair of round 2R-1, computed
    by its pivot-threshold update at the end of round 2R-2. Its own update
    at the end of round 2R-1 only decides whether it is itself covered. So
    R must be honest in the first K rounds of 2R-2 (sending), its last K
    (receiving) and the first K of 2R-1 (sending); with T = K = 1 these are
    the bare rounds 2R-2 and 2R-1. The source (R = 1) only sends, in the
    first K rounds of round 1. The first pivot honest through its window
    anchors the guarantee, and the step that ends the window returns it.
    For every such pivot R >= 2 the crystallization claim holds: the
    processors round 2R-1 covers end it with one common (high, medium)
    value whose halves are equal."""
    anchor, watching = carry
    R, K = lr // 2 + 1, scenario.K
    faulty = frozenset().union(*sets[-K:])
    ends = [state for p, state in states.items() if p not in faulty]  # of the covered
    guarantee = claim = anchored = None
    if anchor is not None:
        values = {state.decided for state in ends}
        if len(values) > 1 or values == {None}:
            covered = [p for p in states if p not in faulty]
            guarantee = f"round {lr}: decisions {sorted(map(str, values))} among {covered}"
        elif anchor == "source" and values and values != {scenario.source_value}:
            guarantee = f"round {lr}: decided {values.pop()} instead of the source value"
    if R > scenario.n:
        return (anchor, None), guarantee, None, None
    sending = lr % 2 == 0  # round 2R-2: R sends, then receives
    window = sets[:K] + sets[-K:] if sending else sets[:K]
    honest = (sending or lr == 1 or watching == R) and R not in frozenset().union(*window)
    if sending:
        return (anchor, R if honest else None), guarantee, None, None
    if honest and R >= 2:
        # one (high, medium) value with equal halves: one value among all halves
        if len({state.high for state in ends} | {state.medium for state in ends}) > 1:
            claim = f"R={R}: round {lr} summaries " + ", ".join(
                f"p{p}=({states[p].high},{states[p].medium})" for p in states if p not in faulty)
    if honest and anchor is None:
        anchor, anchored = "source" if R == 1 else "pivot", R
    return (anchor, None), guarantee, claim, anchored


def check_final(scenario: Scenario, ever, states: dict, fallbacks: int) -> tuple:
    """(agreement, validity, agreed value, notes) of a run that controlled
    the processors `ever` at some time, ended in `states` and counted
    `fallbacks` decode fallbacks."""
    never_faulty = [p for p in states if p not in ever]
    notes = []
    agreed_value = None
    if not never_faulty:
        agreement = "vacuous"
        notes.append("every processor was controlled at least once")
    else:
        decisions = {states[p].decided for p in never_faulty}
        if len(decisions) == 1:
            agreement = "pass"
            agreed_value = decisions.pop()
            if agreed_value is None:
                notes.append("never-faulty processors all terminated undecided")
        else:
            agreement = "fail"
            notes.append(
                "never-faulty decisions differ: "
                + ", ".join(f"p{p}={states[p].decided}" for p in never_faulty)
            )
    if fallbacks:
        notes.append(
            f"{fallbacks} transfer decodes lacked a strict "
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
    return agreement, validity, agreed_value, notes


def _checked_rounds(trace: Trace, scenario: Scenario):
    """`check_round` folded over the logical rounds of `trace`: (guarantee
    violation, claim violation, anchored pivot) for each."""
    T, carry = scenario.T, (None, None)
    controlled = [rt.controlled for rt in trace.rounds]
    for lr in range(1, scenario.rounds // T + 1):
        states = trace.rounds[lr * T - 1].states_after
        carry, guarantee, claim, anchored = check_round(
            scenario, carry, lr, controlled[(lr - 1) * T : lr * T], states
        )
        yield guarantee, claim, anchored


def check_agreement(trace: Trace, scenario: Scenario) -> Verdict:
    """Evaluate both agreement conditions (`check_final`) and the round-2R
    stability guarantee (`check_round` over the trace)."""
    agreement, validity, agreed_value, notes = check_final(
        scenario, trace.ever_controlled(), trace.final_states(), trace.decode_fallbacks
    )
    first_stable, violations = None, []
    if scenario.params is not None:  # the guarantee is the agreement protocol's
        last = scenario.rounds // scenario.T
        for guarantee, _, anchored in _checked_rounds(trace, scenario):
            if guarantee:
                violations.append(guarantee)
            if anchored and 2 * anchored <= last:  # round 2R is in the run
                first_stable = 2 * anchored
    return Verdict(agreement, validity, agreed_value, first_stable, violations, notes)


def check_support_claim(trace: Trace, scenario: Scenario) -> list:
    """Violations of the crystallization claim (`check_round`), in round
    order."""
    if scenario.params is None:
        raise ValueError("the claim applies to the agreement protocol, not relay mode")
    return [claim for _, claim, _ in _checked_rounds(trace, scenario) if claim]


# --- indistinguishability ---------------------------------------------------------


def check_indistinguishable(pair) -> tuple:
    """Run both scenarios of a pair and compare each observer's view.

    Returns (True, None) when all views match byte for byte, else
    (False, (round, observer, field)) for the first divergence.
    """
    return _compare_views(pair, run(pair.scenario_a), run(pair.scenario_b))


def _compare_views(pair, trace_a: Trace, trace_b: Trace) -> tuple:
    """`check_indistinguishable` on the pair's two traces, already run."""
    a, b = pair.scenario_a, pair.scenario_b
    if a.n != b.n or a.rounds != b.rounds or a.network.edges() != b.network.edges():
        raise ValueError("scenario pair mismatch: different n, graph, or rounds")
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
