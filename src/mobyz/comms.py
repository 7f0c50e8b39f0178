"""Reliable point-to-point transfer over incomplete networks, plus the
reduction that runs the complete-network protocol on top of such transfers.

Two schemes are provided. The two-round scheme pushes 4m+1 copies through
common neighbors (plus the two direct "pseudo-path" sends when the endpoints
are adjacent) and takes T=2 rounds with endpoint windows K=1. The flooding
scheme repeatedly injects the message into kappa pre-agreed disjoint paths
for T-1 rounds (T = ceil((n-1-4m)/(kappa-4m))), windows K=T-1. Receivers
take a majority vote over the copies that arrive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain, groupby
from operator import itemgetter
from typing import Optional

from .graphs import Network, common_neighbors, disjoint_paths
from .protocol import ProtocolParams


@dataclass(frozen=True)
class Route:
    """One copy-carrying path with the rounds the sender injects into it."""

    path: tuple  # (u, ..., v); length-1 hops allowed for direct sends
    inject_rounds: tuple


@dataclass(frozen=True)
class TransferPlan:
    sender: int
    receiver: int
    routes: tuple  # of Route; empty for the self-storage plan

    @property
    def is_self(self) -> bool:
        return self.sender == self.receiver


@dataclass
class CommScheme:
    """A (T, K) communication scheme over a fixed network.

    Transfer from u to v succeeds whenever u is non-faulty through the first
    K of the T rounds and v through the last K. Plans are deterministic and
    cached, so all parties pre-agree on them for free.
    """

    kind: str
    network: Network
    m: int
    T: int
    K: int
    kappa: int = 0  # flooding only
    _plans: dict = field(default_factory=dict, repr=False)
    _copies: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.K <= self.T:
            raise ValueError("endpoint window K must lie within 1..T")

    def plan(self, u: int, v: int) -> TransferPlan:
        key = (u, v)
        if key not in self._plans:
            if self.kind == "two-round":
                self._plans[key] = two_round_plan(self.network, u, v, self.m)
            else:
                self._plans[key] = flood_plan(self.network, u, v, self.m, self.kappa)
        return self._plans[key]

    def copy_index(self, senders: Optional[tuple] = None) -> "CopyIndex":
        """Where the copies of the transfers from `senders` (by default
        every processor) are in each round of a logical round; built on
        first use per sender tuple and then cached, like the plans."""
        if senders is None:
            senders = tuple(self.network.vertices)
        index = self._copies.get(senders)
        if index is None:
            index = self._copies[senders] = _build_copy_index(self, senders)
        return index


def two_round_plan(g: Network, u: int, v: int, m: int) -> TransferPlan:
    """Length-2 relay routes through the 4m+1 smallest common neighbors.

    Adjacent endpoints use 4m-1 relays plus a direct send in each round;
    u == v stores the value locally and needs no routes.
    """
    if u == v:
        return TransferPlan(u, v, ())
    shared = sorted(common_neighbors(g, u, v))
    if g.adjacent(u, v):
        needed = 4 * m - 1
    else:
        needed = 4 * m + 1
    if len(shared) < needed:
        raise ValueError(
            f"pair ({u},{v}) has {len(shared)} common neighbors, needs {needed}"
        )
    routes = [
        Route(path=(u, w, v), inject_rounds=(1,)) for w in shared[:needed]
    ]
    if g.adjacent(u, v):
        routes.append(Route(path=(u, v), inject_rounds=(1,)))  # send now, v holds it
        routes.append(Route(path=(u, v), inject_rounds=(2,)))  # send again next round
    return TransferPlan(u, v, tuple(routes))


def compute_T(n: int, m: int, kappa: int) -> int:
    """Rounds needed by the flooding scheme: ceil((n-1-4m)/(kappa-4m))."""
    if kappa <= 4 * m:
        raise ValueError(f"kappa={kappa} must exceed 4m={4 * m}")
    return -((n - 1 - 4 * m) // -(kappa - 4 * m))


def flood_plan(g: Network, u: int, v: int, m: int, kappa: int) -> TransferPlan:
    """kappa disjoint paths, injected every round from 1 to T-1.

    With T=2 this is just the two-round scheme. Adjacent endpoints exchange
    directly in round 2 (the clock still runs the full T rounds).
    """
    T = compute_T(g.n, m, kappa)
    if T == 2:
        return two_round_plan(g, u, v, m)
    if u == v:
        return TransferPlan(u, v, ())
    if g.adjacent(u, v):
        return TransferPlan(u, v, (Route(path=(u, v), inject_rounds=(2,)),))
    system = disjoint_paths(g, u, v, kappa)
    routes = tuple(
        Route(path=path, inject_rounds=tuple(range(1, T)))
        for path in system.paths
    )
    return TransferPlan(u, v, routes)


def two_round_scheme(g: Network, m: int) -> CommScheme:
    return CommScheme(kind="two-round", network=g, m=m, T=2, K=1)


def flood_scheme(g: Network, m: int, kappa: int) -> CommScheme:
    T = compute_T(g.n, m, kappa)
    if T < 2:
        raise ValueError("complete network: run the bare protocol instead")
    return CommScheme(kind="flood", network=g, m=m, T=T, K=T - 1, kappa=kappa)


@cache
def _sort_key(payload) -> tuple:
    """`payload.sort_key()`, once per interned payload."""
    return payload.sort_key()


def _decode(copies: list, tie_break: bool = True):
    """(the strict-majority value among copies, whether there was none).
    A strict majority is unique, and usually the first copy's, so that one
    is counted first. Without one it falls back to the canonically smallest
    most-frequent value, or to None when `tie_break` is false (a decode
    nobody reads, kept only to be counted); that needs a broken endpoint
    window, so the engine counts it."""
    if not copies:
        raise ValueError("cannot decode an empty copy list")
    first = copies[0]
    if 2 * copies.count(first) > len(copies):
        return first, False
    counts: dict = {}
    for x in copies:
        counts[x] = counts.get(x, 0) + 1
    top = max(counts.values())
    if 2 * top > len(copies):
        return next(x for x, c in counts.items() if c == top), False
    if not tie_break:
        return None, True
    return min((x for x, c in counts.items() if c == top), key=_sort_key), True


def _honest_majority(ids, overrides) -> bool:
    """Whether the copies of `ids` without an override hold a strict
    majority of them. When every honest copy carries one payload, `_decode`
    then gives that payload and does not fall back; no ids never qualify,
    so `_decode` still rejects an empty list."""
    return 2 * sum(map(overrides.__contains__, ids)) < len(ids)


# --- transfer execution --------------------------------------------------------


@dataclass
class Copy:
    route_id: int
    at: int  # index into the route path of the current holder
    value: object
    tainted: bool


@dataclass
class TransferRun:
    """Marches copies along one plan's routes, one hop per round: the
    reference semantics of a single transfer, which the engine's
    `SparseTransfers` reproduces for all of them at once.

    step() runs once per round with the currently controlled set and a
    corruption oracle, then decode() after round T. Copies held by a
    controlled processor (including the receiver's collected ones) are
    adversary-chosen and marked tainted — ground truth for the checkers.
    """

    plan: TransferPlan
    payload_fn: object  # round -> payload the sender would inject
    in_flight: list = field(default_factory=list)
    collected: list = field(default_factory=list)  # (route_id, arrival, value, tainted)

    def step(self, t: int, controlled, corrupt, record_hop=None) -> None:
        if self.plan.is_self:
            return
        u = self.plan.sender
        moved = []
        for copy in self.in_flight:
            path = self.plan.routes[copy.route_id].path
            holder = path[copy.at]
            value, tainted = copy.value, copy.tainted
            if holder in controlled:  # forwards whatever the adversary says
                value, tainted = corrupt(holder), True
            nxt = copy.at + 1
            receiver = path[nxt]
            if record_hop is not None:
                record_hop(holder, receiver, self.plan, copy.route_id, value)
            if receiver in controlled:  # stores whatever the adversary says
                value, tainted = corrupt(receiver), True
            if receiver == self.plan.receiver:
                self.collected.append((copy.route_id, t, value, tainted))
            else:
                moved.append(Copy(copy.route_id, nxt, value, tainted))
        self.in_flight = moved
        for route_id, route in enumerate(self.plan.routes):
            if t not in route.inject_rounds:
                continue
            value = self.payload_fn(t)
            tainted = False
            if u in controlled:
                value, tainted = corrupt(u), True
            first = route.path[1]
            if record_hop is not None:
                record_hop(u, first, self.plan, route_id, value)
            if first in controlled:
                value, tainted = corrupt(first), True
            if first == self.plan.receiver:
                self.collected.append((route_id, t, value, tainted))
            else:
                self.in_flight.append(Copy(route_id, 1, value, tainted))

    def receiver_controlled(self, corrupt) -> None:
        """The receiver's stored copies are rewritten while it is controlled."""
        self.collected = [
            (rid, arr, corrupt(self.plan.receiver), True)
            for (rid, arr, _v, _t) in self.collected
        ]

    def decode(self):
        return _decode([v for (_r, _a, v, _t) in self.collected])

    def tainted_count(self) -> int:
        return sum(1 for (_r, _a, _v, t) in self.collected if t)


# --- one logical round of transfers -------------------------------------------
#
# `SparseTransfers` moves every sender's message to every receiver through
# the T physical rounds of a logical round, at both trace levels; the
# engine's loop and the order in which it draws lies are described in the
# `sim` module docstring. `payload(i)` is what sender i injects when asked,
# and `corrupt(v, k)` gives the k payloads controlled v writes to its next
# k copies, in copy order. decode(honest) returns each sender's payload at
# decode time, the (sender, receiver) transfers into the `honest` receivers
# that decode to anything else (never the self transfer (i, i)), and how
# many decodes fell back, into any receiver. Values are interned, so
# "anything else" is an identity test. The tests keep a reference with the
# same interface, one marching `TransferRun` per ordered pair that asks for
# one lie at a time and decodes every pair, and put it in the engine's place
# to compare full traces byte for byte.


@dataclass(frozen=True)
class CopyIndex:
    """Every copy of the transfers from `senders` to every processor over a
    scheme, numbered in the reference order (transfer by sender and then
    receiver, then injection round, then route), and the places it visits
    within one logical round.

    `touches[(t, v)]` lists the (order, copy, v) events of round t in which v
    holds a copy that moves (order 2·copy) or receives one (2·copy + 1);
    copies still in flight after round T are dropped, as TransferRun drops
    them. `visits[(t, v)]` is `_visit` of `touches[(t, v)]`, and
    `stored[(v, t)]` the copies v holds after round t, by sender and then
    arrival. `moves[(t, u)]` lists ((holder, next hop), copy) for the copies
    of sender u that move in round t, in copy order. `arrivals[(u, v)]` lists
    (arrival round, copy) for the copies that reach v by round T, in arrival
    order, and `ids[(u, v)]` just their copies; `silent` lists the transfers
    between distinct processors none of whose copies do. `footprint` splits
    the transfers one controlled processor can override. Full traces also
    read `names`, `held` and `hop_rows`, built on their first use.
    """

    senders: tuple
    touches: dict
    visits: dict
    stored: dict
    moves: dict
    transfer: tuple  # copy -> (sender, receiver)
    inject: tuple  # copy -> injection round
    route: tuple  # copy -> route id in its transfer's plan
    arrivals: dict
    ids: dict
    silent: tuple
    _footprints: dict = field(default_factory=dict, repr=False, compare=False)
    _hop_rows: dict = field(default_factory=dict, repr=False, compare=False)

    def footprint(self, v: int, rounds: tuple) -> tuple:
        """(heavy, light) for v controlled alone in `rounds` of a logical
        round, in which it overrides its visits' copies and its stored ones:
        the transfers of which it overrides at least half of the arrived
        copies, and those of which it overrides fewer, but some. Built on
        first use, then kept."""
        split = self._footprints.get((v, rounds))
        if split is None:
            touched = set()
            for t in rounds:
                touched.update(self.visits.get((t, v), ((), ()))[0], self.stored[(v, t)])
            counts: dict = {}
            for c in touched & self.arrived:
                key = self.transfer[c]
                counts[key] = counts.get(key, 0) + 1
            ids = self.ids
            split = self._footprints[(v, rounds)] = (
                frozenset(key for key, k in counts.items() if 2 * k >= len(ids[key])),
                frozenset(key for key, k in counts.items() if 2 * k < len(ids[key])),
            )
        return split

    @cached_property
    def arrived(self) -> frozenset:
        """The copies that reach their receiver by round T."""
        return frozenset(c for copies in self.ids.values() for c in copies)

    @cached_property
    def names(self) -> tuple:
        """copy -> its transfer's name, "i->j", as full traces show it."""
        named = {key: "%d->%d" % key for key in self.arrivals}
        return tuple(named[key] for key in self.transfer)

    @cached_property
    def held(self) -> dict:
        """(v, t) -> (copy, sender, head) for the copies that reach v by
        round t, in the order of v's buffer records: by transfer name, then
        route, then arrival. A head, (transfer name, route, arrival), is the
        part of a buffer record that never changes. A copy is the only one
        of its transfer with its route and arrival, so the order never
        depends on its value."""
        names, route = self.names, self.route
        entries: dict = {}
        for (u, v), arrived in self.arrivals.items():
            for arrival, c in arrived:
                entries.setdefault(v, []).append(((names[c], route[c], arrival), u, c))
        rows = {v: sorted(listed) for v, listed in entries.items()}
        return {
            (v, t): tuple((c, u, head) for head, u, c in rows.get(v, ()) if head[2] <= t)
            for v, t in self.stored
        }

    def hop_rows(self, t: int) -> tuple:
        """(link, ((copy, transfer name, route, sender), ...)) for each link
        that copies move along in round t, in the order a loop over the
        senders and their `moves` reaches them. Built on first use per
        round, then kept."""
        rows = self._hop_rows.get(t)
        if rows is None:
            names, route = self.names, self.route
            links: dict = {}
            for u in self.senders:
                for link, c in self.moves.get((t, u), ()):
                    links.setdefault(link, []).append((c, names[c], route[c], u))
            rows = self._hop_rows[t] = tuple(
                (link, tuple(listed)) for link, listed in links.items()
            )
        return rows


def _build_copy_index(scheme: CommScheme, senders: tuple) -> CopyIndex:
    vertices = scheme.network.vertices
    touches: dict = {}
    moves: dict = {}
    transfer, inject, route_ids, arrivals = [], [], [], {}
    for u in senders:
        for v in vertices:
            routes = scheme.plan(u, v).routes
            copies = sorted(
                (t0, route_id)
                for route_id, route in enumerate(routes)
                for t0 in route.inject_rounds
            )
            arrived = []
            for t0, route_id in copies:
                c = len(transfer)
                transfer.append((u, v))
                inject.append(t0)
                route_ids.append(route_id)
                path = routes[route_id].path
                for hop in range(min(len(path) - 1, scheme.T - t0 + 1)):
                    t = t0 + hop
                    holder, receiver = path[hop], path[hop + 1]
                    touches.setdefault((t, holder), []).append((2 * c, c, holder))
                    touches.setdefault((t, receiver), []).append((2 * c + 1, c, receiver))
                    moves.setdefault((t, u), []).append(((holder, receiver), c))
                    if receiver == v:
                        arrived.append((t, c))
            arrivals[(u, v)] = tuple(sorted(arrived))
    return CopyIndex(
        senders=senders,
        touches={key: tuple(events) for key, events in touches.items()},
        visits={key: _visit(events) for key, events in touches.items()},
        stored={
            (v, t): tuple(c for u in senders for arrival, c in arrivals[(u, v)] if arrival <= t)
            for v in vertices
            for t in range(1, scheme.T + 1)
        },
        moves={key: tuple(moved) for key, moved in moves.items()},
        transfer=tuple(transfer),
        inject=tuple(inject),
        route=tuple(route_ids),
        arrivals=arrivals,
        ids={key: tuple(c for _arrival, c in got) for key, got in arrivals.items()},
        silent=tuple(key for key, got in arrivals.items() if key[0] != key[1] and not got),
    )


def _visit(events) -> tuple:
    """(copies, received) of a run of one processor's touch events: their
    copies in event order, and the ones it receives. A run holds each copy
    at most once, as a copy makes one hop per round, between two distinct
    processors."""
    events = tuple(events)
    copies = tuple(c for _order, c, _v in events)
    received = tuple(c for order, c, _v in events if order & 1)
    return copies, received


class SparseTransfers:
    """The lifted back-end: visits only the copies a controlled processor
    holds or receives, and keeps what it wrote to them as overrides. It
    reads the scheme's copy index of its senders, so each copy it visits is
    one of theirs, and a round with one sender runs the same code as a
    round with n.

    Every other copy is honest and carries its sender's payload of its
    injection round, which differs from the sender's payload when the
    logical round began only for a sender controlled (and so possibly
    rewritten) during it; those senders' payloads are recorded each round.
    While fewer than half of a transfer's arrived copies have an override
    and all its honest copies carry one payload (its sender is untouched,
    or kept one payload through every round recorded), the honest ones hold
    a strict majority, so it decodes to that payload without a fallback.

    decode() bounds the overrides by who wrote them. A processor that alone
    was controlled in some rounds overrode only its `CopyIndex.footprint`
    for them, in which a transfer is heavy or light. So a transfer is dirty
    only when it is heavy in one footprint, light in two, or touched in a
    round with several controlled processors. A transfer light in one
    footprint and untouched otherwise has fewer than half of its arrived
    copies overridden. `pending` is what decode() looks at: the dirty
    transfers, every transfer of a sender whose payload changed during the
    logical round, and the silent ones (an empty copy list still raises in
    `_decode`). A pending transfer whose honest copies carry one payload
    and hold a strict majority (`_honest_majority`) decodes to that payload
    without listing its copies; the others are counted. One into a receiver
    that is not honest at decode time, whose pair no rule reads, is counted
    only to see whether it falls back, without the tie-break.

    Full traces also read `hops` and `buffers()`, rendered on demand from
    the index: a copy's value is its override if it has one, else its
    honest payload, and it is tainted exactly when it has an override.
    Everything else of a record is constant for the scheme, so the index
    keeps it (its `hop_rows` and `held`, which only these two build), and
    a round pays only for the values: one lookup per copy, in a table of
    the few copies whose value is not their sender's initial payload. A hop
    record is the tuple (transfer name, route, value).
    """

    def __init__(self, scheme: CommScheme, senders, payload):
        self.index = scheme.copy_index(tuple(senders))
        self.vertices = scheme.network.vertices
        self.senders = self.index.senders
        self.payload = payload
        self.initial = {i: payload(i) for i in senders}
        self.t = 0
        self.sent: dict = {}  # touched sender -> its payload in rounds 1..t
        self.overrides: dict = {}  # copy -> the last value a controlled holder gave it
        self.alone: dict = {}  # processor -> the rounds it alone was controlled in
        self.dirty: set = set()  # transfers touched in rounds no footprint covers
        self.received: dict = {}  # copy -> its override (or None) before round t's receipt

    def _corrupt(self, v: int, copies, received, corrupt) -> None:
        """Override `copies`, a run of v's events or its stored copies, with
        one batch of lies; `received` of them are v's receipts this round."""
        overrides = self.overrides
        self.received.update(zip(received, map(overrides.get, received)))
        overrides.update(zip(copies, corrupt(v, len(copies))))

    def step(self, t: int, controlled, corrupt) -> None:
        """Round t: one batch of lies per run of consecutive events (in
        copy order, a copy's holder before its receiver) of one controlled
        processor; with one controlled processor, one batch."""
        self.t = t
        for pid in controlled:
            if pid in self.senders:
                self.sent.setdefault(pid, [])
        for i, sent in self.sent.items():
            payload = self.payload(i)
            sent.extend([payload] * (t - len(sent)))
        self.received = {}
        index = self.index
        if len(controlled) == 1:
            v = next(iter(controlled))
            self.alone.setdefault(v, []).append(t)
            visit = index.visits.get((t, v))
            if visit is not None:
                self._corrupt(v, *visit, corrupt)
            return
        touches, transfer = index.touches, index.transfer
        events = sorted(e for v in controlled for e in touches.get((t, v), ()))
        for v, run in groupby(events, itemgetter(2)):
            copies, received = _visit(run)
            self._corrupt(v, copies, received, corrupt)
            self.dirty.update(map(transfer.__getitem__, copies))

    def receiver_controlled(self, pid: int, corrupt) -> None:
        """Controlled pid's stored copies, by sender and then arrival: one
        batch."""
        index, t = self.index, self.t
        copies = index.stored[(pid, t)]
        if copies:
            self._corrupt(pid, copies, (), corrupt)
            if t not in self.alone.get(pid, ()):
                self.dirty.update(map(index.transfer.__getitem__, copies))

    def decode(self, honest):
        """(payload per sender, decoded payload per transfer into an `honest`
        receiver that decodes to anything else, decodes that fell back)."""
        index, overrides = self.index, self.overrides
        ids, inject = index.ids, index.inject
        payloads = {i: self.payload(i) for i in self.senders}
        readers = set(honest)
        pending, seen = set(self.dirty), set()  # seen: light in a footprint so far
        for v, rounds in self.alone.items():
            heavy, light = index.footprint(v, tuple(rounds))
            pending |= heavy
            pending |= light & seen
            seen |= light
        pending.update(index.silent)
        exceptions, fallbacks, kept = {}, 0, {}
        for i, sent in self.sent.items():
            if sent.count(sent[0]) < len(sent):
                pending.update((i, j) for j in self.vertices if j != i)
                continue
            kept[i] = sent[0]
            if sent[0] is not payloads[i]:
                exceptions.update(
                    ((i, j), sent[0]) for j in readers if j != i and (i, j) not in pending
                )
        for key in pending:  # decodes are pure, so their order is immaterial
            now, sent = payloads[key[0]], self.sent.get(key[0])
            copies = ids[key]
            read = key[1] in readers
            single = now if sent is None else kept.get(key[0])
            if single is not None and _honest_majority(copies, overrides):
                if single is not now and read:
                    exceptions[key] = single
                continue
            values = [
                overrides[c] if c in overrides
                else now if sent is None else sent[inject[c] - 1]
                for c in copies
            ]
            value, fell_back = _decode(values, tie_break=read)
            fallbacks += fell_back
            if value is not now and read:
                exceptions[key] = value
        return payloads, exceptions, fallbacks

    @property
    def hops(self) -> dict:
        """(holder, next hop) -> the copies it moved in round t, as full
        traces show them: hop records (transfer name, route, value), with
        the value after the holder's corruption and before the receiver's."""
        index, t, initial = self.index, self.t, self.initial
        shown = dict(self.overrides)  # copy -> its value, where not its sender's initial payload
        for c, before in self.received.items():
            if before is None:
                del shown[c]
            else:
                shown[c] = before
        for i, sent in self.sent.items():  # by injection round
            for _link, c in index.moves.get((t, i), ()):
                if c not in shown:
                    shown[c] = sent[index.inject[c] - 1]
        return {
            link: [(name, route, shown.get(c, initial[i])) for c, name, route, i in rows]
            for link, rows in index.hop_rows(t)
        }

    def buffers(self) -> dict:
        """Each processor's collected copies as trace records, in record
        order: (transfer name, route, arrival, value, tainted)."""
        index, t, initial, overrides = self.index, self.t, self.initial, self.overrides
        text = {
            p: str(p)
            for p in {*overrides.values(), *initial.values(), *chain(*self.sent.values())}
        }
        # a record's tail, (value, tainted): by sender, or by copy where
        # that differs
        tails = {i: (text[initial[i]], False) for i in self.senders}
        marks = {c: (text[value], True) for c, value in overrides.items()}
        for i, sent in self.sent.items():
            kept = [(text[p], False) for p in sent]  # by injection round
            for v in self.vertices:
                for arrival, c in index.arrivals[(i, v)]:
                    if arrival <= t and c not in marks:
                        marks[c] = kept[index.inject[c] - 1]
        held: dict = {}
        for v in self.vertices:
            records = tuple([
                head + marks.get(c, tails[i]) for c, i, head in index.held[(v, t)]
            ])
            if records:
                held[v] = records
        return held


# --- the reduction to the complete-network protocol -----------------------------


@dataclass(frozen=True)
class LiftedProtocol:
    """The complete-network protocol run over a (T, K) scheme.

    Each of the 2n logical rounds takes T physical rounds in which every
    ordered pair transfers; all thresholds use fault unit m*K.
    """

    scheme: CommScheme
    params: ProtocolParams

    @property
    def physical_rounds(self) -> int:
        return 2 * self.params.n * self.scheme.T


def lift(scheme: CommScheme, params: ProtocolParams) -> LiftedProtocol:
    """Validate K < n/(6m) and build the lifted protocol description; the
    scheme's relays are chosen for its own m, so `params` must share it."""
    n, m, K = params.n, params.m, scheme.K
    if m != scheme.m:
        raise ValueError(f"protocol m={m} differs from the scheme's m={scheme.m}")
    if 6 * m * K >= n:
        raise ValueError(
            f"scheme window K={K} is not below n/(6m) = {Fraction(n, 6 * m)}"
        )
    lifted_params = ProtocolParams(
        n=n, m=m, alphabet_size=params.alphabet_size, fault_unit=m * K
    )
    return LiftedProtocol(scheme=scheme, params=lifted_params)


def kappa_sufficiency_bounds(n: int, m: int):
    """Both sufficient connectivity thresholds, as exact rationals.

    Returns (general bound 10m - 24m^2/n - 6m/n, ratio-form bound for
    A = n/m: (A/2+2)m when 6 < A <= 12, (10-24/A)m when A >= 12; the two
    ratio forms agree at A = 12).
    """
    if n <= 6 * m:
        raise ValueError("bounds assume n > 6m")
    general = 10 * m - Fraction(24 * m * m, n) - Fraction(6 * m, n)
    A = Fraction(n, m)
    if A <= 12:
        ratio_form = (A / 2 + 2) * m
    else:
        ratio_form = (10 - Fraction(24, 1) / A) * m
    return general, ratio_form
