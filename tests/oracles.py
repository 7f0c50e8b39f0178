"""Brute-force oracles, independent of the implementations under test: the
per-round protocol rules, the flow-based graph queries, the line-by-line
edge-list reader, the reference max-flow search, the lifted transfer
back-end, a decode of every transfer from the lifted back-end's state, and
the trace writer; also the honest rule's adapter for an explicit list of
received pairs, which only tests call."""

import itertools
import json
from collections import Counter

from mobyz import EMPTY, MANY, Network, PairMessage, Value
from mobyz.comms import CommScheme, TransferRun, _decode
from mobyz.protocol import histogram_update, pivot_index


def brute_min_separator(g, u, v):
    """Smallest vertex set (excluding u, v) disconnecting u from v, or None
    when u and v are adjacent (no such set exists)."""
    if g.adjacent(u, v):
        return None
    others = [x for x in g.vertices if x not in (u, v)]
    for size in range(len(others) + 1):
        for subset in itertools.combinations(others, size):
            if not g.connected_avoiding(u, v, subset):
                return size
    raise AssertionError("some subset must disconnect a non-adjacent pair")


def brute_local_connectivity(g, u, v):
    if g.adjacent(u, v):
        key = (min(u, v), max(u, v))
        trimmed = Network(g.n, [e for e in g.edges() if e != key])
        return 1 + brute_local_connectivity(trimmed, u, v)
    return brute_min_separator(g, u, v)


def brute_vertex_connectivity(g):
    if g.is_complete():
        return g.n - 1
    return min(
        brute_min_separator(g, u, v)
        for u in g.vertices
        for v in range(u + 1, g.n + 1)
        if not g.adjacent(u, v)
    )


def reference_read_edge_list(text):
    """The edge-list reader as it was, line by line: `graphs.read_edge_list`
    must build the same network and raise the same errors."""
    edges = []
    isolated = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            ids = [int(p) for p in parts]
        except ValueError:
            raise ValueError(f"edge list line {lineno}: not vertex ids: {raw!r}") from None
        if len(ids) == 1:
            isolated.append(ids[0])
        elif len(ids) == 2:
            edges.append((ids[0], ids[1]))
        else:
            raise ValueError(f"edge list line {lineno}: expected 1 or 2 ids")
    mentioned = [v for e in edges for v in e] + isolated
    if not mentioned:
        raise ValueError("empty edge list")
    return Network(max(mentioned), edges)


# --- reference max flow: a tuple-encoded augmenting search. Nodes are
# ("in"|"out", v); every node the DFS pops lists its residual successors
# smallest-neighbour first, and the search runs until the goal pops.
# `graphs._augment` must find the same path and leave the same flow state
# and, on failure, the same visited set ---------------------------------------


def residual_successors(g, node, through, edge_flow, s, t):
    side, v = node
    succs = []
    if side == "out":
        for w in g.sorted_neighbors(v):
            if (v, w) == (s, t) and (s, t) in edge_flow:
                continue
            succs.append(("in", w))
        if v in through:
            succs.append(("in", v))  # cancel the vertex passage
    else:
        if v not in through:
            succs.append(("out", v))
        for w in g.sorted_neighbors(v):
            if (w, v) in edge_flow:
                succs.append(("out", w))  # cancel incoming edge flow
    return succs


def reference_augment(g, s, t, through, edge_flow):
    """Push one unit along the first augmenting path and return None; with
    no path left, return the residual nodes the search visited, which are
    all those reachable from ("out", s)."""
    start = ("out", s)
    goal = ("in", t)
    prev = {start: None}
    stack = [start]
    while stack:
        node = stack.pop()
        if node == goal:
            break
        for nxt in reversed(residual_successors(g, node, through, edge_flow, s, t)):
            if nxt not in prev:
                prev[nxt] = node
                stack.append(nxt)
    else:
        return prev.keys()
    path = []
    node = goal
    while node is not None:
        path.append(node)
        node = prev[node]
    path.reverse()
    for a, b in zip(path, path[1:]):
        if a[0] == "out" and b[0] == "in" and a[1] != b[1]:
            if (b[1], a[1]) in edge_flow:
                # opposite units on one edge close the circulation
                # a -> b -> a through both vertices: drop all of it
                edge_flow.discard((b[1], a[1]))
                through.difference_update((a[1], b[1]))
            else:
                edge_flow.add((a[1], b[1]))
        elif a[0] == "in" and b[0] == "out" and a[1] == b[1]:
            through.add(a[1])
        elif a[0] == "out" and b[0] == "in" and a[1] == b[1]:
            through.discard(a[1])
        elif a[0] == "in" and b[0] == "out":
            edge_flow.discard((b[1], a[1]))
    return None


# --- independent oracle: a direct transcription of the per-round rules,
# structured around explicit per-candidate counting so it shares no code
# with the implementation under test -----------------------------------------


def oracle_update(self_id, prev_decided, received, r, n, m):
    a_vals = [p.high for p in received]
    b_vals = [p.medium for p in received]

    decided = prev_decided
    for candidate in set(a_vals):
        disagree = sum(1 for x in a_vals if x != candidate)
        if disagree <= 2 * m:
            decided = candidate

    f = r // 2 + 1

    def qualifies(x, threshold):
        if x == EMPTY:
            return False
        if f <= n and a_vals[f - 1] == x:
            backing = sum(1 for y in b_vals if y in (x, MANY))
            if backing > threshold:
                return True
        return sum(1 for y in a_vals if y == x) > threshold

    if self_id == f:
        high = {x for x in set(a_vals) if qualifies(x, 3 * m)}
        medium = set(high)
    else:
        high = {x for x in set(a_vals) if qualifies(x, 4 * m)}
        medium = {x for x in set(a_vals) if qualifies(x, 2 * m)}

    def summary(s):
        if not s:
            return EMPTY
        if len(s) >= 2:
            return MANY
        return next(iter(s))

    return decided, frozenset(high), frozenset(medium), summary(high), summary(medium)


# --- the honest rule's adapter for an explicit list of received pairs: it
# calls the implementation under test, so it is a convenience, not an oracle --


def round_update(self_id, state, received, r, params):
    """One honest update for round r >= 2 from exactly n received pairs.

    received[i-1] is the pair from processor i (everyone sends, self
    included). Counts the pairs and applies `protocol.histogram_update`;
    the engine counts a round's pairs once for all receivers instead.
    """
    n = params.n
    if len(received) != n:
        raise ValueError(f"expected {n} messages, got {len(received)}")
    if r < 2:
        raise ValueError("round_update applies from round 2 on")
    pivot = pivot_index(r)
    return histogram_update(
        self_id,
        state,
        Counter(msg.high for msg in received),
        Counter(msg.medium for msg in received),
        received[pivot - 1].high if pivot <= n else None,
        r,
        params,
    )


# --- reference lifted back-end: marches every copy of every transfer hop by
# hop through `comms.TransferRun`. It has the interface of
# `comms.SparseTransfers` (step, receiver_controlled, decode, hops,
# buffers), so a test can put it in the engine's place -------------------------


class TransferRuns:
    """The reference back-end: one TransferRun per ordered pair, every copy
    marched hop by hop and corrupted on its own, a batch of one lie. It also
    records what full traces show — each round's hops and every processor's
    collected copies."""

    def __init__(self, scheme: CommScheme, senders, payload):
        vertices = scheme.network.vertices
        self.payload = payload
        self.senders = senders
        self.runs = {
            (i, j): TransferRun(scheme.plan(i, j), payload_fn=lambda _t, i=i: payload(i))
            for i in senders
            for j in vertices
        }
        self.hops: dict = {}  # (holder, receiver) -> copies moved this round

    def _record_hop(self, holder, receiver, plan, route_id, value) -> None:
        self.hops.setdefault((holder, receiver), []).append(
            (f"{plan.sender}->{plan.receiver}", route_id, value)
        )

    def step(self, t: int, controlled, corrupt) -> None:
        self.hops = {}
        for run in self.runs.values():  # inserted in sorted (sender, receiver) order
            run.step(t, controlled, _one_by_one(corrupt), self._record_hop)

    def receiver_controlled(self, pid: int, corrupt) -> None:
        for i in self.senders:
            self.runs[(i, pid)].receiver_controlled(_one_by_one(corrupt))

    def decode(self, honest):
        """(payload per sender, decoded payload per transfer that decodes to
        anything else, decodes that fell back). It decodes every pair, into
        the `honest` receivers or not, so it reports at least the engine's
        exceptions and the fallbacks of every decode."""
        payloads = {i: self.payload(i) for i in self.senders}
        exceptions, fallbacks = {}, 0
        for key, run in self.runs.items():
            if not run.plan.is_self:
                value, fell_back = run.decode()
                fallbacks += fell_back
                if value is not payloads[key[0]]:
                    exceptions[key] = value
        return payloads, exceptions, fallbacks

    def buffers(self) -> dict:
        """Each processor's collected copies as trace records, sorted."""
        held: dict = {}
        for (i, j), run in self.runs.items():
            for route_id, arrival, value, tainted in run.collected:
                held.setdefault(j, []).append(
                    (f"{i}->{j}", route_id, arrival, str(value), tainted)
                )
        return {p: tuple(sorted(copies)) for p, copies in held.items()}


def decode_every_pair(transfers, honest):
    """What `comms.SparseTransfers.decode(honest)` must return in the state
    `transfers` is in: every transfer between distinct processors decoded
    from all of its arrived copies, none skipped, each copy its override if
    it has one and else the payload its sender injected. Exceptions go only
    to the `honest` receivers; fallbacks count into every receiver."""
    payloads = {i: transfers.payload(i) for i in transfers.senders}
    overrides, inject = transfers.overrides, transfers.index.inject
    exceptions, fallbacks = {}, 0
    for (i, j), copies in transfers.index.ids.items():
        if i == j:
            continue
        sent = transfers.sent.get(i)  # by round, for a sender controlled this logical round
        value, fell_back = _decode([
            overrides[c] if c in overrides
            else transfers.initial[i] if sent is None else sent[inject[c] - 1]
            for c in copies
        ])
        fallbacks += fell_back
        if value is not payloads[i] and j in honest:
            exceptions[(i, j)] = value
    return payloads, exceptions, fallbacks


def _one_by_one(corrupt):
    """`TransferRun`'s corruption oracle, pid -> one lie, from the engine's
    batched one, (pid, k) -> k lies."""
    return lambda pid: corrupt(pid, 1)[0]


# --- reference trace writer: each line is a record of plain dicts and lists,
# rendered by `json.dumps` with sorted keys. `core`'s writer emits the same
# bytes directly ---------------------------------------------------------------


def payload_record(payload) -> object:
    """JSON-ready form of any message payload appearing in a trace. A
    lifted round's list of hop records (transfer name, route, value) is
    written as a list of {"route", "transfer", "value"} objects."""
    if isinstance(payload, Value):
        return str(payload)
    if isinstance(payload, PairMessage):
        return [str(payload.high), str(payload.medium)]
    if isinstance(payload, list):
        return [
            {"transfer": name, "route": route, "value": payload_record(value)}
            for name, route, value in payload
        ]
    return payload


def round_record(rt) -> dict:
    return {
        "round": rt.round,
        "controlled": sorted(rt.controlled),
        "sent": {f"{i}->{j}": payload_record(p) for (i, j), p in rt.sent.items()},
        "states": {str(p): s.to_record() for p, s in rt.states_after.items()},
    }


def _line(record) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def record_text(trace) -> str:
    """What `Trace.to_text` must write."""
    return "".join(_line(round_record(rt)) + "\n" for rt in trace.rounds)


def view_record_text(view) -> str:
    """What `View.to_text` must write."""
    lines = []
    for rno, (received, state) in enumerate(view.per_round, start=1):
        rec = {
            "round": rno,
            "received": {str(sender): payload_record(p) for sender, p in received.items()},
            "state": state.to_record(),
        }
        lines.append(_line(rec))
    return "\n".join(lines) + "\n"
