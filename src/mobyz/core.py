"""Shared domain types: values, messages, processor state, traces, views.

Processors are numbered 1..n; processor 1 is always the source. Values are
either plain alphabet symbols or one of two sentinels: EMPTY (no supported
candidate) and MANY (two or more supported candidates). The canonical order
EMPTY < MANY < plain(0) < plain(1) < ... gives deterministic serialization
and tie-breaking everywhere.

`Value` and `PairMessage` are interned: constructing one returns the single
canonical instance for its fields (also through pickle, `copy` and
`dataclasses.replace`), so equality and hashing are by identity and cost no
Python call. Set iteration order then depends on memory addresses, so no
output may depend on it: every record sorts, and ties break by `sort_key`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

_EMPTY_KIND = 0
_MANY_KIND = 1
_PLAIN_KIND = 2


class _Interned:
    """Base of the interned dataclasses: `__new__` looks its fields up in
    the class's table and calls `_intern` on a miss; no `__init__` runs."""

    @classmethod
    def _intern(cls, table: dict, fields: tuple):
        self = object.__new__(cls)
        for name, value in zip(cls.__dataclass_fields__, fields):
            object.__setattr__(self, name, value)
        return table.setdefault(fields, self)

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__dataclass_fields__)


@dataclass(frozen=True, eq=False, init=False)
class Value(_Interned):
    """A protocol value: a plain alphabet symbol or a support sentinel."""

    kind: int
    symbol: int = -1

    def __new__(cls, kind: int, symbol: int = -1) -> "Value":
        return _VALUES.get((kind, symbol)) or cls._intern(_VALUES, (kind, symbol))

    @staticmethod
    def plain(symbol: int) -> "Value":
        if symbol < 0:
            raise ValueError("plain symbols are non-negative integers")
        return Value(_PLAIN_KIND, symbol)

    @property
    def is_plain(self) -> bool:
        return self.kind == _PLAIN_KIND

    def sort_key(self):
        return (self.kind, self.symbol)

    def __lt__(self, other: "Value") -> bool:
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        if self.kind == _EMPTY_KIND:
            return "empty"
        if self.kind == _MANY_KIND:
            return "many"
        return str(self.symbol)

    def __repr__(self) -> str:
        return f"Value({self})"


_VALUES: dict = {}  # (kind, symbol) -> the canonical Value
EMPTY = Value(_EMPTY_KIND)
MANY = Value(_MANY_KIND)


def parse_value(token: str) -> Value:
    if token == "empty":
        return EMPTY
    if token == "many":
        return MANY
    try:
        return Value.plain(int(token))
    except ValueError:
        raise ValueError(f"not a value token: {token!r}") from None


@dataclass(frozen=True, eq=False, init=False)
class PairMessage(_Interned):
    """The (high, medium) support summaries a processor broadcasts each round."""

    high: Value
    medium: Value

    def __new__(cls, high: Value, medium: Value) -> "PairMessage":
        return _PAIRS.get((high, medium)) or cls._intern(_PAIRS, (high, medium))

    def sort_key(self):
        return self.high.sort_key() + self.medium.sort_key()

    def __str__(self) -> str:
        return f"{self.high},{self.medium}"


_PAIRS: dict = {}  # (high, medium) -> the canonical PairMessage


@dataclass(frozen=True)
class ProcessorState:
    """Per-processor protocol memory.

    `high`/`medium` are the transmitted summaries of `high_set`/`medium_set`;
    `decided` is the agreed-on source value, None while unset. `buffers` holds
    message copies collected mid logical round under a lifted protocol, keyed
    by sender (ground truth taint flags included for the checkers).
    """

    high: Value = EMPTY
    medium: Value = EMPTY
    high_set: frozenset = frozenset()
    medium_set: frozenset = frozenset()
    decided: Optional[Value] = None
    buffers: tuple = ()

    def emission(self) -> PairMessage:
        """The pair it broadcasts, cached on the instance on first use. The
        cache is no field, and pickling and copying leave it out, so `==`,
        hashing, records, pickles, copies and `replace` never see it."""
        try:
            return self._pair
        except AttributeError:
            pair = PairMessage(self.high, self.medium)
            object.__setattr__(self, "_pair", pair)
            return pair

    def holding(self, buffers: tuple) -> "ProcessorState":
        """`dataclasses.replace(self, buffers=buffers)`, without its walk
        over the fields; the cached emission carries over, as the pair is
        the same."""
        held = object.__new__(ProcessorState)
        vars(held).update(vars(self), buffers=buffers)
        return held

    def __getstate__(self) -> dict:
        state = dict(vars(self))
        state.pop("_pair", None)
        return state

    def to_record(self) -> dict:
        rec = {
            "high": str(self.high),
            "medium": str(self.medium),
            "high_set": sorted(str(v) for v in self.high_set),
            "medium_set": sorted(str(v) for v in self.medium_set),
            "decided": None if self.decided is None else str(self.decided),
        }
        if self.buffers:
            rec["buffers"] = [list(b) for b in self.buffers]
        return rec


@dataclass
class RoundTrace:
    """Everything that happened in one (physical) round.

    `sent` maps each link (sender, receiver) to what crossed it: the
    payload of a bare or relay round, or in a lifted round the list of hop
    records (transfer name "i->j", route id, value) of the copies it moved,
    which a trace's JSON writes as {"route", "transfer", "value"} objects.
    Full traces only; a states-level trace records none.
    """

    round: int
    controlled: frozenset
    sent: dict  # (sender, receiver) -> payload, or a lifted round's hop list
    states_after: dict  # pid -> ProcessorState


_LINK, _PID = '"%d->%d":', '"%d":'  # the key fragments of `sent` and of states


class _Writer:
    """The JSON writer of trace and view lines. A line has the bytes of
    `json.dumps(record, sort_keys=True, separators=(",", ":"))` of its
    record (README, "File formats"), but is emitted directly; the strings
    it holds are value tokens and `i->j` names, which JSON does not escape.
    Fragments repeat within one call, so one writer per call memoises them:
    each interned payload's, each hop record's and buffer record's, each
    state's part but its buffers, and for each key sequence its `"i->j":`
    or `"p":` key fragments, sorted as strings ("10->2" before "2->3").
    A record's head, `{"route":r,"transfer":"i->j","value":` or
    `["i->j",r,a,"`, is built once per (name, route[, arrival]); a record
    seen before with the same value is one lookup."""

    def __init__(self):
        self.payloads: dict = {}  # Value or PairMessage -> its fragment
        self.records: dict = {}  # hop record or buffer record -> its fragment
        self.heads: dict = {}  # a record's constant part -> its fragment's head
        self.states: dict = {}  # a state's fields but buffers -> its fragment's tail
        self.orders: dict = {}  # key sequence -> [(key fragment, key)], sorted

    def _sorted(self, mapping: dict, form: str) -> list:
        """(key fragment, key) for mapping's keys, pids or (i, j) links (no
        sequence of one equals a sequence of the other), in fragment order."""
        keys = tuple(mapping)
        order = self.orders.get(keys)
        if order is None:
            order = self.orders[keys] = sorted((form % k, k) for k in keys)
        return order

    def payload(self, p) -> str:
        """A `Value`, a `PairMessage`, or a list of lifted hop records
        (transfer name, route, value); any other payload is a
        `TypeError`."""
        kind = type(p)
        if kind is list:
            records = self.records
            return "[" + ",".join([records.get(h) or self._hop(h) for h in p]) + "]"
        if kind is not Value and kind is not PairMessage:
            raise TypeError(f"a trace cannot hold a payload of type {kind.__name__}")
        fragment = self.payloads.get(p)
        if fragment is None:
            fragment = f'"{p}"' if kind is Value else f'["{p.high}","{p.medium}"]'
            self.payloads[p] = fragment
        return fragment

    def _hop(self, h: tuple) -> str:
        """A hop record (transfer name, route, value)."""
        name, route, value = h
        head = self.heads.get((name, route))
        if head is None:
            head = self.heads[(name, route)] = f'{{"route":{route},"transfer":"{name}","value":'
        fragment = self.records[h] = head + self.payload(value) + "}"
        return fragment

    def _record(self, b: tuple) -> str:
        """A buffer record (transfer name, route, arrival, value, tainted)."""
        name, route, arrival, value, tainted = b
        head = self.heads.get((name, route, arrival))
        if head is None:
            head = self.heads[(name, route, arrival)] = f'["{name}",{route},{arrival},"'
        fragment = self.records[b] = head + value + ('",true]' if tainted else '",false]')
        return fragment

    def state(self, s: ProcessorState) -> str:
        """The JSON of `s.to_record()`."""
        key = (s.high, s.medium, s.high_set, s.medium_set, s.decided)
        tail = self.states.get(key)
        if tail is None:
            decided = "null" if s.decided is None else f'"{s.decided}"'
            high_set = ",".join(sorted(f'"{v}"' for v in s.high_set))
            medium_set = ",".join(sorted(f'"{v}"' for v in s.medium_set))
            tail = self.states[key] = (
                f'"decided":{decided},"high":"{s.high}","high_set":[{high_set}],'
                f'"medium":"{s.medium}","medium_set":[{medium_set}]}}'
            )
        if not s.buffers:
            return "{" + tail
        records = self.records
        return '{"buffers":[' + ",".join([
            records.get(b) or self._record(b) for b in s.buffers
        ]) + "]," + tail

    def round_line(self, rt: RoundTrace) -> str:
        sent, states = rt.sent, rt.states_after
        return "".join([
            '{"controlled":[', ",".join(map(str, sorted(rt.controlled))),
            '],"round":', str(rt.round), ',"sent":{',
            ",".join([k + self.payload(sent[key]) for k, key in self._sorted(sent, _LINK)]),
            '},"states":{',
            ",".join([k + self.state(states[p]) for k, p in self._sorted(states, _PID)]),
            "}}\n",
        ])

    def view_line(self, rno: int, received: dict, state: ProcessorState) -> str:
        return "".join([
            '{"received":{',
            ",".join([k + self.payload(received[p]) for k, p in self._sorted(received, _PID)]),
            '},"round":', str(rno), ',"state":', self.state(state), "}",
        ])


@dataclass
class Trace:
    """A full run: per-round records plus the run's basic parameters.

    decode_fallbacks counts transfer decodes that had no strict majority
    (possible only for transfers whose endpoint windows the adversary broke).
    """

    n: int
    rounds: list = field(default_factory=list)
    decode_fallbacks: int = 0

    def append(self, rt: RoundTrace) -> None:
        self.rounds.append(rt)

    def to_text(self) -> str:
        writer = _Writer()
        return "".join([writer.round_line(rt) for rt in self.rounds])

    def final_states(self) -> dict:
        return self.rounds[-1].states_after

    def controlled_in(self, round_no: int) -> frozenset:
        return self.rounds[round_no - 1].controlled

    def ever_controlled(self) -> frozenset:
        out = set()
        for rt in self.rounds:
            out |= rt.controlled
        return frozenset(out)


@dataclass
class View:
    """What one processor observes: messages delivered to it and its own states.

    Carries no information about other processors' states or about which
    processors the adversary controlled.
    """

    owner: int
    per_round: list  # (received: dict sender -> payload, own ProcessorState)

    def to_text(self) -> str:
        writer = _Writer()
        lines = [
            writer.view_line(rno, received, state)
            for rno, (received, state) in enumerate(self.per_round, start=1)
        ]
        return "\n".join(lines) + "\n"


def view_of(trace: Trace, p: int) -> View:
    """Extract processor p's view from a complete trace. Pure in the trace."""
    if not 1 <= p <= trace.n:
        raise ValueError(f"processor {p} out of range 1..{trace.n}")
    links = [(i, (i, p)) for i in range(1, trace.n + 1)]  # every (sender, link into p)
    per_round = []
    for rt in trace.rounds:
        sent = rt.sent
        received = {i: sent[link] for i, link in links if link in sent}
        per_round.append((received, rt.states_after[p]))
    return View(owner=p, per_round=per_round)
