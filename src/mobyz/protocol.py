"""The complete-network agreement protocol as pure state transitions.

Each round every processor broadcasts its (high, medium) summary pair. A
pivot processor (index floor(r/2)+1, drifting forward every two rounds) uses
an intermediate threshold so that "medium" support crystallizes into high or
low, which is what lets all honest processors converge.

Thresholds count received messages against multiples of `fault_unit`: the
per-round fault bound m for the bare protocol, m*K when the protocol is run
over a multi-round communication scheme.

The honest rule is stated once, in `histogram_update`, over how many
received pairs carried each value as their high and as their medium half,
plus the high half received from the pivot. It reads a count only through
the `cut_points` declared beside it. The engine counts the pairs of a round
once for all receivers (`sim._count_pairs`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import EMPTY, MANY, ProcessorState, Value


@dataclass(frozen=True)
class ProtocolParams:
    """Protocol-wide constants. Requires n > 6*fault_unit (the sufficiency
    hypothesis); constructing parameters outside it is an error."""

    n: int
    m: int
    alphabet_size: int = 2
    fault_unit: int = -1  # -1: use m

    def __post_init__(self):
        if self.fault_unit == -1:
            object.__setattr__(self, "fault_unit", self.m)
        if self.m < 0 or self.fault_unit < 0:
            raise ValueError("fault bounds must be non-negative")
        if self.alphabet_size < 1:
            raise ValueError("alphabet must have at least one symbol")
        if self.n <= 6 * self.fault_unit:
            raise ValueError(
                f"need n > 6*faults: n={self.n}, unit={self.fault_unit}"
            )


def pivot_index(r: int) -> int:
    """The pivot processor for round r (meaningful for r >= 2).

    May exceed n in the very last round, in which case no processor takes
    the pivot role.
    """
    if r < 2:
        raise ValueError("no pivot in round 1")
    return r // 2 + 1


def termination_round(params: ProtocolParams) -> int:
    """The bare protocol stops after 2n rounds."""
    return 2 * params.n


def first_round_state(received: Value) -> ProcessorState:
    """Round 1: adopt whatever the source claims, verbatim."""
    return ProcessorState(high=received, medium=received)


def _summary(support: frozenset) -> Value:
    if len(support) == 0:
        return EMPTY
    if len(support) >= 2:
        return MANY
    return next(iter(support))


def cut_points(params: ProtocolParams) -> tuple:
    """(2u, 3u, 4u, n-2u-1), the only counts at which `histogram_update`
    can tell two receivers apart. It reads each high count c, and the medium
    backing c of the pivot's high, only through `c > k` for these k: medium
    support above 2u, the pivot's own support above 3u, any other support
    above 4u, and a decision at c >= n-2u. So two count maps with the same
    pivot high give one state when each value's high count (0 if absent),
    and the backing, falls in the same interval between cut points in
    both."""
    u = params.fault_unit
    return 2 * u, 3 * u, 4 * u, params.n - 2 * u - 1


def pivot_backing(pivot_high, medium_counts: dict):
    """The medium backing of the pivot's high: how many received pairs
    carried it, or MANY, as their medium half (MANY backs only itself);
    None when there is no high to back, for pivot_high None or EMPTY."""
    if pivot_high is None or pivot_high == EMPTY:
        return None
    backing = medium_counts.get(pivot_high, 0)
    if pivot_high != MANY:
        backing += medium_counts.get(MANY, 0)
    return backing


def histogram_update(
    self_id: int,
    state: ProcessorState,
    high_counts: dict,
    medium_counts: dict,
    pivot_high,
    r: int,
    params: ProtocolParams,
) -> ProcessorState:
    """The honest update for round r >= 2, stated over what was received.

    high_counts/medium_counts map each value to how many of the n received
    pairs carried it as their high/medium half (values absent from a map
    were never received). pivot_high is the high half received from the
    round's pivot, or None when the pivot index exceeds n. Pure: identical
    inputs give identical outputs.
    """
    if r < 2:
        raise ValueError("the round update applies from round 2 on")
    medium_cut, pivot_cut, support_cut, decision_cut = cut_points(params)

    # decision: a value carried by all but at most 2*unit of the highs
    decided = state.decided
    qualifying = [x for x, c in high_counts.items() if c > decision_cut]
    if len(qualifying) > 1:
        # impossible for counts of n messages once n > 4u
        raise ValueError(
            f"values {sorted(map(str, qualifying))} all reach n-2u={decision_cut + 1}: "
            f"the counts do not describe {params.n} messages"
        )
    if qualifying:
        decided = qualifying[0]

    pivot = pivot_index(r)
    own_threshold = pivot_cut if self_id == pivot else support_cut

    # the pivot's high may also qualify on medium-half backing (its own
    # value or MANY); candidates are only values someone sent as a high
    backing = pivot_backing(pivot_high, medium_counts)

    def supported(threshold: int) -> frozenset:
        out = {x for x, c in high_counts.items() if c > threshold and x != EMPTY}
        if backing is not None and backing > threshold:
            out.add(pivot_high)
        return frozenset(out)

    high_set = supported(own_threshold)
    medium_set = high_set if self_id == pivot else supported(medium_cut)

    return ProcessorState(
        high=_summary(high_set),
        medium=_summary(medium_set),
        high_set=high_set,
        medium_set=medium_set,
        decided=decided,
    )
