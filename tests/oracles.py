"""Brute-force oracles, independent of the implementations under test: the
per-round protocol rules and the flow-based graph queries."""

import itertools

from mobyz import EMPTY, MANY, Network


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
