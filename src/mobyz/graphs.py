"""Undirected networks: queries, connectivity, disjoint paths, generators.

Vertices are 1-based processor ids. Disjoint-path computation uses
unit-vertex-capacity max flow with a fixed smallest-vertex-first augmentation
order, so every party derives the identical "pre-agreed" path system with no
communication.

The connectivity queries run only the flows their answers need.
`vertex_connectivity` follows Esfahanian and Hakimi ("On computing the
connectivities of graphs and digraphs", 1984): with v a smallest-id vertex of
minimum degree, every minimum separator either misses v, and then separates v
from a non-neighbour, or contains v, and then separates two non-adjacent
neighbours of v, so only those pairs get a flow. `source_separation` gives
both source figures of the impossibility test, the source-avoiding local
connectivity and a separator certificate, from one pass over the source's
pairs. The min-queries cap each pair at the best count found so far: a flow
that stops below its cap is a maximum flow, and one that reaches it cannot
improve the minimum.

Both queries also stop at a lower bound on the connectivity κ, kept per
network: n-1 for a complete network, else the larger of 2δ+2-n (two
non-adjacent vertices share at least 2δ-(n-2) neighbours, and every
separator between them holds all of those) and, when that is below 2, the
0/1/2 of one low-link DFS (disconnected / a cut vertex / neither). Every
pair's count is at least κ, adjacent pairs included, so a best count at
the floor is the minimum, and no later pair can change it: only a strictly
smaller count would replace the certificate. The sparse cycle, where every
count is δ = 2, runs one flow instead of dozens, and on the dense extremal
graphs 2δ+2-n is κ itself.

The augmenting search runs over integer nodes (w_in is 2w, w_out is 2w+1),
takes each vertex's neighbours from a table built once per network, reads
the one edge unit entering a vertex from a map of the flow, and stops once
it has pushed the target's in-node. The flow section below says why it
still finds the path, and on failure visits the nodes, that a search
listing every residual arc and running until the target pops would. A
capped count, which returns only min(cap, count), starts its flow from the
direct edge and the paths through common neighbours, since augmenting from
any feasible flow reaches the maximum; when those already reach the cap no
search runs.
Every other flow (uncapped ones, the certificate flows and `disjoint_paths`)
starts empty, and capping only cuts augmentation short, so every flow that
runs to the end, and with it every `disjoint_paths` system and separator
certificate, is the one an uncapped search from the empty flow finds. A
maximum flow's last, failed search visits exactly the residual nodes
reachable from the source, and the certificate's cut is read from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain


class Network:
    """Immutable simple graph on vertices 1..n."""

    def __init__(self, n: int, edges):
        if n < 1:
            raise ValueError("need at least one vertex")
        adj = {v: set() for v in range(1, n + 1)}
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) outside 1..{n}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self._adj = {v: frozenset(nb) for v, nb in adj.items()}
        self._sorted_adj = {v: tuple(sorted(nb)) for v, nb in adj.items()}

    @property
    def vertices(self):
        return range(1, self.n + 1)

    def neighbors(self, v: int) -> frozenset:
        return self._adj[v]

    def sorted_neighbors(self, v: int) -> tuple:
        return self._sorted_adj[v]

    @cached_property
    def _flow_in_nodes(self) -> tuple:
        """Per vertex, its neighbours' max-flow in-nodes (2w), largest first;
        built on the first flow, so networks that run none never pay."""
        return ((),) + tuple(
            tuple(2 * w for w in reversed(self._sorted_adj[v])) for v in self.vertices
        )

    @cached_property
    def _connectivity_floor(self) -> int:
        """A lower bound on the vertex connectivity (see the module
        docstring); built on the first connectivity query."""
        if self.is_complete():
            return self.n - 1
        # two non-adjacent vertices share at least 2δ - (n-2) neighbours,
        # and every separator between them holds all of those
        floor = 2 * min_degree(self) + 2 - self.n
        return floor if floor >= 2 else max(floor, _block_floor(self))

    def adjacent(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def edges(self):
        return sorted((u, v) for u in self.vertices for v in self._adj[u] if u < v)

    def edge_count(self) -> int:
        return sum(len(nb) for nb in self._adj.values()) // 2

    def is_complete(self) -> bool:
        return all(len(self._adj[v]) == self.n - 1 for v in self.vertices)

    def is_connected(self) -> bool:
        if self.n == 1:
            return True
        seen = {1}
        stack = [1]
        while stack:
            for w in self._adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def connected_avoiding(self, a: int, b: int, removed) -> bool:
        """True iff a reaches b in the graph minus `removed` vertices."""
        removed = set(removed)
        if a in removed or b in removed:
            raise ValueError("endpoints cannot be removed")
        if a == b:
            return True
        seen = {a}
        stack = [a]
        while stack:
            for w in self._adj[stack.pop()]:
                if w == b:
                    return True
                if w not in seen and w not in removed:
                    seen.add(w)
                    stack.append(w)
        return False


@dataclass(frozen=True)
class PathSystem:
    """Internally-vertex-disjoint paths from source to target."""

    source: int
    target: int
    paths: tuple

    def validate(self, g: Network) -> None:
        seen_internal = set()
        for path in self.paths:
            if path[0] != self.source or path[-1] != self.target:
                raise AssertionError(f"path {path} has wrong endpoints")
            for a, b in zip(path, path[1:]):
                if not g.adjacent(a, b):
                    raise AssertionError(f"path {path} uses non-edge ({a},{b})")
            internal = set(path[1:-1])
            if internal & seen_internal or self.source in internal or self.target in internal:
                raise AssertionError(f"path {path} not internally disjoint")
            seen_internal |= internal


def min_degree(g: Network) -> int:
    return min(g.degree(v) for v in g.vertices)


def _block_floor(g: Network) -> int:
    """0 for a disconnected network, 1 for a connected one with a cut
    vertex, 2 otherwise: one iterative Tarjan low-link DFS from vertex 1."""
    order = {1: 0}
    low = {1: 0}
    stack = [(1, iter(g.sorted_neighbors(1)))]
    root_children = 0
    cut = False
    while stack:
        v, around = stack[-1]
        for w in around:
            if w not in order:
                order[w] = low[w] = len(order)
                root_children += len(stack) == 1
                stack.append((w, iter(g.sorted_neighbors(w))))
                break
            # w is an ancestor, v's parent included (the parent's test
            # below holds at equality), or a finished descendant
            low[v] = min(low[v], order[w])
        else:
            stack.pop()
            if stack:
                parent = stack[-1][0]
                # a non-root parent cuts v's subtree off when the subtree
                # has no edge above it
                cut |= len(stack) > 1 and low[v] >= order[parent]
                low[parent] = min(low[parent], low[v])
    if len(order) < g.n:
        return 0
    return 1 if cut or root_children > 1 else 2


def common_neighbors(g: Network, u: int, v: int) -> frozenset:
    """Vertices adjacent to both u and v (never u or v themselves)."""
    if u == v:
        raise ValueError("u and v must differ")
    return g.neighbors(u) & g.neighbors(v) - {u, v}


# --- unit-vertex-capacity max flow ------------------------------------------
#
# Vertex splitting: each vertex w becomes w_in -> w_out with capacity 1; an
# edge {a,b} becomes arcs a_out -> b_in and b_out -> a_in with unbounded
# capacity, except a direct s-t edge which carries at most one unit (it is
# one path). Unbounded edge arcs force minimum cuts onto vertex arcs, which
# is what the separator extraction reads off. Flow state:
#   edge_flow: set of directed (a, b) arcs carrying one unit (vertex
#              capacities keep every edge at one unit or less)
#   through:   set of vertices whose in->out arc carries one unit
# Every vertex in `through` has exactly one unit in and one out, so the edge
# flow alone spells the paths. An augmenting path that pushes a unit against
# an edge already carrying one the other way closes a two-vertex circulation;
# it is dropped whole, edge unit and both vertex passages, so no passage is
# left without edges to block later augmenting paths.
#
# The search is a DFS from s_out to t_in over integer nodes: w_in is 2w and
# w_out is 2w+1. An out-node pushes its own in-node when its passage can be
# cancelled, then its neighbours' in-nodes largest first (from
# `Network._flow_in_nodes`), so neighbours pop smallest-first, which fixes
# the augmentation order and with it every pre-agreed path. An in-node has
# at most one residual arc back along an edge, since capacity 1 lets at most
# one unit enter its vertex; it is read from a map of edge_flow rebuilt for
# each search, and t_in, which alone receives several units, is never
# expanded. The search stops at the first pop after t_in is pushed: t_in's
# predecessor is fixed at that push, so the path is the one a search run
# until t_in pops would take, and a failed search never pushes t_in, so it
# still visits every residual node reachable from s_out.


def _augment(g: Network, s: int, t: int, through: set, edge_flow: set):
    """Push one unit along the first augmenting path and return None; with
    no path left, return the residual nodes the search visited, which are
    all those reachable from s_out (w_in is 2w, w_out is 2w+1)."""
    in_nodes = g._flow_in_nodes
    into = {b: a for a, b in edge_flow}
    start, goal = 2 * s + 1, 2 * t
    # s_out is expanded here, so the loop never meets a saturated s-t edge
    stack = [w for w in in_nodes[s] if w != goal or (s, t) not in edge_flow]
    prev = dict.fromkeys(stack, start)
    prev[start] = None
    pop, push = stack.pop, stack.append
    while stack and goal not in prev:
        node = pop()
        v = node >> 1
        if node & 1:
            if v in through and node - 1 not in prev:
                prev[node - 1] = node  # cancel the vertex passage
                push(node - 1)
            for w in in_nodes[v]:
                if w not in prev:
                    prev[w] = node
                    push(w)
        else:
            a = into.get(v)
            if a is not None and 2 * a + 1 not in prev:
                prev[2 * a + 1] = node  # cancel the edge unit into v
                push(2 * a + 1)
            if v not in through and node + 1 not in prev:
                prev[node + 1] = node
                push(node + 1)
    if goal not in prev:
        return prev.keys()
    path = [goal]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    path.reverse()
    for a, b in zip(path, path[1:]):
        u, w = a >> 1, b >> 1
        if not a & 1:  # u_in -> w_out
            if u == w:
                through.add(u)
            else:
                edge_flow.discard((w, u))
        elif u == w:  # u_out -> u_in
            through.discard(u)
        elif (w, u) in edge_flow:
            # opposite units on one edge close the circulation
            # u -> w -> u through both vertices: drop all of it
            edge_flow.discard((w, u))
            through.difference_update((u, w))
        else:
            edge_flow.add((u, w))
    return None


def _max_disjoint_flow(g: Network, s: int, t: int, limit=None):
    """Maximum internally-disjoint s-t path count, with the final flow state
    and the residual nodes reachable from s.

    With a `limit`, augmenting stops once the count reaches it; a count below
    the limit is still the maximum, and its flow a maximum flow. The
    reachable set comes from the final, failed search, so it is None when
    the limit stopped the flow.
    """
    through: set = set()
    edge_flow: set = set()
    count = 0
    reach = None
    while limit is None or count < limit:
        reach = _augment(g, s, t, through, edge_flow)
        if reach is not None:
            break
        count += 1
    return count, through, edge_flow, reach


def _capped_count(g: Network, s: int, t: int, cap: int) -> int:
    """min(cap, s-t disjoint-path count). The flow starts from the direct
    edge and the paths through common neighbours, a feasible flow that
    augmenting takes to the maximum; no search runs when it reaches the
    cap."""
    common = common_neighbors(g, s, t)
    count = len(common) + g.adjacent(s, t)
    if count >= cap:
        return cap
    through = set(common)
    edge_flow = {(s, w) for w in common} | {(w, t) for w in common}
    if g.adjacent(s, t):
        edge_flow.add((s, t))
    while count < cap and _augment(g, s, t, through, edge_flow) is None:
        count += 1
    return count


def _check_vertices(g: Network, *vs) -> None:
    for v in vs:
        if not 1 <= v <= g.n:
            raise ValueError(f"vertex {v} outside 1..{g.n}")


def local_connectivity(g: Network, u: int, v: int) -> int:
    """Maximum number of internally-vertex-disjoint u-v paths."""
    _check_vertices(g, u, v)
    if u == v:
        raise ValueError("u and v must differ")
    return _max_disjoint_flow(g, u, v)[0]


def vertex_connectivity(g: Network) -> int:
    """Minimum over non-adjacent pairs of the u-v disjoint-path count.

    Flows run only from a smallest-id vertex v of minimum degree to its
    non-neighbours and between its non-adjacent neighbours (see the module
    docstring), starting from the bound min degree and stopping once the
    count meets the network's connectivity floor. Complete graphs have no
    such pair and yield n-1; disconnected graphs yield 0.
    """
    if g.n < 2:
        raise ValueError("connectivity needs at least two vertices")
    floor = g._connectivity_floor
    best = min_degree(g)
    v = next(w for w in g.vertices if g.degree(w) == best)
    around = g.sorted_neighbors(v)
    pairs = [(v, w) for w in g.vertices if w != v and not g.adjacent(v, w)]
    pairs += [
        (a, b) for i, a in enumerate(around) for b in around[i + 1:] if not g.adjacent(a, b)
    ]
    for a, b in pairs:
        if best == floor:
            break
        best = _capped_count(g, a, b, best)
    return best


def source_separation(g: Network, s: int):
    """Both source figures of the impossibility test, from one pass of
    flows: (local, certificate).

    `local` is the minimum over p != s of the s-p disjoint-path count.
    `certificate` is a smallest separator avoiding s, as (size, cut,
    separated vertex), or None when s is adjacent to every other vertex:
    only its non-neighbours can be separated from it. The pass takes the
    non-neighbours in vertex order, then the neighbours, each capped at the
    best count so far (from the degree of s, which no count exceeds), and
    each pass ends once its count meets the connectivity floor. The
    separated vertex is the first non-neighbour with the smallest count: the
    first flow runs uncapped, only a smaller count replaces it, and the
    common-neighbour skip starts once it exists, so its flow is a maximum
    flow. The cut is read from that flow's residual graph: vertices whose
    in-node is reachable from s but whose out-node is not.
    """
    _check_vertices(g, s)
    if g.n < 2:
        raise ValueError("source separation needs at least two vertices")
    floor = g._connectivity_floor
    best = None  # (count, residual nodes reachable from s, separated vertex)
    for p in g.vertices:
        if p == s or g.adjacent(s, p):
            continue
        if best is not None and best[0] == floor:
            break
        limit = None if best is None else best[0]
        if limit is not None and len(common_neighbors(g, s, p)) >= limit:
            continue
        count, _, _, reach = _max_disjoint_flow(g, s, p, limit)
        if reach is not None:
            best = (count, reach, p)
    local = g.degree(s) if best is None else best[0]
    for p in g.sorted_neighbors(s):
        if local == floor:
            break
        local = _capped_count(g, s, p, local)
    if best is None:
        return local, None
    count, reach, p = best
    cut = frozenset(
        v for v in g.vertices
        if v not in (s, p) and 2 * v in reach and 2 * v + 1 not in reach
    )
    if len(cut) != count or g.connected_avoiding(s, p, cut):
        raise RuntimeError(
            f"residual cut {sorted(cut)} is no separator of size {count} "
            f"between {s} and {p}"
        )
    return local, (count, cut, p)


def disjoint_paths(g: Network, u: int, v: int, k: int) -> PathSystem:
    """k internally-vertex-disjoint u-v paths, deterministic and pre-agreed.

    Raises with the achievable maximum when k exceeds the local connectivity.
    """
    _check_vertices(g, u, v)
    if u == v:
        raise ValueError("u and v must differ")
    if k < 0:
        raise ValueError(f"requested {k} disjoint paths; k must be at least 0")
    count, _, edge_flow, _ = _max_disjoint_flow(g, u, v)
    if k > count:
        raise ValueError(
            f"requested {k} disjoint paths between {u} and {v}; maximum is {count}"
        )
    succ: dict = {}
    for a, b in edge_flow:
        succ.setdefault(a, []).append(b)
    for a in succ:
        succ[a].sort()
    paths = []
    for _ in range(count):
        path = [u]
        while path[-1] != v:
            path.append(succ[path[-1]].pop(0))
        paths.append(tuple(path))
    paths.sort()
    system = PathSystem(source=u, target=v, paths=tuple(paths[:k]))
    system.validate(g)
    return system


# --- generators ---------------------------------------------------------------


def complete_network(n: int) -> Network:
    return Network(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


def make_two_clique_network(clique_size: int, bridge_size: int) -> Network:
    """Two disjoint cliques of `clique_size` plus `bridge_size` universal vertices.

    Vertices 1..c form the first clique, c+1..2c the second, and the last
    `bridge_size` vertices are adjacent to everything.
    """
    if clique_size < 1 or bridge_size < 0:
        raise ValueError("clique_size >= 1 and bridge_size >= 0 required")
    c, b = clique_size, bridge_size
    n = 2 * c + b
    edges = set()
    for base in (0, c):
        for i in range(1, c + 1):
            for j in range(i + 1, c + 1):
                edges.add((base + i, base + j))
    for bridge in range(2 * c + 1, n + 1):
        for v in range(1, n + 1):
            if v != bridge:
                edges.add((min(v, bridge), max(v, bridge)))
    return Network(n, edges)


def complete_minus_matching(n: int, removed_pairs: int) -> Network:
    """Complete graph minus the matching (1,2), (3,4), ... (`removed_pairs` edges)."""
    if removed_pairs < 0 or 2 * removed_pairs > n:
        raise ValueError("matching does not fit")
    skip = {(2 * i - 1, 2 * i) for i in range(1, removed_pairs + 1)}
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if (u, v) not in skip
    ]
    return Network(n, edges)


def cycle_network(n: int) -> Network:
    return Network(n, [(i, i % n + 1) for i in range(1, n + 1)])


def star_network(n: int) -> Network:
    """Center is vertex 1; leaves 2..n."""
    return Network(n, [(1, v) for v in range(2, n + 1)])


# --- edge-list text format ------------------------------------------------------


def write_edge_list(g: Network) -> str:
    """One edge per line ("u v"); isolated vertices as a bare id line."""
    lines = [f"{u} {v}" for u, v in g.edges()]
    lines += [str(v) for v in g.vertices if g.degree(v) == 0]
    return "\n".join(lines) + "\n"


def read_edge_list(text: str) -> Network:
    """Parse `write_edge_list`'s format; `#` starts a comment. One pass
    splits the rows, and one `map` converts the edge rows' ids and another
    the isolated ones; only a text that fails is read again row by row, for
    its first bad line."""
    lines = text.splitlines()
    rows = [line.partition("#")[0].split() for line in lines]
    try:
        edge_ids = list(map(int, chain.from_iterable([row for row in rows if len(row) == 2])))
        ids = edge_ids + list(map(int, [row[0] for row in rows if len(row) == 1]))
    except ValueError:
        ids = None
    # a row of three or more ids is in neither list
    if ids is None or len(ids) != sum(map(len, rows)):
        _raise_first_bad_line(lines, rows)
    if not ids:
        raise ValueError("empty edge list")
    ends = iter(edge_ids)
    return Network(max(ids), zip(ends, ends))


def _raise_first_bad_line(lines, rows) -> None:
    for lineno, (line, row) in enumerate(zip(lines, rows), start=1):
        try:
            list(map(int, row))
        except ValueError:
            raise ValueError(f"edge list line {lineno}: not vertex ids: {line!r}") from None
        if len(row) > 2:
            raise ValueError(f"edge list line {lineno}: expected 1 or 2 ids")
