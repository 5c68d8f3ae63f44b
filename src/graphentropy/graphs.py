"""Immutable simple graphs on up to 64 vertices, stored as adjacency bitsets.

Vertices are the integers 0..n-1 and ``adj[u]`` has bit ``v`` set iff uv is an
edge, so the whole neighborhood of a vertex fits in one machine word. That
representation is what the exhaustive searches elsewhere in the package lean
on: edge tests, degree counts, and frontier expansions are single bit
operations. Graphs are frozen values; every operation returns a new graph.

This module also provides the graph6 codec (size byte(s), then the upper
triangle x(0,1), x(0,2), x(1,2), ... packed big-endian into 6-bit chunks,
each offset by 63), the standard families used throughout (stars, paths,
complete and complete bipartite graphs), and basic structural invariants.
``_graph6_bytes`` is the one graph6 encoder: it packs a triangle given as
one integer, and serves both ``write_graph6`` and
``enumeration.canonical_form``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

MAX_VERTICES = 64

_GRAPH6_HEADER = ">>graph6<<"


class Graph6Error(ValueError):
    """Malformed graph6 input; the message names the offending byte offset."""


def _bit_vertices(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph ``Graph(n, adj)``; its size ``m`` is derived.

    Invariants (checked at construction): 1 <= n <= 64, one bitmask in ``adj``
    per vertex with no bit at n or above, no loops, and adjacency is
    symmetric; ``m`` is counted from ``adj`` by the same walk.
    """

    n: int
    adj: tuple[int, ...]
    m: int = field(init=False)

    def __post_init__(self) -> None:
        _check_order(self.n)
        if len(self.adj) != self.n:
            raise ValueError("adjacency tuple length must equal the graph order")
        full = (1 << self.n) - 1
        total = 0
        for u, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"adjacency of vertex {u} references vertices >= n")
            if (row >> u) & 1:
                raise ValueError(f"loop at vertex {u}")
            total += row.bit_count()
            for v in _bit_vertices(row):
                if not (self.adj[v] >> u) & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
        object.__setattr__(self, "m", total // 2)  # a frozen field set once, here

    def has_edge(self, u: int, v: int) -> bool:
        """True iff uv is an edge."""
        self._check_vertex(u)
        self._check_vertex(v)
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        """Number of neighbors of v."""
        self._check_vertex(v)
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in increasing order."""
        self._check_vertex(v)
        return tuple(_bit_vertices(self.adj[v]))

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1)
            for k in _bit_vertices(row):
                out.append((u, u + 1 + k))
        return out

    def non_edges(self) -> list[tuple[int, int]]:
        """All vertex pairs (u, v), u < v, that are not edges."""
        out = []
        for u in range(self.n):
            row = ~self.adj[u] & ((1 << self.n) - 1)
            row >>= u + 1
            for k in _bit_vertices(row):
                out.append((u, u + 1 + k))
        return out

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for order {self.n}")

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m}, graph6={write_graph6(self)!r})"


@dataclass(frozen=True)
class DegreeSequence:
    """A graph's degree multiset with its first two power sums, derived here.

    ``d_sum`` is 2m (the trace of the Laplacian) and ``d_sq_sum`` is the sum
    of squared degrees. Construction computes both from ``degrees``, the only
    input, because the degree-based entropy formulas use only these.
    """

    degrees: tuple[int, ...]
    d_sum: int = field(init=False)
    d_sq_sum: int = field(init=False)

    def __post_init__(self) -> None:
        if not self.degrees:
            raise ValueError("degree sequence must be nonempty")
        if any(d < 0 for d in self.degrees):
            raise ValueError("degrees must be nonnegative")
        object.__setattr__(self, "d_sum", sum(self.degrees))
        object.__setattr__(self, "d_sq_sum", sum(d * d for d in self.degrees))


def degree_sequence(g: Graph) -> DegreeSequence:
    """Degree sequence of g in vertex order, with power sums."""
    return DegreeSequence(tuple(row.bit_count() for row in g.adj))


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph on n vertices with the given edges; rejects loops and duplicates."""
    return add_edges(empty_graph(n), edges)


def _check_order(n: int) -> None:  # before anything of size n is built
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"graph order must be in 1..{MAX_VERTICES}, got {n}")


def empty_graph(n: int) -> Graph:
    """The edgeless graph on n vertices."""
    _check_order(n)
    return Graph(n, (0,) * n)


def complete(n: int) -> Graph:
    """K_n."""
    _check_order(n)
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def star(n: int) -> Graph:
    """K_{1,n-1}: vertex 0 joined to all others. Requires n >= 2."""
    if n < 2:
        raise ValueError("a star needs at least 2 vertices")
    return from_edges(n, ((0, v) for v in range(1, n)))


def path(n: int) -> Graph:
    """P_n: the path 0-1-...-(n-1). Requires n >= 2."""
    if n < 2:
        raise ValueError("a path needs at least 2 vertices")
    return from_edges(n, ((v, v + 1) for v in range(n - 1)))


def cycle(n: int) -> Graph:
    """C_n. Requires n >= 3."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return from_edges(n, ((v, (v + 1) % n) for v in range(n)))


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with parts {0..a-1} and {a..a+b-1}."""
    if a < 1 or b < 1:
        raise ValueError("both parts must be nonempty")
    return from_edges(a + b, ((i, a + j) for i in range(a) for j in range(b)))


def add_edge(g: Graph, u: int, v: int) -> Graph:
    """g plus the edge uv; the edge must be absent and u != v."""
    return add_edges(g, ((u, v),))


def add_edges(g: Graph, edges: Iterable[tuple[int, int]]) -> Graph:
    """g plus several new edges, all of which must be absent and distinct."""
    n = g.n
    adj = list(g.adj)
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for order {n}")
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if (adj[u] >> v) & 1:
            raise ValueError(f"edge ({u}, {v}) already present")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def disjoint_union(parts: Iterable[Graph]) -> Graph:
    """Disjoint union, relabeling each part onto consecutive blocks."""
    parts = list(parts)
    if not parts:
        raise ValueError("disjoint union of no graphs")
    n = sum(p.n for p in parts)
    adj: list[int] = []
    offset = 0
    for p in parts:
        adj.extend(row << offset for row in p.adj)
        offset += p.n
    return Graph(n, tuple(adj))


def laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian L = D - A as an integer matrix."""
    lap = np.zeros((g.n, g.n), dtype=np.int64)
    for u in range(g.n):
        lap[u, u] = g.adj[u].bit_count()
        for v in _bit_vertices(g.adj[u]):
            lap[u, v] = -1
    return lap


def is_connected(g: Graph) -> bool:
    """True iff g has a single connected component."""
    return component_count(g) == 1


def component_count(g: Graph) -> int:
    """Number of connected components."""
    full = (1 << g.n) - 1
    seen = 0
    count = 0
    while seen != full:
        start = (~seen & full) & -(~seen & full)
        comp = start
        frontier = start
        while frontier:
            nxt = 0
            for v in _bit_vertices(frontier):
                nxt |= g.adj[v]
            frontier = nxt & ~comp
            comp |= frontier
        seen |= comp
        count += 1
    return count


def max_degree(g: Graph) -> int:
    """Largest vertex degree."""
    return max(row.bit_count() for row in g.adj)


def diameter(g: Graph) -> int:
    """Largest eccentricity; raises for disconnected graphs."""
    if not is_connected(g):
        raise ValueError("diameter is undefined for disconnected graphs")
    full = (1 << g.n) - 1
    worst = 0
    for s in range(g.n):
        seen = 1 << s
        frontier = seen
        dist = 0
        while seen != full:
            nxt = 0
            for v in _bit_vertices(frontier):
                nxt |= g.adj[v]
            frontier = nxt & ~seen
            seen |= frontier
            dist += 1
        if dist > worst:
            worst = dist
    return worst


def matching_number(g: Graph) -> int:
    """Maximum number of pairwise disjoint edges, by exact subset DP.

    Memoizes over vertex subsets (lowest remaining vertex is either left
    unmatched or matched to one of its remaining neighbors), so it is exact;
    guarded to n <= 20 where the state space is still tame.
    """
    if g.n > 20:
        raise ValueError("exact matching search is limited to n <= 20")
    adj = g.adj
    memo: dict[int, int] = {0: 0}

    def best(mask: int) -> int:
        try:
            return memo[mask]
        except KeyError:
            pass
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        res = best(rest)
        nbrs = adj[v] & rest
        while nbrs:
            ub = nbrs & -nbrs
            nbrs ^= ub
            cand = 1 + best(rest ^ ub)
            if cand > res:
                res = cand
        memo[mask] = res
        return res

    return best((1 << g.n) - 1)


# --- graph6 codec ---------------------------------------------------------


def _graph6_bytes(n: int, body: int) -> bytes:
    """graph6 bytes of the order-n graph whose upper triangle is ``body``.

    ``body`` holds the n(n-1)/2 triangle bits in graph6 order, x(0,1) most
    significant. It is padded with zeros to a multiple of 6 bits, and each
    6-bit group becomes one byte plus 63, after the 1-byte size (n <= 62) or
    the 4-byte size form ('~' and 18 bits, 63 <= n <= 258047).
    """
    nbits = n * (n - 1) // 2
    nbytes = -(-nbits // 6)
    body <<= 6 * nbytes - nbits
    size = [63 + n] if n <= 62 else [126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)]
    return bytes(size + [63 + ((body >> (6 * i)) & 63) for i in range(nbytes - 1, -1, -1)])


def write_graph6(g: Graph) -> str:
    """Encode g in graph6 (no header, no trailing newline)."""
    # adj[j] below bit j is column j of the triangle with x(0,j) lowest, so
    # the columns stacked last-first hold the body with its bits reversed
    n = g.n
    flipped = 0
    for j in range(n - 1, 0, -1):
        flipped = (flipped << j) | (g.adj[j] & ((1 << j) - 1))
    body = int(f"{flipped:0{n * (n - 1) // 2}b}"[::-1], 2)
    return _graph6_bytes(n, body).decode("ascii")


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 word (optional >>graph6<< header, surrounding
    whitespace tolerated); strict about length, padding, and byte range."""
    stripped = text.strip()
    base = text.index(stripped) if stripped else 0
    if stripped.startswith(_GRAPH6_HEADER):
        base += len(_GRAPH6_HEADER)
        stripped = stripped[len(_GRAPH6_HEADER):]
    data = [ord(c) for c in stripped]
    if not data:
        raise Graph6Error(f"graph6 parse error at byte {base}: empty input")

    def fail(offset: int, why: str) -> Graph6Error:
        return Graph6Error(f"graph6 parse error at byte {base + offset}: {why}")

    for off, byte in enumerate(data):
        if not 63 <= byte <= 126:
            raise fail(off, f"byte 0x{byte:02x} outside graph6 range '?'..'~'")

    if data[0] == 126:  # '~': multi-byte size
        if len(data) >= 2 and data[1] == 126:
            raise fail(1, "8-byte size form exceeds the supported order 64")
        if len(data) < 4:
            raise fail(len(data), "truncated 4-byte size form")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body_at = 4
    else:
        n = data[0] - 63
        body_at = 1
    if n < 1:
        raise fail(0, f"order {n} out of supported range 1..{MAX_VERTICES}")
    if n > MAX_VERTICES:
        raise fail(0, f"order {n} exceeds supported maximum {MAX_VERTICES}")

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - body_at < nbytes:
        raise fail(len(data), f"truncated: need {nbytes} body bytes, got {len(data) - body_at}")
    if len(data) - body_at > nbytes:
        raise fail(body_at + nbytes, "trailing garbage after graph body")

    adj = [0] * n
    idx = 0
    i, j = 0, 1
    for off in range(body_at, body_at + nbytes):
        chunk = data[off] - 63
        for k in range(5, -1, -1):
            bit = (chunk >> k) & 1
            if idx < nbits:
                if bit:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
                idx += 1
                i += 1
                if i == j:
                    i, j = 0, j + 1
            elif bit:
                raise fail(off, "nonzero padding bits")
    return Graph(n, tuple(adj))
