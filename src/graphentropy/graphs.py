"""Immutable simple graphs on up to 64 vertices, stored as adjacency bitsets.

Vertices are the integers 0..n-1 and ``adj[u]`` has bit ``v`` set iff uv is an
edge, so edge tests, degree counts and frontier expansions are single bit
operations. Graphs are frozen values; every operation returns a new graph.

Checks run in one place each: ``Graph`` decides at construction that its
rows form a simple graph, ``parse_graph6`` checks a word before decoding its
body, ``laplacian`` trusts a built graph, and the spectral code checks the
matrix it solves.

Also here: the graph6 codec (McKay & Piperno, *nauty and Traces User's
Guide*), whose encoder and decoder share one base64 table and one column
order, the standard families, the integer Laplacian and basic invariants.
"""

from __future__ import annotations

import binascii
import operator
import struct
from dataclasses import dataclass, field
from typing import Iterable, NoReturn

import numpy as np

MAX_VERTICES = 64

_GRAPH6_HEADER = ">>graph6<<"


class Graph6Error(ValueError):
    """Malformed graph6 input; the message names the offending byte offset."""


# _BYTE_VERTICES[b]: the set bits of the byte value b, as vertices
_BYTE_VERTICES = tuple(tuple(v for v in range(8) if b >> v & 1) for b in range(256))
_SECOND_BYTE = tuple(tuple([8 + v for v in t]) for t in _BYTE_VERTICES)


def _bit_vertices(mask: int) -> tuple[int, ...]:
    """Set bit positions of ``mask`` (0 <= mask < 2**64), increasing, by one
    table lookup per byte; masks from 2**16 up occur only at n > 16."""
    if mask < 256:
        return _BYTE_VERTICES[mask]
    if mask < 65536:
        return _BYTE_VERTICES[mask & 255] + _SECOND_BYTE[mask >> 8]
    by_byte = enumerate(mask.to_bytes(8, "little"))
    return tuple([8 * k + v for k, b in by_byte for v in _BYTE_VERTICES[b]])


def _repeat(pattern: int, period: int, times: int) -> int:
    """``pattern`` placed ``times`` times, every ``period`` bits, by one product."""
    return pattern * (((1 << period * times) - 1) // ((1 << period) - 1))


def _transpose_swaps(w: int) -> tuple[tuple[int, int], ...]:
    """(delta, mask) of the log2(w) delta swaps that transpose a w x w bit
    matrix whose entry (r, c) is bit r*w + c (Hacker's Delight, 7-3).

    The level-j swap exchanges the off-diagonal j x j blocks of every
    2j x 2j block: bit (r, c) with r & j clear and c & j set trades places
    with bit (r + j, c - j), j*(w - 1) positions higher.
    """
    swaps = []
    j = w >> 1
    while j:
        cols = _repeat(((1 << j) - 1) << j, 2 * j, w // (2 * j))  # c & j set, one row
        rows = _repeat(_repeat(cols, w, j), 2 * j * w, w // (2 * j))  # and r & j clear
        swaps.append((j * (w - 1), rows))
        j >>= 1
    return tuple(swaps)


def _bit_matrix(n: int) -> tuple:
    """(row packer, row unpacker, diagonal and columns >= n, delta swaps) for order n."""
    w = 8 if n <= 8 else 16 if n <= 16 else 32 if n <= 32 else 64
    word = {8: "B", 16: "H", 32: "I", 64: "Q"}[w]  # unsigned, w bits
    rows = struct.Struct(f"<{n}{word}")
    outside = _repeat(1, w + 1, w) | _repeat((1 << w) - (1 << n), w, w)
    return rows.pack, rows.unpack, outside, _TRANSPOSE_SWAPS[w]


_TRANSPOSE_SWAPS = {w: _transpose_swaps(w) for w in (8, 16, 32, 64)}
# _BIT_MATRIX[n]: what Graph's validity test needs at order n (index 0 unused)
_BIT_MATRIX = (None,) + tuple(_bit_matrix(n) for n in range(1, MAX_VERTICES + 1))


def _raise_adjacency_fault(n: int, adj: tuple[int, ...]) -> NoReturn:
    """Name the first fault of rows that failed Graph's bit-matrix test: a
    vertex out of range, then a loop, then a missing back edge, by vertex."""
    full = (1 << n) - 1
    for u, row in enumerate(adj):
        if row & ~full:
            raise ValueError(f"adjacency of vertex {u} references vertices >= n")
        if (row >> u) & 1:
            raise ValueError(f"loop at vertex {u}")
        for v in _bit_vertices(row):
            if not (adj[v] >> u) & 1:
                raise ValueError(f"asymmetric adjacency between {u} and {v}")
    raise AssertionError("the bit-matrix test rejected rows the walk accepts")


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph ``Graph(n, adj)``; its size ``m`` is derived.

    Construction checks 1 <= n <= 64, one row per vertex, no bit at n or
    above, no loops and symmetry by one test: the rows packed as a W x W bit
    matrix (W = 8, 16, 32 or 64) must equal its transpose and miss the
    diagonal and the columns >= n. Only if that fails does a per-vertex walk
    run, to name the first fault. ``adj`` is stored as Python ints, whatever
    integer type the rows came in.
    """

    n: int
    adj: tuple[int, ...]
    m: int = field(init=False)

    def __post_init__(self) -> None:
        n, adj = self.n, self.adj
        _check_order(n)
        if len(adj) != n:
            raise ValueError("adjacency tuple length must equal the graph order")
        pack, unpack, outside, swaps = _BIT_MATRIX[n]
        try:
            packed = pack(*adj)
        except struct.error:  # a row below 0 or of W bits or more
            _raise_adjacency_fault(n, tuple(map(operator.index, adj)))
        adj = unpack(packed)  # Python ints: numpy rows would overflow in later shifts
        x = t = int.from_bytes(packed, "little")
        for delta, mask in swaps:  # delta swaps transpose t in place
            s = (t ^ (t >> delta)) & mask
            t ^= s ^ (s << delta)
        if x & outside or x != t:
            _raise_adjacency_fault(n, adj)
        object.__setattr__(self, "adj", adj)  # frozen fields set once, here
        object.__setattr__(self, "m", x.bit_count() >> 1)

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

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m}, graph6={write_graph6(self)!r})"


@dataclass(frozen=True)
class DegreeSequence:
    """A graph's degree multiset with its first two power sums, derived here.

    ``d_sum`` is 2m (the trace of the Laplacian) and ``d_sq_sum`` is the sum
    of squared degrees. Construction computes both from ``degrees``, the only
    input, because the degree-based entropy formulas use only these.
    ``degrees`` is stored as Python ints, whatever integer type they came in
    (a float raises TypeError), so the sums cannot wrap; an odd sum raises.
    """

    degrees: tuple[int, ...]
    d_sum: int = field(init=False)
    d_sq_sum: int = field(init=False)

    def __post_init__(self) -> None:
        degrees = tuple(map(operator.index, self.degrees))
        if not degrees:
            raise ValueError("degree sequence must be nonempty")
        if any(d < 0 for d in degrees):
            raise ValueError("degrees must be nonnegative")
        d_sum = sum(degrees)
        if d_sum % 2:
            raise ValueError(f"degree sum must be even, got {d_sum}")
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "d_sum", d_sum)
        object.__setattr__(self, "d_sq_sum", sum(d * d for d in degrees))


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
    """The edgeless graph on n vertices; ``from_edges`` builds every family from it."""
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


# _LAPLACIAN_ROWS[b]: the Laplacian entries of one byte b of a row, as the
# bytes of 8 int64s: -1 at the set bits of b, 0 elsewhere
_LAPLACIAN_ROWS = tuple(
    b"".join([b"\xff" * 8 if v in t else bytes(8) for v in range(8)]) for t in _BYTE_VERTICES
)


def laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian L = D - A as a C-contiguous int64 (n, n) matrix,
    joined from one ``_LAPLACIAN_ROWS`` entry per byte of the rows as ``Graph``
    packs them. It checks nothing: ``density_spectrum`` checks what it solves.
    """
    n, adj = g.n, g.adj
    pack = _BIT_MATRIX[n][0]
    lap = np.frombuffer(bytearray().join([_LAPLACIAN_ROWS[b] for b in pack(*adj)]), np.int64)
    w = len(lap) // n
    lap[:: w + 1] = [row.bit_count() for row in adj]  # the diagonal of the (n, w) matrix
    lap = lap.reshape(n, w)
    return lap if w == n else np.ascontiguousarray(lap[:, :n])


def _row_bits(rows: np.ndarray) -> np.ndarray:
    """The (B, n, n) adjacency bits of a (B, n) array of stacked rows, after
    ``Graph``'s checks made once for the whole stack: a bit at a column >= n
    (a negative row too), a loop or an asymmetric pair raises ValueError.
    ``density_spectra`` and ``CensusBlock`` check their rows here."""
    n = rows.shape[1]
    if np.any(rows >> n):
        raise ValueError("an adjacency row references vertices >= n")
    bits = (rows[:, :, None] >> np.arange(n, dtype=rows.dtype)) & 1
    if bits.diagonal(axis1=1, axis2=2).any():
        raise ValueError("an adjacency row has a loop")
    if not np.array_equal(bits, bits.transpose(0, 2, 1)):
        raise ValueError("Laplacian is not symmetric")
    return bits


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

_BASE64_DIGITS = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
# base64 digit value v (A-Z, a-z, 0-9, +, /) <-> graph6 byte 63 + v
_BASE64_TO_GRAPH6 = bytes.maketrans(_BASE64_DIGITS, bytes(range(63, 127)))
_GRAPH6_TO_BASE64 = bytes.maketrans(bytes(range(63, 127)), _BASE64_DIGITS)


def _graph6_bytes(n: int, body: int) -> bytes:
    """graph6 bytes of the order-n graph whose upper triangle is ``body``.

    ``body`` holds the n(n-1)/2 triangle bits in graph6 order, x(0,1) most
    significant. It is padded with zeros to a multiple of 6 bits, and each
    6-bit group becomes one byte plus 63, after the 1-byte size (n <= 62) or
    the 4-byte size form ('~' and 18 bits, 63 <= n <= 258047). The groups
    are the base64 digits of the body padded to whole 24-bit words, so one
    ``b2a_base64`` call splits them and one table translates the digits.
    """
    nbits = n * (n - 1) // 2
    nbytes = -(-nbits // 6)
    words = -(-nbytes // 4)  # base64 writes 4 digits per 3 bytes
    body <<= 24 * words - nbits
    digits = binascii.b2a_base64(body.to_bytes(3 * words, "big"), newline=False)
    size = [63 + n] if n <= 62 else [126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)]
    return bytes(size) + digits[:nbytes].translate(_BASE64_TO_GRAPH6)


def _graph6_bodies(bits: np.ndarray) -> list[int]:
    """``_graph6_bytes``' body for each matrix of a (B, n, n) stack of symmetric
    adjacency bits: its upper triangle by columns, x(0,1) highest, as an int."""
    n = bits.shape[1]
    j, i = np.tril_indices(n, -1)  # (j, i), i < j, by j then i: x(i, j) in graph6 order
    packed = np.packbits(bits[:, j, i], axis=1)  # first bit highest, zeros after the last
    pad = 8 * packed.shape[1] - n * (n - 1) // 2
    return [int.from_bytes(row, "big") >> pad for row in packed.tolist()]


def _graph6_body(n: int, adj: tuple[int, ...]) -> int:
    """The upper triangle of the order-n graph with rows ``adj``, as the
    integer ``_graph6_bytes`` packs (x(0,1) most significant)."""
    # adj[j] below bit j is column j of the triangle with x(0,j) lowest, so
    # the columns stacked last-first hold the body with its bits reversed
    flipped = 0
    for j in range(n - 1, 0, -1):
        flipped = (flipped << j) | (adj[j] & ((1 << j) - 1))
    return int(f"{flipped:0{n * (n - 1) // 2}b}"[::-1], 2)


def write_graph6(g: Graph) -> str:
    """Encode g in graph6 (no header, no trailing newline)."""
    return _graph6_bytes(g.n, _graph6_body(g.n, g.adj)).decode("ascii")


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

    fill = -nbytes % 4  # 'A' (digit 0) to whole 4-digit base64 words, shifted back off
    digits = stripped[body_at:].encode("ascii").translate(_GRAPH6_TO_BASE64) + b"A" * fill
    bits = int.from_bytes(binascii.a2b_base64(digits), "big") >> 6 * fill
    pad = 6 * nbytes - nbits
    if bits & ((1 << pad) - 1):
        raise fail(body_at + nbytes - 1, "nonzero padding bits")
    # reversed, the triangle is _graph6_body's stack: column j, the bits of
    # adj[j] below bit j, sits above columns 1..j-1
    flipped = int(f"{bits >> pad:0{nbits}b}"[::-1], 2)
    adj = [0] * n
    for j in range(1, n):
        column = flipped & ((1 << j) - 1)
        flipped >>= j
        adj[j] |= column
        for i in _bit_vertices(column):
            adj[i] |= 1 << j
    return Graph(n, tuple(adj))
