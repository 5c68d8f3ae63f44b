"""Independent brute-force reference implementations used by the tests.

Nothing here shares code with the package internals: isomorphism classes are
computed by permuting labeled edge masks, Laplacians by one bit test per
entry, graph validity by a walk over every vertex pair, matchings by trying
all edge subsets, running extremes and capped witness lists one item at a
time, equitable partitions by re-scanning every cell for every
splitter, canonical searches by walking every leaf of the
individualization-refinement tree, graph6 words by appending one triangle
bit at a time (in any vertex order) and read back the same way, attachment
sets by testing every subset and closing its orbit, Renyi entropies in
60-digit decimal arithmetic.
Slow on purpose; keep the orders tiny.
"""

from __future__ import annotations

import itertools
from decimal import Decimal, localcontext
from functools import lru_cache
from typing import Sequence

from graphentropy.graphs import Graph


def pair_index(i: int, j: int) -> int:
    # column-order index of the unordered pair (i, j), i < j
    if i > j:
        i, j = j, i
    return j * (j - 1) // 2 + i


def edge_mask(g: Graph) -> int:
    mask = 0
    for u, v in g.edges():
        mask |= 1 << pair_index(u, v)
    return mask


@lru_cache(maxsize=None)
def _perm_tables(n: int) -> list[list[int]]:
    # for each vertex permutation, where each pair index moves
    npairs = n * (n - 1) // 2
    tables = []
    for perm in itertools.permutations(range(n)):
        table = [0] * npairs
        for j in range(1, n):
            for i in range(j):
                table[pair_index(i, j)] = pair_index(perm[i], perm[j])
        tables.append(table)
    return tables


def min_mask(n: int, mask: int) -> int:
    """Smallest labeled edge mask over all relabelings: a canonical id."""
    best = None
    npairs = n * (n - 1) // 2
    for table in _perm_tables(n):
        out = 0
        rest = mask
        while rest:
            low = rest & -rest
            out |= 1 << table[low.bit_length() - 1]
            rest ^= low
        if best is None or out < best:
            best = out
    assert best is not None
    return best


def _mask_connected(n: int, mask: int) -> bool:
    adj = [0] * n
    rest = mask
    while rest:
        low = rest & -rest
        idx = low.bit_length() - 1
        rest ^= low
        # invert pair_index: find j with j(j-1)/2 <= idx < j(j+1)/2
        j = 1
        while (j + 1) * j // 2 <= idx:
            j += 1
        i = idx - j * (j - 1) // 2
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= adj[low.bit_length() - 1]
            f ^= low
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def labeled_classes(n: int, connected_only: bool = False) -> set[int]:
    """Min-mask ids of all isomorphism classes, by labeled brute force."""
    npairs = n * (n - 1) // 2
    seen = bytearray(1 << npairs)
    classes: set[int] = set()
    tables = _perm_tables(n)
    for mask in range(1 << npairs):
        if seen[mask]:
            continue
        best = mask
        for table in tables:
            out = 0
            rest = mask
            while rest:
                low = rest & -rest
                out |= 1 << table[low.bit_length() - 1]
                rest ^= low
            seen[out] = 1
            if out < best:
                best = out
        if not connected_only or _mask_connected(n, best):
            classes.add(best)
    return classes


def reference_refine(adj: tuple[int, ...], cells: list[list[int]]) -> list[list[int]]:
    """Equitable refinement that queues every cell and re-scans every cell
    for every splitter, counting members' neighbors with a dict per cell.

    Same splitting rule and queue order as the package's refinement (pop the
    last queued splitter, sub-cells ordered by count and queued in that
    order), with none of its shortcuts.
    """
    cells = [list(c) for c in cells]
    queue = [sum(1 << v for v in c) for c in cells]
    while queue:
        splitter = queue.pop()
        new_cells: list[list[int]] = []
        for cell in cells:
            by_count: dict[int, list[int]] = {}
            for v in cell:
                by_count.setdefault(bin(adj[v] & splitter).count("1"), []).append(v)
            for k in sorted(by_count):
                new_cells.append(by_count[k])
                if len(by_count) > 1:
                    queue.append(sum(1 << v for v in by_count[k]))
        cells = new_cells
    return cells


def reference_canon_search(n: int, adj: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(smallest column tuple, first ordering that reaches it) over every leaf
    of the individualization-refinement tree, with no pruning.

    Each node refines with ``reference_refine`` and individualizes, in
    ascending order, each vertex of its first non-singleton cell; a leaf's
    ordering lists its singleton cells, and its column j holds adjacency
    between position j and positions 0..j-1, earliest most significant.
    """
    adj = tuple(adj)
    best: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    def walk(cells: list[list[int]]) -> None:
        nonlocal best
        cells = reference_refine(adj, cells)
        for idx, cell in enumerate(cells):
            if len(cell) > 1:
                for v in sorted(cell):
                    rest = [u for u in cell if u != v]
                    walk(cells[:idx] + [[v], rest] + cells[idx + 1:])
                return
        order = tuple(cell[0] for cell in cells)
        cols = []
        for j in range(n):
            col = 0
            for i in range(j):
                col = (col << 1) | ((adj[order[j]] >> order[i]) & 1)
            cols.append(col)
        if best is None or tuple(cols) < best[0]:
            best = (tuple(cols), order)

    walk([list(range(n))])
    assert best is not None
    return best


def reference_write_graph6(g: Graph, order: Sequence[int] | None = None) -> str:
    """graph6 word of g relabeled so position j holds vertex order[j] (the
    identity by default), built one upper-triangle bit at a time in column
    order x(0,1), x(0,2), x(1,2), x(0,3), ..., six bits per byte."""
    if order is None:
        order = range(g.n)
    if g.n <= 62:
        out = [chr(63 + g.n)]
    else:
        out = ["~", chr(63 + (g.n >> 12)), chr(63 + ((g.n >> 6) & 63)), chr(63 + (g.n & 63))]
    acc = 0
    nbits = 0
    for j in range(1, g.n):
        row = g.adj[order[j]]
        for i in range(j):
            acc = (acc << 1) | ((row >> order[i]) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + acc))
                acc = 0
                nbits = 0
    if nbits:
        out.append(chr(63 + (acc << (6 - nbits))))
    return "".join(out)


def reference_graph6_rows(word: str) -> tuple[int, ...]:
    """Adjacency rows of a graph6 word (no header, a body of the right
    length), read one triangle bit at a time in column order x(0,1), x(0,2),
    x(1,2), ...; a set padding bit raises ValueError worded as
    ``parse_graph6`` words it, at the offset of its byte."""
    data = [ord(c) - 63 for c in word]
    if data[0] == 63:  # '~': 4-byte size form
        n, body_at = (data[1] << 12) | (data[2] << 6) | data[3], 4
    else:
        n, body_at = data[0], 1
    nbits = n * (n - 1) // 2
    adj = [0] * n
    idx = 0
    i, j = 0, 1
    for off in range(body_at, len(data)):
        for k in range(5, -1, -1):
            bit = (data[off] >> k) & 1
            if idx < nbits:
                if bit:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
                idx += 1
                i += 1
                if i == j:
                    i, j = 0, j + 1
            elif bit:
                raise ValueError(f"graph6 parse error at byte {off}: nonzero padding bits")
    return tuple(adj)


def reference_attachment_sets(degs: Sequence[int], perms: Sequence[Sequence[int]]) -> list[int]:
    """The attachment sets canonical augmentation tries on a parent with
    vertex degrees ``degs`` and automorphisms ``perms``, by brute force.

    Every subset x of 0..k-1 (a bitmask) is visited in increasing order; its
    orbit under the group the permutations generate is closed one image at a
    time, and the orbit's smallest member is kept when a new vertex joined
    to it has minimum degree, tested vertex by vertex: no degs[v] + [v in x]
    below |x|. Returns the kept sets in increasing order.
    """
    k = len(degs)
    seen: set[int] = set()
    kept = []
    for x in range(1 << k):
        if x in seen:
            continue
        orbit = {x}
        todo = [x]
        while todo:
            y = todo.pop()
            for perm in perms:
                z = 0
                for v in range(k):
                    if y >> v & 1:
                        z |= 1 << perm[v]
                if z not in orbit:
                    orbit.add(z)
                    todo.append(z)
        seen |= orbit
        smallest = min(orbit)
        size = bin(smallest).count("1")
        if all(degs[v] + (smallest >> v & 1) >= size for v in range(k)):
            kept.append(smallest)
    return kept


def brute_matching(g: Graph) -> int:
    """Maximum matching by trying every subset of the edge list."""
    edges = g.edges()
    best = 0
    for size in range(len(edges), 0, -1):
        if size <= best:
            break
        for combo in itertools.combinations(edges, size):
            used = 0
            ok = True
            for u, v in combo:
                bits = (1 << u) | (1 << v)
                if used & bits:
                    ok = False
                    break
                used |= bits
            if ok:
                best = size
                break
    return best


def brute_param_pairs(rows: list[tuple[int, float, str]], cap: int, eps: float = 1e-9):
    """Every ordered pair of (param, entropy, word) rows, compared one by one.

    Returns (drops, rises, drop_count, rise_count): a pair (i, j) with
    param_i < param_j is a drop when s_i > s_j + eps and a rise when
    s_i < s_j - eps; the lists keep the first ``cap`` pairs in row-major
    order, the counts are exact.
    """
    drops: list[tuple[str, str]] = []
    rises: list[tuple[str, str]] = []
    drop_count = rise_count = 0
    for p1, s1, g1 in rows:
        for p2, s2, g2 in rows:
            if p1 >= p2:
                continue
            if s1 > s2 + eps:
                drop_count += 1
                if len(drops) < cap:
                    drops.append((g1, g2))
            elif s1 < s2 - eps:
                rise_count += 1
                if len(rises) < cap:
                    rises.append((g1, g2))
    return drops, rises, drop_count, rise_count


def reference_extremes(values: Sequence, tags: Sequence[str], biggest: bool, eps: float):
    """(extreme, ties) of values offered one at a time, in scan order: a value
    below the running minimum (above the maximum, if ``biggest``) becomes it,
    and the ties kept so far are then cut to those within eps of it; each
    value within eps of the running extreme when offered is appended."""
    best = None
    ties: list[tuple[object, str]] = []
    for value, tag in zip(values, tags):
        if best is None or (value > best if biggest else value < best):
            best = value
            ties = [t for t in ties if (best - t[0] if biggest else t[0] - best) <= eps]
        if (best - value if biggest else value - best) <= eps:
            ties.append((value, tag))
    return best, [tag for _, tag in ties]


def reference_witnesses(items: Sequence, cap: int) -> tuple[int, list]:
    """(count, kept) of items added one at a time, each kept while fewer than
    ``cap`` are."""
    count, kept = 0, []
    for item in items:
        count += 1
        if len(kept) < cap:
            kept.append(item)
    return count, kept


def reference_laplacian(g: Graph) -> list[list[int]]:
    """L = D - A as nested lists, from one bit test of ``g.adj`` per entry."""
    n = g.n
    lap = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(n):
            if (g.adj[u] >> v) & 1:
                lap[u][v] = -1
                lap[u][u] += 1
    return lap


def reference_graph_check(n: int, adj: Sequence[int]) -> str | None:
    """The first fault of adjacency rows by a walk over every vertex pair, as
    ``Graph`` names it (vertex by vertex: a neighbor >= n, then a loop, then
    a missing back edge), or None if the rows form a simple graph."""
    for u, row in enumerate(adj):
        if row < 0 or row >> n:
            return f"adjacency of vertex {u} references vertices >= n"
        if (row >> u) & 1:
            return f"loop at vertex {u}"
        for v in range(n):
            if (row >> v) & 1 and not (adj[v] >> u) & 1:
                return f"asymmetric adjacency between {u} and {v}"
    return None


def reference_renyi(p: list[float], alpha: float) -> float:
    """H_alpha of p / sum(p) in bits, straight from its definition
    log2(sum q_i^alpha) / (1 - alpha), with every step in 60 digits.

    Each float is converted exactly; alpha must be finite and != 1.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        probs = [Decimal(x) for x in p if x > 0]
        total = sum(probs)
        a = Decimal(alpha)
        power = sum((x / total) ** a for x in probs)
        return float(power.ln() / (1 - a) / Decimal(2).ln())
