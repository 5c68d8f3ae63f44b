"""Isomorph-free generation of graphs and trees, plus canonical forms.

Canonical form. The search is individualization-refinement: an equitable
partition refinement splits vertices by their neighbor counts into splitter
cells until stable, and where a non-singleton cell remains, each member is
individualized in turn. After individualizing v, only the new cell {v} and
its remainder are queued as splitters: every other cell belongs to the
equitable partition just refined, so its members' counts into any such cell
already agree, in this and every finer partition, and skipping those no-op
splitters changes neither the splits that act nor their order. Every leaf of
that search tree is a vertex ordering; the canonical ordering is the leaf
whose upper-triangle adjacency bits (in graph6 column order) are
lexicographically smallest, the graph relabeled by it is the canonical
representative, and its graph6 encoding, written straight from those bits
by ``graphs._graph6_bytes`` (the package's one graph6 encoder), is the
canonical byte string. Isomorphic graphs have search trees that agree
up to relabeling, so they get the same bytes. The minimum is taken over the
leaves only, not over all n! orderings, so the bytes are in general not the
smallest graph6 word of the class. Two leaves with the same encoding differ
by an automorphism; discovered automorphisms prune sibling branches through
their orbits, which keeps highly symmetric graphs (complete, complete
bipartite) from exploding. A forest follows its first branch only (see
``_forest_ordering``); for other graphs the search is exact but exponential
in the worst case. Both serve the orders this package works at (n <= 16).

Generation. Canonical augmentation: a graph on k+1 vertices is produced from
its parent on k vertices by deleting one vertex; fixing, per isomorphism
class, a canonical choice of that deleted vertex makes the parent/child
relation a tree on isomorphism classes, so a DFS from K_1 that only accepts
children whose new vertex is a legitimate canonical deletion point emits
every class exactly once, with no global seen-set. A child is the parent
plus a new vertex joined to an attachment set; sets in one orbit under the
parent's automorphisms give the same child, so only one set per orbit is
tried (McKay, "Isomorph-free exhaustive generation", J. Algorithms 26,
1998). The automorphisms are those the canonical search found, carried down
the DFS in the canonical labeling; they may generate a proper subgroup, so
the few duplicate children left within one parent are dropped by canonical
form. Memory stays linear in the recursion depth; the emission order
(children sorted by edge count then canonical adjacency rows, within their
parent) is deterministic, including under the optional process-pool
sharding.

Trees. ``enumerate_trees`` walks level sequences with the WROM free-tree
generator (Wright, Richmond, Odlyzko & McKay, "Constant time generation of
free trees", SIAM J. Comput. 15, 1986); its trees are not in canonical form.

Census. ``census`` hands the order-n stream to the claim engines as numpy
blocks. Each order up to ``CENSUS_KEPT`` is enumerated once per process and
replayed on later calls; larger ones, to ``CENSUS_MAX``, stream and are dropped.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .graphs import (
    Graph,
    Graph6Error,
    _bit_vertices,
    _graph6_bytes,
    component_count,
    is_connected,
    parse_graph6,
    write_graph6,
)

_INF = 1 << 70  # exceeds any column encoding (columns have < 64 bits)
CANON_MAX = 16  # no canonical form above this order
_AUT_CAP = 64  # keep at most this many discovered automorphisms per search


def _refine(
    adj: tuple[int, ...], cells: list[list[int]], fresh: Iterable[int]
) -> list[list[int]]:
    """Equitable refinement of an ordered partition.

    Splits every cell by its members' neighbor counts into a splitter cell
    (sub-cells ordered by count, each queued as a splitter) until the queue
    is empty; cell order is preserved, which is what makes the canonical
    search deterministic. The queue starts with the cells at the indices
    ``fresh`` only. The caller guarantees that every other cell is a cell of
    an equitable partition that ``cells`` refines: the members of any cell
    agree on their count into it, in ``cells`` and in every finer partition,
    so as a splitter it would be a no-op. The queue pops from its end, so
    leaving the no-ops out keeps the splits that act in the same order, and
    the result is the one of queuing every cell. A cell is queued once, when
    it is made, so no splitter is ever applied twice.
    """
    queue = [sum(1 << v for v in cells[i]) for i in fresh]
    while queue:
        splitter = queue.pop()
        new_cells: list[list[int]] = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            k = (adj[cell[0]] & splitter).bit_count()
            for v in cell:
                if (adj[v] & splitter).bit_count() != k:
                    break
            else:  # uniform count: the cell stays whole
                new_cells.append(cell)
                continue
            by_count: dict[int, list[int]] = {}
            for v in cell:
                by_count.setdefault((adj[v] & splitter).bit_count(), []).append(v)
            for k in sorted(by_count):
                sub = by_count[k]
                new_cells.append(sub)
                queue.append(sum(1 << v for v in sub))
        cells = new_cells
    return cells


Auts = list[tuple[int, ...]]


def _canon_search(
    n: int, adj: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...], Auts]:
    """(canonical column encoding, canonical ordering, automorphisms) for the graph.

    The ordering maps position -> original vertex. Column j of an ordering
    is the j-bit integer whose bits are adjacency between position j and
    positions 0..j-1 (earliest position most significant), matching graph6
    bit order, so comparing column tuples compares graph6 bodies. The
    automorphisms (vertex -> vertex, at most ``_AUT_CAP``) are those the
    search found between leaves; they may generate only a subgroup of the
    automorphism group.
    """
    if n == 1:
        return (0,), (0,), []
    best_cols = [_INF] * n
    best_perm: list[int] | None = None
    auts: Auts = []
    prefix: list[int] = []

    def search(cells: list[list[int]]) -> None:
        nonlocal best_perm
        added = 0
        idx = len(prefix)
        pruned = False
        while idx < len(cells) and len(cells[idx]) == 1:
            v = cells[idx][0]
            av = adj[v]
            col = 0
            for u in prefix:
                col = (col << 1) | ((av >> u) & 1)
            b = best_cols[idx]
            if col > b:
                pruned = True
                break
            if col < b:
                # this prefix is strictly better than anything recorded:
                # truncate best to it and let the subtree's leaves fill in
                best_cols[idx] = col
                for j in range(idx + 1, n):
                    best_cols[j] = _INF
                best_perm = None
            prefix.append(v)
            added += 1
            idx += 1
        if not pruned:
            if idx == len(cells):
                if best_perm is None:
                    best_perm = prefix.copy()
                elif prefix != best_perm:
                    sigma = [0] * n
                    for pos in range(n):
                        sigma[best_perm[pos]] = prefix[pos]
                    if len(auts) < _AUT_CAP:
                        auts.append(tuple(sigma))
            else:
                cell = cells[idx]
                rest = cells[idx + 1:]
                head = cells[:idx]
                done: set[int] = set()
                # automorphisms that fix the current prefix pointwise; auts
                # only grows, so only the ones found since are tested
                stable: Auts = []
                tested = 0
                for v in cell:
                    if v in done:
                        continue
                    others = [u for u in cell if u != v]
                    # only {v} and its remainder can split a cell: the rest
                    # are cells of the equitable partition ``cells``
                    search(_refine(adj, head + [[v], others] + rest, (idx, idx + 1)))
                    # orbit closure of the tried candidates under ``stable``
                    done.add(v)
                    stable += [s for s in auts[tested:] if all(s[p] == p for p in prefix)]
                    tested = len(auts)
                    grew = True
                    while grew:
                        grew = False
                        for s in stable:
                            for u in list(done):
                                w = s[u]
                                if w not in done:
                                    done.add(w)
                                    grew = True
        del prefix[len(prefix) - added:]

    search(_refine(adj, [list(range(n))], (0,)))
    assert best_perm is not None
    return tuple(best_cols), tuple(best_perm), auts


def _relabel(n: int, adj: tuple[int, ...], perm: tuple[int, ...]) -> tuple[int, ...]:
    """Adjacency of the graph relabeled so position i takes vertex perm[i]."""
    pos = [0] * n
    for i, v in enumerate(perm):
        pos[v] = i
    out = [0] * n
    for v in range(n):
        row = adj[v]
        acc = 0
        while row:
            low = row & -row
            acc |= 1 << pos[low.bit_length() - 1]
            row ^= low
        out[pos[v]] = acc
    return tuple(out)


@dataclass(frozen=True, order=True)
class CanonicalForm:
    """Canonical byte string of a graph; equal bytes iff isomorphic graphs."""

    bytes: bytes

    def graph(self) -> Graph:
        """The canonical representative itself."""
        return parse_graph6(self.bytes.decode("ascii"))


def canonical_form(g: Graph) -> CanonicalForm:
    """Canonical form of g: the smallest leaf encoding, for a forest its first leaf."""
    if g.n > CANON_MAX:
        raise ValueError(f"canonical forms are supported for n <= {CANON_MAX}")
    if g.m + component_count(g) == g.n:
        order = _forest_ordering(g.n, g.adj)
    else:
        _, order, _ = _canon_search(g.n, g.adj)
    body = 0
    for j, v in enumerate(order):  # columns 1..n-1 concatenated: the graph6 body
        row = g.adj[v]
        for u in order[:j]:
            body = (body << 1) | ((row >> u) & 1)
    return CanonicalForm(_graph6_bytes(g.n, body))


def _forest_ordering(n: int, adj: tuple[int, ...]) -> list[int]:
    """The first leaf of a forest's canonical search, which is its smallest.

    Colour refinement of a forest, with any vertices individualized, stops at
    the orbit partition (Arvind, Koebler, Rattan & Verbitsky, Comput.
    Complexity 26, 2017), so every leaf of the search encodes the same graph.
    """
    cells = _refine(adj, [list(range(n))], (0,))
    idx = 0
    while idx < len(cells):
        if len(cells[idx]) > 1:
            v, *others = cells[idx]
            cells = _refine(adj, cells[:idx] + [[v], others] + cells[idx + 1:], (idx, idx + 1))
        idx += 1
    return [cell[0] for cell in cells]


def _delete_vertex(adj: tuple[int, ...], v: int) -> tuple[int, ...]:
    low = (1 << v) - 1
    out = []
    for u in range(len(adj)):
        if u == v:
            continue
        row = adj[u]
        out.append((row & low) | ((row >> (v + 1)) << v))
    return tuple(out)


def _accepted(nc: int, adjc: tuple[int, ...], parent_cols: tuple[int, ...]) -> bool:
    """Is the newest vertex (nc - 1) a canonical deletion point of this child?

    The rule: among vertices minimizing the invariant (degree, sorted
    neighbor degrees), the new vertex must be present, and no other minimal
    vertex may yield a smaller deletion canon than canon(child - new) ==
    canon(parent). This makes each child reachable from exactly one parent
    class; duplicates within one parent are removed by the caller.

    Precondition: the new vertex already has minimum degree. ``_children``
    skips every attachment set that breaks it, so only the vertices of
    equal degree are compared here.
    """
    degs = [a.bit_count() for a in adjc]
    vnew = nc - 1
    dn = degs[vnew]
    ties = []
    inv_new: list[int] | None = None
    for v in range(vnew):
        if degs[v] > dn:
            continue
        if inv_new is None:
            row = adjc[vnew]
            inv_new = sorted(degs[u] for u in _bit_vertices(row))
        row = adjc[v]
        inv_v = sorted(degs[u] for u in _bit_vertices(row))
        if inv_v < inv_new:
            return False
        if inv_v == inv_new:
            ties.append(v)
    for v in ties:
        dcols, _, _ = _canon_search(nc - 1, _delete_vertex(adjc, v))
        if dcols < parent_cols:
            return False
    return True


def _orbit_representatives(k: int, auts: Auts) -> Iterable[int]:
    """One vertex subset of 0..k-1 (as a bitmask) per orbit under ``auts``.

    Each representative is the smallest member of its orbit under the group
    the permutations generate.
    """
    if not auts:
        return range(1 << k)
    images = []  # images[g][x]: bitmask x mapped by generator g
    for sigma in auts:
        img = [0] * (1 << k)
        for x in range(1, 1 << k):
            low = x & -x
            img[x] = img[x ^ low] | (1 << sigma[low.bit_length() - 1])
        images.append(img)
    reps = []
    done = bytearray(1 << k)
    for x in range(1 << k):
        if done[x]:
            continue
        reps.append(x)
        done[x] = 1
        orbit = [x]
        for y in orbit:
            for img in images:
                z = img[y]
                if not done[z]:
                    done[z] = 1
                    orbit.append(z)
    return reps


def _children(
    k: int, adj: tuple[int, ...], cols: tuple[int, ...], auts: Auts
) -> list[tuple[int, tuple[int, ...], tuple[int, ...], Auts]]:
    """Accepted, deduplicated children of a canonical representative.

    Returns (new vertex degree, adjacency, columns, automorphisms) for the
    canonically relabeled children on k+1 vertices, sorted by (m, adjacency).
    ``auts`` are automorphisms of ``adj``; attachment sets in one orbit under
    them give isomorphic children with the new vertex fixed (all accepted or
    all rejected, with one canonical form), so only one set per orbit is tried.
    """
    nc = k + 1
    degs = [a.bit_count() for a in adj]
    # found automorphisms may generate a proper subgroup, and distinct orbits
    # can still give isomorphic children, so duplicates remain possible
    seen: dict[tuple[int, ...], tuple[int, tuple[int, ...], Auts]] = {}
    for x in _orbit_representatives(k, auts):
        dn = x.bit_count()
        # the new vertex must end up with minimum degree, else it cannot be
        # a canonical deletion point under the degree-first invariant
        ok = True
        for v in range(k):
            if degs[v] + ((x >> v) & 1) < dn:
                ok = False
                break
        if not ok:
            continue
        child = tuple(adj[v] | (((x >> v) & 1) << k) for v in range(k)) + (x,)
        if not _accepted(nc, child, cols):
            continue
        ccols, perm, cauts = _canon_search(nc, child)
        if ccols not in seen:
            pos = [0] * nc
            for i, v in enumerate(perm):
                pos[v] = i
            # the automorphisms again, in the canonical labeling
            relabeled = [tuple(pos[sigma[v]] for v in perm) for sigma in cauts]
            seen[ccols] = (dn, _relabel(nc, child, perm), relabeled)
    # the new vertex's degree is m less the parent's; distinct columns mean
    # distinct adjacencies, so the sort never compares beyond (m, adjacency)
    return sorted((d, a, c, au) for c, (d, a, au) in seen.items())


def _expand(
    k: int, adj: tuple[int, ...], cols: tuple[int, ...], auts: Auts, n: int
) -> Iterator[tuple[int, ...]]:
    """DFS from one representative down to order n, yielding adjacencies."""
    if k == n:
        yield adj
        return
    for _, cadj, ccols, cauts in _children(k, adj, cols, auts):
        yield from _expand(k + 1, cadj, ccols, cauts, n)


_SHARD_DEPTH = 4  # split the DFS at this order when sharding across workers


def _shard_work(args: tuple[tuple[int, ...], int]) -> list[tuple[int, ...]]:
    adj, n = args
    k = len(adj)
    # adj is canonical already, so the automorphisms are in its labeling
    cols, _, auts = _canon_search(k, adj)
    return list(_expand(k, adj, cols, auts, n))


def enumerate_graphs(n: int, connected_only: bool = False, workers: int = 1) -> Iterator[Graph]:
    """All graphs on n vertices, one per isomorphism class.

    Streaming and deterministic: the sequence is identical for any
    ``workers`` value. Orders up to 10 are practical (the counts grow as
    1, 2, 4, 11, 34, 156, 1044, 12346, 274668, 12005168); beyond that the
    pure-Python search is honest but slow. ``connected_only`` filters the
    same stream, so it saves no generation work.
    """
    if not 1 <= n <= 64:
        raise ValueError(f"order must be in 1..64, got {n}")
    if workers > 1 and n > _SHARD_DEPTH + 1:
        adjs = _parallel(n, workers)
    else:
        adjs = _expand(1, (0,), (0,), [], n)  # from K_1, its columns and no automorphism
    for adj in adjs:
        g = Graph(n, adj)
        if not connected_only or is_connected(g):
            yield g


def _parallel(n: int, workers: int) -> Iterator[tuple[int, ...]]:
    import multiprocessing

    shards = [(adj, n) for adj in _expand(1, (0,), (0,), [], _SHARD_DEPTH)]
    ctx = multiprocessing.get_context("fork" if os.name == "posix" else "spawn")
    with ctx.Pool(workers) as pool:
        for batch in pool.imap(_shard_work, shards):
            yield from batch


CENSUS_BLOCK = 1024  # classes per census block
CENSUS_KEPT = 9  # orders up to this are kept once enumerated; larger ones stream
CENSUS_MAX = 10  # no census above this order: n = 11 has about 10^9 classes


class CensusBlock(NamedTuple):
    """Consecutive classes of one order, in ``enumerate_graphs`` order.

    ``rows[i]`` holds the adjacency bitmasks of class i (one unsigned column
    per vertex), ``connected[i]`` whether it is connected, and ``graph6[i]``
    its graph6 word.
    """

    rows: np.ndarray
    connected: np.ndarray
    graph6: np.ndarray


_CENSUS: dict[int, tuple[CensusBlock, ...]] = {}


def census(n: int, workers: int = 1) -> Iterator[CensusBlock]:
    """All graphs on n vertices, one per class, in blocks of ``CENSUS_BLOCK``.

    Each block is yielded as soon as it is filled. A stream of order
    n <= ``CENSUS_KEPT`` that runs to its end is kept, and later calls in the
    process replay it without enumerating again; a stream stopped early keeps
    nothing. Larger orders are enumerated on every call and never kept.
    An order above ``CENSUS_MAX`` raises ValueError before enumerating.
    """
    if n > CENSUS_MAX:
        raise ValueError(f"census order must be at most {CENSUS_MAX}, got {n}")
    kept = _CENSUS.get(n)
    if kept is not None:
        yield from kept
        return
    blocks: list[CensusBlock] = []
    graphs = enumerate_graphs(n, workers=workers)
    try:
        while chunk := list(itertools.islice(graphs, CENSUS_BLOCK)):
            block = CensusBlock(
                np.array([g.adj for g in chunk], dtype=np.min_scalar_type((1 << n) - 1)),
                np.array([is_connected(g) for g in chunk]),
                np.array([write_graph6(g) for g in chunk]),
            )
            for arr in block:  # a kept block is shared by every later caller
                arr.flags.writeable = False
            if n <= CENSUS_KEPT:
                blocks.append(block)
            yield block
    finally:
        graphs.close()  # stops the pool of a sharded stream left early
    if n <= CENSUS_KEPT:
        _CENSUS[n] = tuple(blocks)


def clear_census() -> None:
    """Forget every kept census, so the next ``census`` call enumerates."""
    _CENSUS.clear()


def enumerate_trees(n: int) -> Iterator[Graph]:
    """All free trees on n vertices, one per isomorphism class, by WROM.

    Vertex i of each tree is entry i of its level sequence, and the trees
    come in the order of networkx's ``nonisomorphic_trees``, which runs the
    same algorithm.
    """
    if not 1 <= n <= 64:
        raise ValueError(f"order must be in 1..64, got {n}")
    if n == 1:
        yield Graph(1, (0,))
        return
    levels: list[int] | None = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while levels is not None:  # starts at the path, rooted at its center
        levels = _free_tree_candidate(levels)
        adj = [0] * n
        ancestors: list[int] = []  # from the root to the previous vertex
        for v, level in enumerate(levels):
            del ancestors[level:]
            if ancestors:
                adj[v] |= 1 << ancestors[-1]
                adj[ancestors[-1]] |= 1 << v
            ancestors.append(v)
        yield Graph(n, tuple(adj))
        levels = _next_rooted_tree(levels)


def _next_rooted_tree(levels: list[int], p: int | None = None) -> list[int] | None:
    """Beyer-Hedetniemi successor of a level sequence (None after the star).

    Repeats the subtree of vertex p's parent over p..n-1; p defaults to the
    last vertex not at level 1.
    """
    if p is None:
        p = len(levels) - 1
        while levels[p] == 1:
            p -= 1
        if p == 0:
            return None
    q = p - 1
    while levels[q] != levels[p] - 1:
        q -= 1
    return levels[:p] + (levels[q:p] * len(levels))[: len(levels) - p]


def _free_tree_candidate(levels: list[int]) -> list[int]:
    """``levels`` if it is a free tree's canonical rooting, else the WROM jump.

    Canonical: the root's first subtree, as a rooted tree, is no taller than
    the rest of the tree; if as tall, no larger; if as large, not after it
    lexicographically.
    """
    m = _second_subtree(levels)
    left = [x - 1 for x in levels[1:m]]
    rest = [0] + levels[m:]
    if (max(left), len(left), left) <= (max(rest), len(rest), rest):
        return levels
    jumped = _next_rooted_tree(levels, m - 1)
    assert jumped is not None  # None comes only from the default p
    if levels[m - 1] > 2:
        h = max(jumped[1 : _second_subtree(jumped)])
        jumped[-h:] = range(1, h + 1)
    return jumped


def _second_subtree(levels: list[int]) -> int:
    """Index of the first vertex of the root's second subtree (n if none)."""
    return levels.index(1, 2) if 1 in levels[2:] else len(levels)


def stream_graph6(lines: Iterable[str]) -> Iterator[Graph]:
    """Parse newline-delimited graph6 input, yielding graphs in order.

    Whitespace-only lines are skipped. The first bad line raises
    ``Graph6Error``, its message prefixed with the 1-based line number.
    """
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            yield parse_graph6(line)
        except Graph6Error as exc:
            raise Graph6Error(f"line {lineno}: {exc}") from None
