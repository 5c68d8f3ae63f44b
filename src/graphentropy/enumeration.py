"""Isomorph-free generation of graphs and trees, plus canonical forms.

Canonical form. The search is individualization-refinement: an equitable
partition refinement splits vertices by their neighbor counts into splitter
cells until stable, and where a non-singleton cell remains, each member is
individualized in turn. Cells are vertex bitmasks, and a splitter is applied
only to the non-singleton cells that hold a neighbor of one of its members;
every other cell would keep a uniform count, so skipping it changes nothing
(see ``_refine``). After individualizing v, only the new cell {v} and its
remainder are queued as splitters: every other cell belongs to the equitable
partition just refined, so its members' counts into any such cell already
agree, in this and every finer partition, and skipping those no-op splitters
changes neither the splits that act nor their order. Every leaf of that
search tree is a vertex ordering; the canonical ordering is the leaf whose
upper-triangle adjacency bits (in graph6 column order) are lexicographically
smallest, the graph relabeled by it (``_relabel``) is the canonical
representative, and its graph6 encoding, read off the relabeled rows by
``graphs._graph6_body`` and packed by ``graphs._graph6_bytes`` (the one
encoder ``write_graph6`` also uses), is the canonical graph6 word that
``canonical_form`` returns as a str. Isomorphic graphs have search trees
that agree up to relabeling, so they get the same word. The minimum is taken
over the leaves only, not over all n! orderings, so the word is in general
not the smallest graph6 word of the class. Swapping two twins (vertices
with one open or one closed neighbourhood) is an automorphism, and these
transpositions are recorded before the search; two leaves with the same
encoding differ by a further automorphism. Known automorphisms prune sibling
branches through their orbits (an automorphism fixes a prefix when the
prefix's mask lies inside its fixed-point mask), which keeps highly
symmetric graphs (complete, complete bipartite) from exploding. A forest
follows its first branch only (see ``_forest_ordering``); for other graphs
the search is exact but exponential in the worst case. Both serve the orders
this package works at (n <= 16). When the first refinement is already
discrete (4759 of the 15880 searches that generate n = 8), its ordering is
the only leaf and the only automorphism is the identity, so the search
returns it at once.

Generation. Canonical augmentation: a graph on k+1 vertices is produced from
its parent on k vertices by deleting one vertex; fixing, per isomorphism
class, a canonical choice of that deleted vertex makes the parent/child
relation a tree on isomorphism classes, so a DFS from K_1 that only accepts
children whose new vertex is a legitimate canonical deletion point emits
every class exactly once, with no global seen-set. A child is the parent
plus a new vertex joined to an attachment set; sets in one orbit under the
parent's automorphisms give the same child, so only one set per orbit is
tried (McKay, "Isomorph-free exhaustive generation", J. Algorithms 26,
1998). The degree rule comes first: two mask tests keep the sets that leave
the new vertex of minimum degree, and orbits are closed over those sets only
(see ``_attachment_sets``). A child that passes the degree invariant is
searched once; the automorphisms it returns also decide which of its tied
vertices still need a deletion search (one per orbit, none in the new
vertex's orbit; see ``_accepted``), and the same search relabels an accepted
child. The automorphisms are those the canonical search knew, its twin
transpositions and those it found between leaves, carried down the DFS in
the canonical labeling, and relabeled only for the children the walk will
expand; they may generate a proper subgroup, so the few duplicate children
left within one parent are dropped by canonical form. The DFS is one
preorder walk (``_walk``) that yields every node's canonical adjacency, so
each order's classes come out in emission order; it can start from the
classes of one order, each searched once (``_root``), as a shard and
``census`` do. In one process, memory stays linear in the recursion depth.
The optional process-pool sharding (``_parallel``) splits the walk at order
n - 3: each class of that order (34 at n = 8, 156 at n = 9, 1044 at
n = 10) is a shard, whose order-n classes a worker returns as one array of
canonical rows and nothing else (``_shard_work``). The shards' subtrees,
concatenated in preorder, are the order-n stream, so the emission order
(children sorted by edge count then canonical adjacency rows, within their
parent) is the same with or without sharding. Shards are small, so a worker
holds one subtree's classes and the main process the shards handed back but
not yet read (one, when the reader keeps up) plus one block.

Trees. ``enumerate_trees`` walks level sequences with the WROM free-tree
generator (Wright, Richmond, Odlyzko & McKay, "Constant time generation of
free trees", SIAM J. Comput. 15, 1986); its trees are not in canonical form.

Census. ``census`` hands the order-n stream to the claim engines as numpy
blocks. Its walk starts at the deepest order below n already kept, and for n
up to ``CENSUS_KEPT`` it keeps every order it walked, so each such order is
walked at most once per process, in any order of calls, and then replayed;
larger orders, to ``CENSUS_MAX``, stream and are dropped. The walk in one
process and the shards feed one block builder (``_blocks``) with canonical
rows only, cut at the same block boundaries however the stream was split.
No ``Graph`` is built per class and no word travels with the rows: a
``CensusBlock`` checks its rows once, by the stacked rule ``density_spectra``
applies, and derives from them ``graph6`` (each class's upper triangle, read
column by column from the bits that check expanded and packed by
``graphs._graph6_bytes``: the word ``write_graph6`` gives the same rows),
``connected`` and ``edged``. A block solves the density spectra of its
``edged`` classes on first use (``CensusBlock.spectra``) and keeps them as
long as it is kept, so the spectral engines share one solve per kept order
and process, while the scans that read only degrees never solve.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .graphs import (
    Graph,
    Graph6Error,
    _bit_vertices,
    _check_order,
    _graph6_bodies,
    _graph6_body,
    _graph6_bytes,
    _row_bits,
    component_count,
    is_connected,
    parse_graph6,
)
from .spectral import density_spectra

_INF = 1 << 70  # exceeds any column encoding (columns have < 64 bits)
CANON_MAX = 16  # no canonical form above this order
_AUT_CAP = 64  # keep at most this many automorphisms per search


def _refine(adj: tuple[int, ...], cells: list[int], fresh: Iterable[int]) -> list[int]:
    """Equitable refinement of an ordered partition of vertex bitmasks.

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

    Cells are vertex bitmasks. A splitter acts only on the non-singleton
    cells (their union is ``open_``) that meet ``hit``, the union of its
    members' rows: a cell missing ``hit`` counts 0 throughout, and a
    singleton cannot split. So a splitter whose ``hit`` meets no open cell
    is dropped whole (once every cell is a singleton, so is the rest of the
    queue), and a pass counts only the cells that meet both; the rest keep
    their places and make no sub-cells, so the cells split, the sub-cells
    queued and their order are those of visiting every cell. A splitter of
    one vertex v counts 1 exactly on ``adj[v]`` and 0 elsewhere, so it
    splits an open cell with one AND into the part outside ``adj[v]``, then
    the part inside, with no count taken.
    """
    queue = [cells[i] for i in fresh]
    open_ = 0
    for cell in cells:
        if cell & (cell - 1):
            open_ |= cell
    while queue and open_:
        splitter = queue.pop()
        new_cells: list[int] = []
        if not splitter & (splitter - 1):  # one vertex: counts are 0 or 1
            live = adj[splitter.bit_length() - 1] & open_
            if not live:
                continue
            for cell in cells:
                inside = cell & live
                if not inside or inside == cell:
                    new_cells.append(cell)
                    continue
                outside = cell ^ inside
                new_cells += (outside, inside)
                queue += (outside, inside)
                if not outside & (outside - 1):
                    open_ ^= outside
                if not inside & (inside - 1):
                    open_ ^= inside
            cells = new_cells
            continue
        hit = 0
        for v in _bit_vertices(splitter):
            hit |= adj[v]
        live = hit & open_
        if not live:
            continue
        for cell in cells:
            if not cell & live:
                new_cells.append(cell)
                continue
            by_count: dict[int, int] = {}
            for v in _bit_vertices(cell):
                k = (adj[v] & splitter).bit_count()
                by_count[k] = by_count.get(k, 0) | 1 << v
            if len(by_count) == 1:  # uniform count: the cell stays whole
                new_cells.append(cell)
                continue
            for k in sorted(by_count):
                sub = by_count[k]
                new_cells.append(sub)
                queue.append(sub)
                if not sub & (sub - 1):
                    open_ ^= sub
        cells = new_cells
    return cells


Auts = list[tuple[int, ...]]
Node = tuple[tuple[int, ...], tuple[int, ...], Auts]  # (adjacency, columns, automorphisms)


def _canon_search(
    n: int, adj: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...], Auts]:
    """(canonical column encoding, canonical ordering, automorphisms) for the graph.

    The ordering maps position -> original vertex. Column j of an ordering
    is the j-bit integer whose bits are adjacency between position j and
    positions 0..j-1 (earliest position most significant), matching graph6
    bit order, so comparing column tuples compares graph6 bodies. The
    automorphisms (vertex -> vertex) are first the twin transpositions, one
    per consecutive pair of each class of vertices with one open or one
    closed neighbourhood, known before the search and pruning it from the
    root, then those the search found between leaves (at most ``_AUT_CAP``
    in all, as n <= 16); they may generate only a subgroup of the
    automorphism group. A pruned subtree is the image of an explored
    sibling's under an automorphism fixing the prefix, so the columns and
    the ordering (the first smallest leaf in DFS order) are those of the
    search without pruning.

    When the first refinement is discrete, its one ordering is the only
    leaf: its columns and ordering come back with no automorphisms, and the
    twin scan and the search are skipped (twins share every cell of an
    equitable partition, so a discrete one has none, and it is mapped to
    itself by every automorphism, so the identity is the only one).
    """
    root = _refine(adj, [(1 << n) - 1], (0,))
    if len(root) == n:
        perm = [cell.bit_length() - 1 for cell in root]
        cols = []
        for j, v in enumerate(perm):
            av = adj[v]
            col = 0
            for u in perm[:j]:
                col = (col << 1) | ((av >> u) & 1)
            cols.append(col)
        return tuple(cols), tuple(perm), []
    best_cols = [_INF] * n
    best_perm: list[int] | None = None
    auts: Auts = []
    fixed: list[int] = []  # fixed[i]: the vertices auts[i] maps to themselves
    # twins (one open or one closed neighbourhood) swap by an automorphism;
    # an open key (v not in it) never equals a closed one (v in it) in a
    # simple graph, so one dict keeps each twin class's last vertex
    last: dict[int, int] = {}
    for v, row in enumerate(adj):
        for key in (row, row | 1 << v):
            u = last.get(key)
            last[key] = v
            if u is not None:
                sigma = list(range(n))
                sigma[u], sigma[v] = v, u
                auts.append(tuple(sigma))
                fixed.append(((1 << n) - 1) ^ (1 << u) ^ (1 << v))
    prefix: list[int] = []

    def search(cells: list[int]) -> None:
        nonlocal best_perm
        added = 0
        idx = len(prefix)
        pruned = False
        while idx < len(cells) and not cells[idx] & (cells[idx] - 1):
            v = cells[idx].bit_length() - 1
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
                        fixed.append(sum(1 << v for v in range(n) if sigma[v] == v))
            else:
                cell = cells[idx]
                rest = cells[idx + 1:]
                head = cells[:idx]
                prefix_mask = sum(head)  # the prefix's singleton cells
                done: set[int] = set()
                # automorphisms that fix the current prefix pointwise (its
                # mask lies inside their fixed points); auts only grows, so
                # only the ones found since are tested
                stable: Auts = []
                tested = 0
                for v in _bit_vertices(cell):
                    if v in done:
                        continue
                    # only {v} and its remainder can split a cell: the rest
                    # are cells of the equitable partition ``cells``
                    search(_refine(adj, head + [1 << v, cell ^ (1 << v)] + rest, (idx, idx + 1)))
                    stable += [
                        auts[i] for i in range(tested, len(auts)) if not prefix_mask & ~fixed[i]
                    ]
                    tested = len(auts)
                    # the tried candidates' orbits under ``stable`` are done
                    done = _orbits(done | {v}, stable)
        del prefix[len(prefix) - added:]

    search(root)
    assert best_perm is not None
    return tuple(best_cols), tuple(best_perm), auts


def _relabel(n: int, adj: tuple[int, ...], perm: Sequence[int]) -> tuple[int, ...]:
    """Adjacency of the graph relabeled so position i takes vertex perm[i]."""
    bit = [0] * n  # bit[v]: vertex v's bit in the new labeling
    for i, v in enumerate(perm):
        bit[v] = 1 << i
    out = []
    for v in perm:
        acc = 0
        for u in _bit_vertices(adj[v]):
            acc |= bit[u]
        out.append(acc)
    return tuple(out)


def canonical_form(g: Graph) -> str:
    """Canonical graph6 word of g: the smallest leaf encoding, for a forest its
    first leaf. Equal words iff isomorphic graphs.

    The word is ``write_graph6``'s packing of g relabeled by the leaf's
    ordering: the relabeled rows give the body through the same helper.
    """
    if g.n > CANON_MAX:
        raise ValueError(f"canonical forms are supported for n <= {CANON_MAX}")
    if g.m + component_count(g) == g.n:
        order = _forest_ordering(g.n, g.adj)
    else:
        _, order, _ = _canon_search(g.n, g.adj)
    return _graph6_bytes(g.n, _graph6_body(g.n, _relabel(g.n, g.adj, order))).decode("ascii")


def _forest_ordering(n: int, adj: tuple[int, ...]) -> list[int]:
    """The first leaf of a forest's canonical search, which is its smallest.

    Colour refinement of a forest, with any vertices individualized, stops at
    the orbit partition (Arvind, Koebler, Rattan & Verbitsky, Comput.
    Complexity 26, 2017), so every leaf of the search encodes the same graph.
    """
    cells = _refine(adj, [(1 << n) - 1], (0,))
    idx = 0
    while idx < len(cells):
        cell = cells[idx]
        if cell & (cell - 1):
            low = cell & -cell
            cells = _refine(adj, cells[:idx] + [low, cell ^ low] + cells[idx + 1:], (idx, idx + 1))
        idx += 1
    return [cell.bit_length() - 1 for cell in cells]


def _delete_vertex(adj: tuple[int, ...], v: int) -> tuple[int, ...]:
    low = (1 << v) - 1
    out = []
    for u in range(len(adj)):
        if u == v:
            continue
        row = adj[u]
        out.append((row & low) | ((row >> (v + 1)) << v))
    return tuple(out)


def _accepted(
    nc: int, adjc: tuple[int, ...], parent_cols: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...], Auts] | None:
    """The child's ``_canon_search`` if the newest vertex (nc - 1) is a
    canonical deletion point of this child, else None.

    The rule: among vertices minimizing the invariant (degree, sorted
    neighbor degrees), the new vertex must be present, and no other minimal
    vertex may yield a smaller deletion canon than canon(child - new) ==
    canon(parent). This makes each child reachable from exactly one parent
    class; duplicates within one parent are removed by the caller.

    Precondition: the new vertex already has minimum degree. ``_children``
    skips every attachment set that breaks it, so only the vertices of
    equal degree are compared here.

    A child that passes the invariant is searched first; the automorphisms
    found then spare deletion searches. A tied vertex in the new vertex's
    orbit deletes to the parent itself, so it cannot reject; tied vertices
    in one orbit delete to one class, so one search per orbit, at its
    smallest tied member, decides them all.
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
            return None
        if inv_v == inv_new:
            ties.append(v)
    search = _canon_search(nc, adjc)
    if ties:
        auts = search[2]
        done = _orbits({vnew}, auts)
        for v in ties:
            if v in done:
                continue
            dcols, _, _ = _canon_search(nc - 1, _delete_vertex(adjc, v))
            if dcols < parent_cols:
                return None
            done = _orbits(done | {v}, auts)
    return search


def _orbits(vertices: set[int], auts: Auts) -> set[int]:
    """The union of the orbits of ``vertices`` under the group the
    permutations generate."""
    closed = set(vertices)
    todo = list(closed)
    for u in todo:
        for sigma in auts:
            w = sigma[u]
            if w not in closed:
                closed.add(w)
                todo.append(w)
    return closed


def _attachment_sets(degs: list[int], auts: Auts) -> list[int]:
    """The attachment sets ``_children`` tries, as bitmasks of 0..k-1 where
    k = len(degs), in increasing order.

    The new vertex joined to x has degree |x|, and it must end up with
    minimum degree, else it cannot be a canonical deletion point under the
    degree-first invariant. A vertex gains at most one degree, so x is
    admissible exactly when no vertex has degree below |x| - 1, that is
    |x| <= delta + 1 for the parent's minimum degree delta, and x holds
    every vertex of degree |x| - 1, which exist only when |x| = delta + 1:
    two tests on the mask, with no loop over vertices. Sets in one orbit
    under ``auts`` (automorphisms, so they keep degrees) are all admissible
    or none, and give isomorphic children; so only the first admissible
    member of each orbit, its smallest, is kept, and the orbit is closed
    over admissible sets only, each image made by mapping its few vertices.
    """
    delta = min(degs)
    lowest = sum(1 << v for v, d in enumerate(degs) if d == delta)
    sets = [
        x
        for x in range(1 << len(degs))
        if (size := x.bit_count()) <= delta or (size == delta + 1 and not lowest & ~x)
    ]
    if not auts:
        return sets
    images = [[1 << w for w in sigma] for sigma in auts]  # vertex -> its image's bit
    reps = []
    done: set[int] = set()
    for x in sets:
        if x in done:
            continue
        reps.append(x)
        done.add(x)
        orbit = [x]
        for y in orbit:
            vertices = _bit_vertices(y)
            for image in images:
                z = 0
                for v in vertices:
                    z |= image[v]
                if z not in done:
                    done.add(z)
                    orbit.append(z)
    return reps


def _children(
    k: int, adj: tuple[int, ...], cols: tuple[int, ...], auts: Auts, expand: bool
) -> list[Node]:
    """Accepted, deduplicated children of a canonical representative.

    Returns (adjacency, columns, automorphisms) for the canonically relabeled
    children on k+1 vertices, sorted by (m, adjacency). ``auts`` are
    automorphisms of ``adj``; attachment sets in one orbit under them give
    isomorphic children with the new vertex fixed (all accepted or all
    rejected, with one canonical form), so only one set per orbit is tried,
    and only sets that leave the new vertex of minimum degree
    (``_attachment_sets``). An accepted child's columns, ordering and
    automorphisms are the search ``_accepted`` ran on it. The automorphisms
    are relabeled into the canonical labeling only if the walk will
    ``expand`` the children; otherwise the children carry none.
    """
    nc = k + 1
    # known automorphisms may generate a proper subgroup, and distinct orbits
    # can still give isomorphic children, so duplicates remain possible
    seen: dict[tuple[int, ...], tuple[int, Node]] = {}
    for x in _attachment_sets([a.bit_count() for a in adj], auts):
        child = tuple(adj[v] | (((x >> v) & 1) << k) for v in range(k)) + (x,)
        search = _accepted(nc, child, cols)
        if search is None:
            continue
        ccols, perm, cauts = search
        if ccols not in seen:
            relabeled: Auts = []
            if expand and cauts:
                pos = [0] * nc
                for i, v in enumerate(perm):
                    pos[v] = i
                # the automorphisms again, in the canonical labeling
                relabeled = [tuple(pos[sigma[v]] for v in perm) for sigma in cauts]
            seen[ccols] = (x.bit_count(), (_relabel(nc, child, perm), ccols, relabeled))
    # the new vertex's degree is m less the parent's; distinct columns mean
    # distinct adjacencies, so the sort never compares beyond (m, adjacency)
    return [node for _, node in sorted(seen.values())]


_K1: Node = ((0,), (0,), [])  # the root of every walk from scratch


def _root(adj: tuple[int, ...]) -> Node:
    """A canonical representative (a kept or shard class) as a walk root,
    searched once for its columns and automorphisms."""
    cols, _, auts = _canon_search(len(adj), adj)
    return adj, cols, auts


def _walk(roots: Iterable[Node], n: int) -> Iterator[tuple[int, ...]]:
    """Preorder DFS from ``roots`` (one order's classes, in emission order)
    down to order n, yielding every node's canonical adjacency; its length is
    the order. Nodes of order n are not expanded, so the children made at
    order n carry no automorphisms (``_children``'s ``expand``)."""

    def down(nodes: Iterable[Node]) -> Iterator[tuple[int, ...]]:
        for adj, cols, auts in nodes:
            yield adj
            k = len(adj)
            if k < n:
                yield from down(_children(k, adj, cols, auts, k + 1 < n))

    return down(roots)


_SHARD_DEPTH = 3  # a shard is one class of order n - 3 and its subtree down to order n
_SHARD_MIN = 6  # orders below this are walked in one process, whatever ``workers`` is


def _shard_work(args: tuple[tuple[int, ...], int]) -> np.ndarray:
    """The rows of the order-n classes below one order n - ``_SHARD_DEPTH``
    class, walked in a worker, as one array."""
    adj, n = args
    rows = [a for a in _walk([_root(adj)], n) if len(a) == n]
    return np.array(rows, dtype=np.min_scalar_type((1 << n) - 1))


def enumerate_graphs(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """All graphs on n vertices, one per isomorphism class.

    Streaming and deterministic: one ``_walk`` from K_1 in this process, whose
    order-n classes come out in emission order (the sharded ``census`` keeps
    that order). Orders up to 10 are practical (the counts grow as 1, 2, 4,
    11, 34, 156, 1044, 12346, 274668, 12005168); beyond that the pure-Python
    search is honest but slow. ``connected_only`` filters the same stream, so
    it saves no generation work.
    """
    _check_order(n)
    for adj in _walk([_K1], n):
        if len(adj) == n:
            g = Graph(n, adj)
            if not connected_only or is_connected(g):
                yield g


def _parallel(n: int, workers: int) -> Iterator[np.ndarray]:
    """The rows of the order-n classes, one array per shard in emission order:
    the order n - ``_SHARD_DEPTH`` classes are walked here, and ``workers``
    processes walk their subtrees. Closing the stream stops the pool."""
    import multiprocessing

    k = n - _SHARD_DEPTH
    shards = [(adj, n) for adj in _walk([_K1], k) if len(adj) == k]
    ctx = multiprocessing.get_context("fork" if os.name == "posix" else "spawn")
    with ctx.Pool(workers) as pool:
        yield from pool.imap(_shard_work, shards)


CENSUS_BLOCK = 1024  # classes per census block
CENSUS_KEPT = 8  # orders up to this, the ones a process replays, are kept; larger ones stream
CENSUS_MAX = 10  # no census above this order: n = 11 has about 10^9 classes


def _reach_step(rows: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """One BFS step over stacked rows: each vertex mask ``reach[c, s]`` (class c,
    source s) gains its members' neighbours, an OR-reduce of their rows."""
    members = (reach[:, :, None] >> np.arange(rows.shape[1], dtype=rows.dtype)) & 1
    return reach | np.bitwise_or.reduce(rows[:, None, :] * members, axis=2)


@dataclass(frozen=True, eq=False)
class CensusBlock:
    """Consecutive classes of one order, in ``enumerate_graphs`` order.

    ``rows[i]`` holds the adjacency bitmasks of class i (one unsigned column
    per vertex), canonically relabeled in a census. The rows, the only input,
    are checked once for the whole block by the rule ``density_spectra``
    applies (``graphs._row_bits``: no bit at a column >= n, no loop, no
    asymmetric pair, else ValueError); ``graph6[i]``, the word of rows i packed
    from the bits that check expanded (``graphs._graph6_bodies``),
    ``connected[i]``, whether n - 1 ``_reach_step``s from vertex 0 reach all of
    class i, and ``edged[i]``, whether it has an edge, are derived from them.
    All four arrays are read-only. ``spectra`` is solved on first use and then
    lives as long as the block.
    """

    rows: np.ndarray
    graph6: np.ndarray = field(init=False)
    connected: np.ndarray = field(init=False)
    edged: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        rows = self.rows
        n = rows.shape[1]
        bodies = _graph6_bodies(_row_bits(rows))
        object.__setattr__(self, "graph6", np.array([_graph6_bytes(n, b).decode() for b in bodies]))
        reach = np.ones((len(rows), 1), dtype=rows.dtype)  # per class, one source: vertex 0
        for _ in range(n - 1):  # a shortest path from vertex 0 has at most n - 1 edges
            reach = _reach_step(rows, reach)
        object.__setattr__(self, "connected", reach[:, 0] == (1 << n) - 1)
        object.__setattr__(self, "edged", rows.any(axis=1))
        for arr in (self.rows, self.connected, self.graph6, self.edged):  # shared when kept
            arr.flags.writeable = False

    @cached_property
    def spectra(self) -> np.ndarray:
        """Read-only density spectra, one row per ``edged`` class in block
        order, from one stacked solve, bit-identical to ``density_spectrum``."""
        vals = density_spectra(self.rows[self.edged])
        vals.flags.writeable = False
        return vals


_CENSUS: dict[int, tuple[CensusBlock, ...]] = {}


def _blocks(k: int, parts: Iterable[np.ndarray | list[tuple[int, ...]]]) -> Iterator[CensusBlock]:
    """The order-k classes of ``parts`` (rows arrays of shards, or lists of
    adjacencies, in emission order), concatenated into one rows array and
    sliced into blocks of ``CENSUS_BLOCK``, each made when filled, so the
    boundaries do not depend on how the classes were split into parts. It
    holds one part at a time, with fewer than ``CENSUS_BLOCK`` classes carried
    over from the part before."""
    rows = np.empty((0, k), dtype=np.min_scalar_type((1 << k) - 1))
    for part in parts:
        rows = np.concatenate((rows, np.asarray(part, dtype=rows.dtype)))
        full = len(rows) - len(rows) % CENSUS_BLOCK
        for i in range(0, full, CENSUS_BLOCK):
            yield CensusBlock(rows[i : i + CENSUS_BLOCK])
        rows = rows[full:]
    if len(rows):
        yield CensusBlock(rows)


def census(n: int, workers: int = 1) -> Iterator[CensusBlock]:
    """All graphs on n vertices, one per class, in blocks of ``CENSUS_BLOCK``.

    Each block is yielded as soon as it is filled. A kept order is replayed.
    Otherwise one walk starts at the deepest kept order below n (at K_1 if
    none), and for n <= ``CENSUS_KEPT`` every order it walked is kept once it
    ends; a stream stopped early keeps nothing, and a sharded one stops its
    pool. With ``workers`` > 1 and n >= 6 the stream is sharded
    (``_parallel``) and keeps order n only. Both streams reach the blocks
    through one builder, ``_blocks``, as canonical rows only: the walk in one
    process hands it ``CENSUS_BLOCK`` adjacencies at a time, the shards one
    rows array each. Each block derives its classes' graph6 words from its
    rows. A kept block keeps its ``spectra`` once asked for. Larger orders are
    walked on every call and never kept. An order above ``CENSUS_MAX`` or
    below 1 raises ValueError before anything is walked or kept.
    """
    if n > CENSUS_MAX:
        raise ValueError(f"census order must be at most {CENSUS_MAX}, got {n}")
    _check_order(n)
    kept = _CENSUS.get(n)
    if kept is not None:
        yield from kept
        return
    keep = n <= CENSUS_KEPT
    below: dict[int, list[tuple[int, ...]]] = {}  # the orders walked below n
    if workers > 1 and n >= _SHARD_MIN:
        parts = _parallel(n, workers)  # the shards hand out order n only
    else:
        base = max((k for k in _CENSUS if k < n), default=0)
        roots = (_root(tuple(a)) for b in _CENSUS[base] for a in b.rows.tolist()) if base else [_K1]
        below = {k: [] for k in range(base + 1, n) if keep}

        def order_n(adjs: Iterator[tuple[int, ...]]) -> Iterator[list[tuple[int, ...]]]:
            chunk: list[tuple[int, ...]] = []
            for adj in adjs:
                if len(adj) == n:
                    chunk.append(adj)
                    if len(chunk) == CENSUS_BLOCK:
                        yield chunk
                        chunk = []
                elif len(adj) in below:
                    below[len(adj)].append(adj)
            if chunk:
                yield chunk

        parts = order_n(_walk(roots, n))

    blocks: list[CensusBlock] = []
    try:
        for block in _blocks(n, parts):
            if keep:
                blocks.append(block)
            yield block
    finally:
        parts.close()  # stops the pool of a sharded stream left early
    if keep:
        _CENSUS.update((k, tuple(_blocks(k, [adjs]))) for k, adjs in below.items())
        _CENSUS[n] = tuple(blocks)


def clear_census() -> None:
    """Forget every kept census and its spectra, so the next ``census`` call
    enumerates."""
    _CENSUS.clear()


def enumerate_trees(n: int) -> Iterator[Graph]:
    """All free trees on n vertices, one per isomorphism class, by WROM.

    Vertex i of each tree is entry i of its level sequence. The first tree
    is the path and the last is the star; ``verify_tree_extremes`` relies on
    the path coming first.
    """
    _check_order(n)
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
