import hashlib
import multiprocessing
import random

import numpy as np
import pytest

from graphentropy import enumeration, graphs
from graphentropy.enumeration import (
    CENSUS_BLOCK,
    canonical_form,
    census,
    clear_census,
    enumerate_graphs,
    enumerate_trees,
    stream_graph6,
)
from graphentropy.graphs import (
    Graph6Error,
    complete,
    complete_bipartite,
    component_count,
    cycle,
    disjoint_union,
    from_edges,
    is_connected,
    parse_graph6,
    path,
    star,
    write_graph6,
)

from _oracles import (
    edge_mask,
    labeled_classes,
    min_mask,
    reference_attachment_sets,
    reference_canon_search,
    reference_refine,
)

ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
# OEIS A000055
TREE_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106,
    11: 235, 12: 551, 13: 1301, 14: 3159, 15: 7741, 16: 19320,
}


def random_graph(rng, n, p=0.5):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return from_edges(n, edges)


# --- canonical forms ----------------------------------------------------------


def test_canonical_form_invariant_under_relabeling():
    rng = random.Random(21)
    for _ in range(60):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.uniform(0.1, 0.9))
        perm = list(range(n))
        rng.shuffle(perm)
        h = from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert canonical_form(g) == canonical_form(h)


def test_canonical_form_representative_is_isomorphic():
    rng = random.Random(22)
    for _ in range(30):
        n = rng.randint(2, 6)
        g = random_graph(rng, n)
        rep = parse_graph6(canonical_form(g))
        assert min_mask(n, edge_mask(rep)) == min_mask(n, edge_mask(g))


def test_canonical_form_separates_classes():
    # all classes at one order get pairwise distinct canonical words
    forms = [canonical_form(g) for g in enumerate_graphs(5)]
    assert len(set(forms)) == ALL_COUNTS[5]


def test_canonical_form_highly_symmetric():
    # symmetric graphs exercise the automorphism pruning
    for g in (complete(9), complete_bipartite(4, 4), star(10), path(10)):
        rng = random.Random(g.n)
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert canonical_form(g) == canonical_form(h)


def is_automorphism(g, sigma):
    # a permutation that maps every row onto the row of the image vertex
    if sorted(sigma) != list(range(g.n)):
        return False
    return all(
        sum(1 << sigma[w] for w in range(g.n) if g.adj[u] >> w & 1) == g.adj[sigma[u]]
        for u in range(g.n)
    )


def test_search_automorphisms_preserve_adjacency():
    # acceptance skips deletion searches by the orbits of these permutations,
    # so each must be an automorphism of the searched graph
    rng = random.Random(26)
    cases = [g for n in range(1, 8) for g in enumerate_graphs(n)]
    cases += [complete(9), complete_bipartite(4, 4)]
    for n in range(9, 13):
        for _ in range(8):
            cases.append(random_graph(rng, n, rng.uniform(0.2, 0.8)))
            k = n // 2  # two copies of one random graph, so automorphisms exist
            edges = random_graph(rng, k, rng.uniform(0.2, 0.8)).edges()
            cases.append(relabeled(rng, n, edges + [(u + k, v + k) for u, v in edges]))
    found = 0
    for g in cases:
        _, _, auts = enumeration._canon_search(g.n, g.adj)
        for sigma in auts:
            assert is_automorphism(g, sigma), (write_graph6(g), sigma)
        found += len(auts)
    assert found > 1000


def test_canonical_form_order_guard():
    with pytest.raises(ValueError):
        canonical_form(complete(17))


def test_canonical_form_is_ordered_bytes():
    a = canonical_form(path(4))
    b = canonical_form(star(4))
    # an ASCII graph6 word: it round-trips, and orders as its bytes do
    assert isinstance(a, str) and write_graph6(parse_graph6(a)) == a
    assert (a < b) != (b < a)
    assert (a < b) == (a.encode() < b.encode())


def search_bytes(g):
    # the smallest leaf of the full search, packed from its columns
    cols, _, _ = enumeration._canon_search(g.n, g.adj)
    body = 0
    for j in range(1, g.n):
        body = (body << j) | cols[j]
    return graphs._graph6_words(g.n, [body])[0].encode("ascii")


def random_tree_edges(rng, k, start=0):
    # vertex start + i hangs from a random earlier vertex
    return [(start + i, start + rng.randrange(i)) for i in range(1, k)]


def relabeled(rng, n, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def test_forest_path_matches_full_search():
    # canonical_form takes the first leaf of a forest's search; the full
    # search's smallest leaf must give the same bytes
    rng = random.Random(8)
    for n in range(1, 17):
        for _ in range(30):
            t = relabeled(rng, n, random_tree_edges(rng, n))
            assert canonical_form(t).encode() == search_bytes(t)
    for _ in range(300):
        n = rng.randint(2, 16)
        edges, start = [], 0
        while start < n:
            k = rng.randint(1, n - start)
            edges += random_tree_edges(rng, k, start)
            start += k
        if 2 * n <= 16 and rng.random() < 0.5:  # two copies, so components swap
            edges += [(u + n, v + n) for u, v in edges]
            n *= 2
        g = relabeled(rng, n, edges)
        assert g.m + component_count(g) == g.n
        assert canonical_form(g).encode() == search_bytes(g)


def test_first_leaf_is_not_canonical_off_forests():
    # C3 + C4 is 2-regular: refinement leaves one cell holding two orbits, so
    # the first leaf of its search depends on the labeling, and only the full
    # search gives one form (at n = 7 this class and its complement are the
    # only ones where the first leaf can miss)
    rng = random.Random(9)
    c3c4 = disjoint_union([cycle(3), cycle(4)])
    for g in (c3c4, from_edges(7, c3c4.non_edges())):
        forms = {canonical_form(relabeled(rng, 7, g.edges())) for _ in range(40)}
        assert forms == {canonical_form(g)}


def random_regular(rng, n, d):
    # pair n * d shuffled vertex stubs, redrawn until no loop or multi-edge
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2]) if a != b}
        if len(edges) == n * d // 2:
            return from_edges(n, sorted(edges))


def test_canon_search_matches_unpruned_reference():
    # orbit pruning, by twin transpositions and by automorphisms found
    # between leaves, skips only images of explored subtrees, so the columns
    # and the first ordering reaching them are those of walking every leaf
    rng = random.Random(27)
    cases = [g for n in range(1, 7) for g in enumerate_graphs(n)]
    cases += [relabeled(rng, g.n, g.edges()) for g in cases]
    cases += [complete(6), star(7), complete_bipartite(3, 3)]
    cases.append(disjoint_union([complete(3), complete(3)]))
    # regular graphs, where refinement stops at cells that can hold several
    # orbits (C3 + C4 first), so a false twin would prune a smaller leaf
    for g in enumerate_graphs(7):
        if len({row.bit_count() for row in g.adj}) == 1 and 0 < g.m < 21:
            cases.append(relabeled(rng, 7, g.edges()))
    cases += [random_regular(rng, 8, d) for d in (2, 3, 4, 5) for _ in range(6)]
    for n in (7, 8):
        for _ in range(12):
            # a random graph on n - 1 vertices plus an open or a closed twin
            # of one of them, relabeled
            g = random_graph(rng, n - 1, rng.uniform(0.3, 0.7))
            u = rng.randrange(n - 1)
            edges = g.edges() + [(w, n - 1) for w in range(n - 1) if g.adj[u] >> w & 1]
            if rng.random() < 0.5:
                edges.append((u, n - 1))
            cases.append(relabeled(rng, n, edges))
    for g in cases:
        cols, order, _ = enumeration._canon_search(g.n, g.adj)
        assert (cols, order) == reference_canon_search(g.n, g.adj), write_graph6(g)


def test_search_columns_are_the_columns_of_its_ordering():
    # the search builds each prefix column one position at a time; what it
    # returns must be graphs._columns of its ordering, which for a forest is
    # _forest_ordering's (canonical_form packs that one's columns instead)
    rng = random.Random(28)
    forests = 0
    for n in range(1, 17):
        cases = [random_graph(rng, n, rng.uniform(0.1, 0.9)) for _ in range(6)]
        cases.append(relabeled(rng, n, random_tree_edges(rng, n)))
        k = rng.randint(1, n)
        forest = random_tree_edges(rng, k) + random_tree_edges(rng, n - k, k)
        cases.append(relabeled(rng, n, forest))
        if n >= 3:
            cases.append(relabeled(rng, n, cycle(n).edges()))
        if n % 2 == 0:  # two copies of one graph, so the search branches
            edges = random_graph(rng, n // 2).edges()
            cases.append(relabeled(rng, n, edges + [(u + n // 2, v + n // 2) for u, v in edges]))
        for g in cases:
            cols, order, _ = enumeration._canon_search(g.n, g.adj)
            assert cols == graphs._columns(g.adj, order), write_graph6(g)
            if g.m + component_count(g) == g.n:
                forests += 1
                assert list(order) == enumeration._forest_ordering(g.n, g.adj)
    assert forests >= 32


def random_ordered_partition(rng, n):
    vertices = list(range(n))
    rng.shuffle(vertices)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    return [sorted(vertices[a:b]) for a, b in zip([0] + cuts, cuts + [n])]


def masks(cells):
    return [sum(1 << v for v in cell) for cell in cells]


def vertex_lists(cells):
    # each cell mask as its increasing vertex list, the oracle's cell form
    return [[v for v in range(cell.bit_length()) if cell >> v & 1] for cell in cells]


def test_refine_matches_reference_on_random_partitions():
    # n up to 16, so cells reach past the first byte of ``_bit_vertices``
    rng = random.Random(23)
    for _ in range(400):
        n = rng.randint(1, 16)
        g = random_graph(rng, n, rng.uniform(0.1, 0.9))
        cells = random_ordered_partition(rng, n)
        expected = reference_refine(g.adj, cells)
        got = enumeration._refine(g.adj, masks(cells), range(len(cells)))
        assert vertex_lists(got) == expected


def test_refine_from_individualized_cells_matches_reference():
    # individualize each member of each non-singleton cell of an equitable
    # partition, queue only {v} and its remainder, and descend the way the
    # canonical search does, from the first non-singleton cell
    def walk(adj, cells):
        steps = 0
        splits = [idx for idx, cell in enumerate(cells) if cell & (cell - 1)]
        for idx in splits:
            cell = cells[idx]
            for v in vertex_lists([cell])[0]:
                split = cells[:idx] + [1 << v, cell ^ (1 << v)] + cells[idx + 1:]
                got = enumeration._refine(adj, split, (idx, idx + 1))
                assert vertex_lists(got) == reference_refine(adj, vertex_lists(split))
                steps += 1
                if idx == splits[0]:
                    steps += walk(adj, got)
        return steps

    steps = 0
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            root = enumeration._refine(g.adj, [(1 << n) - 1], (0,))
            assert vertex_lists(root) == reference_refine(g.adj, [list(range(n))])
            steps += walk(g.adj, root)
    assert steps > 1000


def columns(g):
    # column j of the identity ordering, earliest position most significant
    return tuple(
        sum(((g.adj[j] >> i) & 1) << (j - 1 - i) for i in range(j)) for j in range(g.n)
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 16])
def test_graph6_from_columns_matches_write_graph6(n):
    # _canon_search's columns 1..n-1, concatenated, are the graph6 body, so
    # comparing column tuples compares bodies
    rng = random.Random(24 + n)
    for g in [from_edges(n, []), complete(n)] + [random_graph(rng, n) for _ in range(20)]:
        body = 0
        for j, col in enumerate(columns(g)):
            body = (body << j) | col
        assert graphs._graph6_words(n, [body]) == [write_graph6(g)]
        assert graphs._columns(g.adj, range(n)) == columns(g)


# --- exhaustive generation ------------------------------------------------------


def test_enumeration_counts():
    for n, want in ALL_COUNTS.items():
        assert sum(1 for _ in enumerate_graphs(n)) == want
    for n, want in CONNECTED_COUNTS.items():
        assert sum(1 for _ in enumerate_graphs(n, connected_only=True)) == want


def test_enumeration_matches_labeled_brute_force():
    # class-by-class set equality against permutation dedup, not just counts
    for n in range(1, 6):
        ours = {min_mask(n, edge_mask(g)) for g in enumerate_graphs(n)}
        assert ours == labeled_classes(n)
        ours_c = {min_mask(n, edge_mask(g)) for g in enumerate_graphs(n, connected_only=True)}
        assert ours_c == labeled_classes(n, connected_only=True)


def test_enumeration_emits_canonical_representatives():
    for g in enumerate_graphs(5):
        assert parse_graph6(canonical_form(g)).adj == g.adj


def test_enumeration_is_deterministic():
    a = [write_graph6(g) for g in enumerate_graphs(6)]
    b = [write_graph6(g) for g in enumerate_graphs(6)]
    assert a == b


def test_enumeration_connected_subset():
    conn = {write_graph6(g) for g in enumerate_graphs(5, connected_only=True)}
    alln = {write_graph6(g) for g in enumerate_graphs(5)}
    assert conn < alln
    assert all(is_connected(parse_graph6(w)) for w in conn)


def every_tie_accepted(nc, adjc, parent_cols):
    # the acceptance rule with one deletion search per tied vertex and no
    # orbit pruning
    degs = [a.bit_count() for a in adjc]
    vnew = nc - 1
    inv_new = sorted(degs[u] for u in range(nc) if adjc[vnew] >> u & 1)
    for v in range(vnew):
        if degs[v] > degs[vnew]:
            continue
        inv_v = sorted(degs[u] for u in range(nc) if adjc[v] >> u & 1)
        if inv_v < inv_new:
            return False
        if inv_v == inv_new:
            dcols, _, _ = enumeration._canon_search(nc - 1, enumeration._delete_vertex(adjc, v))
            if dcols < parent_cols:
                return False
    return True


def test_accepted_decides_as_every_tie_search(monkeypatch):
    # every (parent, attachment set) that generation tries up to order 7
    tried = []
    accepted = enumeration._accepted

    def recording(nc, adjc, parent_cols):
        search = accepted(nc, adjc, parent_cols)
        tried.append((nc, adjc, parent_cols, search))
        return search

    monkeypatch.setattr(enumeration, "_accepted", recording)
    assert sum(1 for _ in enumerate_graphs(7)) == ALL_COUNTS[7]
    monkeypatch.undo()
    for nc, adjc, parent_cols, search in tried:
        assert (search is not None) == every_tie_accepted(nc, adjc, parent_cols)
        if search is not None:  # the child's own search, reused by _children
            assert search == enumeration._canon_search(nc, adjc)
    assert len(tried) > 1500 and sum(search is None for *_, search in tried) > 300


def test_attachment_sets_match_reference_on_generation_parents(monkeypatch):
    # every parent generation expands up to order 7, with the automorphisms
    # its search found; the order-7 parents are recorded but not expanded
    parents = []
    children = enumeration._children

    def recording(k, adj, cols, auts, expand, keep):
        parents.append((adj, auts))
        return children(k, adj, cols, auts, expand, keep) if k < 7 else []

    monkeypatch.setattr(enumeration, "_children", recording)
    assert sum(1 for _ in enumerate_graphs(8)) == 0
    monkeypatch.undo()
    assert len(parents) == sum(ALL_COUNTS[k] for k in range(1, 8))
    assert sum(1 for _, auts in parents if auts) > 500
    for adj, auts in parents:
        degs = [row.bit_count() for row in adj]
        assert enumeration._attachment_sets(degs, auts) == reference_attachment_sets(degs, auts)


def random_group(rng, k):
    # a few random permutations of 0..k-1: shuffles, transpositions and
    # short cycles, so the groups range from trivial to transitive
    perms = []
    for _ in range(rng.randint(0, 3)):
        perm = list(range(k))
        kind = rng.randrange(3)
        if kind == 0:
            rng.shuffle(perm)
        elif k > 1:
            cycle_ = rng.sample(range(k), 2 if kind == 1 else rng.randint(2, k))
            for a, b in zip(cycle_, cycle_[1:] + cycle_[:1]):
                perm[a] = b
        perms.append(tuple(perm))
    return perms


def test_attachment_sets_match_reference_on_random_groups():
    # degrees constant on each vertex orbit of the group, as automorphisms
    # keep them; every order up to 10
    rng = random.Random(32)
    cases = 0
    for _ in range(250):
        k = rng.randint(1, 10)
        perms = random_group(rng, k)
        orbit = list(range(k))  # orbit[v]: a representative of v's orbit
        changed = True
        while changed:
            changed = False
            for perm in perms:
                for v in range(k):
                    low = min(orbit[v], orbit[perm[v]])
                    if orbit[v] != low or orbit[perm[v]] != low:
                        orbit[v] = orbit[perm[v]] = low
                        changed = True
        degree = [rng.randrange(k) for _ in range(k)]
        degs = [degree[orbit[v]] for v in range(k)]
        got = enumeration._attachment_sets(degs, perms)
        assert got == reference_attachment_sets(degs, perms)
        cases += any(x.bit_count() == min(degs) + 1 for x in got)
    assert cases > 100


def test_canon_search_count_at_order_8(monkeypatch):
    # one search per child that passes the invariant, plus one deletion search
    # per orbit of tied vertices outside the new vertex's orbit (19205 with a
    # deletion search for every tied vertex and a second search of each
    # accepted child)
    calls = 0
    search = enumeration._canon_search

    def counting(n, adj):
        nonlocal calls
        calls += 1
        return search(n, adj)

    monkeypatch.setattr(enumeration, "_canon_search", counting)
    assert sum(1 for _ in enumerate_graphs(8)) == 12346
    assert calls == 15880


def test_refine_count_at_order_8(monkeypatch):
    # the search nodes of generating every class at n = 8: 71170 when only
    # automorphisms found between leaves pruned, without the twin
    # transpositions known before the search
    calls = 0
    refine = enumeration._refine

    def counting(adj, cells, fresh):
        nonlocal calls
        calls += 1
        return refine(adj, cells, fresh)

    monkeypatch.setattr(enumeration, "_refine", counting)
    assert sum(1 for _ in enumerate_graphs(8)) == 12346
    assert calls == 42687


# --- census ------------------------------------------------------------------


def census_stream(n, workers=1):
    out = []
    for block in census(n, workers=workers):
        assert len(block.rows) <= CENSUS_BLOCK
        rows = map(tuple, block.rows.tolist())
        out.extend(zip(rows, block.connected.tolist(), block.graph6.tolist()))
    return out


@pytest.mark.parametrize("workers", [1, 2])
def test_census_matches_enumeration_stream(workers):
    for n in range(1, 8):
        clear_census()
        want = [(g.adj, is_connected(g), write_graph6(g)) for g in enumerate_graphs(n)]
        assert census_stream(n, workers) == want


def counting_enumerator(monkeypatch):
    # counts walks of the augmentation tree, which census makes itself
    calls = []
    real = enumeration._walk

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(enumeration, "_walk", counted)
    return calls


def test_census_second_call_replays(monkeypatch):
    clear_census()
    calls = counting_enumerator(monkeypatch)
    first = census_stream(7)
    assert census_stream(7) == first
    assert census_stream(7, workers=2) == first
    assert len(calls) == 1
    with pytest.raises(ValueError):
        next(census(7)).rows[0, 0] = 1  # kept blocks are read-only


def test_census_stopped_midstream_keeps_nothing(monkeypatch):
    clear_census()
    calls = counting_enumerator(monkeypatch)
    with pytest.raises(RuntimeError):
        for _ in census(7):
            raise RuntimeError("consumer failed on the first block")
    for _ in census(7):
        break
    assert 7 not in enumeration._CENSUS
    census_stream(7)
    assert len(calls) == 3 and 7 in enumeration._CENSUS


def test_sharded_census_stopped_midstream_keeps_nothing_and_stops_its_pool():
    clear_census()
    with pytest.raises(RuntimeError):
        for _ in census(7, workers=2):
            raise RuntimeError("consumer failed on the first block")
    assert not multiprocessing.active_children()
    for _ in census(7, workers=2):
        break
    assert not multiprocessing.active_children()
    assert enumeration._CENSUS == {}


def block_fields(block):
    # a block byte for byte: length, row dtype, rows, words, both masks
    return (
        len(block.rows),
        block.rows.dtype.str,
        block.rows.tobytes(),
        block.graph6.tolist(),
        block.connected.tobytes(),
        block.edged.tobytes(),
    )


def test_sharded_census_equals_the_serial_census_block_by_block():
    # the shards split the stream at other places than the blocks do
    for n in (7, 8):
        clear_census()
        serial = [block_fields(block) for block in census(n)]
        for workers in (2, 3):
            clear_census()
            assert [block_fields(block) for block in census(n, workers=workers)] == serial


def census_digest():
    # the blocks of orders 2..8, byte for byte: row dtype, rows, connected, words
    digest = hashlib.sha256()
    for n in range(2, 9):
        for block in census(n):
            digest.update(block.rows.dtype.str.encode() + block.rows.tobytes())
            digest.update(block.connected.tobytes())
            digest.update("".join(w + "\n" for w in block.graph6.tolist()).encode("ascii"))
    return digest.hexdigest()[:16]


@pytest.mark.parametrize(
    "orders",
    [range(2, 9), range(8, 1, -1), [3, 5, 7, 4, 8, 2, 6]],
    ids=["ascending", "descending", "shuffled"],
)
def test_census_walks_each_parent_once_in_any_call_order(monkeypatch, orders):
    # each call walks on from the deepest kept order below it, so no parent is
    # expanded twice; the digest was recorded on the code that enumerated each
    # order from K_1 on its own
    expanded = []
    children = enumeration._children

    def recording(k, adj, cols, auts, expand, keep):
        expanded.append(adj)
        return children(k, adj, cols, auts, expand, keep)

    monkeypatch.setattr(enumeration, "_children", recording)
    clear_census()
    for n in orders:
        for _ in census(n):
            pass
    assert len(set(expanded)) == len(expanded) == sum(ALL_COUNTS.values())
    monkeypatch.undo()
    assert sorted(enumeration._CENSUS) == list(range(1, 9))  # the first walk keeps K_1 too
    assert census_digest() == "01781011a6d0e950"


def test_census_blocks_are_read_only_and_replayed():
    clear_census()
    for n in range(1, 8):
        for block in census(n):
            # edged is the one mask of the classes with a density spectrum
            assert np.array_equal(block.edged, block.rows.any(axis=1))
            for arr in (block.rows, block.graph6, block.connected, block.edged):
                assert not arr.flags.writeable
            with pytest.raises(ValueError):
                block.edged[0] = not block.edged[0]
        # a replay hands out the same blocks, with the same arrays
        assert all(a is b for a, b in zip(census(n), census(n)))
        assert all(a.edged is b.edged for a, b in zip(census(n), census(n)))


def test_census_forgets_its_blocks(monkeypatch):
    clear_census()
    kept = list(census(6))
    assert all(a is b for a, b in zip(kept, census(6)))
    clear_census()
    assert all(a is not b for a, b in zip(kept, census(6)))
    # a streamed order keeps none of its blocks
    monkeypatch.setattr(enumeration, "CENSUS_KEPT", 5)
    clear_census()
    first = list(census(6))
    assert all(a is not b for a, b in zip(first, census(6)))
    assert 6 not in enumeration._CENSUS


def test_census_rejects_orders_above_the_bound(monkeypatch):
    # the bound is checked before any walk or enumeration starts
    monkeypatch.setattr(enumeration, "_walk", None)
    monkeypatch.setattr(enumeration, "enumerate_graphs", None)
    with pytest.raises(ValueError, match="at most 10"):
        next(census(enumeration.CENSUS_MAX + 1))


@pytest.mark.parametrize("n", [0, -3])
def test_census_rejects_orders_below_one_and_keeps_nothing(n):
    # a kept empty order below 1 would be the deepest kept order under every
    # later call, and every later walk would start from it and yield nothing
    clear_census()
    with pytest.raises(ValueError, match="graph order must be in 1..64"):
        next(census(n))
    assert enumeration._CENSUS == {}
    assert sum(len(block.rows) for block in census(5)) == 34
    assert sum(len(block.rows) for block in census(6)) == 156


@pytest.mark.parametrize(
    "rows, dtype, why",
    [
        ([[0b100, 0b000], [0, 0]], np.uint8, "references vertices >= n"),
        ([[-1, 0]], np.int8, "references vertices >= n"),
        ([[0b10, 0b01], [0b01, 0b01]], np.uint8, "loop"),
        ([[0b10, 0b00]], np.uint8, "not symmetric"),
    ],
)
def test_census_block_rejects_rows_graph_rejects(rows, dtype, why):
    with pytest.raises(ValueError, match=why):
        enumeration.CensusBlock(np.array(rows, dtype=dtype))


def test_census_block_derives_connected_from_its_rows():
    # relabeled paths need the longest walk from vertex 0; sparse random
    # graphs on up to 10 vertices (uint16 rows) are often disconnected
    rng = random.Random(41)
    for n in range(1, 11):
        graphs_ = [relabeled(rng, n, [(v, v + 1) for v in range(n - 1)]) for _ in range(20)]
        graphs_ += [random_graph(rng, n, rng.uniform(0.05, 0.5)) for _ in range(200)]
        rows = np.array([g.adj for g in graphs_], dtype=np.min_scalar_type((1 << n) - 1))
        block = enumeration.CensusBlock(rows)
        assert block.graph6.tolist() == [write_graph6(g) for g in graphs_]
        assert block.connected.tolist() == [is_connected(g) for g in graphs_]
        assert 0 < sum(block.connected) < len(graphs_) or n == 1


def test_census_streams_orders_above_the_kept_limit(monkeypatch):
    clear_census()
    monkeypatch.setattr(enumeration, "CENSUS_KEPT", 5)
    calls = counting_enumerator(monkeypatch)
    assert census_stream(6) == census_stream(6)
    assert len(calls) == 2 and 6 not in enumeration._CENSUS


def test_census_streams_past_the_kept_limit_from_the_deepest_kept_order(monkeypatch):
    monkeypatch.setattr(enumeration, "CENSUS_KEPT", 5)
    clear_census()
    census_stream(4)
    want = [(g.adj, is_connected(g), write_graph6(g)) for g in enumerate_graphs(7)]
    roots = []
    root = enumeration._root
    monkeypatch.setattr(enumeration, "_root", lambda adj: roots.append(adj) or root(adj))
    assert census_stream(7) == want
    assert len(roots) == ALL_COUNTS[4] and sorted(enumeration._CENSUS) == [1, 2, 3, 4]


# --- trees -----------------------------------------------------------------------


def test_tree_counts():
    for n, want in TREE_COUNTS.items():
        assert sum(1 for _ in enumerate_trees(n)) == want


def test_trees_match_graph_enumerator():
    # the two generators come from unrelated algorithms; their class sets
    # must agree once the graph stream is filtered down to trees
    for n in range(2, 8):
        from_trees = {canonical_form(t) for t in enumerate_trees(n)}
        from_graphs = {
            canonical_form(g)
            for g in enumerate_graphs(n, connected_only=True)
            if g.m == n - 1
        }
        assert from_trees == from_graphs


def test_trees_are_trees():
    for t in enumerate_trees(9):
        assert t.m == t.n - 1
        assert is_connected(t)


@pytest.mark.parametrize("n", range(1, 17))
def test_trees_start_at_the_path_and_end_at_the_star(n):
    # verify_tree_extremes folds in one pass because the path comes first;
    # among trees the sorted degrees single out the path and the star
    trees = enumerate_trees(n)
    first = last = next(trees)
    for last in trees:
        pass
    path_degrees = [1, 1] + [2] * (n - 2) if n > 1 else [0]
    assert sorted(row.bit_count() for row in first.adj) == path_degrees
    assert sorted(row.bit_count() for row in last.adj) == [1] * (n - 1) + [n - 1]


# --- graph6 streams ----------------------------------------------------------------


def test_stream_graph6_roundtrip():
    words = [write_graph6(g) for g in enumerate_graphs(5)]
    text = "\n".join(words) + "\n"
    back = [write_graph6(g) for g in stream_graph6(text.splitlines())]
    assert back == words


def test_stream_graph6_skips_blank_lines():
    lines = ["", "A_", "   ", "C~", ""]
    assert len(list(stream_graph6(lines))) == 2


def test_stream_graph6_strict_raises_with_line_number():
    lines = ["A_", "!!bad!!", "C~"]
    with pytest.raises(Graph6Error, match="line 2"):
        list(stream_graph6(lines))
