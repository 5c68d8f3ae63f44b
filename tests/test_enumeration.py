import random

import pytest

from graphentropy import enumeration, graphs
from graphentropy.enumeration import (
    CENSUS_BLOCK,
    CanonicalForm,
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

from _oracles import edge_mask, labeled_classes, min_mask, reference_refine

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
        rep = canonical_form(g).graph()
        assert min_mask(n, edge_mask(rep)) == min_mask(n, edge_mask(g))


def test_canonical_form_separates_classes():
    # all classes at one order get pairwise distinct canonical bytes
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


def test_canonical_form_order_guard():
    with pytest.raises(ValueError):
        canonical_form(complete(17))


def test_canonical_form_is_ordered_bytes():
    a = canonical_form(path(4))
    b = canonical_form(star(4))
    assert isinstance(a, CanonicalForm) and isinstance(a.bytes, bytes)
    assert (a < b) != (b < a)


def search_bytes(g):
    # the smallest leaf of the full search, packed from its columns
    cols, _, _ = enumeration._canon_search(g.n, g.adj)
    body = 0
    for j in range(1, g.n):
        body = (body << j) | cols[j]
    return graphs._graph6_bytes(g.n, body)


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
            assert canonical_form(t).bytes == search_bytes(t)
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
        assert canonical_form(g).bytes == search_bytes(g)


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


def random_ordered_partition(rng, n):
    vertices = list(range(n))
    rng.shuffle(vertices)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    return [sorted(vertices[a:b]) for a, b in zip([0] + cuts, cuts + [n])]


def test_refine_matches_reference_on_random_partitions():
    rng = random.Random(23)
    for _ in range(400):
        n = rng.randint(1, 14)
        g = random_graph(rng, n, rng.uniform(0.1, 0.9))
        cells = random_ordered_partition(rng, n)
        expected = reference_refine(g.adj, cells)
        assert enumeration._refine(g.adj, cells, range(len(cells))) == expected


def test_refine_from_individualized_cells_matches_reference():
    # individualize each member of each non-singleton cell of an equitable
    # partition, queue only {v} and its remainder, and descend the way the
    # canonical search does, from the first non-singleton cell
    def walk(adj, cells):
        steps = 0
        splits = [idx for idx, cell in enumerate(cells) if len(cell) > 1]
        for idx in splits:
            cell = cells[idx]
            for v in cell:
                split = cells[:idx] + [[v], [u for u in cell if u != v]] + cells[idx + 1:]
                got = enumeration._refine(adj, split, (idx, idx + 1))
                assert got == reference_refine(adj, split)
                steps += 1
                if idx == splits[0]:
                    steps += walk(adj, got)
        return steps

    steps = 0
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            root = enumeration._refine(g.adj, [list(range(n))], (0,))
            assert root == reference_refine(g.adj, [list(range(n))])
            steps += walk(g.adj, root)
    assert steps > 1000


def columns(g):
    # column j of the identity ordering, earliest position most significant
    return tuple(
        sum(((g.adj[j] >> i) & 1) << (j - 1 - i) for i in range(j)) for j in range(g.n)
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 16])
def test_graph6_from_columns_matches_write_graph6(n):
    # canonical_form packs its columns 1..n-1 concatenated as the body
    rng = random.Random(24 + n)
    for g in [from_edges(n, []), complete(n)] + [random_graph(rng, n) for _ in range(20)]:
        body = 0
        for j, col in enumerate(columns(g)):
            body = (body << j) | col
        assert graphs._graph6_bytes(n, body) == write_graph6(g).encode("ascii")


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
        assert canonical_form(g).graph().adj == g.adj


def test_enumeration_is_deterministic():
    a = [write_graph6(g) for g in enumerate_graphs(6)]
    b = [write_graph6(g) for g in enumerate_graphs(6)]
    assert a == b


def test_enumeration_parallel_order_matches_sequential():
    seq = [write_graph6(g) for g in enumerate_graphs(6)]
    par = [write_graph6(g) for g in enumerate_graphs(6, workers=2)]
    assert seq == par
    seq_c = [write_graph6(g) for g in enumerate_graphs(7, connected_only=True)]
    par_c = [write_graph6(g) for g in enumerate_graphs(7, connected_only=True, workers=3)]
    assert seq_c == par_c


def test_enumeration_connected_subset():
    conn = {write_graph6(g) for g in enumerate_graphs(5, connected_only=True)}
    alln = {write_graph6(g) for g in enumerate_graphs(5)}
    assert conn < alln
    assert all(is_connected(parse_graph6(w)) for w in conn)


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
    calls = []
    real = enumeration.enumerate_graphs

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(enumeration, "enumerate_graphs", counted)
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


def test_census_rejects_orders_above_the_bound(monkeypatch):
    # the bound is checked before enumerate_graphs is even called
    monkeypatch.setattr(enumeration, "enumerate_graphs", None)
    with pytest.raises(ValueError, match="at most 10"):
        next(census(enumeration.CENSUS_MAX + 1))


def test_census_streams_orders_above_the_kept_limit(monkeypatch):
    clear_census()
    monkeypatch.setattr(enumeration, "CENSUS_KEPT", 5)
    calls = counting_enumerator(monkeypatch)
    assert census_stream(6) == census_stream(6)
    assert len(calls) == 2 and 6 not in enumeration._CENSUS


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
