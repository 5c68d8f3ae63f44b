import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from graphentropy.graphs import (
    DegreeSequence,
    Graph,
    Graph6Error,
    add_edge,
    add_edges,
    complete,
    complete_bipartite,
    component_count,
    cycle,
    degree_sequence,
    diameter,
    disjoint_union,
    empty_graph,
    from_edges,
    is_connected,
    laplacian,
    matching_number,
    max_degree,
    parse_graph6,
    path,
    star,
    write_graph6,
    _bit_vertices,
    _columns,
    _graph6_bodies,
    _graph6_words,
    _row_bits,
    _rows,
)
from graphentropy.entropy import tr2
from graphentropy.enumeration import CANON_MAX, canonical_form, enumerate_graphs

from _oracles import (
    brute_matching,
    edge_mask,
    min_mask,
    reference_graph_check,
    reference_graph6_rows,
    reference_laplacian,
    reference_relabel,
    reference_write_graph6,
)


def random_graph(rng, n, p=0.5):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return from_edges(n, edges)


# --- construction and invariants -------------------------------------------


def test_construction_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Graph(0, ())
    with pytest.raises(ValueError):
        Graph(65, (0,) * 65)
    with pytest.raises(ValueError):
        Graph(2, (0,))  # wrong adjacency length
    with pytest.raises(ValueError):
        Graph(2, (1, 0))  # loop at vertex 0
    with pytest.raises(ValueError):
        Graph(2, (2, 0))  # asymmetric
    with pytest.raises(ValueError):
        Graph(2, (4, 0))  # out-of-range neighbor bit
    with pytest.raises(TypeError):
        Graph(2, (2, 1), 1)  # the edge count is derived, never passed
    for v in (8, 63):  # past the first byte of a row: vertex 0 lists v, v not 0
        with pytest.raises(ValueError, match="asymmetric"):
            Graph(v + 1, (1 << v,) + (0,) * v)


def _faults(rng, n, adj):
    """One copy of ``adj`` per kind of fault, each at a random vertex: a
    missing back bit, a loop, a bit at column n, a bit at the top column of
    the packed width W, a negative row, and a row of W bits or more."""
    w = max(8, 1 << (n - 1).bit_length())
    u = rng.randrange(n)
    out = []
    edges = [(a, b) for a in range(n) for b in range(n) if adj[a] >> b & 1]
    if edges:
        a, b = rng.choice(edges)
        out.append({b: adj[b] & ~(1 << a)})
    out.append({u: adj[u] | 1 << u})
    out.append({u: adj[u] | 1 << n})
    out.append({u: adj[u] | 1 << (w - 1)})
    out.append({u: -1 - adj[u]})
    out.append({u: adj[u] | 1 << (w + rng.randrange(8))})
    return [[change.get(v, row) for v, row in enumerate(adj)] for change in out]


@pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64])
def test_validity_matches_reference_walk(n):
    rng = random.Random(n)
    for trial in range(12):
        p = trial / 11  # from edgeless to complete
        adj = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
        assert reference_graph_check(n, adj) is None
        assert Graph(n, tuple(adj)).m == sum(row.bit_count() for row in adj) // 2
        faulty = _faults(rng, n, adj)
        # two faults at once: the walk's first one is named
        faulty.append([a if rng.random() < 0.5 else b for a, b in zip(*rng.sample(faulty, 2))])
        for rows in faulty:
            want = reference_graph_check(n, rows)
            if want is None:  # the top column is a vertex at n = W and may be mirrored
                assert Graph(n, tuple(rows)).m == sum(row.bit_count() for row in rows) // 2
                continue
            with pytest.raises(ValueError) as info:
                Graph(n, tuple(rows))
            assert str(info.value) == want


@pytest.mark.parametrize("n", [8, 16, 17])
def test_numpy_integer_rows_are_stored_as_python_ints(n):
    assert write_graph6(Graph(8, tuple(np.array(complete(8).adj, dtype=np.uint8)))) == "G~~~~{"
    rng = random.Random(70 + n)
    for dtype in (np.uint8, np.uint16, np.uint64):
        k = min(n, np.iinfo(dtype).bits)  # edges among the first k vertices fit the dtype
        for part in (random_graph(rng, k, 0.9), random_graph(rng, k, 0.4)):
            g = disjoint_union([part, empty_graph(n - k)]) if k < n else part
            h = Graph(n, tuple(np.array(g.adj, dtype=dtype)))
            assert h == g and all(type(row) is int for row in h.adj)
            assert write_graph6(h) == write_graph6(g)
            assert component_count(h) == component_count(g)
            assert laplacian(h).tolist() == laplacian(g).tolist()
            if is_connected(g):
                assert diameter(h) == diameter(g)
            if n <= CANON_MAX:
                assert canonical_form(h) == canonical_form(g)
        with pytest.raises(ValueError, match="asymmetric adjacency between 0 and 1"):
            Graph(n, tuple(np.array([2] + [0] * (n - 1), dtype=dtype)))
    for rows in ((2.0, 1.0), (np.float64(2), np.float64(1))):
        with pytest.raises(TypeError):
            Graph(2, rows)


def test_bit_vertices_matches_bit_tests():
    # every mask below 2^10, both sides of each byte boundary below 2^64,
    # every single bit, and random masks of every length up to 64 bits
    rng = random.Random(11)
    boundaries = [m for k in range(1, 8) for m in ((1 << (8 * k)) - 1, 1 << (8 * k))]
    randoms = [rng.getrandbits(rng.randint(1, 64)) for _ in range(2000)]
    for mask in [*range(1 << 10), *boundaries, *(1 << v for v in range(64)), *randoms]:
        assert _bit_vertices(mask) == tuple(v for v in range(64) if mask >> v & 1)
    assert _bit_vertices((1 << 64) - 1) == tuple(range(64))


def test_derived_counts_match_independent_sums():
    rng = random.Random(11)
    for n in list(range(1, 9)) + [16, 31, 63, 64]:
        for p in (0.0, 0.3, 0.7, 1.0):
            g = random_graph(rng, n, p)
            edges = g.edges()
            assert Graph(g.n, g.adj).m == len(edges)
            degs = [0] * n
            for u, v in edges:
                degs[u] += 1
                degs[v] += 1
            d = degree_sequence(g)
            assert d.degrees == tuple(degs)
            assert d.d_sum == 2 * len(edges)
            assert d.d_sq_sum == sum(x * x for x in degs)


def test_from_edges_validation():
    with pytest.raises(ValueError):
        from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        from_edges(3, [(0, 3)])
    g = from_edges(3, [(0, 1), (1, 2)])
    assert g.m == 2 and g.edges() == [(0, 1), (1, 2)]


def test_families():
    assert complete(5).m == 10
    assert star(6).m == 5 and max_degree(star(6)) == 5
    assert path(6).m == 5 and max_degree(path(6)) == 2
    assert cycle(5).m == 5
    assert complete_bipartite(2, 3).m == 6
    assert empty_graph(4).m == 0
    with pytest.raises(ValueError):
        star(1)
    with pytest.raises(ValueError):
        path(1)
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        complete_bipartite(0, 3)


def test_add_edge():
    g = path(3)
    h = add_edge(g, 0, 2)
    assert h.m == 3 and g.m == 2  # original untouched
    with pytest.raises(ValueError):
        add_edge(h, 0, 2)
    with pytest.raises(ValueError):
        add_edge(g, 1, 1)
    both = add_edges(empty_graph(3), [(0, 1), (1, 2)])
    assert both.edges() == path(3).edges()
    with pytest.raises(ValueError):
        add_edges(empty_graph(3), [(0, 1), (0, 1)])


def test_disjoint_union():
    g = disjoint_union([complete(2), empty_graph(3)])
    assert g.n == 5 and g.m == 1 and g.edges() == [(0, 1)]
    g2 = disjoint_union([path(3), path(3)])
    assert g2.n == 6 and g2.m == 4 and g2.edges() == [(0, 1), (1, 2), (3, 4), (4, 5)]
    with pytest.raises(ValueError):
        disjoint_union([])
    with pytest.raises(ValueError):
        disjoint_union([complete(40), complete(30)])


def test_degree_sequence():
    d = degree_sequence(star(5))
    assert d.degrees == (4, 1, 1, 1, 1)
    assert d.d_sum == 8 and d.d_sq_sum == 20
    direct = DegreeSequence((3, 1, 2))
    assert direct.d_sum == 6 and direct.d_sq_sum == 14
    with pytest.raises(ValueError):
        DegreeSequence(())
    with pytest.raises(ValueError):
        DegreeSequence((1, -1))


def test_degree_sequence_stores_python_ints_with_an_even_sum():
    # a float is no degree, numpy ints are widened before the sums, and the
    # handshake lemma rules out an odd sum
    with pytest.raises(TypeError):
        DegreeSequence((1.5, 0.5))
    wide = DegreeSequence(tuple(np.array([200, 200], dtype=np.uint8)))
    assert wide.degrees == (200, 200) and all(type(d) is int for d in wide.degrees)
    assert wide.d_sum == 400 and wide.d_sq_sum == 80000
    assert tr2(wide) == Fraction(80400, 400 * 400)
    with pytest.raises(ValueError, match="even"):
        DegreeSequence((1, 0))
    with pytest.raises(ValueError, match="even"):
        DegreeSequence((3, 2, 2))


def test_laplacian():
    lap = laplacian(path(3))
    assert lap.tolist() == [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]
    assert lap.dtype == np.int64
    g = random_graph(random.Random(7), 9)
    lp = laplacian(g)
    assert (lp == lp.T).all()
    assert lp.sum() == 0
    assert np.diag(lp).sum() == 2 * g.m


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 15, 16, 17, 63, 64])
def test_laplacian_matches_reference(n):
    rng = random.Random(n)
    for g in (empty_graph(n), complete(n), random_graph(rng, n)):
        lap = laplacian(g)
        assert lap.dtype == np.int64 and lap.shape == (n, n) and lap.flags.c_contiguous
        assert lap.tolist() == reference_laplacian(g)


# --- structural queries -----------------------------------------------------


def test_connectivity():
    assert is_connected(path(7))
    assert not is_connected(disjoint_union([path(3), path(2)]))
    assert component_count(disjoint_union([path(3), complete(2), empty_graph(2)])) == 4
    assert component_count(complete(1)) == 1


def test_diameter():
    assert diameter(path(7)) == 6
    assert diameter(cycle(6)) == 3
    assert diameter(complete(5)) == 1
    assert diameter(star(9)) == 2
    assert diameter(complete(1)) == 0
    with pytest.raises(ValueError):
        diameter(disjoint_union([path(2), path(2)]))


def test_matching_number_known():
    assert matching_number(path(6)) == 3
    assert matching_number(path(7)) == 3
    assert matching_number(star(9)) == 1
    assert matching_number(complete_bipartite(2, 4)) == 2
    assert matching_number(complete(7)) == 3
    assert matching_number(empty_graph(5)) == 0


def test_matching_number_against_brute_force():
    rng = random.Random(42)
    for _ in range(40):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, rng.uniform(0.2, 0.8))
        assert matching_number(g) == brute_matching(g)


def test_matching_number_guard():
    with pytest.raises(ValueError):
        matching_number(empty_graph(21))


# --- graph6 codec ------------------------------------------------------------


def test_graph6_known_words():
    assert write_graph6(complete(2)) == "A_"
    assert write_graph6(empty_graph(2)) == "A?"
    assert write_graph6(complete(4)) == "C~"
    assert parse_graph6("A_").edges() == [(0, 1)]
    assert parse_graph6("C~").m == 6
    # P3 with center last: bits x(0,1)=0 x(0,2)=1 x(1,2)=1 -> 011000 -> 'W'
    assert parse_graph6("BW").edges() == [(0, 2), (1, 2)]


def test_graph6_header_and_whitespace():
    assert parse_graph6(">>graph6<<A_\n").m == 1
    assert parse_graph6("  C~  ").m == 6


def test_graph6_roundtrip_random():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 14)
        g = random_graph(rng, n, rng.uniform(0.1, 0.9))
        back = parse_graph6(write_graph6(g))
        assert back.n == g.n and back.adj == g.adj


def test_stacked_graph6_bodies_match_the_reference_words():
    # census blocks pack their words this way, all of a block's in one
    # encoder call; bodies pass 64 bits from n = 12 on, and must not wrap at
    # any order a block of rows can hold
    rng = random.Random(17)
    for n in list(range(1, 17)) + [33, 62, 63, 64]:
        graphs_ = [random_graph(rng, n, rng.uniform(0.05, 0.95)) for _ in range(24)]
        graphs_ += [empty_graph(n), complete(n)]
        rows = np.array([g.adj for g in graphs_], dtype=np.min_scalar_type((1 << n) - 1))
        words = _graph6_words(n, _graph6_bodies(_row_bits(rows)))
        assert words == [reference_write_graph6(g) for g in graphs_]
    for n in (1, 2, 9, 12, 16):  # an empty block
        empty = np.zeros((0, n), dtype=np.min_scalar_type((1 << n) - 1))
        assert _graph6_words(n, _graph6_bodies(_row_bits(empty))) == []


def test_graph6_large_orders():
    # 62 takes the 1-byte size form, 63 and 64 the 4-byte one
    rng = random.Random(11)
    for n in (62, 63, 64):
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.05]
        for g in (from_edges(n, edges), empty_graph(n), complete(n)):
            word = write_graph6(g)
            assert word.startswith("~") == (n >= 63)
            back = parse_graph6(word)
            assert back.adj == g.adj and write_graph6(back) == word


def test_columns_and_rows_match_the_reference_relabeling():
    # _rows inverts _columns: the rows it reads back are the graph relabeled
    # by the ordering, and packed, the columns are the reference word
    rng = random.Random(27)
    for n in list(range(1, 17)) + [63, 64]:
        for g in [empty_graph(n), complete(n)] + [random_graph(rng, n) for _ in range(6)]:
            order = list(range(n))
            rng.shuffle(order)
            cols = _columns(g.adj, order)
            assert _rows(cols) == reference_relabel(g.adj, order)
            assert [c >> j for j, c in enumerate(cols)] == [0] * n  # column j has j bits
            assert write_graph6(Graph(n, _rows(cols))) == reference_write_graph6(g, order)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 16, 62, 63, 64])
def test_write_graph6_matches_bitwise_reference(n):
    # 63 and 64 take the 4-byte size form
    rng = random.Random(40 + n)
    for g in [empty_graph(n), complete(n)] + [random_graph(rng, n) for _ in range(10)]:
        assert write_graph6(g) == reference_write_graph6(g)


def test_parse_graph6_matches_bitwise_reference():
    # every class at n <= 7, seeded random graphs at both size forms, and
    # each of those words once with each of its padding bits set
    rng = random.Random(16)
    words = [write_graph6(g) for n in range(1, 8) for g in enumerate_graphs(n)]
    for n in (9, 16, 17, 33, 62, 63, 64):
        words += [write_graph6(random_graph(rng, n, rng.random())) for _ in range(10)]
    padded = []
    for word in words:
        n = len(reference_graph6_rows(word))
        for bit in range(-(n * (n - 1) // 2) % 6):
            padded.append(word[:-1] + chr(63 + ((ord(word[-1]) - 63) | 1 << bit)))
    assert len(padded) > 1000
    for word in words:
        assert parse_graph6(word).adj == reference_graph6_rows(word)
    for word in padded:
        with pytest.raises(ValueError) as want:
            reference_graph6_rows(word)
        with pytest.raises(Graph6Error) as got:
            parse_graph6(word)
        assert str(got.value) == str(want.value)


def test_graph6_errors_name_offsets():
    with pytest.raises(Graph6Error, match="byte 0"):
        parse_graph6("")
    with pytest.raises(Graph6Error, match="byte 1"):
        parse_graph6("B\x1f?")  # out-of-range second byte
    with pytest.raises(Graph6Error, match="trailing garbage"):
        parse_graph6("A_?")
    with pytest.raises(Graph6Error, match="truncated"):
        parse_graph6("D?")
    with pytest.raises(Graph6Error, match="padding"):
        # order 2 needs 1 bit; set a padding bit: chunk 000001 -> '@'
        parse_graph6("A@")
    with pytest.raises(Graph6Error, match="exceeds"):
        parse_graph6("~?@~" + "?" * 100)  # order 127 > 64
    with pytest.raises(Graph6Error, match="byte 12"):
        parse_graph6(">>graph6<<A_?")  # offset counts the header


def test_graph6_rejects_order_above_64():
    big = "~?B?" + "?" * 100  # 4-byte size form, order 129
    with pytest.raises(Graph6Error):
        parse_graph6(big)


# --- cross-checks against the labeled oracle --------------------------------


def test_edges_and_non_edges_partition_pairs():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 9)
        g = random_graph(rng, n)
        pairs = {(i, j) for i in range(n) for j in range(i + 1, n)}
        assert set(g.edges()) | set(g.non_edges()) == pairs
        assert not set(g.edges()) & set(g.non_edges())


def test_min_mask_is_relabeling_invariant():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(2, 6)
        g = random_graph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        h = from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert min_mask(n, edge_mask(g)) == min_mask(n, edge_mask(h))


@pytest.mark.parametrize(
    "family",
    [star, path, cycle, lambda n: complete_bipartite(n // 2, n // 2)],
    ids=["star", "path", "cycle", "complete_bipartite"],
)
def test_families_check_the_order_before_listing_edges(family):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="graph order"):
            family(10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
