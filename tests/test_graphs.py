import random
import tracemalloc

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
)

from _oracles import brute_matching, edge_mask, min_mask, reference_write_graph6


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
    assert g.m == 2 and g.has_edge(1, 0) and not g.has_edge(0, 2)


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
    assert g.n == 5 and g.m == 1 and g.has_edge(0, 1)
    g2 = disjoint_union([path(3), path(3)])
    assert g2.n == 6 and g2.m == 4 and g2.has_edge(3, 4) and not g2.has_edge(2, 3)
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


def test_laplacian():
    lap = laplacian(path(3))
    assert lap.tolist() == [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]
    assert lap.dtype == np.int64
    g = random_graph(random.Random(7), 9)
    lp = laplacian(g)
    assert (lp == lp.T).all()
    assert lp.sum() == 0
    assert np.diag(lp).sum() == 2 * g.m


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


def test_graph6_large_orders():
    rng = random.Random(11)
    for n in (62, 63, 64):
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.05]
        g = from_edges(n, edges)
        word = write_graph6(g)
        if n >= 63:
            assert word.startswith("~")
        back = parse_graph6(word)
        assert back.adj == g.adj


@pytest.mark.parametrize("n", [1, 2, 3, 4, 16, 62, 63, 64])
def test_write_graph6_matches_bitwise_reference(n):
    # 63 and 64 take the 4-byte size form
    rng = random.Random(40 + n)
    for g in [empty_graph(n), complete(n)] + [random_graph(rng, n) for _ in range(10)]:
        assert write_graph6(g) == reference_write_graph6(g)


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
