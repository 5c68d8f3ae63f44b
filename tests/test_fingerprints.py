"""Byte-for-byte regression fingerprints.

Each value is the first 16 hex digits of a sha256 recorded on the code
before the fold or generation step it guards was rewritten: the enumeration
streams (graph6 word plus newline per class), against which the words the
census blocks derive from their rows are hashed too, and the stdout of every
census-backed CLI command at n = 7 and n = 8, the tree stream for n = 1..16,
the canonical bytes of trees and relabeled graphs (up to n = 16 for random
non-forests), the stdout of tree-extremes at n = 12 and 15, and the stdout of
star-min-S, table1 and renyi-star-min at alpha 2 at n = 9 and 10, which read
the star-test failures from a degree-bounded walk (the n = 9 digests were
recorded on the census scan, the n = 10 ones on the walk, and renyi-star-min's
also on the sharded census scan), and of param-compare at n = 9. A change to
the enumeration order, to the canonical search, to a fold, or to the float
arithmetic behind them moves a digest. The n = 9 stream and param-compare run
only when GEL_STRETCH is 9 or 10. Next to the canonical words, the oracle
packs each ordering the search chose bit by bit, so a word must also be its
ordering's.
"""

import hashlib
import os
import random

import pytest

from graphentropy import enumeration
from graphentropy.cli import main
from graphentropy.enumeration import (
    canonical_form,
    census,
    clear_census,
    enumerate_graphs,
    enumerate_trees,
)
from graphentropy.graphs import component_count, from_edges, is_connected, write_graph6

from _oracles import reference_write_graph6


def digest(text):
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def census_words(n, connected):
    # the census's own graph6 column, which each block derives from its rows
    words = (block.graph6[block.connected] if connected else block.graph6 for block in census(n))
    return "".join(w + "\n" for column in words for w in column.tolist())


@pytest.mark.parametrize(
    "connected, expected", [(False, "7b567b745b1badf2"), (True, "f4f4ab04bd49208d")]
)
def test_enumeration_stream_fingerprint(connected, expected):
    stream = "".join(write_graph6(g) + "\n" for g in enumerate_graphs(7, connected_only=connected))
    assert digest(stream) == expected
    assert digest(census_words(7, connected)) == expected


def test_enumeration_stream_fingerprint_order_8():
    every, connected = hashlib.sha256(), hashlib.sha256()
    for g in enumerate_graphs(8):
        line = (write_graph6(g) + "\n").encode("ascii")
        every.update(line)
        if is_connected(g):
            connected.update(line)
    assert every.hexdigest()[:16] == "b5651e28ae739a5d"
    assert connected.hexdigest()[:16] == "00ef3b6950f5e39e"
    assert digest(census_words(8, False)) == "b5651e28ae739a5d"
    assert digest(census_words(8, True)) == "00ef3b6950f5e39e"


@pytest.mark.skipif(
    os.environ.get("GEL_STRETCH") not in ("9", "10"),
    reason="about a minute of generation; set GEL_STRETCH=9 or 10",
)
def test_enumeration_stream_fingerprint_order_9():
    stream = hashlib.sha256()
    classes = 0
    for g in enumerate_graphs(9):
        stream.update((write_graph6(g) + "\n").encode("ascii"))
        classes += 1
    assert classes == 274668
    assert stream.hexdigest()[:16] == "4e21f6f8d60ae3b6"
    assert digest(census_words(9, False)) == "4e21f6f8d60ae3b6"


def test_canonical_bytes_fingerprint():
    # canonical bytes of every tree on 1..14 vertices, then of every class on
    # 7 vertices under one seeded relabeling
    stream = hashlib.sha256()
    for n in range(1, 15):
        for t in enumerate_trees(n):
            stream.update(canonical_form(t).encode() + b"\n")
    rng = random.Random(7)
    for g in enumerate_graphs(7):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        stream.update(canonical_form(h).encode() + b"\n")
    assert stream.hexdigest()[:16] == "5857c05b52e4c836"


def relabeled_non_forests():
    # seeded random non-forest graphs on 9..16 vertices, each relabeled:
    # vertex masks reach past 256, and every other graph is two copies of one
    # random graph (plus an isolated vertex at odd n), so the full search also
    # meets automorphisms there
    rng = random.Random(13)
    for n in range(9, 17):
        for i in range(24):
            p = rng.uniform(0.1, 0.9)
            if i % 2:
                k = n // 2
                edges = [(u, v) for u in range(k) for v in range(u + 1, k) if rng.random() < p]
                edges += [(u + k, v + k) for u, v in edges]
            else:
                edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            perm = list(range(n))
            rng.shuffle(perm)
            g = from_edges(n, [(perm[u], perm[v]) for u, v in edges])
            if g.m + component_count(g) != g.n:
                yield g


def test_canonical_words_fingerprint_above_order_8():
    stream = hashlib.sha256()
    words = 0
    for g in relabeled_non_forests():
        stream.update(canonical_form(g).encode() + b"\n")
        words += 1
    assert words > 150
    assert stream.hexdigest()[:16] == "5b2caba2e72a4361"


def test_canonical_form_is_the_reference_packing_of_its_ordering(monkeypatch):
    # the word is the graph relabeled by the ordering the search chose,
    # packed one bit at a time by the oracle: every tree on up to 16 vertices
    # (the forest path) and the non-forests above (the full search)
    orders = []
    forest, search = enumeration._forest_ordering, enumeration._canon_search

    def forest_recording(n, adj):
        orders.append(forest(n, adj))
        return orders[-1]

    def search_recording(n, adj):
        found = search(n, adj)
        orders.append(found[1])
        return found

    monkeypatch.setattr(enumeration, "_forest_ordering", forest_recording)
    monkeypatch.setattr(enumeration, "_canon_search", search_recording)
    graphs = [t for n in range(1, 17) for t in enumerate_trees(n)]
    graphs += relabeled_non_forests()
    for g in graphs:
        word = canonical_form(g)
        assert word == reference_write_graph6(g, orders[-1])
    assert len(orders) == len(graphs) > 32000


def test_tree_stream_fingerprint():
    # labeled trees in generation order: tree-extremes reports ties and
    # witnesses in this order, so its stdout depends on it
    stream = "".join(write_graph6(t) + "\n" for n in range(1, 17) for t in enumerate_trees(n))
    assert digest(stream) == "47e38e8cbb05621b"


@pytest.mark.parametrize(
    "argv, expected",
    [
        ("verify star-min-S --n 7", "dd6fb32b7d665a13"),
        ("verify renyi-star-min --n 7 --alpha 1.5", "501e4c91ec3a3a1f"),
        ("verify renyi-star-min --n 7 --alpha 2", "a786770fc7f59c23"),
        ("verify renyi-star-min --n 8 --alpha 2", "4175d2c6587c3634"),
        ("verify renyi-star-min --n 9 --alpha 2", "ac4a3c3931c45d11"),
        ("verify renyi-star-min --n 9 --alpha 2 --threads 2", "ac4a3c3931c45d11"),
        ("verify renyi-star-min --n 10 --alpha 2", "6490ecfc2963b0e1"),
        ("verify renyi-star-min --n 8 --alpha 1.5", "624ee89f9e2e7e33"),
        ("verify renyi-max --n 7 --alpha 3", "7d90771865ac78fe"),
        ("verify renyi-max --n 8 --alpha 3", "4c52f5ab083106c3"),
        ("verify renyi-max --n 5 --alpha inf", "f6323e3a3be702ec"),
        ("verify coentropy --n 7", "5ab8b2b9266c8aee"),
        ("verify coentropy --n 8", "08d0f119e2e55fe1"),  # n = 7 has no group
        ("verify param-compare --n 7 --param matching", "eb5633493113a9c7"),
        ("verify param-compare --n 7 --param diameter", "d2b7d7a41f112761"),
        ("verify param-compare --n 7 --param max_degree", "218fbd1718986613"),
        ("verify param-compare --n 7 --param matching --threads 2", "eb5633493113a9c7"),
        ("verify param-compare --n 7 --param diameter --threads 2", "d2b7d7a41f112761"),
        ("verify param-compare --n 7 --param max_degree --threads 2", "218fbd1718986613"),
        ("verify param-compare --n 8 --param diameter --threads 2", "e3f35bbd69c292b5"),
        ("verify star-min-S --n 8", "c3c1b713d70c37d6"),
        ("verify star-min-S --n 9", "446907f9ca7dd923"),
        ("verify star-min-S --n 9 --threads 2", "446907f9ca7dd923"),
        ("verify star-min-S --n 10", "cff54643dd3990f3"),
        ("verify density-implies-star --n 7", "b37ce65e3f01b06b"),
        ("verify density-implies-star --n 8", "5bc5f297976b397b"),
        ("verify edge-add-decrease --n 7", "59994cbf85a9bdba"),
        ("table1 --n 2..7", "28ca38400e1d8b2f"),
        ("table1 --n 2..8", "2817e134d530943d"),
        ("table1 --n 9..9", "e0c70c495e4e97b7"),
        ("table1 --n 10..10", "f90f6b6d4322ece4"),
        ("verify tree-extremes --n 12", "61391221a06dc97d"),
        ("verify tree-extremes --n 12 --entropy H2", "7b85df74914ab011"),
        ("verify tree-extremes --n 15", "0efaa4f22eb59990"),
        ("verify tree-extremes --n 15 --entropy H2", "8998870285c8e5a7"),
    ],
)
def test_cli_stdout_fingerprint(capsys, argv, expected):
    if "--threads" in argv:
        clear_census()  # so the census is sharded, not replayed
    main(argv.split())
    assert digest(capsys.readouterr().out) == expected


@pytest.mark.skipif(
    os.environ.get("GEL_STRETCH") not in ("9", "10"),
    reason="15-30 s of generation per run; set GEL_STRETCH=9 or 10",
)
@pytest.mark.parametrize("threads", ["1", "2"])
def test_param_compare_fingerprint_order_9(capsys, threads):
    clear_census()  # one walk, or the sharded one, not a replay
    main(["verify", "param-compare", "--n", "9", "--param", "max_degree", "--threads", threads])
    assert digest(capsys.readouterr().out) == "c223bbcff3d50aea"
    clear_census()  # the order-9 census is not kept for the tests after
