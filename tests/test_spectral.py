import itertools
import math
import random

import numpy as np
import pytest

from graphentropy.graphs import (
    complete,
    complete_bipartite,
    component_count,
    disjoint_union,
    empty_graph,
    from_edges,
    laplacian,
    parse_graph6,
    path,
    star,
)
from graphentropy.enumeration import census, enumerate_trees
from graphentropy.spectral import (
    DEFAULT_TOL,
    Spectrum,
    density_spectra,
    density_spectrum,
    eigenvalues_symmetric,
)
from graphentropy.verify import TREE_BLOCK


def random_graph(rng, n, p=0.5):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return from_edges(n, edges)


def test_eigenvalues_descending_and_trace():
    rng = random.Random(1)
    for _ in range(25):
        n = rng.randint(1, 12)
        a = np.array([[rng.gauss(0, 1) for _ in range(n)] for _ in range(n)])
        a = a + a.T
        w = eigenvalues_symmetric(a)
        assert all(w[i] >= w[i + 1] for i in range(len(w) - 1))
        assert abs(sum(w) - np.trace(a)) < 1e-9 * max(1.0, abs(np.trace(a)))


def test_eigenvalues_known_exact():
    # diagonal matrices are their own spectra
    w = eigenvalues_symmetric(np.diag([3.0, -1.0, 2.0]))
    assert w == [3.0, 2.0, -1.0]
    # L(K_n) has eigenvalues {n^(n-1), 0}
    for n in (2, 5, 9):
        w = eigenvalues_symmetric(laplacian(complete(n)))
        assert max(abs(x - n) for x in w[: n - 1]) < 1e-12 * n
        assert abs(w[-1]) < 1e-12 * n
    # L(K_{a,b}) has eigenvalues {a+b, b^(a-1), a^(b-1), 0}
    for a, b in ((2, 3), (3, 4), (1, 7)):
        w = eigenvalues_symmetric(laplacian(complete_bipartite(a, b)))
        expect = sorted([a + b] + [b] * (a - 1) + [a] * (b - 1) + [0], reverse=True)
        assert max(abs(x - y) for x, y in zip(w, expect)) < 1e-12 * (a + b)


def test_eigenvalues_path4_golden():
    # L(P4) spectrum: 2 + sqrt2, 2, 2 - sqrt2, 0
    w = eigenvalues_symmetric(laplacian(path(4)))
    expect = [2 + math.sqrt(2), 2.0, 2 - math.sqrt(2), 0.0]
    assert max(abs(x - y) for x, y in zip(w, expect)) < 1e-12


def test_eigenvalues_rejects_bad_input():
    with pytest.raises(ValueError):
        eigenvalues_symmetric(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        eigenvalues_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        eigenvalues_symmetric(np.zeros((0, 0)))


def test_density_spectrum_is_distribution():
    rng = random.Random(2)
    seen = 0
    while seen < 30:
        n = rng.randint(2, 12)
        g = random_graph(rng, n, rng.uniform(0.2, 0.9))
        if g.m == 0:
            continue
        seen += 1
        spec = density_spectrum(g)
        assert isinstance(spec, Spectrum)
        vals = spec.values
        assert all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1))
        assert all(x >= 0.0 for x in vals)
        assert abs(math.fsum(vals) - 1.0) < n * DEFAULT_TOL
        assert vals[-1] == 0.0


def test_density_spectrum_zero_multiplicity_counts_components():
    rng = random.Random(3)
    for _ in range(20):
        parts = [random_graph(rng, rng.randint(2, 5), 0.8) for _ in range(rng.randint(1, 3))]
        g = disjoint_union(parts)
        if g.m == 0:
            continue
        zeros = sum(1 for x in density_spectrum(g).values if x == 0.0)
        assert zeros == component_count(g)


def test_density_spectrum_exact_cases():
    # K2 plus isolated vertices: spectrum exactly {1, 0, ..., 0}
    for n in (2, 5, 12, 30):
        g = complete(2) if n == 2 else disjoint_union([complete(2), empty_graph(n - 2)])
        vals = density_spectrum(g).values
        assert vals[0] == 1.0
        assert all(x == 0.0 for x in vals[1:])
    # K_{1,3}: L spectrum {4, 1, 1, 0}, d = 6
    vals = density_spectrum(star(4)).values
    expect = (4 / 6, 1 / 6, 1 / 6, 0.0)
    assert max(abs(x - y) for x, y in zip(vals, expect)) < 1e-14


def test_density_spectrum_rejects_edgeless():
    with pytest.raises(ValueError):
        density_spectrum(empty_graph(3))


def test_density_spectra_bit_identical_to_per_graph_path():
    for n in range(2, 8):
        for block in census(n):
            edged = block.rows.any(axis=1)
            stacked = density_spectra(block.rows[edged]).tolist()
            words = block.graph6[edged].tolist()
            assert len(stacked) == len(words)
            for vals, word in zip(stacked, words):
                assert tuple(vals) == density_spectrum(parse_graph6(word)).values
    # the tree scan's first block at n = 13..16, stacked as it stacks them
    for n in range(13, 17):
        trees = list(itertools.islice(enumerate_trees(n), TREE_BLOCK))
        stacked = density_spectra(np.array([t.adj for t in trees], dtype=np.uint16)).tolist()
        for vals, t in zip(stacked, trees):
            assert tuple(vals) == density_spectrum(t).values


def test_density_spectra_rejects_edgeless_row():
    rows = np.array([[2, 1, 0], [0, 0, 0]], dtype=np.uint8)  # K2 + K1, then empty
    with pytest.raises(ValueError):
        density_spectra(rows)
    assert density_spectra(rows[:1]).tolist() == [[1.0, 0.0, 0.0]]
