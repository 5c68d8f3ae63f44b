import itertools
import math
import random

import numpy as np
import pytest

from graphentropy import spectral
from graphentropy.graphs import (
    Graph,
    add_edge,
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
    density_spectra,
    density_spectrum,
    eigenvalues_symmetric,
)
from graphentropy.verify import SOLVE_ROWS

from _oracles import reference_laplacian


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
        assert w == np.linalg.eigvalsh(a)[::-1].tolist()
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


def test_eigenvalues_symmetry_tolerance_and_nonfinite_entries():
    rng = random.Random(3)
    a = np.array([[rng.gauss(0, 1) for _ in range(6)] for _ in range(6)])
    a = a + a.T
    scale = float(np.linalg.norm(a))
    near = a.copy()
    near[0, 1] += 1e-15 * scale
    assert eigenvalues_symmetric(near) == np.linalg.eigvalsh(near)[::-1].tolist()
    far = a.copy()
    far[0, 1] += 1e-6 * scale
    with pytest.raises(ValueError, match="symmetric"):
        eigenvalues_symmetric(far)
    for bad in (math.nan, math.inf, -math.inf):
        for i, j in ((0, 1), (1, 0), (2, 2)):
            m = a.copy()
            m[i, j] = bad
            with pytest.raises(ValueError):
                eigenvalues_symmetric(m)


def test_density_spectrum_is_distribution():
    rng = random.Random(2)
    seen = 0
    while seen < 30:
        n = rng.randint(2, 12)
        g = random_graph(rng, n, rng.uniform(0.2, 0.9))
        if g.m == 0:
            continue
        seen += 1
        vals = density_spectrum(g)
        assert isinstance(vals, tuple)
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
        zeros = sum(1 for x in density_spectrum(g) if x == 0.0)
        assert zeros == component_count(g)


def test_density_spectrum_exact_cases():
    # K2 plus isolated vertices: spectrum exactly {1, 0, ..., 0}
    for n in (2, 5, 12, 30):
        g = complete(2) if n == 2 else disjoint_union([complete(2), empty_graph(n - 2)])
        vals = density_spectrum(g)
        assert vals[0] == 1.0
        assert all(x == 0.0 for x in vals[1:])
    # K_{1,3}: L spectrum {4, 1, 1, 0}, d = 6
    vals = density_spectrum(star(4))
    expect = (4 / 6, 1 / 6, 1 / 6, 0.0)
    assert max(abs(x - y) for x, y in zip(vals, expect)) < 1e-14


def test_density_spectrum_rejects_edgeless():
    with pytest.raises(ValueError):
        density_spectrum(empty_graph(3))


def reference_spectrum(g):
    """eigvalsh of the bit-test Laplacian in float, descending, over d, with
    values within DEFAULT_TOL of 0 snapped to 0."""
    w = np.linalg.eigvalsh(np.array(reference_laplacian(g), dtype=np.float64))[::-1] / (2 * g.m)
    return np.where(np.abs(w) <= DEFAULT_TOL, 0.0, w)


def test_density_spectrum_bit_identical_to_reference():
    graphs = [
        Graph(n, tuple(row))
        for n in range(2, 8)
        for block in census(n)
        for row in block.rows[block.rows.any(axis=1)].tolist()
    ]
    for block in census(7):  # every G+e that edge-add-decrease scans at n = 7
        for row in block.rows.tolist():
            g = Graph(7, tuple(row))
            graphs.extend(add_edge(g, u, v) for u, v in g.non_edges())
    rng = random.Random(15)
    for n in (9, 16, 17, 33, 64):  # row widths of 2, 2, 3, 5 and 8 bytes
        graphs.extend(random_graph(rng, n, p) for p in (0.1, 0.5, 0.9))
    for g in graphs:
        got = np.array(density_spectrum(g), dtype=np.float64)
        assert got.tobytes() == reference_spectrum(g).tobytes(), g


def test_density_spectrum_reports_a_failed_solve_as_linalgerror(monkeypatch):
    # LAPACK reports non-convergence as NaN eigenvalues, which fail the trace check
    monkeypatch.setattr(spectral, "_eigvalsh", lambda a, signature: np.full(len(a), np.nan))
    with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
        density_spectrum(path(4))


def test_density_spectrum_checks_the_matrix_symmetry():
    g = path(4)
    object.__setattr__(g, "adj", (2, 5, 10, 0))  # vertex 3 drops its edge to 2
    with pytest.raises(ValueError, match="not symmetric"):
        density_spectrum(g)


def test_density_spectra_bit_identical_to_per_graph_path():
    for n in range(2, 8):
        for block in census(n):
            edged = block.rows.any(axis=1)
            stacked = density_spectra(block.rows[edged]).tolist()
            words = block.graph6[edged].tolist()
            assert len(stacked) == len(words)
            for vals, word in zip(stacked, words):
                assert tuple(vals) == density_spectrum(parse_graph6(word))
    # the tree scan's first block at n = 13..16, stacked as it stacks them
    for n in range(13, 17):
        trees = list(itertools.islice(enumerate_trees(n), SOLVE_ROWS))
        stacked = density_spectra(np.array([t.adj for t in trees], dtype=np.uint16)).tolist()
        for vals, t in zip(stacked, trees):
            assert tuple(vals) == density_spectrum(t)


def test_density_spectra_rejects_asymmetric_rows():
    # vertex 0 lists 1 and 2, vertex 1 lists nobody
    with pytest.raises(ValueError, match="Laplacian is not symmetric"):
        density_spectra(np.array([[6, 0, 1]], dtype=np.uint8))


@pytest.mark.parametrize(
    "row, fault",
    [([2 | 8, 1], "references vertices >= n"), ([3, 1], "loop")],
)
def test_density_spectra_rejects_rows_graph_rejects(row, fault):
    # a bit at column 3 of a 2-vertex row, then a loop at vertex 0: each row
    # pair is symmetric on columns < n, as ``Graph`` would not accept it
    with pytest.raises(ValueError, match=fault):
        density_spectra(np.array([row], dtype=np.uint8))


def test_density_spectra_rejects_edgeless_row():
    rows = np.array([[2, 1, 0], [0, 0, 0]], dtype=np.uint8)  # K2 + K1, then empty
    with pytest.raises(ValueError):
        density_spectra(rows)
    assert density_spectra(rows[:1]).tolist() == [[1.0, 0.0, 0.0]]


def drifting(solve, factor):
    # ``solve`` with each Laplacian's largest eigenvalue moved by a share of
    # the trace check's threshold n * DEFAULT_TOL * sqrt(sum d_i^2 + d_G), read
    # from the degrees on L's diagonal: ``factor`` of it for the Laplacians of
    # least threshold in the stack, 0.99 of it for the rest
    def drifted(lap, *args, **kwargs):
        w = solve(lap, *args, **kwargs)
        degs = np.diagonal(lap, axis1=-2, axis2=-1).astype(np.int64)
        limit = lap.shape[-1] * DEFAULT_TOL * np.sqrt((degs * degs).sum(axis=-1) + degs.sum(axis=-1))
        w[..., -1] += limit * np.where(limit == limit.min(), factor, 0.99)
        return w

    return drifted


@pytest.mark.parametrize("factor, raises", [(1.01, True), (0.99, False)])
def test_both_solves_check_the_trace_against_the_degree_norm(monkeypatch, factor, raises):
    # one trace policy: an eigenvalue sum that drifts just above its own
    # graph's threshold raises in the per-graph and in the stacked solve, even
    # when the other graphs of the stack sit just below theirs, and one that
    # drifts just below it raises in neither
    rows = np.concatenate([block.rows[block.connected] for block in census(6)])
    graphs = [Graph(6, tuple(row)) for row in rows.tolist()]
    monkeypatch.setattr(spectral, "_eigvalsh", drifting(spectral._eigvalsh, factor))
    monkeypatch.setattr(np.linalg, "eigvalsh", drifting(np.linalg.eigvalsh, factor))
    solves = [lambda g=g: density_spectrum(g) for g in graphs] + [lambda: density_spectra(rows)]
    for solve in solves:
        if raises:
            with pytest.raises(ArithmeticError, match="eigenvalue sum drifted from the trace"):
                solve()
        else:
            solve()
