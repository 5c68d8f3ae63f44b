"""Property tests over random graphs (needs the ``test`` extra: hypothesis)."""

import math

import numpy as np
import pytest

from graphentropy.entropy import shannon_entropy, union_entropy
from graphentropy.enumeration import canonical_form
from graphentropy.graphs import MAX_VERTICES, disjoint_union, from_edges, parse_graph6, write_graph6
from graphentropy.spectral import density_spectra, density_spectrum

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

PROPERTY = settings(max_examples=100, deadline=None)


@st.composite
def graphs(draw, min_n=1, max_n=MAX_VERTICES, min_edges=0):
    """A random simple graph: an order, then one bit per vertex pair."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    edges = [pair for k, pair in enumerate(pairs) if (mask >> k) & 1]
    hypothesis.assume(len(edges) >= min_edges)
    return from_edges(n, edges)


@st.composite
def trees(draw, min_n, max_n):
    """A random labeled tree: vertex i hangs from an earlier one, then all are relabeled."""
    n = draw(st.integers(min_n, max_n))
    perm = draw(st.permutations(range(n)))
    return from_edges(n, [(perm[i], perm[draw(st.integers(0, i - 1))]) for i in range(1, n)])


@PROPERTY
@given(graphs())
def test_graph6_round_trip(g):
    word = write_graph6(g)
    assert parse_graph6(word) == g
    assert parse_graph6(f"  >>graph6<<{word}\n") == g


@PROPERTY
@given(st.data())
def test_canonical_form_invariant_under_relabeling(data):
    g = data.draw(graphs(max_n=10))
    perm = data.draw(st.permutations(range(g.n)))
    h = from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    assert canonical_form(h) == canonical_form(g)
    assert parse_graph6(canonical_form(g).bytes.decode("ascii")).m == g.m


@PROPERTY
@given(st.lists(graphs(min_n=2, max_n=8, min_edges=1), min_size=1, max_size=4))
def test_union_entropy_is_the_entropy_of_the_union(parts):
    union = disjoint_union(parts)
    whole = shannon_entropy(density_spectrum(union).values)
    from_parts = union_entropy(
        [(shannon_entropy(density_spectrum(p).values), 2 * p.m) for p in parts]
    )
    assert math.isclose(from_parts, whole, rel_tol=0.0, abs_tol=1e-9)


@PROPERTY
@given(st.one_of(
    st.integers(2, 12).flatmap(
        lambda n: st.lists(graphs(min_n=n, max_n=n, min_edges=1), min_size=1, max_size=6)
    ),
    # the tree scan's blocks: n = 13..16 in uint16 rows
    st.integers(13, 16).flatmap(lambda n: st.lists(trees(n, n), min_size=1, max_size=6)),
))
def test_density_spectra_bit_identical_to_density_spectrum(block):
    n = block[0].n
    rows = np.array([g.adj for g in block], dtype=np.min_scalar_type((1 << n) - 1))
    assert rows.dtype == (np.uint8 if n <= 8 else np.uint16)
    stacked = density_spectra(rows)
    for g, row in zip(block, stacked):
        assert row.tobytes() == np.array(density_spectrum(g).values).tobytes()
