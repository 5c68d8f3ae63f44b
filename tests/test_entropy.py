import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from graphentropy import entropy
from graphentropy.entropy import (
    EntropyReport,
    bipartite_entropy_closed,
    density_test,
    entropy_augmentation,
    entropy_report,
    graph_renyi_entropy,
    h2_degree,
    k2n2_closed,
    renyi_entropy,
    shannon_entropy,
    star_entropy_closed,
    star_test,
    tr2,
    von_neumann_entropy,
)
from graphentropy.enumeration import enumerate_graphs
from graphentropy.graphs import (
    add_edge,
    complete,
    complete_bipartite,
    degree_sequence,
    disjoint_union,
    empty_graph,
    from_edges,
    path,
    star,
)
from graphentropy.spectral import density_spectrum

from _oracles import reference_renyi


def random_dist(rng, k):
    xs = [rng.uniform(0.01, 1.0) for _ in range(k)]
    total = math.fsum(xs)
    return [x / total for x in xs]


def random_graph(rng, n, p=0.5):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return from_edges(n, edges)


# --- Shannon and Renyi basics ------------------------------------------------


def test_shannon_known_values():
    assert shannon_entropy([1.0]) == 0.0
    assert abs(shannon_entropy([0.5, 0.5]) - 1.0) < 1e-15
    assert abs(shannon_entropy([0.25] * 4) - 2.0) < 1e-15
    assert shannon_entropy([0.5, 0.5, 0.0]) == shannon_entropy([0.5, 0.5])


def test_distribution_validation():
    with pytest.raises(ValueError):
        shannon_entropy([])
    with pytest.raises(ValueError):
        shannon_entropy([0.5, -0.5, 1.0])
    with pytest.raises(ValueError):
        shannon_entropy([0.6, 0.6])
    with pytest.raises(ValueError):
        renyi_entropy([0.5, 0.5], -1.0)


def test_nan_probabilities_rejected():
    # a NaN sum compares false with the tolerance, so it must fail the sum test
    for call in (
        lambda: shannon_entropy([math.nan, 1.0]),
        lambda: renyi_entropy([math.nan, 1.0], 2),
        lambda: renyi_entropy([math.nan], 0),
    ):
        with pytest.raises(ValueError, match="do not sum to 1"):
            call()
    # every entry is checked for its sign, those after a NaN too
    with pytest.raises(ValueError, match="negative probability"):
        shannon_entropy([math.nan, -0.5, 1.5])


def test_renyi_limits_and_special_orders():
    rng = random.Random(10)
    for _ in range(20):
        p = random_dist(rng, rng.randint(2, 8))
        # alpha = 1 is Shannon
        assert abs(renyi_entropy(p, 1.0) - shannon_entropy(p)) < 1e-12
        # alpha = 0 counts the support
        assert abs(renyi_entropy(p, 0.0) - math.log2(len(p))) < 1e-12
        # alpha = 2 is the collision entropy
        assert abs(renyi_entropy(p, 2.0) + math.log2(math.fsum(x * x for x in p))) < 1e-12
        # large alpha approaches -log2(max p)
        assert abs(renyi_entropy(p, 200.0) + math.log2(max(p))) < 0.05


def test_renyi_large_infinite_and_nan_orders():
    assert renyi_entropy([0.5, 0.5], 2000.0) == pytest.approx(1.0, abs=1e-12)
    assert graph_renyi_entropy(complete(6), 1500.0) == pytest.approx(math.log2(5), abs=1e-12)
    assert renyi_entropy([0.5, 0.5], math.inf) == 1.0
    p = [0.7, 0.2, 0.1]
    assert renyi_entropy(p, math.inf) == -math.log2(0.7)
    assert renyi_entropy(p, 1e6) == pytest.approx(-math.log2(0.7), abs=1e-5)
    assert renyi_entropy([1.0, 0.0], math.inf) == 0.0
    with pytest.raises(ValueError):
        renyi_entropy(p, math.nan)


RENYI_DISTRIBUTIONS = [
    [0.4, 0.3, 0.2, 0.1],
    [0.5 + 5e-10, 0.25, 0.25],  # sums to 1 + 5e-10, inside DIST_TOL: H is of p / sum(p)
    [0.5, 0.25, 0.25],
    [0.7, 0.2, 0.1, 0.0],
    [1.0, 5e-324],  # subnormal: p expm1((alpha - 1) ln(p / p_max)) overflows for alpha < 1
    list(density_spectrum(path(7))),
    list(density_spectrum(complete_bipartite(2, 5))),
    list(density_spectrum(complete(6))),  # p_max = 0.2: 1e308 * log2(0.2) overflows
]


@pytest.mark.parametrize(
    "alpha",
    [0.001, 0.5, 1 - 2**-52, 1 - 2**-53, 1 + 2**-52, 1 - 1e-12, 1 + 1e-12, 1.5, 3.0],
)
def test_renyi_matches_decimal_oracle(alpha):
    # near alpha = 1 the textbook form log2(sum p^alpha) / (1 - alpha) cancels:
    # for [.4, .3, .2, .1] at alpha = 1 - 2**-53 it gives 4.0, above log2(4)
    for p in RENYI_DISTRIBUTIONS:
        assert renyi_entropy(p, alpha) == pytest.approx(reference_renyi(p, alpha), abs=1e-12)


@pytest.mark.parametrize("alpha", [1e300, 1e308])
def test_renyi_huge_orders_reach_the_min_entropy(alpha):
    # alpha * log2(p_max) overflows for these orders; the entropy must not
    for p in RENYI_DISTRIBUTIONS:
        want = -math.log2(max(p) / math.fsum(p))
        assert renyi_entropy(p, alpha) == pytest.approx(want, abs=1e-12)


def test_renyi_is_continuous_at_one_and_infinity_off_the_simplex():
    # sums to 1 + 5e-10, inside DIST_TOL: every order must see the same p / sum(p)
    p = [0.5 + 5e-10, 0.25, 0.25]
    for alpha in (1 - 2**-52, 1 + 2**-52):
        assert renyi_entropy(p, alpha) == pytest.approx(renyi_entropy(p, 1.0), abs=1e-14)
    assert renyi_entropy(p, 1e300) == pytest.approx(renyi_entropy(p, math.inf), abs=1e-14)


def test_renyi_nonincreasing_in_alpha():
    rng = random.Random(11)
    alphas = [0.0, 0.3, 0.7, 1.0, 1.3, 2.0, 3.0, 5.0, 10.0]
    for _ in range(25):
        p = random_dist(rng, rng.randint(2, 9))
        values = [renyi_entropy(p, a) for a in alphas]
        for lo, hi in zip(values, values[1:]):
            assert hi <= lo + 1e-9


def test_entropy_range():
    rng = random.Random(12)
    for _ in range(20):
        p = random_dist(rng, rng.randint(1, 9))
        for a in (0.5, 1.0, 2.0):
            h = renyi_entropy(p, a)
            assert -1e-12 <= h <= math.log2(len(p)) + 1e-12


# --- graph entropies and closed forms ---------------------------------------


def test_star_closed_form_vs_spectral():
    for n in range(2, 12):
        assert abs(star_entropy_closed(n) - von_neumann_entropy(star(n))) < 1e-12


def test_bipartite_closed_form_vs_spectral():
    for a in range(1, 6):
        for b in range(a, 6):
            closed = bipartite_entropy_closed(a, b)
            assert abs(closed - von_neumann_entropy(complete_bipartite(a, b))) < 1e-12


def test_star_is_bipartite_special_case():
    for n in range(2, 10):
        assert abs(star_entropy_closed(n) - bipartite_entropy_closed(1, n - 1)) < 1e-12


def test_complete_graph_entropy():
    for n in range(2, 10):
        assert abs(von_neumann_entropy(complete(n)) - math.log2(n - 1)) < 1e-12
        for a in (1.5, 2.0, 7.0):
            assert abs(graph_renyi_entropy(complete(n), a) - math.log2(n - 1)) < 1e-12


def test_known_graph_values():
    # S(P4): eigenvalues {2+sqrt2, 2, 2-sqrt2, 0} / 6
    lam = [(2 + math.sqrt(2)) / 6, 2 / 6, (2 - math.sqrt(2)) / 6]
    expect = -math.fsum(x * math.log2(x) for x in lam)
    assert abs(von_neumann_entropy(path(4)) - expect) < 1e-12
    assert von_neumann_entropy(complete(2)) == 0.0


# --- tr2, H2, and the decision tests -----------------------------------------


def test_tr2_known_values():
    assert tr2(degree_sequence(path(3))) == Fraction(5, 8)
    assert tr2(degree_sequence(star(5))) == Fraction(7, 16)
    # star family closed form: 1/4 + 3/(4(n-1))
    for n in range(2, 20):
        expect = Fraction(1, 4) + Fraction(3, 4 * (n - 1))
        assert tr2(degree_sequence(star(n))) == expect


def test_h2_degree_matches_tr2_and_spectrum():
    rng = random.Random(13)
    seen = 0
    while seen < 30:
        n = rng.randint(2, 10)
        g = random_graph(rng, n, rng.uniform(0.2, 0.9))
        if g.m == 0:
            continue
        seen += 1
        d = degree_sequence(g)
        assert abs(h2_degree(d) + math.log2(float(tr2(d)))) < 1e-12
        assert abs(h2_degree(d) - graph_renyi_entropy(g, 2.0)) < 1e-9


def test_star_test_small_cases():
    # K2 is an exact tie and passes
    assert star_test(degree_sequence(complete(2)), 2)
    # P3 is the single failure at n=3
    assert not star_test(degree_sequence(path(3)), 3)
    assert star_test(degree_sequence(complete(3)), 3)
    # n=4: exactly P4 and K_{1,3} fail
    four = {
        "P4": (path(4), False),
        "star": (star(4), False),
        "C4": (complete_bipartite(2, 2), True),
        "K4": (complete(4), True),
        "paw": (from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]), True),
        "diamond": (from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]), True),
    }
    for name, (g, expect) in four.items():
        assert star_test(degree_sequence(g), 4) == expect, name
    # paths: P5 fails, P6 and longer pass
    assert not star_test(degree_sequence(path(5)), 5)
    assert star_test(degree_sequence(path(6)), 6)
    assert star_test(degree_sequence(path(7)), 7)


def test_star_test_agrees_with_float_rule():
    # the integer test decides H2(G) >= S(star); check against the float
    # comparison on every connected graph of small order
    for n in range(2, 7):
        threshold = star_entropy_closed(n)
        for g in enumerate_graphs(n, connected_only=True):
            d = degree_sequence(g)
            exact = star_test(d, n)
            approx = h2_degree(d) >= threshold - 1e-9
            assert exact == approx


def test_star_test_needs_the_degrees_of_every_vertex():
    k3 = degree_sequence(complete(3))
    assert star_test(k3, 3)
    with pytest.raises(ValueError, match="needs 10 degrees, got 3"):
        star_test(k3, 10)


def test_density_test_rejects_a_fractional_edge_count():
    with pytest.raises(TypeError):
        density_test(5, 2.5)
    assert density_test(4, np.int64(6))


def test_density_test_known_values():
    assert density_test(4, 6)
    assert not density_test(4, 5)
    # n=9, m=18: m/C(9,2) = 1/2 = 1/(sqrt9 - 1), an exact boundary hit
    assert density_test(9, 18)
    assert not density_test(9, 17)
    with pytest.raises(ValueError):
        density_test(1, 0)
    with pytest.raises(ValueError):
        density_test(4, 7)


def test_density_implies_star_on_small_orders():
    for n in range(2, 7):
        for g in enumerate_graphs(n, connected_only=True):
            if density_test(g.n, g.m):
                assert star_test(degree_sequence(g), n)


# --- unions -------------------------------------------------------------------


def test_union_entropy_matches_direct():
    rng = random.Random(14)
    built = 0
    while built < 20:
        parts = []
        for _ in range(rng.randint(2, 3)):
            g = random_graph(rng, rng.randint(2, 6), 0.7)
            if g.m > 0:
                parts.append(g)
        if len(parts) < 2 or sum(p.n for p in parts) > 16:
            continue
        built += 1
        whole = disjoint_union(parts)
        direct = von_neumann_entropy(whole)
        # grouping: sum c_i S(G_i) - sum c_i log2 c_i with c_i = m_i / m
        shares = [p.m / whole.m for p in parts]
        combined = sum(c * (von_neumann_entropy(p) - math.log2(c)) for c, p in zip(shares, parts))
        assert abs(direct - combined) < 1e-10


# --- the K_{2,n-2} family -----------------------------------------------------


def _k2n2_plus_edge(n):
    return add_edge(complete_bipartite(2, n - 2), 0, 1)


def test_k2n2_closed_vs_spectral():
    for n in range(4, 13):
        before, after = k2n2_closed(n)
        assert abs(before - von_neumann_entropy(complete_bipartite(2, n - 2))) < 1e-12
        assert abs(after - von_neumann_entropy(_k2n2_plus_edge(n))) < 1e-12


def test_k2n2_gap_sign():
    # n=4: adding the edge increases entropy; n>=5: it strictly decreases
    before, after = k2n2_closed(4)
    assert after > before
    for n in range(5, 41):
        before, after = k2n2_closed(n)
        assert before - after > 1e-12


# --- augmentation search ------------------------------------------------------


def test_entropy_augmentation_single_edge():
    diamond = from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    found = entropy_augmentation(diamond, 1, math.log2(3))
    assert found == ((0, 3),)


def test_entropy_augmentation_zero_target():
    g = path(4)
    assert entropy_augmentation(g, 2, 0.0) == ()


def test_entropy_augmentation_from_sparse_start():
    # on 4 vertices only K4 reaches log2(3): from one edge that needs all
    # 5 absent edges, so a budget of 4 must fail and 5 must succeed
    g = disjoint_union([complete(2), empty_graph(2)])
    assert entropy_augmentation(g, 4, math.log2(3)) is None
    found = entropy_augmentation(g, 5, math.log2(3))
    assert found is not None and len(found) == 5
    assert set(found) == set(g.non_edges())


def test_entropy_augmentation_validation():
    with pytest.raises(ValueError):
        entropy_augmentation(path(3), 5, 1.0)  # only 1 absent edge
    with pytest.raises(ValueError):
        entropy_augmentation(path(3), -1, 1.0)


def test_entropy_augmentation_rejects_nan_target_before_any_eigensolve(monkeypatch):
    def no_spectrum(g):
        raise AssertionError("density_spectrum called")

    monkeypatch.setattr(entropy, "density_spectrum", no_spectrum)
    with pytest.raises(ValueError, match="nan"):
        entropy_augmentation(path(4), 2, math.nan)
    monkeypatch.undo()
    # infinite targets stay valid: nothing reaches inf, everything reaches -inf
    assert entropy_augmentation(path(4), 1, math.inf) is None
    assert entropy_augmentation(path(4), 1, -math.inf) == ()


# --- reports -------------------------------------------------------------------


def test_entropy_report_fields():
    rep = entropy_report(star(8), alphas=[2.0, 1.5])
    assert isinstance(rep, EntropyReport)
    assert rep.n == 8 and rep.m == 7
    assert rep.tr2 == Fraction(5, 14)
    assert rep.star_test is False
    assert rep.density_test is False
    assert abs(rep.S - star_entropy_closed(8)) < 1e-12
    assert rep.H[2.0] <= rep.H[1.5] <= rep.S + 1e-12


def test_entropy_report_edgeless():
    rep = entropy_report(empty_graph(4))
    assert rep.S is None and rep.tr2 is None and rep.star_test is None
    assert rep.density_test is False


def test_entropy_ordering_on_random_graphs():
    rng = random.Random(17)
    seen = 0
    while seen < 25:
        g = random_graph(rng, rng.randint(2, 9), rng.uniform(0.3, 0.9))
        if g.m == 0:
            continue
        seen += 1
        s = von_neumann_entropy(g)
        h2 = graph_renyi_entropy(g, 2.0)
        h5 = graph_renyi_entropy(g, 5.0)
        assert s >= h2 - 1e-12
        assert h2 >= h5 - 1e-12
