import dataclasses
import importlib
import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import graphentropy
from graphentropy.entropy import (
    renyi_entropy,
    shannon_entropy,
    star_entropy_closed,
    star_test,
    von_neumann_entropy,
)
from graphentropy import enumeration
from graphentropy.enumeration import (
    CANON_MAX,
    canonical_form,
    census,
    clear_census,
    enumerate_graphs,
    enumerate_trees,
)
from graphentropy.graphs import (
    add_edge,
    complete,
    diameter,
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
from graphentropy.spectral import density_spectrum
from graphentropy import verify
from graphentropy.verify import (
    DEFAULT_WITNESS_CAP,
    CoentropyGroup,
    TheoremViolation,
    VerificationResult,
    coentropy_search,
    edge_add_decrease_search,
    failing_graph_properties,
    param_comparability,
    table1_row,
    verify_density_implies_star,
    verify_renyi_max,
    verify_renyi_star_min,
    verify_star_min_von_neumann,
    verify_tree_extremes,
)

from _oracles import brute_param_pairs, reference_extremes, reference_witnesses

# star-test failure counts over connected graphs, by order
FAILURE_ROWS = {2: (0, 1), 3: (1, 2), 4: (2, 6), 5: (4, 21), 6: (8, 112), 7: (16, 853)}


def canon_g6(g):
    return canonical_form(g)


def entropy_oracle(g):
    # independent recomputation: raw numpy eigensolve, no package spectral code
    vals = np.linalg.eigvalsh(laplacian(g).astype(float) / (2 * g.m))
    return -math.fsum(v * math.log2(v) for v in vals if v > 1e-12)


# --- star-test census -------------------------------------------------------


def test_failure_counts_by_order():
    for n, (fails, total) in FAILURE_ROWS.items():
        got_fails, got_total, failing = table1_row(n)
        assert (got_fails, got_total) == (fails, total)
        assert len(failing) == fails


def test_failing_graphs_at_small_orders():
    _, _, failing3 = table1_row(3)
    assert failing3 == (canon_g6(path(3)),)
    _, _, failing4 = table1_row(4)
    assert set(failing4) == {canon_g6(path(4)), canon_g6(star(4))}


def test_failing_graph_properties_reports_leaves():
    for n in range(2, 7):
        rep = failing_graph_properties(n)
        fails, total, failing = table1_row(n)
        assert rep["failures"] == fails and rep["total"] == total
        assert len(rep["records"]) == len(failing)
        for rec in rep["records"]:
            assert rec["has_leaf"] == (rec["min_degree"] == 1)
        assert rep["all_have_leaf"] is all(r["has_leaf"] for r in rep["records"])
        if n >= 3:
            # observed pattern at every checked order
            assert rep["all_have_leaf"]


def test_star_ceilings_agree_with_star_test():
    # every (m, sum of squared degrees) that a graph of order n <= 10 could
    # have: star_test reads nothing else, so a stand-in with those sums asks it
    for n in range(2, 11):
        ceilings = verify._star_ceilings(n)
        assert len(ceilings) == math.comb(n, 2) + 1
        for m in range(1, math.comb(n, 2) + 1):
            for sq in range(2 * m * (n - 1) + 1):
                d = SimpleNamespace(degrees=(0,) * n, d_sum=2 * m, d_sq_sum=sq)
                assert (sq <= ceilings[m]) == star_test(d, n), (n, m, sq)


def test_session_calls_give_the_same_summaries_in_any_order(monkeypatch):
    # the benchmark's session-8 library calls in three shuffled orders, each
    # from an empty census: whichever call walks an order first, every
    # summary is the one the benchmark checks
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    bench = importlib.import_module("run")
    child = importlib.import_module("child")
    rng = random.Random(21)
    for _ in range(3):
        clear_census()
        for name, args, want in rng.sample(bench.SESSION_CALLS, len(bench.SESSION_CALLS)):
            assert child.summarize(getattr(graphentropy, name)(*args)) == want, (name, args)


# --- star minimality scans --------------------------------------------------


def test_star_min_von_neumann_holds_small_orders():
    for n in range(3, 8):
        res = verify_star_min_von_neumann(n)
        assert res.holds and not res.witnesses
        assert res.universe == "connected"
        assert res.stats["classes"] == FAILURE_ROWS[n][1]
        assert canon_g6(star(n)) in res.extremal_graphs
        assert res.stats["min_entropy"] >= res.stats["star_entropy"] - 1e-9
        assert res.stats["star_entropy"] == pytest.approx(star_entropy_closed(n), abs=1e-12)


def test_star_min_rejects_bad_order():
    with pytest.raises(ValueError):
        verify_star_min_von_neumann(1)


def test_renyi_star_min_alpha2_is_exact():
    for n in range(3, 8):
        res = verify_renyi_star_min(n, 2.0)
        assert res.holds and res.stats["exact"] and res.stats["unique"]
        assert res.extremal_graphs == [canon_g6(star(n))]
        want = Fraction(1, 4) + Fraction(3, 4 * (n - 1))
        assert res.stats["star_tr2"] == str(want)


def test_renyi_star_min_float_alphas():
    for alpha in (1.5, 5.0):
        for n in range(3, 7):
            res = verify_renyi_star_min(n, alpha)
            assert res.holds and not res.witnesses
            assert res.stats["min_entropy"] >= res.stats["star_entropy"] - 1e-9


def test_renyi_star_min_requires_alpha_above_one():
    for alpha in (1.0, 0.5, -2.0):
        with pytest.raises(ValueError):
            verify_renyi_star_min(5, alpha)


# --- tree extremes ------------------------------------------------------------


def test_tree_extremes_h2_exact():
    for n in range(3, 11):
        res = verify_tree_extremes(n, entropy="H2")
        assert res.holds and res.stats["exact"]
        hi, lo = res.extremal_graphs
        g_hi, g_lo = parse_graph6(hi), parse_graph6(lo)
        assert g_hi.m == n - 1 and max(d.bit_count() for d in g_hi.adj) == n - 1
        assert g_lo.m == n - 1 and max(d.bit_count() for d in g_lo.adj) <= 2
        want_star = Fraction(1, 4) + Fraction(3, 4 * (n - 1))
        assert res.stats["star_tr2"] == str(want_star)
    res8 = verify_tree_extremes(8, entropy="H2")
    assert res8.stats["path_tr2"] == "10/49"
    assert res8.stats["star_tr2"] == "5/14"


def test_tree_extremes_path_maximizes_shannon():
    for n in range(3, 11):
        res = verify_tree_extremes(n, entropy="S")
        assert res.holds and not res.witnesses
        assert res.extremal_graphs == [canon_g6(path(n))]
        assert res.stats["max_entropy"] == pytest.approx(res.stats["path_entropy"])
        # the star sits at the bottom at the same orders
        assert canon_g6(star(n)) in res.stats["min_graphs"]


def _override_degree_sums(monkeypatch, picks, d_g, sq):
    """Patch verify._degree_sums: every class whose degree row ``picks`` selects
    scans with this d_G and sum of squared degrees, and so with their tr2."""
    real = verify._degree_sums

    def overridden(rows):
        degs, real_d_g, real_sq = real(rows)
        picked = np.array([picks(row) for row in degs.tolist()], dtype=bool)
        return degs, np.where(picked, d_g, real_d_g), np.where(picked, sq, real_sq)

    monkeypatch.setattr(verify, "_degree_sums", overridden)


def test_tree_extremes_h2_raises_unless_star_and_path_are_strict(monkeypatch):
    # at n = 6 every tree has d_G = 10; the star's squares sum to 30, the path's to 18
    _override_degree_sums(monkeypatch, lambda degs: max(degs) >= 4, 10, 30)
    with pytest.raises(TheoremViolation) as exc:
        verify_tree_extremes(6, entropy="H2")
    assert str(exc.value) == "star is not the unique H_2 minimizer among trees on 6 vertices"
    monkeypatch.undo()
    _override_degree_sums(monkeypatch, lambda degs: max(degs) <= 3, 10, 18)
    with pytest.raises(TheoremViolation) as exc:
        verify_tree_extremes(6, entropy="H2")
    assert str(exc.value) == "path is not the unique H_2 maximizer among trees on 6 vertices"


@pytest.mark.parametrize(
    "picks, d_g, sq",
    [
        (lambda degs: max(degs) == 4, 8, 20),  # a tie: the star's d_G and squares at n = 5
        (lambda degs: sum(degs) == 20, 2, 2),  # K5 beats the star with tr2 = 1
    ],
    ids=["tie", "beaten"],
)
def test_renyi_star_min_alpha2_raises_unless_star_is_strict(monkeypatch, picks, d_g, sq):
    _override_degree_sums(monkeypatch, picks, d_g, sq)
    with pytest.raises(TheoremViolation) as exc:
        verify_renyi_star_min(5, 2.0)
    assert str(exc.value) == (
        "star is not the strictly unique tr2 maximum over connected graphs on 5 vertices"
    )


def test_tree_extremes_validation():
    with pytest.raises(ValueError):
        verify_tree_extremes(2)
    with pytest.raises(ValueError):
        verify_tree_extremes(6, entropy="H3")


def test_tree_extremes_raises_unless_the_first_tree_is_the_path(monkeypatch):
    # the fold takes the path's value from the first tree it is given
    monkeypatch.setattr(verify, "enumerate_trees", lambda n: reversed(list(enumerate_trees(n))))
    for entropy in ("S", "H2"):
        with pytest.raises(TheoremViolation, match="the first tree on 7 vertices is not the path"):
            verify_tree_extremes(7, entropy)


def _traced_peak(scan):
    tracemalloc.start()
    try:
        scan()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("entropy", ["S", "H2"])
def test_tree_extremes_memory_is_flat_in_n(monkeypatch, entropy):
    # one pass keeps no row per tree: 19320 trees at n = 16 against 551 at
    # n = 12. Canonical words are replaced by graph6 words of the same length,
    # kept or dropped as canonical words are, because tracemalloc slows the
    # canonical search about tenfold.
    monkeypatch.setattr(verify, "canonical_form", write_graph6)
    peaks = {n: _traced_peak(lambda: verify_tree_extremes(n, entropy)) for n in (12, 16)}
    assert peaks[16] < 3 * peaks[12]


def test_tree_extremes_rejects_orders_canonical_forms_do_not_reach(monkeypatch):
    # one bound, shared with canonical_form, checked before any tree is made
    # or any eigensolve runs
    monkeypatch.setattr(verify, "enumerate_trees", None)
    monkeypatch.setattr(verify, "density_spectra", None)
    message = f"canonical forms are supported for n <= {CANON_MAX}"
    for entropy in ("S", "H2"):
        with pytest.raises(ValueError, match=message):
            verify_tree_extremes(CANON_MAX + 1, entropy)
    with pytest.raises(ValueError, match=message):
        canonical_form(path(CANON_MAX + 1))


# --- global Renyi bound ---------------------------------------------------------


def test_renyi_max_bound_attained_by_complete_graph():
    for n in range(3, 7):
        res = verify_renyi_max(n, 2.0)
        assert res.holds
        assert res.stats["bound"] == pytest.approx(math.log2(n - 1))
        assert res.stats["max_entropy"] == pytest.approx(math.log2(n - 1), abs=1e-9)
        assert canon_g6(complete(n)) in res.extremal_graphs
        zeros = res.stats["zero_graphs"]
        assert len(zeros) == 1 and parse_graph6(zeros[0]).m == 1


@pytest.mark.parametrize("shift", [1e-6, 0.5])
def test_renyi_max_raises_when_a_class_passes_the_bound(monkeypatch, shift):
    # K_n attains log2(n - 1), so lifting every value by more than 1e-9 passes it
    def lifted(vals, alpha):
        return renyi_entropy(vals, alpha) + shift

    monkeypatch.setattr(verify, "renyi_entropy", lifted)
    with pytest.raises(TheoremViolation, match=r"exceeds log2\(5-1\)"):
        verify_renyi_max(5, 2.0)


@pytest.mark.parametrize("value", [0.0, 1.0], ids=["every-class-zero", "no-class-zero"])
def test_renyi_max_raises_unless_only_k2_plus_isolates_is_zero(monkeypatch, value):
    # both values stay under log2(4) = 2, so only the zero-entropy statement fails
    monkeypatch.setattr(verify, "renyi_entropy", lambda vals, alpha: value)
    with pytest.raises(TheoremViolation, match="expected exactly K2 \\+ isolates"):
        verify_renyi_max(5, 2.0)


def test_renyi_max_validation(monkeypatch):
    with pytest.raises(ValueError):
        verify_renyi_max(5, 1.0)
    with pytest.raises(ValueError):
        verify_renyi_max(1, 2.0)
    # a NaN alpha is rejected before any class is enumerated
    monkeypatch.setattr(verify, "census", None)
    for engine in (verify_renyi_max, verify_renyi_star_min):
        with pytest.raises(ValueError, match="need alpha > 1"):
            engine(9, math.nan)


# --- edge addition -----------------------------------------------------------------


def test_edge_add_no_decrease_below_five_vertices():
    for n in (3, 4):
        res = edge_add_decrease_search(n)
        assert res.holds and res.stats["decrease_pairs"] == 0
        assert res.stats["min_bound_margin"] >= -1e-9


def test_edge_add_decreases_appear_at_five_vertices():
    res = edge_add_decrease_search(5)
    assert not res.holds
    assert res.stats["decrease_pairs"] == len(res.witnesses) == 3
    assert res.stats["k2n2_witness_found"]
    assert res.stats["min_bound_margin"] >= -1e-9
    profiles = []
    for rec in res.stats["pairs"]:
        g = parse_graph6(rec["graph6"])
        u, v = rec["edge"]
        h = add_edge(g, u, v)
        # recorded entropies must match an independent recomputation
        assert rec["S_before"] == pytest.approx(entropy_oracle(g), abs=1e-10)
        assert rec["S_after"] == pytest.approx(entropy_oracle(h), abs=1e-10)
        assert rec["S_after"] < rec["S_before"] - 1e-9
        profiles.append(sorted(d.bit_count() for d in g.adj))
    assert [2, 2, 2, 3, 3] in profiles


def test_edge_add_calls_one_spectrum_per_graph_and_pair(monkeypatch):
    # perfbench's traced edge-add-8 run pins these two call counts
    calls = {"density_spectrum": 0, "add_edge": 0}

    def counting(name):
        real = getattr(verify, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(verify, name, counting(name))
    edge_add_decrease_search(6)
    classes = list(enumerate_graphs(6, connected_only=True))
    pairs = sum(len(g.non_edges()) for g in classes)
    assert calls == {"density_spectrum": len(classes) + pairs, "add_edge": pairs}


def test_edge_add_raises_below_the_proved_lower_bound(monkeypatch):
    # every G + e replaced by K2 plus isolates, whose entropy is 0, which is
    # below (d/(d+2)) S(G) for every connected G on 5 vertices
    monkeypatch.setattr(verify, "add_edge", lambda g, u, v: from_edges(g.n, [(0, 1)]))
    with pytest.raises(TheoremViolation, match=r"fell below \(d/\(d\+2\)\)S\(G\)"):
        edge_add_decrease_search(5)


def test_edge_add_raises_without_the_k2n2_witness(monkeypatch):
    # one entropy for every graph: no pair decreases, and every margin is
    # 2/(d+2) > 0, so only the missing K_{2,3} + e witness can raise
    monkeypatch.setattr(verify, "shannon_entropy", lambda vals: 1.0)
    with pytest.raises(TheoremViolation, match=r"K_\{2,3\}, e\) did not appear"):
        edge_add_decrease_search(5)


def test_edge_add_validation():
    with pytest.raises(ValueError):
        edge_add_decrease_search(2)


# --- witness caps -------------------------------------------------------------------

CAPPED_ENGINES = {
    "star-min-S": lambda cap: verify_star_min_von_neumann(5, witness_cap=cap),
    "renyi-star-min": lambda cap: verify_renyi_star_min(5, 1.5, witness_cap=cap),
    "tree-extremes": lambda cap: verify_tree_extremes(7, witness_cap=cap),
    "edge-add-decrease": lambda cap: edge_add_decrease_search(5, witness_cap=cap),
}


@pytest.mark.parametrize("claim", sorted(CAPPED_ENGINES))
def test_negative_witness_cap_rejected(claim):
    with pytest.raises(ValueError, match="witness cap"):
        CAPPED_ENGINES[claim](-1)


@pytest.mark.parametrize("claim", sorted(CAPPED_ENGINES))
def test_fractional_witness_cap_rejected(claim):
    with pytest.raises(ValueError, match="witness cap must be >= 0"):
        CAPPED_ENGINES[claim](2.5)


@pytest.mark.parametrize("cap", [-1, 2.5])
def test_param_compare_rejects_a_bad_cap_before_the_census(monkeypatch, cap):
    # the witness-cap rule runs first: reading the census would fail this test
    monkeypatch.setattr(verify, "census", None)
    with pytest.raises(ValueError, match="witness cap must be >= 0"):
        param_comparability(5, "diameter", cap=cap)


@pytest.mark.parametrize("claim", sorted(CAPPED_ENGINES))
def test_witness_cap_zero_keeps_the_verdict(claim):
    full = CAPPED_ENGINES[claim](DEFAULT_WITNESS_CAP)
    capped = CAPPED_ENGINES[claim](0)
    assert capped.witnesses == []
    assert capped.holds == full.holds
    assert capped.holds == (claim != "edge-add-decrease")


def test_witness_cap_zero_star_min_with_counterexamples(monkeypatch):
    # a star value above every class makes every class a counterexample
    monkeypatch.setattr(verify, "star_entropy_closed", lambda n: 100.0)
    res = verify_star_min_von_neumann(5, witness_cap=0)
    assert not res.holds and res.witnesses == []
    assert res.stats["witness_count"] == res.stats["classes"] == 21
    assert len(verify_star_min_von_neumann(5, witness_cap=3).witnesses) == 3


def test_witness_cap_zero_renyi_star_min_with_counterexamples(monkeypatch):
    calls = []

    def star_first(vals, alpha):
        # the first call computes the star's value; raise it above every class
        calls.append(alpha)
        return 100.0 if len(calls) == 1 else renyi_entropy(vals, alpha)

    monkeypatch.setattr(verify, "renyi_entropy", star_first)
    res = verify_renyi_star_min(5, 1.5, witness_cap=0)
    assert not res.holds and res.witnesses == []
    assert res.stats["witness_count"] == 21


def test_witness_cap_zero_tree_extremes_with_counterexamples(monkeypatch):
    # equal entropy everywhere: every tree but the path ties it
    monkeypatch.setattr(verify, "shannon_entropy", lambda vals: 1.0)
    res = verify_tree_extremes(7, witness_cap=0)
    assert not res.holds and res.witnesses == []
    assert len(verify_tree_extremes(7, witness_cap=4).witnesses) == 4
    assert len(verify_tree_extremes(7, witness_cap=100).witnesses) == 10  # 11 trees


# --- equal-entropy groups -----------------------------------------------------------


def test_coentropy_empty_at_order_three():
    assert coentropy_search(3) == []


def test_coentropy_groups_are_internally_consistent():
    for grp in coentropy_search(7):
        assert isinstance(grp, CoentropyGroup)
        assert len(grp.members) >= 2
        assert 2 <= grp.distinct_spectra <= len(grp.members)
        for g6 in grp.members:
            g = parse_graph6(g6)
            assert is_connected(g)
            assert entropy_oracle(g) == pytest.approx(grp.entropy, abs=5e-10)


def coentropy_the_old_way(n, workers):
    # sorted (S, word) pairs, runs joined while a gap is <= 1e-12, and each
    # run's members re-solved one graph at a time from their graph6 words
    pairs = sorted(
        (shannon_entropy(vals), word)
        for block in census(n, workers=workers)
        for vals, word in zip(
            block.spectra[block.connected[block.edged]].tolist(),
            block.graph6[block.connected].tolist(),
        )
    )
    groups = []
    i = 0
    while i < len(pairs):
        j = i + 1
        while j < len(pairs) and pairs[j][0] - pairs[j - 1][0] <= 1e-12:
            j += 1
        reps = []
        for spec in (density_spectrum(parse_graph6(word)) for _, word in pairs[i:j]):
            if not any(max(abs(a - b) for a, b in zip(spec, r)) <= 1e-7 for r in reps):
                reps.append(spec)
        if len(reps) > 1:
            groups.append(CoentropyGroup(pairs[i][0], [w for _, w in pairs[i:j]], len(reps)))
        i = j
    return groups


@pytest.mark.parametrize("workers", [1, 2])
def test_coentropy_reads_census_rows_without_parsing_or_per_graph_solves(monkeypatch, workers):
    want = {n: coentropy_the_old_way(n, workers) for n in (6, 7, 8)}
    assert [len(want[n]) for n in (6, 7, 8)] == [0, 0, 3]

    def refuse(*args):
        raise AssertionError("coentropy_search parsed a word or solved one graph")

    monkeypatch.setattr(verify, "parse_graph6", refuse)
    monkeypatch.setattr(verify, "density_spectrum", refuse)
    clear_census()  # workers=2 then walks its shards again
    for n, groups in want.items():
        assert coentropy_search(n, workers=workers) == groups


def test_coentropy_joins_a_gap_of_exactly_1e_12(monkeypatch):
    # S patched to 0.0 or 1e-12 by the largest density eigenvalue (K_5: 0.25,
    # the star: 0.625): the exact gap of 1e-12 still joins one run, ordered
    # by S, then word
    monkeypatch.setattr(verify, "shannon_entropy", lambda vals: 0.0 if vals[0] < 0.3 else 1e-12)
    classes = [
        (0.0 if vals[0] < 0.3 else 1e-12, word)
        for block in census(5)
        for vals, word in zip(block.spectra.tolist(), block.graph6[block.edged].tolist())
        if is_connected(parse_graph6(word))
    ]
    assert len(classes) == 21 and len({s for s, _ in classes}) == 2
    (group,) = coentropy_search(5)
    assert group.entropy == 0.0 and group.members == [word for _, word in sorted(classes)]
    assert group.distinct_spectra > 1


# --- parameter comparability ----------------------------------------------------------


def test_reach_step_gives_components_and_diameters():
    # relabeled paths need n - 1 steps from an end; sparse random graphs on up
    # to 10 vertices (uint16 rows) are often disconnected
    rng = random.Random(43)
    for n in range(1, 11):
        graphs_ = [
            from_edges(n, [(perm[v], perm[v + 1]) for v in range(n - 1)])
            for perm in (rng.sample(range(n), n) for _ in range(20))
        ]
        graphs_ += [
            from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
            for p in (rng.uniform(0.05, 0.6) for _ in range(200))
        ]
        rows = np.array([g.adj for g in graphs_], dtype=np.min_scalar_type((1 << n) - 1))
        reach = np.ones_like(rows) << np.arange(n, dtype=rows.dtype)
        for _ in range(n - 1):
            reach = enumeration._reach_step(rows, reach)
        # each source reaches exactly its component: itself, no edge leaving
        # its reach, and t reached from s iff s from t
        bits = (reach[:, :, None] >> np.arange(n, dtype=rows.dtype)) & 1  # (class, source, vertex)
        assert bits.diagonal(axis1=1, axis2=2).all()
        assert not np.any(bits * (rows[:, None, :] & ~reach[:, :, None]))
        assert np.array_equal(bits, bits.transpose(0, 2, 1))
        connected = [is_connected(g) for g in graphs_]
        assert (reach[:, 0] == (1 << n) - 1).tolist() == connected
        block = enumeration.CensusBlock(rows)
        assert block.graph6.tolist() == [write_graph6(g) for g in graphs_]
        assert block.connected.tolist() == connected
        linked = [g for g, c in zip(graphs_, connected) if c]
        assert verify._diameters(rows[block.connected]).tolist() == [diameter(g) for g in linked]
        assert 0 < len(linked) < len(graphs_) or n == 1


def test_param_star_path_pairs():
    s4, p4 = canon_g6(star(4)), canon_g6(path(4))
    for param in ("matching", "diameter"):
        cmpres = param_comparability(4, param)
        assert (s4, p4) in cmpres.entropy_rises
    cmpres = param_comparability(4, "max_degree")
    assert (p4, s4) in cmpres.entropy_drops


def test_param_max_degree_incomparable():
    cmpres = param_comparability(5, "max_degree")
    assert cmpres.drop_count > 0 and cmpres.rise_count > 0


def test_param_counts_match_uncapped_lists():
    cmpres = param_comparability(5, "diameter", cap=10**9)
    assert cmpres.drop_count == len(cmpres.entropy_drops)
    assert cmpres.rise_count == len(cmpres.entropy_rises)
    capped = param_comparability(5, "diameter", cap=1)
    assert len(capped.entropy_rises) <= 1 and len(capped.entropy_drops) <= 1
    assert capped.drop_count == cmpres.drop_count
    assert capped.rise_count == cmpres.rise_count


def test_param_validation():
    with pytest.raises(ValueError):
        param_comparability(5, "girth")


PARAM_FUNCS = {"matching": matching_number, "diameter": diameter, "max_degree": max_degree}


@pytest.mark.parametrize("n", [4, 5, 6, 7])
@pytest.mark.parametrize("param", sorted(PARAM_FUNCS))
def test_param_comparability_matches_pair_loop(n, param):
    rows = [
        (PARAM_FUNCS[param](g), von_neumann_entropy(g), write_graph6(g))
        for g in enumerate_graphs(n, connected_only=True)
    ]
    for cap in (0, 1, 50, 10**9):
        got = param_comparability(n, param, cap=cap)
        drops, rises, drop_count, rise_count = brute_param_pairs(rows, cap)
        assert got.entropy_drops == drops
        assert got.entropy_rises == rises
        assert (got.drop_count, got.rise_count) == (drop_count, rise_count)


def test_block_params_match_the_per_graph_functions():
    # param_comparability reads diameter and max degree per census block
    connected = 0
    for n in range(1, 9):
        for block in census(n):
            rows = block.rows[block.connected]
            graphs_ = [parse_graph6(word) for word in block.graph6[block.connected].tolist()]
            assert verify._PARAMS["diameter"](rows).tolist() == [diameter(g) for g in graphs_]
            assert verify._PARAMS["max_degree"](rows).tolist() == [max_degree(g) for g in graphs_]
            connected += len(graphs_)
    assert connected == 1 + 1 + 2 + 6 + 21 + 112 + 853 + 11117


# --- kept census spectra ----------------------------------------------------------

SPECTRAL_ENGINES = [
    lambda: verify_star_min_von_neumann(7),
    lambda: verify_renyi_star_min(7, 1.5),
    lambda: verify_renyi_max(7, 3.0),
    lambda: coentropy_search(7),
    lambda: param_comparability(7, "diameter"),
]


def without_runtime(result):
    if isinstance(result, VerificationResult):
        return dataclasses.replace(result, runtime=0.0)
    return result


def counting_stacked_solves(monkeypatch):
    calls = []
    real = enumeration.density_spectra

    def counted(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(enumeration, "density_spectra", counted)
    monkeypatch.setattr(verify, "density_spectra", counted)
    return calls


def test_spectral_engines_share_one_solve_per_block(monkeypatch):
    alone = []
    for engine in SPECTRAL_ENGINES:
        clear_census()
        alone.append(without_runtime(engine()))
    clear_census()
    calls = counting_stacked_solves(monkeypatch)
    together = [without_runtime(SPECTRAL_ENGINES[0]())]
    first = list(calls)
    together += [without_runtime(engine()) for engine in SPECTRAL_ENGINES[1:]]
    assert together == alone
    # the first engine solved each block once, over its classes with an edge;
    # the later ones solve no block, and coentropy_search makes one stacked
    # solve of its 115 run members
    edged = [int(block.rows.any(axis=1).sum()) for block in census(7)]
    assert first == edged and len(edged) == 2
    assert calls == first + [115]


def test_a_scan_that_raises_keeps_no_spectra(monkeypatch):
    clear_census()
    calls = counting_stacked_solves(monkeypatch)
    real = verify.shannon_entropy

    def fail(vals):
        raise RuntimeError("consumer failed on the first block")

    monkeypatch.setattr(verify, "shannon_entropy", fail)
    with pytest.raises(RuntimeError):
        verify_star_min_von_neumann(7)
    assert len(calls) == 1 and 7 not in enumeration._CENSUS
    monkeypatch.setattr(verify, "shannon_entropy", real)
    verify_star_min_von_neumann(7)  # enumerates and solves afresh
    assert len(calls) == 3 and 7 in enumeration._CENSUS


# --- density test implication ------------------------------------------------------


def test_density_pass_forces_star_pass():
    for n in range(2, 7):
        res = verify_density_implies_star(n)
        assert res.holds
        # independent recount of density passes from raw m, n arithmetic
        from graphentropy.enumeration import enumerate_graphs

        dense = sum(
            1
            for g in enumerate_graphs(n, connected_only=True)
            if g.m * g.m * n >= (n * (n - 1) // 2 + g.m) ** 2
        )
        assert res.stats["density_pass"] == dense
        assert res.stats["star_pass"] >= dense


def test_density_implies_star_raises_when_a_dense_class_fails_the_star_test(monkeypatch):
    # a density test that passes every m marks the 8 star-test failures at
    # n = 6 as dense too
    monkeypatch.setattr(verify, "density_test", lambda n, m: True)
    with pytest.raises(TheoremViolation, match="passes the density test but fails the star test"):
        verify_density_implies_star(6)


# --- result plumbing ------------------------------------------------------------------


def test_result_invariant_enforced():
    with pytest.raises(ValueError):
        VerificationResult(
            claim="x", order=3, universe="all", holds=True,
            extremal_graphs=[], witnesses=["A_"], stats={}, runtime=0.0,
        )
    # a failing claim may keep no witness (witness cap 0)
    res = VerificationResult(
        claim="x", order=3, universe="all", holds=False,
        extremal_graphs=[], witnesses=[], stats={}, runtime=0.0,
    )
    assert not res.holds and res.witnesses == []


def test_theorem_violation_is_runtime_error():
    assert issubclass(TheoremViolation, RuntimeError)


# --- block folds ----------------------------------------------------------------------


def _random_blocks(rng, items):
    """``items`` cut at random borders into consecutive blocks, some empty."""
    cuts = sorted(rng.randrange(len(items) + 1) for _ in range(rng.randrange(1, 7)))
    return [items[a:b] for a, b in zip([0, *cuts], [*cuts, len(items)])]


def _fold_extremes(rng, values, tags, biggest, eps, dtype):
    extremes = verify._Extremes(biggest=biggest, eps=eps)
    for block in _random_blocks(rng, list(range(len(values)))):
        extremes.offer(
            np.array([values[i] for i in block], dtype=dtype), np.array([tags[i] for i in block])
        )
    return extremes


@pytest.mark.parametrize("biggest", [False, True], ids=["min", "max"])
@pytest.mark.parametrize("seed", range(25))
def test_extremes_fold_blocks_as_one_value_at_a_time(seed, biggest):
    # values on a grid of 0.3 EPS around a level that moves toward the extreme
    # by 0.45 EPS every 8 values: ties within EPS straddle block borders, and a
    # later block moves the extreme and cuts earlier ties. Every difference is a
    # multiple of 0.15 EPS, so none lies within rounding of the tie limit.
    rng = random.Random(seed)
    sign = -1 if biggest else 1
    values = [1.0 + sign * (rng.randrange(6) * 0.3 - i // 8 * 0.45) * verify.EPS for i in range(48)]
    tags = [f"w{i}" for i in range(len(values))]
    extremes = _fold_extremes(rng, values, tags, biggest, verify.EPS, float)
    best, ties = reference_extremes(values, tags, biggest, verify.EPS)
    assert extremes.tags() == ties
    assert extremes.best() == best and type(extremes.best()) is float


@pytest.mark.parametrize("biggest", [False, True], ids=["min", "max"])
@pytest.mark.parametrize("seed", range(10))
def test_extremes_fold_fraction_blocks_exactly(seed, biggest):
    rng = random.Random(seed)
    sign = -1 if biggest else 1
    # 0/1 and 0/2 (1/1 and 2/2) are one value: ties are equal values, however written
    values = [
        Fraction(rng.randrange(3), rng.randrange(1, 3)) - sign * Fraction(i // 10, 2)
        for i in range(40)
    ]
    tags = [f"w{i}" for i in range(len(values))]
    extremes = _fold_extremes(rng, values, tags, biggest, 0, object)
    best, ties = reference_extremes(values, tags, biggest, 0)
    assert extremes.tags() == ties
    assert extremes.best() == best and type(extremes.best()) is Fraction


@pytest.mark.parametrize("cap", [0, 1, 5, 100])
@pytest.mark.parametrize("seed", range(5))
def test_witnesses_count_every_block_and_keep_the_first_cap(seed, cap):
    # word arrays and plain lists, as the scans add them; 100 is above every count
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(rng.randrange(20, 40))]
    found = verify._Witnesses(cap)
    for block in _random_blocks(rng, words):
        found.add(np.array(block, dtype=str) if rng.random() < 0.5 else block)
    assert (found.count, found.kept) == reference_witnesses(words, cap)
    assert all(type(w) is str for w in found.kept)


def test_every_scan_offers_and_adds_once_per_block(monkeypatch):
    calls = {"offer": 0, "add": 0}
    for cls, name in ((verify._Extremes, "offer"), (verify._Witnesses, "add")):

        def counted(self, *args, real=getattr(cls, name), name=name):
            calls[name] += 1
            return real(self, *args)

        monkeypatch.setattr(cls, name, counted)
    blocks = len(list(census(7)))  # 1044 classes
    trees = -(-551 // verify.TREE_BLOCK)  # trees on 12 vertices
    scans = [
        (lambda: verify_star_min_von_neumann(7), blocks, blocks),
        (lambda: verify_renyi_star_min(7, 1.5), blocks, blocks),
        (lambda: verify_renyi_star_min(7, 2.0), 2 * blocks, 0),
        (lambda: verify_renyi_max(7, 3.0), blocks, 0),
        (lambda: verify_density_implies_star(7), 0, blocks),
        (lambda: verify_tree_extremes(12), 2 * trees, trees),
        (lambda: verify_tree_extremes(12, "H2"), 2 * trees, 0),
        (lambda: edge_add_decrease_search(5), 0, 21),  # one block per G: 21 connected
    ]
    for scan, offers, adds in scans:
        calls.update(offer=0, add=0)
        scan()
        assert calls == {"offer": offers, "add": adds}
