import math
from fractions import Fraction

import numpy as np
import pytest

from graphentropy.entropy import renyi_entropy, star_entropy_closed, von_neumann_entropy
from graphentropy.enumeration import CANON_MAX, canonical_form, enumerate_graphs
from graphentropy.graphs import (
    add_edge,
    complete,
    degree_sequence,
    diameter,
    is_connected,
    laplacian,
    matching_number,
    max_degree,
    parse_graph6,
    path,
    star,
    write_graph6,
)
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

from _oracles import brute_param_pairs

# star-test failure counts over connected graphs, by order
FAILURE_ROWS = {2: (0, 1), 3: (1, 2), 4: (2, 6), 5: (4, 21), 6: (8, 112), 7: (16, 853)}


def canon_g6(g):
    return write_graph6(canonical_form(g).graph())


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


def test_tree_extremes_validation():
    with pytest.raises(ValueError):
        verify_tree_extremes(2)
    with pytest.raises(ValueError):
        verify_tree_extremes(6, entropy="H3")


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


def test_renyi_max_validation():
    with pytest.raises(ValueError):
        verify_renyi_max(5, 1.0)
    with pytest.raises(ValueError):
        verify_renyi_max(1, 2.0)


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


# --- parameter comparability ----------------------------------------------------------


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
