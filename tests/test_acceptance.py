"""Acceptance gate: one test per published claim, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see every verdict; without
``-s`` the lines still appear for any failing criterion. Budgets are printed
for reference but not asserted, so slow hardware cannot flip a verdict.

Criterion 1 reaches n = 9 and 10 in about a second: the star-test failures
there come from a walk that skips every subtree the degree bounds certify,
and the totals from the table of connected-class counts. tests/test_verify.py
checks that table and those failures against a census scan: at n <= 8 always,
at n = 9 when GEL_STRETCH is 9 or 10, and at n = 10 when it is 10.
"""

import math
import time
from fractions import Fraction

from graphentropy import (
    bipartite_entropy_closed,
    canonical_form,
    complete,
    complete_bipartite,
    degree_sequence,
    density_spectrum,
    disjoint_union,
    edge_add_decrease_search,
    empty_graph,
    enumerate_graphs,
    failing_graph_properties,
    graph_renyi_entropy,
    h2_degree,
    k2n2_closed,
    parse_graph6,
    renyi_entropy,
    shannon_entropy,
    star,
    star_entropy_closed,
    table1_row,
    verify_renyi_star_min,
    verify_star_min_von_neumann,
    verify_tree_extremes,
    von_neumann_entropy,
    coentropy_search,
    TheoremViolation,
)

from _oracles import edge_mask, labeled_classes, min_mask

TABLE1 = {
    2: (0, 1), 3: (1, 2), 4: (2, 6), 5: (4, 21), 6: (8, 112), 7: (16, 853), 8: (49, 11117),
    9: (106, 261080), 10: (307, 11716571),
}


def report(num: int, ok: bool, detail: str, t0: float, budget: float) -> None:
    elapsed = time.perf_counter() - t0
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] criterion {num}: {detail} [{elapsed:.1f}s, budget {budget:.0f}s]")


def test_criterion_01_failure_counts():
    t0 = time.perf_counter()
    got = {n: table1_row(n)[:2] for n in range(2, 11)}
    ok = got == TABLE1
    detail = "star-test failures over connected graphs, n=2..10: " + ", ".join(
        f"{got[n][0]}/{got[n][1]}" for n in range(2, 11)
    )
    report(1, ok, detail, t0, 30)
    assert ok


def test_criterion_02_closed_forms_match_spectra():
    t0 = time.perf_counter()
    dev = 0.0
    for n in range(2, 51):
        s = von_neumann_entropy(star(n))
        dev = max(dev, abs(s - star_entropy_closed(n)))
    for a in range(1, 11):
        for b in range(a, 11):
            if a == b == 1:
                s = von_neumann_entropy(complete_bipartite(1, 1))
                dev = max(dev, abs(s - bipartite_entropy_closed(1, 1)))
                continue
            s = von_neumann_entropy(complete_bipartite(a, b))
            dev = max(dev, abs(s - bipartite_entropy_closed(a, b)))
    ok = dev < 1e-10
    report(2, ok, f"star n<=50 and K_a,b a,b<=10 closed forms vs spectra, max dev {dev:.2e}", t0, 5)
    assert ok


def test_criterion_03_complete_graph_and_zero_entropy():
    t0 = time.perf_counter()
    dev = 0.0
    for n in range(2, 31):
        g = complete(n)
        target = math.log2(n - 1) if n > 2 else 0.0
        dev = max(dev, abs(von_neumann_entropy(g) - target))
        for alpha in (1.1, 2.0, 5.0):
            dev = max(dev, abs(graph_renyi_entropy(g, alpha) - target))
    exact_zero = von_neumann_entropy(complete(2)) == 0.0
    for n in range(3, 31):
        g = disjoint_union([complete(2), empty_graph(n - 2)])
        exact_zero = exact_zero and von_neumann_entropy(g) == 0.0
    ok = dev < 1e-10 and exact_zero
    report(
        3, ok,
        f"K_n entropies equal lg(n-1) to {dev:.2e} for n<=30; single-edge graphs exactly 0.0",
        t0, 5,
    )
    assert ok


def test_criterion_04_collision_entropy_identities():
    t0 = time.perf_counter()
    dev = 0.0
    order_ok = True
    classes = 0
    for n in range(2, 8):
        for g in enumerate_graphs(n, connected_only=True):
            classes += 1
            probs = density_spectrum(g)
            h2_spec = renyi_entropy(probs, 2.0)
            h2_deg = h2_degree(degree_sequence(g))
            dev = max(dev, abs(h2_spec - h2_deg))
            if shannon_entropy(probs) < h2_spec - 1e-9:
                order_ok = False
    ok = dev < 1e-9 and order_ok
    report(
        4, ok,
        f"{classes} connected graphs n<=7: spectral vs degree H_2 max dev {dev:.2e}, S >= H_2 held",
        t0, 60,
    )
    assert ok


def test_criterion_05_exact_h2_extremes():
    t0 = time.perf_counter()
    ok = True
    detail = "exact tr2: star uniquely max over connected n<=8, star/path extremal over trees n<=12"
    try:
        for n in range(2, 9):
            res = verify_renyi_star_min(n, 2.0)
            ok = ok and res.holds and res.stats["exact"]
        for n in range(3, 13):
            res = verify_tree_extremes(n, entropy="H2")
            ok = ok and res.holds and res.stats["exact"]
    except TheoremViolation as exc:
        ok = False
        detail += f" (VIOLATION: {exc})"
    report(5, ok, detail, t0, 180)
    assert ok


def test_criterion_06_edge_addition_decrease():
    t0 = time.perf_counter()
    min_gap = math.inf
    for n in range(5, 41):
        before, after = k2n2_closed(n)
        min_gap = min(min_gap, before - after)
    ok = min_gap > 1e-12
    detail = f"closed-form entropy drop for K_2,n-2 + e, 5<=n<=40, min gap {min_gap:.3e}"
    try:
        for n in (5, 6):
            res = edge_add_decrease_search(n)
            found = res.stats["k2n2_witness_found"]
            bound_ok = res.stats["min_bound_margin"] >= -1e-9
            ok = ok and (not res.holds) and found and bound_ok
            detail += f"; n={n}: {res.stats['decrease_pairs']} decrease pairs, bound margin ok"
    except TheoremViolation as exc:
        ok = False
        detail += f" (VIOLATION: {exc})"
    report(6, ok, detail, t0, 60)
    assert ok


def test_criterion_07_minimality_scans():
    t0 = time.perf_counter()
    ok = True
    parts = []
    for n in range(2, 9):
        res = verify_star_min_von_neumann(n)
        ok = ok and res.holds
    parts.append("star min S over connected n<=8")
    for n in range(3, 16):
        res = verify_tree_extremes(n, entropy="S")
        ok = ok and res.holds
    parts.append("path max S over trees n<=15")
    for alpha in (1.1, 1.5, 5.0, 10.0):
        for n in range(2, 9):
            res = verify_renyi_star_min(n, alpha)
            ok = ok and res.holds
    parts.append("star min H_alpha, alpha in {1.1,1.5,5,10}, n<=8")
    report(7, ok, "; ".join(parts), t0, 600)
    assert ok


def test_criterion_08_equal_entropy_different_spectra():
    t0 = time.perf_counter()
    spec_a = (Fraction(1, 3), Fraction(1, 4)) + (Fraction(1, 12),) * 5 + (Fraction(0),)
    spec_b = (
        Fraction(1, 3), Fraction(1, 6), Fraction(1, 6), Fraction(1, 8),
        Fraction(1, 8), Fraction(1, 24), Fraction(1, 24), Fraction(0),
    )
    assert sum(spec_a) == sum(spec_b) == 1
    s_a = shannon_entropy([float(p) for p in spec_a])
    s_b = shannon_entropy([float(p) for p in spec_b])
    pair_ok = abs(s_a - s_b) < 1e-12

    k26 = canonical_form(complete_bipartite(2, 6))
    s_k26 = bipartite_entropy_closed(2, 6)
    groups = coentropy_search(8)
    # the whole result: the n=7 fingerprints have no group, so this is what
    # pins _distinct_spectra
    assert [(f"{g.entropy:.12g}", g.members, g.distinct_spectra) for g in groups] == [
        ("2.52205520887", ["G??F~w", "G`?G^{"], 2),
        ("2.64160416787", ["G?K~~{", "G?B~~{"], 2),
        ("2.66012975263", ["G?B~v{", "G?K~~w"], 2),
    ]
    partner_ok = False
    for grp in groups:
        if k26 not in grp.members:
            continue
        for g6 in grp.members:
            vals = density_spectrum(parse_graph6(g6))
            if all(abs(v - float(p)) <= 1e-7 for v, p in zip(vals, spec_b)):
                member_s = shannon_entropy(vals)
                if abs(member_s - s_k26) <= 1e-9:
                    partner_ok = True
    ok = pair_ok and partner_ok
    report(
        8, ok,
        f"displayed spectra entropies differ by {abs(s_a - s_b):.1e}; "
        f"order-8 partner of K_2,6 realizes the second spectrum",
        t0, 300,
    )
    assert ok


def test_criterion_09_failures_have_leaves():
    t0 = time.perf_counter()
    ok = True
    total_failures = 0
    for n in range(2, 9):
        rep = failing_graph_properties(n)
        total_failures += rep["failures"]
        ok = ok and rep["all_have_leaf"]
    report(9, ok, f"all {total_failures} star-test failures for n<=8 have a leaf", t0, 30)
    assert ok


def test_criterion_10_enumeration_matches_brute_force():
    t0 = time.perf_counter()
    ok = True
    counts = []
    for n in range(1, 7):
        ours = {min_mask(n, edge_mask(g)) for g in enumerate_graphs(n)}
        ok = ok and ours == labeled_classes(n)
        ours_c = {min_mask(n, edge_mask(g)) for g in enumerate_graphs(n, connected_only=True)}
        ok = ok and ours_c == labeled_classes(n, connected_only=True)
        counts.append(len(ours_c))
    ok = ok and counts[3:] == [6, 21, 112]
    report(
        10, ok,
        f"canonical augmentation equals labeled dedup for n<=6 (connected: {counts})",
        t0, 60,
    )
    assert ok
