"""Exhaustive verification of the entropy extremal claims at small orders.

Every graph engine folds over the census of one order n (enumerated once per
process), the tree engine over the tree generator; each checks one claim and
returns a ``VerificationResult``.
Two kinds of claim are treated differently, on purpose:

* proved statements (the H_2 tree extremes, the exact-rational star
  uniqueness, the Renyi maximum bound, the edge-addition lower bound) are
  asserted: any scanned violation raises ``TheoremViolation``, because it
  can only mean an implementation bug;
* open statements (the star minimizes S, the path maximizes S, the star
  minimizes H_alpha for alpha != 2) are scanned for counterexamples, which
  are reported as witnesses, never raised.

Floating-point claims use an asymmetric epsilon of 1e-9: a violation must
exceed it, and a minimizer is called unique only when the runner-up gap
exceeds it. Claims that can be decided in integer arithmetic (anything
reachable through tr2) use exact rationals and no tolerance at all.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .entropy import (
    renyi_entropy,
    shannon_entropy,
    star_entropy_closed,
    star_test,
    density_test,
    tr2,
)
from .enumeration import CANON_MAX, canonical_form, census, enumerate_trees
from .graphs import (
    DegreeSequence,
    Graph,
    add_edge,
    degree_sequence,
    diameter,
    matching_number,
    max_degree,
    parse_graph6,
)
from .spectral import density_spectra, density_spectrum

EPS = 1e-9
DEFAULT_WITNESS_CAP = 1000
TREE_BLOCK = 128  # trees per stacked eigensolve; 1024 raised peak RSS by 17% at n=15


class TheoremViolation(RuntimeError):
    """A proved statement failed on a scanned graph: an implementation bug."""


@dataclass
class VerificationResult:
    """Outcome of one exhaustive claim check at one order."""

    claim: str
    order: int
    universe: str
    holds: bool
    extremal_graphs: list[str]
    witnesses: list[str]
    stats: dict
    runtime: float

    def __post_init__(self) -> None:
        # a failing claim may show no witness: --witness-cap 0 keeps none
        if self.holds and self.witnesses:
            raise ValueError("a claim that holds has no witnesses")


class _Witnesses:
    """The witnesses of one scan: an exact count, and the first ``cap`` kept in
    scan order."""

    def __init__(self, cap: int) -> None:
        if cap < 0:
            raise ValueError(f"witness cap must be >= 0, got {cap}")
        self.cap = cap
        self.count = 0
        self.kept: list = []

    def wants(self) -> bool:
        """Count one witness; True while fewer than ``cap`` are kept, so a
        caller builds only the items it keeps."""
        self.count += 1
        return len(self.kept) < self.cap

    def add(self, item: object) -> None:
        if self.wants():
            self.kept.append(item)


def _result(
    claim: str,
    n: int,
    t0: float,
    stats: dict,
    holds: bool = True,
    extremal_graphs: list[str] | None = None,
    witnesses: list[str] | None = None,
    universe: str = "connected",
) -> VerificationResult:
    """The result of a scan that started at ``t0`` (a perf_counter reading)."""
    runtime = time.perf_counter() - t0
    return VerificationResult(
        claim, n, universe, holds, extremal_graphs or [], witnesses or [], stats, runtime
    )


class _Extremes:
    """Track a running min (or max) plus everything tied within eps, in scan
    order. With eps=0, Fraction values are compared exactly."""

    def __init__(self, biggest: bool = False, eps: float = EPS) -> None:
        self.biggest = biggest
        self.eps = eps
        self.value: float | None = None
        self.limit = math.inf  # value + eps: offers up to it are ties
        self.ties: list[tuple[float, str]] = []

    def offer(self, value: float, tag: str) -> None:
        v = -value if self.biggest else value
        if self.value is None or v < self.value:
            self.value, self.limit = v, v + self.eps
            self.ties = [t for t in self.ties if (-t[0] if self.biggest else t[0]) <= self.limit]
        if v <= self.limit:
            self.ties.append((value, tag))

    def best(self) -> float:
        assert self.value is not None
        return -self.value if self.biggest else self.value

    def tags(self) -> list[str]:
        return [tag for _, tag in self.ties]


def _scan(n: int, workers: int, edged: bool = False) -> Iterator[tuple[np.ndarray, list[str]]]:
    """(adjacency rows, graph6 words) of the connected classes, block by block;
    with ``edged``, of every class with an edge instead."""
    for block in census(n, workers=workers):
        keep = block.rows.any(axis=1) if edged else block.connected
        yield block.rows[keep], block.graph6[keep].tolist()


def _spectra(n: int, workers: int, edged: bool = False) -> Iterator[tuple[list[float], str]]:
    """(density spectrum, graph6 word) per class that ``_scan`` keeps."""
    for rows, words in _scan(n, workers, edged):
        yield from zip(density_spectra(rows).tolist(), words)


def _degrees(n: int, workers: int) -> Iterator[tuple[DegreeSequence, str]]:
    """(degree sequence, graph6 word) per connected class, in Python ints."""
    for rows, words in _scan(n, workers):
        for degs, g6 in zip(np.bitwise_count(rows).tolist(), words):
            yield DegreeSequence(tuple(degs)), g6


def _graphs(n: int, workers: int) -> Iterator[tuple[Graph, str]]:
    """(graph, graph6 word) per connected class."""
    for rows, words in _scan(n, workers):
        yield from zip((Graph(n, tuple(adj)) for adj in rows.tolist()), words)


def _is_star(g: Graph) -> bool:
    return g.m == g.n - 1 and max_degree(g) == g.n - 1


def _is_path(g: Graph) -> bool:
    return g.m == g.n - 1 and max_degree(g) <= 2


def _canon_g6(g: Graph) -> str:
    # the tree generator does not emit canonical labelings; engines report
    # canonical graph6 words so outputs are comparable across engines
    return canonical_form(g).bytes.decode("ascii")


def verify_star_min_von_neumann(
    n: int, witness_cap: int = DEFAULT_WITNESS_CAP, workers: int = 1
) -> VerificationResult:
    """Does the star minimize S over connected graphs on n vertices?

    Open statement; counterexamples (S(G) < S(star) - 1e-9) become witnesses.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    found = _Witnesses(witness_cap)
    return _star_min_scan(
        "star-min-S", n, shannon_entropy, star_entropy_closed(n), {}, found, workers
    )


def _star_min_scan(
    claim: str,
    n: int,
    measure: Callable[[Sequence[float]], float],
    target: float,
    params: dict,
    found: _Witnesses,
    workers: int,
) -> VerificationResult:
    """Scan connected graphs for measure(rho(G)) < target - 1e-9 (the star's value)."""
    t0 = time.perf_counter()
    extremes = _Extremes()
    classes = 0
    for vals, g6 in _spectra(n, workers):
        classes += 1
        h = measure(vals)
        extremes.offer(h, g6)
        if h < target - EPS:
            found.add(g6)
    stats = {
        "classes": classes,
        **params,
        "min_entropy": extremes.best(),
        "star_entropy": target,
        "witness_count": found.count,
    }
    return _result(claim, n, t0, stats, found.count == 0, extremes.tags(), found.kept)


def verify_tree_extremes(
    n: int, entropy: str = "S", witness_cap: int = DEFAULT_WITNESS_CAP
) -> VerificationResult:
    """Star-minimum and path-maximum entropy over all trees on n vertices.

    ``entropy="H2"``: exact rational tr2 comparison; star unique minimum and
    path unique maximum are proved, so any failure raises TheoremViolation.
    ``entropy="S"``: floating scan reporting whether the path is the unique
    maximizer (open statement); trees tying or beating the path are
    witnesses, with S from one stacked ``density_spectra`` per ``TREE_BLOCK``
    trees. Above ``CANON_MAX`` it raises ValueError before making a tree.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if n > CANON_MAX:
        raise ValueError(f"canonical forms are supported for n <= {CANON_MAX}")
    if entropy not in ("S", "H2"):
        raise ValueError("entropy must be 'S' or 'H2'")
    found = _Witnesses(witness_cap)
    t0 = time.perf_counter()
    exact = entropy == "H2"
    top = _Extremes(biggest=True, eps=0 if exact else EPS)
    bottom = _Extremes(eps=0 if exact else EPS)
    rows: list[tuple[Fraction | float, str]] = []
    trees = enumerate_trees(n)
    while block := list(itertools.islice(trees, TREE_BLOCK)):
        if exact:
            values = [tr2(degree_sequence(g)) for g in block]
        else:
            adjs = np.array([g.adj for g in block], dtype=np.uint16)
            values = [shannon_entropy(vals) for vals in density_spectra(adjs).tolist()]
        for g, value in zip(block, values):
            g6 = _canon_g6(g)
            if _is_star(g):
                star_value = value
            if _is_path(g):
                path_value, path_g6 = value, g6
            top.offer(value, g6)
            bottom.offer(value, g6)
            rows.append((value, g6))
    if exact:
        # smaller tr2 = larger H_2. Star must have the strictly largest tr2,
        # path the strictly smallest, over all trees.
        if not (top.best() == star_value and len(top.tags()) == 1):
            raise TheoremViolation(
                f"star is not the unique H_2 minimizer among trees on {n} vertices"
            )
        if not (bottom.best() == path_value and len(bottom.tags()) == 1):
            raise TheoremViolation(
                f"path is not the unique H_2 maximizer among trees on {n} vertices"
            )
        stats = {
            "classes": len(rows),
            "star_tr2": str(star_value),
            "path_tr2": str(path_value),
            "exact": True,
        }
        extremal = top.tags() + bottom.tags()
        return _result("tree-extremes", n, t0, stats, extremal_graphs=extremal, universe="trees")

    # entropy == "S": is the path the unique maximizer of S among trees?
    for s, g6 in rows:
        if g6 != path_g6 and s >= path_value - EPS:
            found.add(g6)
    stats = {
        "classes": len(rows),
        "path_entropy": path_value,
        "max_entropy": top.best(),
        "min_entropy": bottom.best(),
        "min_graphs": bottom.tags(),
    }
    return _result(
        "tree-extremes", n, t0, stats, found.count == 0, top.tags(), found.kept, "trees"
    )


def verify_renyi_star_min(
    n: int, alpha: float, witness_cap: int = DEFAULT_WITNESS_CAP, workers: int = 1
) -> VerificationResult:
    """Does the star minimize H_alpha over connected graphs on n vertices?

    alpha = 2 is proved with strict uniqueness and is checked in exact
    rational arithmetic (star must have strictly maximal tr2); any failure
    raises TheoremViolation. Other alpha > 1 are open statements scanned in
    floating point.
    """
    if alpha <= 1:
        raise ValueError("need alpha > 1")
    if n < 2:
        raise ValueError("need n >= 2")
    found = _Witnesses(witness_cap)
    if alpha != 2.0:
        d = 2 * n - 2  # rho(K_{1,n-1}): n/d once, 1/d with multiplicity n-2, and 0
        target = renyi_entropy([n / d] + [1 / d] * (n - 2) + [0.0], alpha)
        return _star_min_scan(
            "renyi-star-min",
            n,
            lambda vals: renyi_entropy(vals, alpha),
            target,
            {"alpha": alpha},
            found,
            workers,
        )
    t0 = time.perf_counter()
    classes = 0
    star_t: Fraction | None = None
    most = _Extremes(biggest=True, eps=0)
    for d, g6 in _degrees(n, workers):
        classes += 1
        t = tr2(d)
        if d.d_sum == 2 * n - 2 and max(d.degrees) == n - 1:
            star_t = t
        most.offer(t, g6)
    if not (most.best() == star_t and len(most.tags()) == 1):
        raise TheoremViolation(
            f"star is not the strictly unique tr2 maximum over connected graphs on {n} vertices"
        )
    stats = {
        "classes": classes,
        "alpha": 2.0,
        "star_tr2": str(star_t),
        "exact": True,
        "unique": True,
    }
    return _result("renyi-star-min", n, t0, stats, extremal_graphs=most.tags())


def verify_renyi_max(n: int, alpha: float, workers: int = 1) -> VerificationResult:
    """H_alpha(G) <= log2(n-1) over all graphs with an edge, zero only at K2+isolates.

    Both parts are proved, so violations raise TheoremViolation; the result
    always holds when it returns. Edgeless graphs are skipped (no entropy).
    """
    if alpha <= 1:
        raise ValueError("need alpha > 1")
    if n < 2:
        raise ValueError("need n >= 2")
    t0 = time.perf_counter()
    bound = math.log2(n - 1)
    top = _Extremes(biggest=True)
    zero_graphs: list[str] = []
    classes = 0
    for vals, g6 in _spectra(n, workers, edged=True):
        classes += 1
        h = renyi_entropy(vals, alpha)
        if h > bound + EPS:
            raise TheoremViolation(f"H_{alpha}({g6}) = {h} exceeds log2({n}-1) = {bound}")
        top.offer(h, g6)
        if h <= EPS:
            zero_graphs.append(g6)
    # zero entropy forces rank-1 Laplacian, i.e. exactly one edge, and the
    # single-edge graph (K2 plus isolates) is one isomorphism class
    if not (len(zero_graphs) == 1 and parse_graph6(zero_graphs[0]).m == 1):
        raise TheoremViolation(
            f"zero-entropy graphs at n={n} are {zero_graphs}, expected exactly K2 + isolates"
        )
    stats = {
        "classes": classes,
        "skipped_edgeless": 1,  # the edgeless graph is the only class without an edge
        "alpha": alpha,
        "bound": bound,
        "max_entropy": top.best(),
        "zero_graphs": zero_graphs,
    }
    return _result("renyi-max", n, t0, stats, extremal_graphs=top.tags(), universe="all")


def table1_row(n: int, workers: int = 1) -> tuple[int, int, tuple[str, ...]]:
    """(failures, total, failing graph6 list) for the star test over
    connected graphs on n vertices; decided in exact integer arithmetic."""
    if n < 2:
        raise ValueError("need n >= 2")
    total = 0
    failing: list[str] = []
    for d, g6 in _degrees(n, workers):
        total += 1
        if not star_test(d, n):
            failing.append(g6)
    return len(failing), total, tuple(failing)


def failing_graph_properties(n: int, workers: int = 1) -> dict:
    """Minimum-degree report for the star-test failures at order n.

    Records, per failing graph, its minimum degree and whether it has a
    leaf; the observed pattern (every failure has a leaf) is summarized but
    not asserted, since it is an observation, not a theorem.
    """
    failures, total, failing = table1_row(n, workers=workers)
    records = []
    for g6 in failing:
        g = parse_graph6(g6)
        mind = min(row.bit_count() for row in g.adj)
        records.append({"graph6": g6, "min_degree": mind, "has_leaf": mind == 1})
    return {
        "order": n,
        "failures": failures,
        "total": total,
        "records": records,
        "all_have_leaf": all(r["has_leaf"] for r in records),
    }


def edge_add_decrease_search(
    n: int, witness_cap: int = DEFAULT_WITNESS_CAP, workers: int = 1
) -> VerificationResult:
    """Find all (G, e) with G connected on n vertices and S(G+e) < S(G) - 1e-9.

    Every scanned pair is also checked against the proved lower bound
    S(G+e) >= (d_G/(d_G+2)) S(G) (violation raises TheoremViolation). For
    n >= 5 at least one decrease pair must exist with G = K_{2,n-2} and e
    joining its two high-degree vertices; its absence also raises. The
    decrease pairs are counterexamples to entropy monotonicity and are
    returned as witnesses, so ``holds`` is False exactly when decreases
    exist (expected for n >= 5).
    """
    if n < 3:
        raise ValueError("need n >= 3")
    found = _Witnesses(witness_cap)
    t0 = time.perf_counter()
    classes = 0
    k2n2_found = False
    min_bound_margin = math.inf
    for g, g6 in _graphs(n, workers):
        classes += 1
        s_before = shannon_entropy(density_spectrum(g).values)
        d = 2 * g.m
        degs = degree_sequence(g).degrees
        is_k2n2 = (
            n >= 4
            and g.m == 2 * (n - 2)
            and sorted(degs) == [2] * (n - 2) + [n - 2, n - 2]
        )
        for u, v in g.non_edges():
            h = add_edge(g, u, v)
            s_after = shannon_entropy(density_spectrum(h).values)
            margin = s_after - (d / (d + 2)) * s_before
            if margin < min_bound_margin:
                min_bound_margin = margin
            if margin < -EPS:
                raise TheoremViolation(
                    f"S(G+e) fell below (d/(d+2))S(G) for G={g6}, e=({u},{v})"
                )
            if s_after < s_before - EPS:
                if found.wants():
                    found.kept.append(
                        {"graph6": g6, "edge": [u, v], "S_before": s_before, "S_after": s_after}
                    )
                if is_k2n2 and degs[u] == n - 2 and degs[v] == n - 2:
                    k2n2_found = True
    if n >= 5 and not k2n2_found:
        raise TheoremViolation(
            f"the proved decrease witness (K_{{2,{n-2}}}, e) did not appear at n={n}"
        )
    stats = {
        "classes": classes,
        "decrease_pairs": found.count,
        "pairs": found.kept,
        "k2n2_witness_found": k2n2_found,
        "min_bound_margin": min_bound_margin,
    }
    witnesses = [p["graph6"] for p in found.kept]
    return _result("edge-add-decrease", n, t0, stats, found.count == 0, witnesses=witnesses)


@dataclass
class CoentropyGroup:
    """Connected graphs sharing S to 1e-12 without all being cospectral."""

    entropy: float
    members: list[str]
    distinct_spectra: int


def coentropy_search(n: int, workers: int = 1) -> list[CoentropyGroup]:
    """Groups of connected graphs with equal S but different rho-spectra.

    Sort-then-sweep on S: a candidate group is a run of the sorted float64
    values of S whose consecutive gaps are all within 1e-12 (the values are
    not recomputed in higher precision). A group is kept only if some member
    pair differs by more than 1e-7 in a sorted spectrum entry.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    rows = sorted((shannon_entropy(vals), g6) for vals, g6 in _spectra(n, workers))
    groups: list[CoentropyGroup] = []
    i = 0
    while i < len(rows):
        j = i + 1
        while j < len(rows) and rows[j][0] - rows[j - 1][0] <= 1e-12:
            j += 1
        sub = rows[i:j]
        i = j
        if len(sub) < 2:
            continue
        specs = [density_spectrum(parse_graph6(g6)).values for _, g6 in sub]
        distinct = _distinct_spectra(specs)
        if distinct > 1:
            groups.append(
                CoentropyGroup(
                    entropy=sub[0][0],
                    members=[g6 for _, g6 in sub],
                    distinct_spectra=distinct,
                )
            )
    return groups


def _distinct_spectra(specs: list[tuple[float, ...]]) -> int:
    """Classes of spectra that agree entrywise within 1e-7."""
    reps: list[tuple[float, ...]] = []
    for s in specs:
        if not any(max(abs(a - b) for a, b in zip(s, r)) <= 1e-7 for r in reps):
            reps.append(s)
    return len(reps)


@dataclass
class ParamComparison:
    """Pairs showing a structural parameter and S moving together or apart."""

    param: str
    order: int
    entropy_drops: list[tuple[str, str]] = field(default_factory=list)
    entropy_rises: list[tuple[str, str]] = field(default_factory=list)
    drop_count: int = 0
    rise_count: int = 0


_PARAMS: dict[str, Callable[[Graph], int]] = {
    "matching": matching_number,
    "diameter": diameter,
    "max_degree": max_degree,
}


def param_comparability(
    n: int, param: str, cap: int = 50, workers: int = 1
) -> ParamComparison:
    """All ordered pairs of connected graphs where ``param`` strictly rises.

    ``entropy_drops`` collects pairs (G1, G2) with param(G1) < param(G2) and
    S(G1) > S(G2) + 1e-9; ``entropy_rises`` the pairs with S(G1) < S(G2) -
    1e-9. Both nonempty means the parameter and S are incomparable. Lists
    are capped at ``cap`` and keep the first pairs in row-major census order
    (G1 outer, G2 inner); counts are exact.

    No pair is visited to count. For each param level, the keys S(G2) + 1e-9
    (drops) and S(G2) - 1e-9 (rises) of the graphs at higher levels are
    sorted once and each S(G1) at that level is bisected into them, so the
    fold takes O(N log N). The keys are the same rounded float64 sums the
    pairwise comparison would form. The capped lists are then filled from the
    rows with a nonzero count only, one vectorized mask per row.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if param not in _PARAMS:
        raise ValueError(f"param must be one of {sorted(_PARAMS)}")
    f = _PARAMS[param]
    ps: list[int] = []
    ss: list[float] = []
    words: list[str] = []
    for adj_rows, block_words in _scan(n, workers):
        ps.extend(f(Graph(n, tuple(adj))) for adj in adj_rows.tolist())
        ss.extend(shannon_entropy(vals) for vals in density_spectra(adj_rows).tolist())
        words.extend(block_words)
    p = np.array(ps, dtype=np.int64)
    s = np.array(ss, dtype=np.float64)
    drop_key = s + EPS  # G2 is a drop partner of G1 when drop_key[G2] < S(G1)
    rise_key = s - EPS  # and a rise partner when rise_key[G2] > S(G1)
    drops = np.zeros(len(s), dtype=np.int64)
    rises = np.zeros(len(s), dtype=np.int64)
    for level in np.unique(p):
        at, above = p == level, p > level
        keys = np.sort(drop_key[above])
        drops[at] = np.searchsorted(keys, s[at], side="left")
        keys = np.sort(rise_key[above])
        rises[at] = len(keys) - np.searchsorted(keys, s[at], side="right")

    def first_pairs(counts: np.ndarray, partner: Callable[[int], np.ndarray]) -> list:
        # the first cap pairs (i, j) in row-major order with p[i] < p[j] and partner(i)[j]
        pairs: list[tuple[str, str]] = []
        for i in np.flatnonzero(counts).tolist():
            if len(pairs) >= cap:
                break
            js = np.flatnonzero((p > p[i]) & partner(i))[: cap - len(pairs)]
            pairs.extend((words[i], words[j]) for j in js.tolist())
        return pairs

    return ParamComparison(
        param=param,
        order=n,
        entropy_drops=first_pairs(drops, lambda i: drop_key < s[i]),
        entropy_rises=first_pairs(rises, lambda i: rise_key > s[i]),
        drop_count=int(drops.sum()),
        rise_count=int(rises.sum()),
    )


def verify_density_implies_star(n: int, workers: int = 1) -> VerificationResult:
    """density_test passing forces star_test passing, on every connected graph.

    Proved implication; a violating graph raises TheoremViolation.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    t0 = time.perf_counter()
    classes = 0
    dense = 0
    star_pass = 0
    converse_fails = _Witnesses(10)
    for d, g6 in _degrees(n, workers):
        classes += 1
        d_ok = density_test(n, d.d_sum // 2)
        s_ok = star_test(d, n)
        if d_ok:
            dense += 1
            if not s_ok:
                raise TheoremViolation(
                    f"{g6} passes the density test but fails the star test"
                )
        if s_ok:
            star_pass += 1
            if not d_ok:
                converse_fails.add(g6)
    stats = {
        "classes": classes,
        "density_pass": dense,
        "star_pass": star_pass,
        "star_pass_without_density": converse_fails.kept,
    }
    return _result("density-implies-star", n, t0, stats)
