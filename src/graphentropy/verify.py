"""Exhaustive verification of the entropy extremal claims at small orders.

Every graph engine folds over the census of one order n (kept orders are
walked once per process, whatever the order of the calls), the tree engine
over blocks of the tree generator (``_tree_blocks``); each checks one claim
and returns a ``VerificationResult``. Every fold takes a block at a time: a
running extreme (``_Extremes``) and a capped witness list (``_Witnesses``)
are offered a block's values and words as arrays, and one exact tr2 fold
(``_tr2_extremes``) serves both H_2 scans. The spectral engines read the
density spectra each census block keeps (the connected classes' through
``_measured``), so a kept order's spectra are solved once per process, by
the first engine that asks; ``coentropy_search`` re-solves only its runs'
rows. The engines that read only degrees never solve: they read int64
degree sums per block (``_degree_sums``), test them against per-m star and
density tables, and compare tr2 by int64 cross-multiplication, making a
Fraction only for a value they report. Two kinds of claim are treated
differently, on purpose:

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

import bisect
import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .entropy import (
    _star_inequality,
    density_test,
    renyi_entropy,
    shannon_entropy,
    star_entropy_closed,
)
from .enumeration import (
    CANON_MAX, CENSUS_BLOCK, _reach_step, canonical_form, census, enumerate_trees
)
from .graphs import Graph, add_edge, matching_number, parse_graph6
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


def _witness_cap(cap: int) -> int:
    """``cap``, checked by the one rule for every witness cap: an int >= 0."""
    if not (isinstance(cap, int) and cap >= 0):
        raise ValueError(f"witness cap must be >= 0 and an int, got {cap!r}")
    return cap


class _Witnesses:
    """The witnesses of one scan: an exact count, and the first ``cap`` kept in
    scan order."""

    def __init__(self, cap: int) -> None:
        self.cap = _witness_cap(cap)
        self.count = 0
        self.kept: list = []

    def add(self, items: Sequence) -> None:
        """Count one block's witnesses (an array of words or a list), in scan
        order, and keep them while fewer than ``cap`` are kept."""
        self.count += len(items)
        self.kept += np.asarray(items[: self.cap - len(self.kept)], dtype=object).tolist()


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
    """A running min (or max) of blocks of values, and every value offered
    within eps of the final one, in scan order. With eps=0, Fraction values
    (object arrays) are compared exactly."""

    def __init__(self, biggest: bool = False, eps: float = EPS) -> None:
        self.biggest = biggest
        self.eps = eps
        self.limit = math.inf  # the signed extreme + eps: values up to it are ties
        self.ties: list[tuple[object, str]] = []

    def offer(self, values: np.ndarray, tags: np.ndarray) -> None:
        """Offer one block's values and tags, in scan order: those within eps of
        the running extreme join the ties, and a lower extreme cuts the ties."""
        signed = -values if self.biggest else values
        if len(signed) and (low := signed.min()) + self.eps < self.limit:
            self.limit = low + self.eps
            self.ties = [t for t in self.ties if (-t[0] if self.biggest else t[0]) <= self.limit]
        keep = signed <= self.limit
        self.ties += zip(values[keep].tolist(), tags[keep].tolist())

    def best(self) -> object:
        """The extreme, as a Python float or the exact Fraction."""
        return (max if self.biggest else min)(value for value, _ in self.ties)

    def tags(self) -> list[str]:
        return [tag for _, tag in self.ties]


def _scan(n: int, workers: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(rows, graph6 words) of each census block's connected classes, as the
    block's arrays: a caller makes a str only of a word it reports."""
    for block in census(n, workers=workers):
        yield block.rows[block.connected], block.graph6[block.connected]


def _measured(
    n: int, workers: int, measure: Callable[[Sequence[float]], float]
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(rows, graph6 words, float64 ``measure`` of each kept ``spectra`` row)
    of each ``census`` block's connected classes, all ``edged`` for n >= 2, as
    arrays: a fold that keeps them holds no str or float object per class."""
    for block in census(n, workers=workers):
        kept = block.spectra[block.connected[block.edged]].tolist()
        values = np.array([measure(v) for v in kept], dtype=float)
        yield block.rows[block.connected], block.graph6[block.connected], values


def _degree_sums(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """int64 (degrees, d_G, sum of squared degrees) of stacked adjacency rows,
    one entry per row; ``np.bitwise_count`` gives uint8, widened before squaring."""
    degs = np.bitwise_count(rows).astype(np.int64)
    return degs, degs.sum(axis=1), (degs * degs).sum(axis=1)


def _is_star(degs: np.ndarray, d_g: np.ndarray) -> np.ndarray:
    """Which of these connected graphs, by degrees and d_G, is the star K_{1,n-1}."""
    n = degs.shape[1]
    return (d_g == 2 * n - 2) & (degs.max(axis=1) == n - 1)


def _tr2_at(d_g: np.ndarray, sq: np.ndarray, i: int) -> Fraction:
    """``tr2`` of class i, (sum d_i^2 + d_G) / d_G^2: a value a scan reports."""
    return Fraction(int(sq[i] + d_g[i]), int(d_g[i] * d_g[i]))


def _tr2_extremes(
    blocks: Iterable[tuple[np.ndarray, np.ndarray]],
) -> tuple[int, Fraction | None, _Extremes, _Extremes]:
    """(classes, the star's tr2 or None, exact trackers of the largest and the
    smallest tr2) over (rows, words) blocks of connected classes. Per block and
    tracker, int64 cross-multiplication (products below 10^9 at n <= 16) moves
    from the first class to the first class past the current one until none
    is, then offers its ties; a Fraction is made only for that value and the star's."""
    classes, star = 0, None
    trackers = _Extremes(biggest=True, eps=0), _Extremes(eps=0)
    for rows, words in blocks:
        degs, d_g, sq = _degree_sums(rows)
        classes += len(words)
        for i in np.flatnonzero(_is_star(degs, d_g)).tolist():
            star = _tr2_at(d_g, sq, i)
        num, den = sq + d_g, d_g * d_g
        for extremes in trackers:
            sign = 1 if extremes.biggest else -1
            i = 0
            while (past := np.flatnonzero(sign * (num * den[i] - num[i] * den) > 0)).size:
                i = int(past[0])
            ties = num * den[i] == num[i] * den
            extremes.offer(np.full(ties.sum(), _tr2_at(d_g, sq, i), dtype=object), words[ties])
    return classes, star, *trackers


def _star_ceilings(n: int) -> np.ndarray:
    """ceilings[m], m = 0..C(n,2): the largest sum of squared degrees with which
    m edges on n vertices pass ``star_test`` (-1 if none). Its inequality turns
    false as the sum grows, which is at most 2m(n-1), so a bisection finds it."""
    return np.array([
        bisect.bisect(
            range(2 * m * (n - 1) + 1), False, key=lambda s: not _star_inequality(n, 2 * m, s)
        ) - 1
        for m in range(math.comb(n, 2) + 1)
    ])


def _strict_extreme(extremes: _Extremes, expected: object, message: str) -> None:
    """A proved strict extreme: raise TheoremViolation(message) unless
    ``expected`` is the best value and no other class ties it."""
    if not (extremes.best() == expected and len(extremes.tags()) == 1):
        raise TheoremViolation(message)


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
    for _, words, values in _measured(n, workers, measure):
        classes += len(words)
        extremes.offer(values, words)
        found.add(words[values < target - EPS])
    stats = {
        "classes": classes,
        **params,
        "min_entropy": extremes.best(),
        "star_entropy": target,
        "witness_count": found.count,
    }
    return _result(claim, n, t0, stats, found.count == 0, extremes.tags(), found.kept)


def _tree_blocks(n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(uint16 adjacency rows, canonical words) of the trees on n vertices,
    ``TREE_BLOCK`` at a time in ``enumerate_trees`` order, whose first tree is
    the path (TheoremViolation if it has a degree above 2). Each tree is
    canonicalized by one ``canonical_form`` call: WROM labels are not canonical."""
    trees = enumerate_trees(n)
    first = True
    while block := list(itertools.islice(trees, TREE_BLOCK)):
        rows = np.array([g.adj for g in block], dtype=np.uint16)
        if first and np.bitwise_count(rows[0]).max() > 2:
            raise TheoremViolation(f"the first tree on {n} vertices is not the path")
        first = False
        yield rows, np.array([canonical_form(g) for g in block])


def verify_tree_extremes(
    n: int, entropy: str = "S", witness_cap: int = DEFAULT_WITNESS_CAP
) -> VerificationResult:
    """Star-minimum and path-maximum entropy over all trees on n vertices.

    ``entropy="H2"``: exact rational tr2 comparison by ``_tr2_extremes``; star
    unique minimum and path unique maximum are proved, so any failure raises
    TheoremViolation. ``entropy="S"``: floating scan reporting whether the
    path is the unique maximizer (open statement); trees tying or beating the
    path are witnesses. Both read one pass of ``_tree_blocks``, whose first
    tree is the path, so each block is decided as it comes and none is kept:
    H2 from its rows' degrees, S by one ``density_spectra`` call. Above
    ``CANON_MAX`` it raises ValueError before making a tree.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if n > CANON_MAX:
        raise ValueError(f"canonical forms are supported for n <= {CANON_MAX}")
    if entropy not in ("S", "H2"):
        raise ValueError("entropy must be 'S' or 'H2'")
    found = _Witnesses(witness_cap)
    t0 = time.perf_counter()
    if entropy == "H2":
        classes, star_value, top, bottom = _tr2_extremes(_tree_blocks(n))
        path_value = Fraction(6 * n - 8, (2 * n - 2) ** 2)  # degrees 1, 2, ..., 2, 1
        # smaller tr2 = larger H_2. Star must have the strictly largest tr2,
        # path the strictly smallest, over all trees.
        trees_n = f"among trees on {n} vertices"
        _strict_extreme(top, star_value, f"star is not the unique H_2 minimizer {trees_n}")
        _strict_extreme(bottom, path_value, f"path is not the unique H_2 maximizer {trees_n}")
        stats = {
            "classes": classes,
            "star_tr2": str(star_value),
            "path_tr2": str(path_value),
            "exact": True,
        }
        extremal = top.tags() + bottom.tags()
        return _result("tree-extremes", n, t0, stats, extremal_graphs=extremal, universe="trees")

    # entropy == "S": is the path the unique maximizer of S among trees?
    top, bottom = _Extremes(biggest=True), _Extremes()
    classes = 0
    for rows, words in _tree_blocks(n):
        values = np.array([shannon_entropy(vals) for vals in density_spectra(rows).tolist()])
        if classes == 0:
            path_value = float(values[0])
        ties = words[values >= path_value - EPS]  # ties or beats the path
        found.add(ties[1:] if classes == 0 else ties)  # the path itself comes first
        classes += len(words)
        top.offer(values, words)
        bottom.offer(values, words)
    stats = {
        "classes": classes,
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
    if not alpha > 1:  # NaN too
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
    classes, star_t, most, _ = _tr2_extremes(_scan(n, workers))
    msg = f"star is not the strictly unique tr2 maximum over connected graphs on {n} vertices"
    _strict_extreme(most, star_t, msg)
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
    if not alpha > 1:  # NaN too
        raise ValueError("need alpha > 1")
    if n < 2:
        raise ValueError("need n >= 2")
    t0 = time.perf_counter()
    bound = math.log2(n - 1)
    top = _Extremes(biggest=True)
    zero_graphs: list[str] = []
    classes = 0
    for block in census(n, workers=workers):  # the one engine that reads disconnected classes
        words = block.graph6[block.edged]
        h = np.array([renyi_entropy(vals, alpha) for vals in block.spectra.tolist()])
        classes += len(h)
        over = np.flatnonzero(h > bound + EPS)
        if over.size:
            g6, value = words[over[0]], h[over[0]]
            raise TheoremViolation(f"H_{alpha}({g6}) = {value} exceeds log2({n}-1) = {bound}")
        top.offer(h, words)
        zero_graphs += words[h <= EPS].tolist()
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
    connected graphs on n vertices; decided in exact integer arithmetic, per
    block against the per-m ceilings of ``_star_ceilings``."""
    if n < 2:
        raise ValueError("need n >= 2")
    ceilings = _star_ceilings(n)
    total = 0
    failing: list[str] = []
    for rows, words in _scan(n, workers):
        _, d_g, sq = _degree_sums(rows)
        total += len(words)
        failing += words[sq > ceilings[d_g // 2]].tolist()
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
    graphs = (
        (Graph(n, tuple(adj)), degs, sum(degs), g6)
        for rows, words in _scan(n, workers)
        for adj, degs, g6 in zip(rows.tolist(), _degree_sums(rows)[0].tolist(), words.tolist())
    )
    for g, degs, d, g6 in graphs:
        classes += 1
        s_before = shannon_entropy(density_spectrum(g))
        is_k2n2 = n >= 4 and sorted(degs) == [2] * (n - 2) + [n - 2, n - 2]
        decreases = []
        for u, v in g.non_edges():
            h = add_edge(g, u, v)
            s_after = shannon_entropy(density_spectrum(h))
            margin = s_after - (d / (d + 2)) * s_before
            if margin < min_bound_margin:
                min_bound_margin = margin
            if margin < -EPS:
                raise TheoremViolation(
                    f"S(G+e) fell below (d/(d+2))S(G) for G={g6}, e=({u},{v})"
                )
            if s_after < s_before - EPS:
                decreases.append(
                    {"graph6": g6, "edge": [u, v], "S_before": s_before, "S_after": s_after}
                )
                if is_k2n2 and degs[u] == n - 2 and degs[v] == n - 2:
                    k2n2_found = True
        found.add(decreases)
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
    """Connected graphs sharing S to 1e-12, not all cospectral, in ``coentropy_search``'s order."""

    entropy: float
    members: list[str]
    distinct_spectra: int


def coentropy_search(n: int, workers: int = 1) -> list[CoentropyGroup]:
    """Groups of connected graphs with equal S but different rho-spectra.

    A column fold: each connected class's census row, graph6 word and S are
    kept and ordered as sorted (S, word) pairs are. A run of that order with
    every gap in S within 1e-12 (float64, not recomputed) is a candidate
    group; the members of all runs of two or more are re-solved from their
    rows by ``density_spectra`` calls of up to ``CENSUS_BLOCK`` rows, and a
    run is kept if some pair differs by over 1e-7 in a sorted spectrum entry.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    rows, words, s = (np.concatenate(c) for c in zip(*_measured(n, workers, shannon_entropy)))
    order = np.lexsort((words, s))
    starts = np.flatnonzero(np.diff(s[order], prepend=-np.inf) > 1e-12)
    sizes = np.diff(starts, append=len(order))
    runs = [order[a : a + k] for a, k in zip(starts[sizes > 1].tolist(), sizes[sizes > 1].tolist())]
    members = rows[order[np.repeat(sizes > 1, sizes)]]  # the runs' rows, concatenated
    spectra = itertools.chain.from_iterable(
        density_spectra(members[i : i + CENSUS_BLOCK]).tolist()
        for i in range(0, len(members), CENSUS_BLOCK)
    )
    return [
        CoentropyGroup(float(s[run[0]]), words[run].tolist(), distinct)
        for run in runs
        if (distinct := _distinct_spectra([next(spectra) for _ in run])) > 1
    ]


def _distinct_spectra(specs: list[list[float]]) -> int:
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


def _diameters(rows: np.ndarray) -> np.ndarray:
    """The diameter of each of these connected classes' stacked rows: the
    number of ``_reach_step``s, taken from every source at once (``CensusBlock``
    takes them from vertex 0), until each source reaches every vertex."""
    n = rows.shape[1]
    full = (1 << n) - 1
    reach = np.ones_like(rows) << np.arange(n, dtype=rows.dtype)  # source s reaches {s}
    diam = np.zeros(len(rows), dtype=np.int64)
    for _ in range(n - 1):
        far = (reach != full).any(axis=1)
        if not far.any():
            break
        diam += far
        reach = _reach_step(rows, reach)
    return diam


# each parameter of a block's connected classes, from their stacked rows
_PARAMS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "matching": lambda rows: np.array(
        [matching_number(Graph(rows.shape[1], adj)) for adj in map(tuple, rows.tolist())],
        dtype=np.int64,
    ),
    "diameter": _diameters,
    "max_degree": lambda rows: np.bitwise_count(rows).max(axis=1),
}


def param_comparability(
    n: int, param: str, cap: int = 50, workers: int = 1
) -> ParamComparison:
    """All ordered pairs of connected graphs where ``param`` strictly rises.

    ``entropy_drops`` collects pairs (G1, G2) with param(G1) < param(G2) and
    S(G1) > S(G2) + 1e-9; ``entropy_rises`` the pairs with S(G1) < S(G2) -
    1e-9. Both nonempty means the parameter and S are incomparable. Lists
    are capped at ``cap`` and keep the first pairs in row-major census order
    (G1 outer, G2 inner); counts are exact. ``cap`` follows the witness-cap
    rule (an int >= 0), checked before the census is read.

    The parameter is read per census block, from the stacked rows of its
    connected classes (``_PARAMS``): diameter by one bitmask BFS from every
    source (``_diameters``), max_degree by popcounts, and the matching number
    per class by ``matching_number``. With ``workers`` > 1 the census is
    sharded; the result does not depend on ``workers``.

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
    cap = _witness_cap(cap)
    f = _PARAMS[param]
    ps, words, s = zip(*((f(rows), w, v) for rows, w, v in _measured(n, workers, shannon_entropy)))
    p = np.concatenate(ps, dtype=np.int64)
    words, s = np.concatenate(words), np.concatenate(s)
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
            pairs.extend((str(words[i]), str(words[j])) for j in js.tolist())
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

    Proved implication; a violating graph raises TheoremViolation. Both tests
    are read per block from per-m tables: ``density_test`` of each m and the
    star ceilings of ``_star_ceilings``.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    t0 = time.perf_counter()
    ceilings = _star_ceilings(n)
    dense_m = np.array([density_test(n, m) for m in range(len(ceilings))])
    classes = 0
    dense = 0
    star_pass = 0
    converse_fails = _Witnesses(10)
    for rows, words in _scan(n, workers):
        _, d_g, sq = _degree_sums(rows)
        classes += len(words)
        d_ok = dense_m[d_g // 2]
        s_ok = sq <= ceilings[d_g // 2]
        bad = np.flatnonzero(d_ok & ~s_ok)
        if bad.size:
            raise TheoremViolation(
                f"{words[bad[0]]} passes the density test but fails the star test"
            )
        dense += int(d_ok.sum())
        star_pass += int(s_ok.sum())
        converse_fails.add(words[s_ok & ~d_ok])
    stats = {
        "classes": classes,
        "density_pass": dense,
        "star_pass": star_pass,
        "star_pass_without_density": converse_fails.kept,
    }
    return _result("density-implies-star", n, t0, stats)
