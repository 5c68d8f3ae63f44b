"""Exhaustive verification of the entropy extremal claims at small orders.

The graph engines fold over the census of one order n (kept orders are
walked once per process, whatever the order of the calls), the tree engine
over blocks of the tree generator (``_tree_blocks``); each checks one claim
and returns a ``VerificationResult``. The star scans (star-min-S, table1 and
renyi-star-min for 1 < alpha <= 2) fold over the star-test failures only
(``_star_blocks``): a class that passes has H_alpha >= H_2 >= S(star) >
H_2(star), with room to spare, so it is never a witness or a tie of the
minimum (at alpha = 2 this is certified in exact rationals). At a kept
order they filter the census; at n = 9 and 10 they filter a walk that skips
every subtree two proved degree bounds clear (``_star_keep``), and read the
class totals from ``CONNECTED_CLASSES``. Every fold takes a block at a time: a
running extreme (``_Extremes``) and a capped witness list (``_Witnesses``)
are offered a block's values and words as arrays, and one exact tr2 fold
(``_tr2_extremes``) serves both H_2 scans. The census keeps no spectra: a
spectral engine solves the rows it reads, ``SOLVE_ROWS`` per stacked call
(``_spectra``), and measures one spectrum at a time (``_measure_rows``), so
no block of spectra is held. The engines that read only degrees never solve:
they read int64 degree sums per block (``_degree_sums``), test them against
per-m star and density tables, and compare tr2 by int64 cross-multiplication,
making a Fraction only for a value they report. Two kinds of claim are treated
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
    _K1,
    CANON_MAX,
    CENSUS_KEPT,
    CENSUS_MAX,
    _blocks,
    _reach_step,
    _walk,
    canonical_form,
    census,
    enumerate_trees,
)
from .graphs import Graph, add_edge, matching_number, parse_graph6
from .spectral import density_spectra, density_spectrum

EPS = 1e-9
DEFAULT_WITNESS_CAP = 1000
SOLVE_ROWS = 128  # rows per stacked eigensolve; 1024 raised peak RSS by 17% at n=15
# connected classes on n vertices, n = 0..CENSUS_MAX (OEIS A001349)
CONNECTED_CLASSES = (1, 1, 1, 2, 6, 21, 112, 853, 11117, 261080, 11716571)


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


def _spectra(rows: np.ndarray) -> Iterator[np.ndarray]:
    """The density spectrum of each of these adjacency rows, in row order,
    solved by ``density_spectra`` calls of at most ``SOLVE_ROWS`` rows."""
    for i in range(0, len(rows), SOLVE_ROWS):
        yield from density_spectra(rows[i : i + SOLVE_ROWS])


def _measure_rows(rows: np.ndarray, measure: Callable[[Sequence[float]], float]) -> np.ndarray:
    """float64 ``measure`` of each row's density spectrum (``_spectra``), in
    row order; each spectrum is a list of Python floats only while measured."""
    return np.fromiter((measure(row.tolist()) for row in _spectra(rows)), dtype=float)


def _measured(
    n: int, workers: int, measure: Callable[[Sequence[float]], float]
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(rows, graph6 words, float64 ``measure`` of each density spectrum) of
    each ``census`` block's connected classes, all with an edge for n >= 2, as
    arrays: a fold that keeps them holds no str or float object per class."""
    for block in census(n, workers=workers):
        rows = block.rows[block.connected]
        yield rows, block.graph6[block.connected], _measure_rows(rows, measure)


def _degree_sums(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """int64 (degrees, d_G, sum of squared degrees) of stacked adjacency rows,
    one entry per row; ``np.bitwise_count`` gives uint8, widened before squaring."""
    degs = np.bitwise_count(rows).astype(np.int64)
    return degs, degs.sum(axis=1), (degs * degs).sum(axis=1)


def _is_star(degs: np.ndarray, d_g: np.ndarray) -> np.ndarray:
    """Which of these connected graphs, by degrees and d_G, is the star K_{1,n-1}."""
    n = degs.shape[1]
    return (d_g == 2 * n - 2) & (degs.max(axis=1) == n - 1)


def _tr2_extremes(
    blocks: Iterable[tuple[np.ndarray, np.ndarray]],
) -> tuple[int, Fraction | None, _Extremes, _Extremes]:
    """(classes, the star's tr2 or None, exact trackers of the largest and the
    smallest tr2) over (rows, words) blocks of connected classes, some of
    which may be empty. tr2 is (sum d_i^2 + d_G) / d_G^2. Per block and
    tracker, int64 cross-multiplication (products below 10^9 at n <= 16)
    moves from the first class to the first class past the current one until
    none is, then offers its ties; a Fraction is made only for a tie and the star."""
    classes, star = 0, None
    trackers = _Extremes(biggest=True, eps=0), _Extremes(eps=0)
    for rows, words in blocks:
        degs, d_g, sq = _degree_sums(rows)
        classes += len(words)
        num, den = sq + d_g, d_g * d_g
        for i in np.flatnonzero(_is_star(degs, d_g)).tolist():
            star = Fraction(int(num[i]), int(den[i]))
        for extremes in trackers:
            sign = 1 if extremes.biggest else -1
            at = slice(0, 1)  # the current class, a slice: an empty block moves nowhere
            while (past := np.flatnonzero(sign * (num * den[at] - num[at] * den) > 0)).size:
                at = slice(past[0], past[0] + 1)
            ties = num * den[at] == num[at] * den
            values = [Fraction(a, b) for a, b in zip(num[ties].tolist(), den[ties].tolist())]
            extremes.offer(np.array(values, dtype=object), words[ties])
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


def _max_square_sum(n: int, m: int) -> int:
    """The largest sum of squared degrees of a graph with n vertices and m
    edges: the quasi-complete graph's or the quasi-star's, its complement's
    (Ahlswede & Katona, Acta Math. Acad. Sci. Hungar. 32, 1978)."""

    def quasi_complete(m: int) -> int:  # K_k, and one more vertex joined to r of it
        k = (1 + math.isqrt(1 + 8 * m)) // 2  # the largest k with C(k, 2) <= m
        r = m - math.comb(k, 2)
        return r * k * k + (k - r) * (k - 1) ** 2 + r * r

    rest = math.comb(n, 2) - m  # degree d in a graph is n - 1 - d in its complement
    return max(quasi_complete(m), n * (n - 1) ** 2 - 4 * (n - 1) * rest + quasi_complete(rest))


def _square_fill(total: int, slots: int, cap: int) -> int:
    """The largest sum of squares of ``slots`` integers in 0..cap that sum to
    ``total`` (at most slots * cap): fill whole slots greedily."""
    full, rest = divmod(total, cap)
    return full * cap * cap + rest * rest


def _edge_cutoff(n: int, ceilings: np.ndarray) -> int:
    """M(n): the largest m at which some graph with n vertices and m edges
    exceeds ``ceilings[m]``, by ``_max_square_sum`` (0 if none). With
    ``_star_ceilings(n)``, every graph with more edges passes the star test."""
    ceil = ceilings.tolist()
    return max((m for m in range(1, len(ceil)) if _max_square_sum(n, m) > ceil[m]), default=0)


def _star_keep(n: int, ceilings: np.ndarray) -> Callable[[list[int]], bool]:
    """The bounded walk's test of a child H's degrees: false only when no
    connected graph on n vertices below H in the walk exceeds ``ceilings``
    (with ``_star_ceilings(n)``: fails the star test).

    The walk only adds vertices, so a descendant G holds H, of order k, as an
    induced subgraph; its r = n - k other vertices meet t edges to H and s
    among themselves, and G connected gives t + s >= r (a spanning tree has
    at most k - 1 edges in H). Two proved rules read only H's degrees. (i)
    G has at most M = ``_edge_cutoff`` edges, so H has at most M - r. (ii)
    Sum d^2(G) is at most A(t) + B(t + 2s): A(t) adds t to H's degrees, at
    most r per vertex, greedily on the largest, and B fills r degrees of at
    most n - 1 summing to t + 2s (``_square_fill``). H is dropped when that
    bound is at most the ceiling of m_H + t + s for every feasible (t, s).
    ``room[r][m_H][t]``, the least ceiling minus B over the feasible s, is
    tabled once; A(t) runs through the added units in greedy order. At r = 0
    the test is the ceiling test itself.
    """
    ceil = ceilings.tolist()
    top = _edge_cutoff(n, ceilings)
    room: list[list[list[float]]] = []
    for r in range(n):
        room.append([])
        for m_h in range(top + 1):
            row = []
            for t in range(min((n - r) * r, top - m_h) + 1):
                feasible = range(max(0, r - t), min(math.comb(r, 2), top - m_h - t) + 1)
                row.append(min(
                    (ceil[m_h + t + s] - _square_fill(t + 2 * s, r, n - 1) for s in feasible),
                    default=math.inf,
                ))
            room[r].append(row)

    def keep(degs: list[int]) -> bool:
        r = n - len(degs)
        m_h = sum(degs) // 2
        if m_h > top - r:  # (i)
            return False
        gains = (2 * (d + e) + 1 for d in sorted(degs, reverse=True) for e in range(r))
        bounds = itertools.accumulate(gains, initial=sum(d * d for d in degs))
        return any(a > limit for a, limit in zip(bounds, room[r][m_h]))  # (ii)

    return keep


def _star_blocks(
    n: int, workers: int, below: float | Fraction | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(rows, graph6 words) of the connected classes on n vertices that fail
    the star test, in census order, one pair per block read.

    A kept order (n <= ``CENSUS_KEPT``) filters its census blocks. A larger
    one, to ``CENSUS_MAX``, filters the blocks of one walk from K_1 in this
    process, whatever ``workers`` is, that skips every subtree ``_star_keep``
    proves free of failures. The walk would beat building a kept order from
    cold too, but the other census engines of a process build and keep that
    order anyway, and filtering it costs far less than a walk on every star
    call. An order above ``CENSUS_MAX`` raises ValueError
    before anything is walked. Given ``below``, a tr2 bound set by the star,
    every class that passes must have tr2 = (sum d_i^2 + d_G) / d_G^2 below
    it, which the ceilings decide exactly before anything is walked
    (TheoremViolation if not): a scan that skips the passing classes then
    misses no witness and no tie of its extreme.
    """
    if n > CENSUS_MAX:
        raise ValueError(f"census order must be at most {CENSUS_MAX}, got {n}")
    ceilings = _star_ceilings(n)
    if below is not None:  # the largest tr2 of a class that passes: at the ceiling of some m
        ceil = enumerate(ceilings.tolist())
        top = max(Fraction(c + 2 * m, 4 * m * m) for m, c in ceil if m and c >= 0)
        if not top < below:  # exact for a float bound too
            raise TheoremViolation(
                f"a class passing the star test on {n} vertices may have tr2 = {top}, "
                f"not below {below}"
            )
    if n <= CENSUS_KEPT:
        blocks = census(n, workers=workers)
    else:
        walk = _walk([_K1], n, _star_keep(n, ceilings))
        blocks = _blocks(n, [[adj for adj in walk if len(adj) == n]])
    for block in blocks:
        rows, words = block.rows[block.connected], block.graph6[block.connected]
        _, d_g, sq = _degree_sums(rows)
        fail = sq > ceilings[d_g // 2]
        yield rows[fail], words[fail]


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
    Only the star-test failures are solved: a class that passes has
    S >= H_2 >= S(star), certified with room (``_star_blocks``).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    found = _Witnesses(witness_cap)
    return _star_min_scan(
        "star-min-S", n, shannon_entropy, star_entropy_closed(n), {}, found, workers, True
    )


def _star_min_scan(
    claim: str,
    n: int,
    measure: Callable[[Sequence[float]], float],
    target: float,
    params: dict,
    found: _Witnesses,
    workers: int,
    certified: bool,
) -> VerificationResult:
    """Scan connected graphs for measure(rho(G)) < target - 1e-9 (the star's value).

    With ``certified`` (measure(G) >= H_2(G) for every G) only the star-test
    failures (``_star_blocks``) are measured, once every class that passes is
    shown to have H_2 above target + 1e-9 (tr2 below 2^-(target + 1e-9)); at
    n = 2, where K_2 ties the test, and otherwise every connected class is
    (``_measured``), and the classes it reads are counted rather than taken
    from ``CONNECTED_CLASSES``.
    """
    t0 = time.perf_counter()
    certified = certified and n > 2
    if certified:
        failures = _star_blocks(n, workers, 2.0 ** -(target + EPS))
        blocks = ((w, _measure_rows(rows, measure)) for rows, w in failures)
    else:
        blocks = ((words, values) for _, words, values in _measured(n, workers, measure))
    extremes = _Extremes()
    read = 0
    for words, values in blocks:
        read += len(words)
        extremes.offer(values, words)
        found.add(words[values < target - EPS])
    stats = {
        "classes": CONNECTED_CLASSES[n] if certified else read,
        **params,
        "min_entropy": extremes.best(),
        "star_entropy": target,
        "witness_count": found.count,
    }
    return _result(claim, n, t0, stats, found.count == 0, extremes.tags(), found.kept)


def _tree_blocks(n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(uint16 adjacency rows, canonical words) of the trees on n vertices,
    ``SOLVE_ROWS`` at a time in ``enumerate_trees`` order, whose first tree is
    the path (TheoremViolation if it has a degree above 2). Each tree is
    canonicalized by one ``canonical_form`` call: WROM labels are not canonical."""
    trees = enumerate_trees(n)
    first = True
    while block := list(itertools.islice(trees, SOLVE_ROWS)):
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
        values = _measure_rows(rows, shannon_entropy)
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
    raises TheoremViolation. For n >= 3 it reads only the star-test failures
    (``_star_blocks``): a class that passes has H_2 >= S(star) > H_2(star),
    certified once per n in exact rationals, and the class total comes from
    ``CONNECTED_CLASSES``. Other alpha > 1 are open statements scanned in
    floating point; for alpha < 2, where H_alpha >= H_2, only the star-test
    failures are solved (``_star_min_scan``).
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
            alpha < 2,
        )
    t0 = time.perf_counter()
    # with K_{1,n-1}'s tr2; at n = 2 the star, K_2, ties the star test
    blocks = _star_blocks(n, workers, Fraction(n + 2, 4 * n - 4)) if n > 2 else _scan(n, workers)
    _, star_t, most, _ = _tr2_extremes(blocks)
    msg = f"star is not the strictly unique tr2 maximum over connected graphs on {n} vertices"
    _strict_extreme(most, star_t, msg)
    stats = {
        "classes": CONNECTED_CLASSES[n],
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
        h = _measure_rows(block.rows[block.edged], lambda vals: renyi_entropy(vals, alpha))
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
    connected graphs on n vertices; decided in exact integer arithmetic
    (``_star_blocks``), with the total from ``CONNECTED_CLASSES``."""
    if n < 2:
        raise ValueError("need n >= 2")
    failing = tuple(w for _, words in _star_blocks(n, workers) for w in words.tolist())
    return len(failing), CONNECTED_CLASSES[n], failing


def failing_graph_properties(n: int, workers: int = 1) -> dict:
    """Minimum-degree report for the star-test failures at order n.

    Records, per failing graph, its minimum degree (from its rows) and
    whether it has a leaf; the observed pattern (every failure has a leaf) is
    summarized but not asserted, since it is an observation, not a theorem.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    records = [
        {"graph6": g6, "min_degree": mind, "has_leaf": mind == 1}
        for rows, words in _star_blocks(n, workers)
        for g6, mind in zip(words.tolist(), np.bitwise_count(rows).min(axis=1).tolist())
    ]
    return {
        "order": n,
        "failures": len(records),
        "total": CONNECTED_CLASSES[n],
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
    rows (``_spectra``), and a run is kept if some pair differs by over 1e-7
    in a sorted spectrum entry.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    rows, words, s = (np.concatenate(c) for c in zip(*_measured(n, workers, shannon_entropy)))
    order = np.lexsort((words, s))
    starts = np.flatnonzero(np.diff(s[order], prepend=-np.inf) > 1e-12)
    sizes = np.diff(starts, append=len(order))
    runs = [order[a : a + k] for a, k in zip(starts[sizes > 1].tolist(), sizes[sizes > 1].tolist())]
    members = rows[order[np.repeat(sizes > 1, sizes)]]  # the runs' rows, concatenated
    spectra = _spectra(members)
    return [
        CoentropyGroup(float(s[run[0]]), words[run].tolist(), distinct)
        for run in runs
        if (distinct := _distinct_spectra(next(spectra).tolist() for _ in run)) > 1
    ]


def _distinct_spectra(specs: Iterable[list[float]]) -> int:
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

    No pair is visited to count. The columns are concatenated once: S, the
    parameter as uint8, and the graph6 words as bytes, decoded only for
    reported pairs. Levels are the nonzero ``np.bincount`` bins (numpy's
    ``unique`` imports ``numpy.ma``, 1.2 MB). Per level, the S above it are
    sorted once and each S(G1) at it is bisected into them + 1e-9 (drops) and
    - 1e-9 (rises), formed there as the pair test forms them (still sorted, as
    rounding is monotone): O(N log N).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if param not in _PARAMS:
        raise ValueError(f"param must be one of {sorted(_PARAMS)}")
    cap = _witness_cap(cap)
    f = _PARAMS[param]
    blocks = _measured(n, workers, shannon_entropy)
    columns = ((f(rows).astype(np.uint8), w.astype(np.bytes_), v) for rows, w, v in blocks)
    p, words, s = map(np.concatenate, zip(*columns))  # the map frees the pieces
    drops = np.zeros(len(s), dtype=np.int64)
    rises = np.zeros(len(s), dtype=np.int64)
    for level in np.flatnonzero(np.bincount(p)):
        at, above = p == level, p > level
        higher = s[above]  # G2 is a drop partner of G1 if S(G2) + EPS < S(G1)
        higher.sort()  # and a rise partner if S(G2) - EPS > S(G1)
        drops[at] = np.searchsorted(higher + EPS, s[at], side="left")
        rises[at] = len(higher) - np.searchsorted(higher - EPS, s[at], side="right")

    def first_pairs(counts: np.ndarray, partner: Callable[[int], np.ndarray]) -> list:
        # the first cap pairs (i, j) in row-major order with p[i] < p[j] and partner(i)[j]
        pairs: list[tuple[str, str]] = []
        for i in np.flatnonzero(counts):
            if len(pairs) >= cap:
                break
            js = np.flatnonzero((p > p[i]) & partner(i))[: cap - len(pairs)]
            pairs.extend((words[i].decode(), words[j].decode()) for j in js.tolist())
        return pairs

    return ParamComparison(
        param=param,
        order=n,
        entropy_drops=first_pairs(drops, lambda i: s + EPS < s[i]),
        entropy_rises=first_pairs(rises, lambda i: s - EPS > s[i]),
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
