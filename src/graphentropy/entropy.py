"""Entropy of graphs through the scaled Laplacian, in bits.

For a graph G with m >= 1 edges let d_G = 2m and rho(G) = L(G)/d_G. The von
Neumann entropy S(G) is the Shannon entropy of rho's eigenvalues; the Renyi
entropy of order alpha >= 0, alpha != 1, is

    H_alpha(p) = (1/(1-alpha)) * log2(sum_i p_i^alpha),

with H_1 the Shannon limit. H_alpha is non-increasing in alpha, so S >= H_2
always. H_2 is special: sum_i p_i^2 = tr(rho^2) is a rational function of the
degree sequence alone,

    tr2(G) = (sum_i d_i^2 + d_G) / d_G^2,      H_2(G) = -log2(tr2(G)),

which lets several comparisons be decided in exact integer arithmetic with no
floating point at all. This module provides the generic entropies, the closed
forms for stars and complete bipartite graphs, the degree-based H_2 with its
exact-rational core, the star and density decision tests, and a small
search that looks for edge augmentations reaching a target entropy.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .graphs import DegreeSequence, Graph, add_edges, degree_sequence, write_graph6
from .spectral import density_spectrum

DIST_TOL = 1e-9
_AUGMENT_MAX_SETS = 10**6  # candidate edge sets entropy_augmentation may try


def _validated(p: Sequence[float]) -> list[float]:
    probs = []
    for x in p:
        x = float(x)
        if x < 0.0:
            raise ValueError("negative probability")
        probs.append(x)
    if not probs:
        raise ValueError("empty distribution")
    if not abs(math.fsum(probs) - 1.0) <= DIST_TOL:  # false for NaN too
        raise ValueError("probabilities do not sum to 1")
    return probs


def shannon_entropy(p: Sequence[float]) -> float:
    """Shannon entropy in bits; zero entries contribute nothing."""
    probs = _validated(p)
    return math.fsum([-x * math.log2(x) for x in probs if x > 0.0]) + 0.0


def renyi_entropy(p: Sequence[float], alpha: float) -> float:
    """Renyi alpha-entropy in bits; alpha = 1 is Shannon, alpha = inf is -log2(max p).

    Every order, 1 and inf included, is taken of p / sum(p), so the value is
    continuous in alpha even where p sums to 1 only within tolerance. Evaluated
    in t = alpha - 1, with q = p / p_max and P = sum p, as
    -log2(p_max / P) - log1p(sum p (q^t - 1) / P) / (t ln 2). Each p (q^t - 1)
    is p expm1(t ln q) while t ln q < 1, else p_max q^alpha - p, which cannot
    overflow; so nothing cancels as alpha nears 1 or overflows as alpha grows.
    """
    if math.isnan(alpha):
        raise ValueError("alpha must be a number, got nan")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    probs = _validated(p)
    total = math.fsum(probs)
    if alpha == 1.0:
        return shannon_entropy([x / total for x in probs])
    if alpha == 0.0:
        return math.log2(sum(1 for x in probs if x > 0.0))
    top = max(probs)
    if alpha == math.inf:
        return -math.log2(top / total) + 0.0
    t = alpha - 1.0
    excess = []
    for x in probs:
        if x > 0.0:
            u = t * math.log(x / top)
            excess.append(x * math.expm1(u) if u < 1.0 else top * (x / top) ** alpha - x)
    spread = math.log1p(math.fsum(excess) / total) / (t * math.log(2.0))
    return -math.log2(top / total) - spread + 0.0


def von_neumann_entropy(g: Graph) -> float:
    """S(G): Shannon entropy of the scaled-Laplacian eigenvalues."""
    return shannon_entropy(density_spectrum(g))


def graph_renyi_entropy(g: Graph, alpha: float) -> float:
    """H_alpha(G) over the scaled-Laplacian eigenvalues."""
    return renyi_entropy(density_spectrum(g), alpha)


def star_entropy_closed(n: int) -> float:
    """S(K_{1,n-1}) = log2(2n-2) - (n/(2n-2)) log2 n, for n >= 2."""
    if n < 2:
        raise ValueError("a star needs at least 2 vertices")
    return math.log2(2 * n - 2) - (n / (2 * n - 2)) * math.log2(n)


def bipartite_entropy_closed(a: int, b: int) -> float:
    """S(K_{a,b}) from the known Laplacian spectrum {a+b, b^(a-1), a^(b-1), 0}."""
    if a < 1 or b < 1:
        raise ValueError("both parts must be nonempty")
    return (
        1.0
        + ((b + 1) / (2 * b)) * math.log2(a)
        + ((a + 1) / (2 * a)) * math.log2(b)
        - ((a + b) / (2 * a * b)) * math.log2(a + b)
    )


def tr2(d: DegreeSequence) -> Fraction:
    """tr(rho^2) = (sum d_i^2 + d_G) / d_G^2 as an exact rational."""
    if d.d_sum == 0:
        raise ValueError("tr(rho^2) undefined: graph has no edges")
    return Fraction(d.d_sq_sum + d.d_sum, d.d_sum * d.d_sum)


def h2_degree(d: DegreeSequence) -> float:
    """H_2(G) = log2(d_G^2) - log2(sum d_i^2 + d_G), from degrees alone."""
    if d.d_sum == 0:
        raise ValueError("H_2 undefined: graph has no edges")
    return math.log2(d.d_sum * d.d_sum) - math.log2(d.d_sq_sum + d.d_sum)


def star_test(d: DegreeSequence, n: int) -> bool:
    """Exact decision of d_G^2/(sum d_i^2 + d_G) >= (2n-2) / n^(n/(2n-2)).

    Both sides are positive, so raising to the (2n-2)-th power turns the test
    into the integer comparison N^(2n-2) * n^n >= D^(2n-2) * (2n-2)^(2n-2)
    with N = d_G^2 and D = sum d_i^2 + d_G. Passing is equivalent to
    H_2(G) >= S(K_{1,n-1}) with no rounding; the n = 2 case is an exact tie
    and passes. ``d`` must hold the degrees of all n vertices.
    """
    if n < 2:
        raise ValueError("the star threshold needs n >= 2")
    if len(d.degrees) != n:
        raise ValueError(f"star test at order {n} needs {n} degrees, got {len(d.degrees)}")
    if d.d_sum == 0:
        raise ValueError("star test undefined: graph has no edges")
    return _star_inequality(n, d.d_sum, d.d_sq_sum)


def _star_inequality(n: int, d_sum: int, d_sq_sum: int) -> bool:
    """``star_test``'s integer inequality, for d_G = ``d_sum`` and the sum of
    squared degrees ``d_sq_sum``; false from some ``d_sq_sum`` on, for each d_G."""
    e = 2 * n - 2
    return (d_sum * d_sum) ** e * n**n >= (d_sq_sum + d_sum) ** e * e**e


def density_test(n: int, m: int) -> bool:
    """Exact decision of m / C(n,2) >= 1/(sqrt(n) - 1).

    Squaring the rearranged inequality m*sqrt(n) >= C(n,2) + m gives the
    integer test m^2 * n >= (C(n,2) + m)^2. Any graph passing this density
    bound passes the star test as well.
    """
    if n < 2:
        raise ValueError("the density threshold needs n >= 2")
    m = operator.index(m)  # a float m is no edge count
    if m < 0 or m > math.comb(n, 2):
        raise ValueError(f"impossible edge count {m} for order {n}")
    return m * m * n >= (math.comb(n, 2) + m) ** 2


def k2n2_closed(n: int) -> tuple[float, float]:
    """(S(K_{2,n-2}), S(K_{2,n-2}+e)) for n >= 4, where e joins the 2-side.

    K_{2,n-2} has Laplacian spectrum {n, 2^(n-3), n-2, 0} with d_G = 4n-8;
    adding the edge between the two high-degree vertices moves it to
    {n, n, 2^(n-3), 0} with d_G = 4n-6. Both entropies are evaluated from
    those exact spectra.
    """
    if n < 4:
        raise ValueError("K_{2,n-2} with an edge on the 2-side needs n >= 4")
    d0 = 4 * n - 8
    before = math.fsum(
        [
            -(n / d0) * math.log2(n / d0),
            -(n - 3) * (2 / d0) * math.log2(2 / d0),
            -((n - 2) / d0) * math.log2((n - 2) / d0),
        ]
    )
    d1 = 4 * n - 6
    after = math.fsum(
        [
            -2 * (n / d1) * math.log2(n / d1),
            -(n - 3) * (2 / d1) * math.log2(2 / d1),
        ]
    )
    return before, after


def entropy_augmentation(g: Graph, k: int, x: float) -> tuple[tuple[int, int], ...] | None:
    """Smallest set A of at most k absent edges with S(G + A) >= x - 1e-12.

    Searches candidate sets in increasing size, lexicographic within a size,
    and returns the first hit (or None). An edgeless candidate graph counts
    as entropy 0 by convention so the search can start from empty graphs.
    Exponential in k; meant for small interactive instances. A search over
    more than 10^6 candidate sets (sum over s <= k of C(absent edges, s))
    raises ValueError before the first eigensolve, as does a NaN target.
    """
    if math.isnan(x):
        raise ValueError("target x must be a number, got nan")
    if k < 0:
        raise ValueError("k must be nonnegative")
    missing = g.non_edges()
    if k > len(missing):
        raise ValueError(f"k = {k} exceeds the {len(missing)} absent edges")
    sets = sum(math.comb(len(missing), s) for s in range(k + 1))
    if sets > _AUGMENT_MAX_SETS:
        raise ValueError(f"k = {k} asks for {sets} candidate edge sets, over {_AUGMENT_MAX_SETS}")
    for size in range(k + 1):
        for combo in itertools.combinations(missing, size):
            h = add_edges(g, combo)
            s = von_neumann_entropy(h) if h.m > 0 else 0.0
            if s >= x - 1e-12:
                return combo
    return None


@dataclass(frozen=True)
class EntropyReport:
    """All entropy facts for one graph; None entries mean m = 0."""

    graph6: str
    n: int
    m: int
    S: float | None
    H: dict[float, float]
    tr2: Fraction | None
    star_test: bool | None
    density_test: bool


def entropy_report(g: Graph, alphas: Iterable[float] = ()) -> EntropyReport:
    """Assemble the full report for g; Renyi orders come from ``alphas``."""
    d = degree_sequence(g)
    dens = density_test(g.n, g.m) if g.n >= 2 else False
    if g.m == 0:
        return EntropyReport(write_graph6(g), g.n, g.m, None, {}, None, None, dens)
    spec = density_spectrum(g)
    s = shannon_entropy(spec)
    hs = {float(a): renyi_entropy(spec, float(a)) for a in alphas}
    for a, h in hs.items():
        if a > 1.0 and s < h - DIST_TOL:
            raise ArithmeticError(f"S < H_{a} beyond tolerance: entropy ordering broken")
    return EntropyReport(
        write_graph6(g), g.n, g.m, s, hs, tr2(d), star_test(d, g.n) if g.n >= 2 else None, dens
    )
