"""A first tour of graph entropy values.

Every simple graph with at least one edge defines a unit-trace density
matrix: its combinatorial Laplacian divided by the degree sum. The Shannon
entropy of that matrix's eigenvalues is the graph's von Neumann entropy S,
and the Renyi family H_alpha generalizes it. This script computes both for
a handful of named families and checks the closed forms against the
spectral route.
"""

import math

from graphentropy import (
    bipartite_entropy_closed,
    complete,
    complete_bipartite,
    cycle,
    density_spectrum,
    entropy_report,
    graph_renyi_entropy,
    path,
    star,
    star_entropy_closed,
    von_neumann_entropy,
)

print("=== entropy of small named graphs (bits) ===")
families = [
    ("K_5", complete(5)),
    ("P_5", path(5)),
    ("C_5", cycle(5)),
    ("K_{1,4}", star(5)),
    ("K_{2,3}", complete_bipartite(2, 3)),
]
for name, g in families:
    rep = entropy_report(g, alphas=[2.0, 5.0])
    print(
        f"{name:8}  S = {rep.S:.6f}   H_2 = {rep.H[2.0]:.6f}   "
        f"H_5 = {rep.H[5.0]:.6f}   tr2 = {rep.tr2}"
    )

# The complete graph is flat: every nonzero eigenvalue of its density
# matrix equals 1/(n-1), so every entropy is exactly log2(n-1).
print("\n=== complete graphs hit the universal maximum log2(n-1) ===")
for n in (4, 8, 16, 32):
    s = von_neumann_entropy(complete(n))
    print(f"K_{n:<3} S = {s:.12f}   log2(n-1) = {math.log2(n - 1):.12f}")

# Stars sit at the other end among connected graphs, and their entropy has
# a two-term closed form. So do complete bipartite graphs.
print("\n=== closed forms agree with the eigensolver ===")
for n in (5, 10, 25):
    spectral = von_neumann_entropy(star(n))
    closed = star_entropy_closed(n)
    print(f"star n={n:<3} spectral {spectral:.12f}  closed {closed:.12f}  "
          f"dev {abs(spectral - closed):.1e}")
for a, b in ((2, 6), (3, 7), (5, 5)):
    spectral = von_neumann_entropy(complete_bipartite(a, b))
    closed = bipartite_entropy_closed(a, b)
    print(f"K_{{{a},{b}}}    spectral {spectral:.12f}  closed {closed:.12f}  "
          f"dev {abs(spectral - closed):.1e}")

# H_alpha is non-increasing in alpha, with the Shannon value at alpha = 1.
print("\n=== Renyi entropies decrease as alpha grows (C_6) ===")
g = cycle(6)
print("spectrum:", " ".join(f"{v:.4f}" for v in density_spectrum(g)))
for alpha in (1.0, 1.5, 2.0, 3.0, 10.0):
    print(f"alpha = {alpha:<4}  H = {graph_renyi_entropy(g, alpha):.6f}")
