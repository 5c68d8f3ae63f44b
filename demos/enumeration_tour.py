"""Isomorph-free graph generation, canonical forms, and graph6 round trips.

The verification engines all sit on one primitive: stream every isomorphism
class of graphs on n vertices exactly once, deterministically. This script
shows the class counts, demonstrates that relabeling never changes a
canonical form, and round-trips graphs through the graph6 text format.
"""

import random

from graphentropy import (
    canonical_form,
    enumerate_graphs,
    enumerate_trees,
    from_edges,
    parse_graph6,
    star,
    write_graph6,
)

print("=== isomorphism classes by order ===")
print(f"{'n':>3} {'all':>6} {'connected':>10} {'trees':>6}")
for n in range(1, 8):
    total = sum(1 for _ in enumerate_graphs(n))
    conn = sum(1 for _ in enumerate_graphs(n, connected_only=True))
    trees = sum(1 for _ in enumerate_trees(n))
    print(f"{n:>3} {total:>6} {conn:>10} {trees:>6}")

# Canonical forms are labeling-independent: shuffle the vertices of any
# graph and the canonical graph6 word comes out identical.
print("\n=== canonical forms ignore vertex labels ===")
rng = random.Random(7)
g = from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
base = canonical_form(g)
for trial in range(3):
    perm = list(range(6))
    rng.shuffle(perm)
    h = from_edges(6, [(perm[u], perm[v]) for u, v in g.edges()])
    print(f"shuffle {perm}  ->  same canonical form: {canonical_form(h) == base}")

# graph6 is the interchange format: one printable ASCII word per graph.
print("\n=== graph6 round trips ===")
for g in (star(5), from_edges(4, [(0, 1), (1, 2), (2, 3)])):
    word = write_graph6(g)
    back = parse_graph6(word)
    print(f"{word:6} -> n={back.n}, edges {back.edges()}  (round trip ok: {back == g})")

# The enumerator emits canonical representatives, so streaming its output
# through graph6 and back reproduces the exact same words.
words = [write_graph6(g) for g in enumerate_graphs(4)]
again = [write_graph6(parse_graph6(w)) for w in words]
print(f"\nall 11 graphs on 4 vertices, canonical words: {' '.join(words)}")
print(f"stable under round trip: {words == again}")
