"""Different spectra, identical entropy.

Cospectral graphs trivially share every spectral invariant. More surprising
are graphs whose density-matrix spectra differ yet whose von Neumann
entropies agree exactly. This script scans all connected graphs on 8
vertices, groups them by entropy, and prints the groups whose members are
not all cospectral, including the classical partner of K_{2,6}.
"""

from graphentropy import (
    canonical_form,
    coentropy_search,
    complete_bipartite,
    density_spectrum,
    parse_graph6,
)

print("scanning 11117 connected graphs on 8 vertices...")
groups = coentropy_search(8)
print(f"{len(groups)} equal-entropy groups with at least two distinct spectra\n")

k26 = canonical_form(complete_bipartite(2, 6))

for grp in groups:
    marker = "  <- contains K_{2,6}" if k26 in grp.members else ""
    print(f"S = {grp.entropy:.12f}  members {grp.members}  "
          f"distinct spectra {grp.distinct_spectra}{marker}")

# Show the K_{2,6} group in full: same entropy, visibly different spectra.
print("\n=== the K_{2,6} group, spectra side by side ===")
for grp in groups:
    if k26 not in grp.members:
        continue
    for g6 in grp.members:
        vals = density_spectrum(parse_graph6(g6))
        pretty = " ".join(f"{v:.6f}" for v in vals)
        tag = " (K_{2,6})" if g6 == k26 else ""
        print(f"{g6:8} [{pretty}]{tag}")
