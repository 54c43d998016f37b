"""
Weight tables on small rings
============================

Builds a handful of rings and prints the normalized weight of every
element, grouped by value.  All arithmetic is exact rational.
"""

from frobring.rings import build_gf, build_matrix_ring, build_product, build_zmod
from frobring.weights import weight_table

# the integers mod 4: the two units weigh 1, the zero divisor weighs 2
z4 = build_zmod(4)
table = weight_table(z4)
print("Z4:", [str(w) for w in table.weights])

# on a finite field every nonzero element weighs the same
gf8 = build_gf(8)
table = weight_table(gf8)
print("GF(8):", dict((str(w), n) for w, n in table.multiset().items()))

# 2x2 matrices over GF(2): weight depends only on the rank
m2f2 = build_matrix_ring(2, build_gf(2))
table = weight_table(m2f2)
by_rank = {}
for x in range(m2f2.size):
    by_rank.setdefault(m2f2.rank(x), set()).add(table.weights[x])
print("M2(F2) weight by rank:", {r: [str(w) for w in ws] for r, ws in sorted(by_rank.items())})

# the weight of a pair is computed on the whole product ring, not
# coordinatewise, and it can vanish on a nonzero element
ring = build_product([build_gf(2), build_gf(2)])
table = weight_table(ring)
print("GF(2) x GF(2):", [str(w) for w in table.weights])
print("nonzero element of weight zero:", any(table.weights[x] == 0 for x in range(1, ring.size)))

# every nonzero principal left ideal averages to weight exactly 1
z12 = build_zmod(12)
table = weight_table(z12)
for x in (2, 3, 4, 6):
    members = set(z12.mul_col(x).tolist())  # the left ideal Rx, all r*x
    avg = sum(table.weights[y] for y in members) / len(members)
    print(f"Z12 ideal ({x}): size {len(members)}, average weight {avg}")
