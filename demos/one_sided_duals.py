"""
Left and right duals of an invariant partition
==============================================

A 16-element noncommutative ring where a unit-invariant partition has
different left and right duals, while the weight-induced partition has
identical dual tables on both sides.
"""

from frobring.characters import canonical_generating_character
from frobring.duality import dual_partition, krawtchouk_table, same_entries
from frobring.partitions import equals, ex5_5_partition, hom_partition
from frobring.rings import builtin_ring

ring = builtin_ring("ex5_5")
char = canonical_generating_character(ring)

part = ex5_5_partition(ring)
print("partition blocks:", [list(b) for b in part.blocks])

left = dual_partition(part, char, "left")
right = dual_partition(part, char, "right")
print("left dual sizes: ", sorted(left.block_sizes()))
print("right dual sizes:", sorted(right.block_sizes()))
print("left dual equals right dual:", equals(left, right))

# the weight partition does not show this asymmetry
hom = hom_partition(ring)
tl = krawtchouk_table(hom, char, "left")
tr = krawtchouk_table(hom, char, "right")
print("weight partition tables agree on both sides:", same_entries(tl, tr))
