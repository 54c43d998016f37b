"""Exact arithmetic on finite Frobenius rings.

Normalized homogeneous weights, weight-induced partitions, and left and
right character-theoretic dual partitions with exact Krawtchouk
coefficients, for the builtin ring families Z_N, GF(q), matrix rings
over GF(q), finite products of these, and user-supplied Cayley tables.
"""

from .characters import (Character, all_generating_characters,
                         canonical_generating_character, is_generating,
                         is_symmetric, search_generating_character, translate)
from .cyclotomic import CycInt, cyclotomic_poly
from .duality import (KrawtchoukTable, character_independence_check,
                      delsarte_rank_krawtchouk, dual_partition, is_reflexive,
                      is_self_dual, krawtchouk_table, left_right_agreement,
                      same_entries)
from .errors import (CharacterSearchFailed, InternalInconsistency,
                     InvalidParameter, InvalidRing, ResourceLimit)
from .partitions import (Partition, equals, ex5_5_partition,
                         hamming_partition, hom_partition, is_finer,
                         is_invariant, partition_from_weight,
                         product_partition, rank_partition,
                         symmetrized_power_partition)
from .rings import (FiniteRing, GaloisField, MatrixRing, ProductRing,
                    TableRing, ZmodRing, build_gf,
                    build_matrix_ring, build_product, build_table_ring,
                    build_zmod, builtin_ring, load_table_spec,
                    validate_tables)
from .weights import (WeightTable, alpha, cauchy_identity_check, gaussian,
                      has_zero_weight_nonzero, s_count,
                      socle_weight_consistency, weight_matrix_rank,
                      weight_rank_profile, weight_table)

__version__ = "0.1.0"

__all__ = [
    "Character", "CycInt", "CharacterSearchFailed", "FiniteRing",
    "GaloisField", "InternalInconsistency", "InvalidParameter", "InvalidRing",
    "KrawtchoukTable", "MatrixRing", "Partition", "ProductRing",
    "ResourceLimit", "TableRing", "WeightTable", "ZmodRing",
    "all_generating_characters", "alpha", "build_gf", "build_matrix_ring",
    "build_product", "build_table_ring", "build_zmod", "builtin_ring",
    "canonical_generating_character", "cauchy_identity_check",
    "character_independence_check", "cyclotomic_poly",
    "delsarte_rank_krawtchouk", "dual_partition", "equals",
    "ex5_5_partition", "gaussian", "hamming_partition",
    "has_zero_weight_nonzero", "hom_partition", "is_finer",
    "is_generating", "is_invariant", "is_reflexive", "is_self_dual",
    "is_symmetric", "krawtchouk_table", "left_right_agreement",
    "load_table_spec", "partition_from_weight", "product_partition",
    "rank_partition", "s_count",
    "same_entries", "search_generating_character",
    "socle_weight_consistency",
    "symmetrized_power_partition", "translate", "validate_tables",
    "weight_matrix_rank", "weight_rank_profile", "weight_table",
]
