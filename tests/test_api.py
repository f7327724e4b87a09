from __future__ import annotations

import dessins

#: The public names of the package.  A change that drops or renames one
#: (an operator the engine does not call included) must change this list,
#: and say so in CHANGES.md.
PUBLIC_NAMES = [
    "ConnectedSeries",
    "GenusTable",
    "GradedSeries",
    "KP_EQUATIONS",
    "KpEquation",
    "KpReport",
    "MonomialKey",
    "NonPhysicalKeyError",
    "PairCounts",
    "TruncationError",
    "compare_with_series",
    "cycle_type",
    "exp_series",
    "from_parts",
    "genus_of",
    "genus_table",
    "grow_cycle",
    "is_transitive",
    "join_components",
    "kp_report",
    "kp_residual",
    "marked_count_genus0",
    "marked_count_genus1",
    "next_piece",
    "partition_function",
    "partition_parts",
    "partition_weight",
    "partitions",
    "parts_list",
    "physical_keys",
    "recursion_rhs",
    "split_or_join_cycles",
    "transitive_pair_counts",
]


def test_public_names_are_pinned():
    assert dessins.__all__ == PUBLIC_NAMES
    assert all(callable(getattr(dessins, name)) or name == "KP_EQUATIONS"
               for name in PUBLIC_NAMES)
