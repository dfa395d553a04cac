"""Exact enumeration of decorated rooted trees grouped by fertility profile.

Every vertex of a tree carries a decoration from a finite alphabet; the
profile of a tree records, for each decoration a and each fertility j+1,
how many vertices with decoration a have exactly j+1 children.  This
package counts and enumerates the trees sharing a prescribed profile,
in several weightings, entirely in exact arithmetic.
"""

from .multiindex import (MultiIndex, ParseError, apply_shift,
                         enumerate_multiindices, enumerate_profiles,
                         find_shift, unit)
from .trees import (DecoratedTree, enumerate_fibre, enumerate_trees,
                    fibre_expansion, fibres_of_degree, parse_tree)
from .series import TruncatedSeries
from .weighted import (WeightedCounts, prescribed_fertility_count,
                       weighted_counts, weighted_counts_recursive,
                       weighted_series)
from .ordinary import (h_series_cycle, h_series_product, ordinary_count,
                       ordinary_series)
from .lowering import (apply_lowering, c_coefficient, c_coefficient_tables,
                       coefficient_gf, d_coefficient, d_coefficient_recursive,
                       lowering_power, transition_gf, transport_arrays)
from .coproduct import coproduct, coproduct_raw

__all__ = [
    "MultiIndex", "ParseError", "apply_shift", "enumerate_multiindices",
    "enumerate_profiles", "find_shift", "unit",
    "DecoratedTree", "enumerate_fibre", "enumerate_trees", "fibre_expansion",
    "fibres_of_degree", "parse_tree",
    "TruncatedSeries",
    "WeightedCounts", "prescribed_fertility_count", "weighted_counts",
    "weighted_counts_recursive", "weighted_series",
    "h_series_cycle", "h_series_product", "ordinary_count", "ordinary_series",
    "apply_lowering", "c_coefficient", "c_coefficient_tables",
    "coefficient_gf", "d_coefficient", "d_coefficient_recursive",
    "lowering_power", "transition_gf", "transport_arrays",
    "coproduct", "coproduct_raw",
]

__version__ = "0.1.0"
