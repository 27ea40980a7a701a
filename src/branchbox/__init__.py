"""Exact stable-range branching multiplicities for classical symmetric pairs.

The formula side (`branch`, `lr`, `schur`, `dims`) computes branching and
tensor multiplicities through Littlewood-Richardson combinatorics, valid in
explicitly policed stable ranges.  The oracle side (`dualpair`) recomputes
the same numbers with no combinatorics at all, by exact linear algebra on
polynomial models: joint highest weight vectors are counted as the joint
kernel of raising (and Laplace) operators on each weight block of a graded
monomial basis.  The two sides share nothing except the partition type, so
agreement is meaningful verification.
"""

from .branch import (ENFORCE, WARN_AND_COMPUTE, StablePolicy, gl_tensor_rational,
                     gl_to_o, gl_to_sp, o_restrict_stable, o_tensor_stable,
                     sp_tensor_stable)
from .dims import (PowerSeriesTruncated, dim_gl, dim_o, dim_so, dim_sp,
                   hilbert_check)
from .errors import (BranchboxError, BudgetError, InternalInvariantError,
                     LabelError, StableRangeError, StableRangeWarning,
                     UsageError)
from .lr import lr_coefficient, lr_multi
from .partitions import (IrrepLabel, Signature, as_partition, associate_o,
                         conjugate, enumerate_partitions, is_admissible_o)
from .reports import MultiplicityEntry, sorted_entries
from .schur import SchurVector, decompose, multiply_schur, schur_expand, schur_vector

__all__ = [
    "ENFORCE", "WARN_AND_COMPUTE", "StablePolicy",
    "gl_tensor_rational", "gl_to_o", "gl_to_sp",
    "o_restrict_stable", "o_tensor_stable", "sp_tensor_stable",
    "PowerSeriesTruncated", "dim_gl", "dim_o", "dim_so", "dim_sp", "hilbert_check",
    "BranchboxError", "BudgetError", "InternalInvariantError", "LabelError",
    "StableRangeError", "StableRangeWarning", "UsageError",
    "lr_coefficient", "lr_multi",
    "IrrepLabel", "Signature", "as_partition", "associate_o", "conjugate",
    "enumerate_partitions", "is_admissible_o",
    "MultiplicityEntry", "sorted_entries",
    "SchurVector", "decompose", "multiply_schur", "schur_expand", "schur_vector",
]
