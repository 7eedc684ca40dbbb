"""Non-binary LDPC convolutional codes from difference triangle sets.

Construct rate (n-1)/n parity-check matrices over GF(p^N) whose column
supports come from a difference triangle set, then verify their structure:
small-minor non-vanishing, Tanner-graph cycles and the full-rank condition,
column and free distances, density, and minimum-scope set search.
"""

from .analysis import (
    AssumptionReport,
    CycleReport,
    DistanceProfile,
    MinorReport,
    TannerCycle,
    check_distance_assumptions,
    check_minors,
    column_distance,
    distance_profile,
    enumerate_cycles,
    free_distance,
    minimal_column_weight,
)
from .code import (
    CodeSpec,
    ExponentMatrix,
    MinFieldParams,
    build_base_matrix,
    density,
    min_field_params,
    sliding_entry_origin,
)
from .dts import (
    DifferenceTriangleSet,
    SearchResult,
    ValidationReport,
    differences,
    scope,
    search_min_scope,
    validate,
)
from .errors import (
    BudgetExhausted,
    FieldTooLarge,
    HorizonTooLarge,
    IncompleteBlock,
    NonPrimeCharacteristic,
    SetCountMismatch,
    UnsupportedSize,
    ZeroElementInDTS,
)
from .formats import (
    from_alist,
    matrix_from_json_dict,
    matrix_to_json_dict,
    render_pretty,
    to_alist,
    to_json,
)
from .gf import ONE, ZERO, FieldElement, GaloisField, det, make_field

__version__ = "0.1.0"

__all__ = [
    "AssumptionReport",
    "BudgetExhausted",
    "CodeSpec",
    "CycleReport",
    "DifferenceTriangleSet",
    "DistanceProfile",
    "ExponentMatrix",
    "FieldElement",
    "FieldTooLarge",
    "GaloisField",
    "HorizonTooLarge",
    "IncompleteBlock",
    "MinFieldParams",
    "MinorReport",
    "NonPrimeCharacteristic",
    "ONE",
    "SearchResult",
    "SetCountMismatch",
    "TannerCycle",
    "UnsupportedSize",
    "ValidationReport",
    "ZERO",
    "ZeroElementInDTS",
    "build_base_matrix",
    "check_distance_assumptions",
    "check_minors",
    "column_distance",
    "density",
    "det",
    "differences",
    "distance_profile",
    "enumerate_cycles",
    "free_distance",
    "from_alist",
    "make_field",
    "matrix_from_json_dict",
    "matrix_to_json_dict",
    "min_field_params",
    "minimal_column_weight",
    "render_pretty",
    "scope",
    "search_min_scope",
    "sliding_entry_origin",
    "to_alist",
    "to_json",
    "validate",
    "__version__",
]
