"""Neighbourhood Zagreb index toolkit.

A small, dependency-free library for degree-based topological indices,
graph products (cartesian, tensor, wreath), a catalog of closed-form
index expressions for product families together with a brute-force
verification engine that reports errata, and the octane isomer dataset
with its structure-property statistics.
"""

from .graphs import (
    DuplicateEdgeError,
    EdgeListSyntaxError,
    Graph,
    GraphError,
    LoopEdgeError,
    SizeOverflowError,
    VertexOutOfRangeError,
    complete_graph,
    cycle_graph,
    empty_graph,
    parse_edge_list,
    path_graph,
    random_graph,
    serialize_edge_list,
    star_graph,
)
from .indices import (
    INDEX_IDS,
    TooLargeError,
    compute_index,
    first_zagreb,
    forgotten,
    harary,
    hosoya,
    merrifield_simmons,
    neighbourhood_zagreb,
    randic,
    second_zagreb,
)
from .products import (
    ProductKind,
    cartesian,
    cartesian_n,
    delta_law_check,
    product,
    tensor,
    wreath,
)
from .families import FAMILIES, build_family, plan_family
from .formulas import (
    FORMULA_IDS,
    GraphStats,
    ParamOutOfStatedRangeWarning,
    example_formula,
    in_stated_range,
    mn_cartesian,
    mn_cartesian_nary,
    mn_hamming,
    mn_hamming_compact,
    mn_tensor,
    mn_wreath_printed,
)
from .verification import (
    CONSISTENT,
    ERRATUM,
    UNVERIFIED,
    DiscrepancyReport,
    GridPoint,
    known_errata,
    reports_to_csv,
    verify,
    verify_all,
)
from .alkanes import (
    AlkaneNameError,
    AlkaneSyntaxError,
    LocantOutOfRangeError,
    MISSING_ISOMER_NAME,
    MultiplierMismatchError,
    OctaneRecord,
    ValenceExceededError,
    octane_dataset_csv,
    octane_isomers_all,
    octane_table1,
    parse_alkane_name,
)
from .qspr import (
    CHI_GROUP_TOLERANCE,
    DEGENERACY_INDEX_ORDER,
    DegenerateInputError,
    DegeneracyReport,
    RegressionResult,
    degeneracy_table,
    linear_fit,
    mean_isomer_degeneracy,
    octane_pairs_csv,
    octane_regression,
    pearson,
    render_ratio,
)

__version__ = "0.1.0"
