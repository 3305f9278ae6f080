"""dagzip: graph compression via cluster DAGs, with algorithms on the compressed form."""

from .compression import (
    ClusterTable,
    CompressionFormatError,
    DagCompression,
    clusters,
    decompress,
    read_compression,
    validate,
    write_compression,
)
from .generators import (
    RookSpec,
    random_compression,
    random_graph,
    rook_canonical_compression,
    rook_graph,
    rook_mst_compression,
)
from .graphs import (
    Graph,
    GraphFormatError,
    ShorePartition,
    read_graph,
    read_shores,
    twins,
    write_graph,
    write_shores,
)
from .heuristics import (
    GapRecord,
    dag_compress_greedy,
    gap_experiment,
    gap_report_csv,
    tree_compress,
    validate_tree_compression,
)
from .mst import (
    MstResult,
    MstStats,
    certify_forest,
    kruskal_baseline,
    kruskal_compressed,
    write_mst,
)
from .normalize import shore_normalize, twin_normalize, twin_single_edge
from .oracle import (
    OracleBudget,
    OracleBudgetExceeded,
    decide_mindag,
    min_bipartite_size,
    min_dag_size,
    twinned_optimum,
)
from .reductions import (
    ClosedFamily,
    SetCoverInstance,
    TwinnedGraph,
    add_witness,
    canonical_closure_compression,
    check_sandwich,
    close_standard_order,
    closure_compression_size,
    delete_witness,
    read_setcover,
    reduce_add,
    reduce_delete,
    reduce_mindag,
    setcover_exhaustive,
    twinned_incidence,
    write_setcover,
)

__version__ = "0.1.0"
