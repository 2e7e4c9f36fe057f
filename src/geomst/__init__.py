"""Exact minimum spanning trees of complete graphs over vector sets.

The core computation splits the points into blocks, solves a dense MST on
every block-pair union in parallel, and merges the pairwise trees into the
global MST either by one sparse pass (gather) or a binary reduction
(reduce). A strict total order on edges makes the answer unique, so the
decomposed result, the dense kernel and the brute-force oracle agree edge
for edge, bit for bit.
"""

from .datagen import DISTRIBUTIONS, generate_instance
from .decompose import (
    MERGE_STRATEGIES,
    PARTITION_STRATEGIES,
    Partition,
    decomposed_mst,
    make_partition,
    redundancy_factor,
    usable_cores,
)
from .dendrogram import Dendrogram, MergeStep, mst_to_dendrogram
from .dense import dense_mst
from .errors import DataError, GeomstError, MetricDomainError, UsageError
from .geometry import METRIC_NAMES, Metric, PointSet, distance, subset_indices
from .graph import Edge, EdgeList, UnionFind, edge_key, kruskal
from .io import (
    POINT_FORMATS,
    detect_format,
    fmt_real,
    format_edges,
    read_edges,
    read_points,
    write_dendrogram,
    write_edges,
    write_points,
    write_stats,
)
from .oracle import DEFAULT_MAX_POINTS, check_substructure, oracle_mst
from .rng import SplitMix64
from .stats import RunStats

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_MAX_POINTS",
    "DISTRIBUTIONS",
    "DataError",
    "Dendrogram",
    "Edge",
    "EdgeList",
    "GeomstError",
    "METRIC_NAMES",
    "MERGE_STRATEGIES",
    "MergeStep",
    "Metric",
    "MetricDomainError",
    "PARTITION_STRATEGIES",
    "POINT_FORMATS",
    "Partition",
    "PointSet",
    "RunStats",
    "SplitMix64",
    "UnionFind",
    "UsageError",
    "check_substructure",
    "decomposed_mst",
    "dense_mst",
    "detect_format",
    "distance",
    "edge_key",
    "fmt_real",
    "format_edges",
    "generate_instance",
    "kruskal",
    "make_partition",
    "mst_to_dendrogram",
    "oracle_mst",
    "read_edges",
    "read_points",
    "redundancy_factor",
    "subset_indices",
    "usable_cores",
    "write_dendrogram",
    "write_edges",
    "write_points",
    "write_stats",
]
