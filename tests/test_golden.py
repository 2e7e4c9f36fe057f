"""Golden hashes of the edge TSV: the output bytes are pinned, not just the edge set.

Each hash is the sha256 of format_edges(decomposed_mst(...)) on a seeded
gaussian instance. Every (k, merge) combination must reproduce the same
bytes, so one hash per (d, metric) covers the whole-set kernel (k = 1) and
both merges over six block-pair tasks (k = 4). A change to the dense kernel
or to the distance routine that moves a single weight bit, or the order of
two tied edges, fails here. Below d = 8 the dense kernel works on a
column-major copy of the points; the d = 2 hashes, recorded when it was
row-major, also pin that layout.

The hashes were recorded with numpy 2.4.6 (Python 3.11, x86_64). They also
pin bits this package does not compute itself: numpy's summation order in
`sum(axis=1)` at d = 64 and 300, which README "Guarantees" states as the
package's definition and `tests/test_geometry.py` checks against a Python
model, and the bits of numpy's `log` and `cos`, which turn the package's
SplitMix64 uniforms into the gaussian instances. A numpy build or version
that changes either fails these tests without a fault in this package,
until the package carries out its summation order itself (ROADMAP
direction 2).
"""

import hashlib

import pytest

from geomst import (
    METRIC_NAMES,
    Metric,
    decomposed_mst,
    format_edges,
    generate_instance,
    make_partition,
)

SIZES = {2: 240, 64: 120, 300: 60}  # d -> n

GOLDEN = {
    (2, "euclidean"): "068c526f9fb27ef3d2f60c603bf97d18768523593ce97526178c1e5962584804",
    (2, "squared_euclidean"): "895eef9bd09434f4ce475508c442e145b855f8a994c659a0172f7c3d48c0eaef",
    (2, "manhattan"): "11ec4802394b213a85d6331c66493a654a03c0f56199fdf6b8dd8103f8eb41c3",
    (2, "chebyshev"): "f0c8982e1ef4cb2ca27bc35fa341b62c536da035ce0778f5fda0e5560624d120",
    (2, "cosine_distance"): "0ccc7a954b204f08697ff5be65af2c6c3a9b3eabf8a3e9dfa912b8482550c0dc",
    (64, "euclidean"): "2595f6e36f98c658739cfbd986cad14570a07051952e156b83360dcd88e5fee4",
    (64, "squared_euclidean"): "2914afbe93ffacc5893c55f1c7c60f3bc0a29ea64535c639fc6621db83863169",
    (64, "manhattan"): "a3bf832461a917d16fb609d68d1d08986c261228416b0c323027e9f4e5d6837a",
    (64, "chebyshev"): "2a66b6f32debf9cf57c7da09c4b68758aea9c413f9841f8ebe08380a329f2bc5",
    (64, "cosine_distance"): "5436f06751b906dd66e1bcc408b4b8e6f259af00db0a6074a6330bed814bda51",
    (300, "euclidean"): "6f4c4d8f2959291c5af5eaa765e53b61b8466b608ee22cbcddc5047cdb9a8ce7",
    (300, "squared_euclidean"): "bf9f210dfe0874a4759bfda6626fde54ff8cfbe1536b6305e29cb86ce2a9b753",
    (300, "manhattan"): "2291490686c14a59111780043d3601b7e723bac769e1f4235da4593d9b690dac",
    (300, "chebyshev"): "d30a97ec145eb00b954a7cc681f1c686846c5698c74523157e253d6bae62dbf6",
    (300, "cosine_distance"): "e7d8c813be69a5ba7d2df6af5f5a015bd9735ea5b7c29c40cdee43ac536e73ff",
}


@pytest.mark.parametrize("merge", ["gather", "reduce"])
@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("name", METRIC_NAMES)
@pytest.mark.parametrize("d", sorted(SIZES))
def test_edge_tsv_matches_golden_hash(d, name, k, merge):
    n = SIZES[d]
    pts = generate_instance(1000 + d, n, d, "gaussian")
    tree, _ = decomposed_mst(pts, Metric(name), make_partition(n, k), merge, workers=1)
    digest = hashlib.sha256(format_edges(tree).encode("utf-8")).hexdigest()
    assert digest == GOLDEN[(d, name)]
