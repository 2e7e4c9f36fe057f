"""Distribution factories: determinism, shape, and cluster-separation checks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from geomst import (
    DISTRIBUTIONS,
    Metric,
    SplitMix64,
    UsageError,
    dense_mst,
    generate_instance,
)


@pytest.mark.parametrize(
    "seed, n, d, match",
    [
        (1.5, 3, 2, "seed must be an integer"),
        (True, 3, 2, "seed must be an integer"),
        (1, 3.0, 2, "point count must be a non-negative integer, got 3.0"),
        (1, -1, 2, "point count must be a non-negative integer, got -1"),
        (1, 3, 2.5, "dimension must be a positive integer, got 2.5"),
        (1, 3, True, "dimension must be a positive integer, got True"),
        (1, 3, 0, "dimension must be a positive integer, got 0"),
    ],
)
def test_seed_count_and_dimension_must_be_integers(seed, n, d, match):
    with pytest.raises(UsageError, match=match):
        generate_instance(seed, n, d)


def test_numpy_integer_arguments_draw_the_same_points():
    a = generate_instance(np.uint64(5), np.int32(7), np.int8(3), "gaussian")
    assert a.coords.tobytes() == generate_instance(5, 7, 3, "gaussian").coords.tobytes()


def test_distribution_names_exposed():
    assert DISTRIBUTIONS == ("uniform_cube", "gaussian", "clustered(c)")


@pytest.mark.parametrize("distribution", ["uniform_cube", "gaussian", "clustered(4)"])
def test_same_seed_reproduces_identical_bytes(distribution):
    a = generate_instance(31, 50, 6, distribution)
    b = generate_instance(31, 50, 6, distribution)
    assert a.coords.tobytes() == b.coords.tobytes()


@pytest.mark.parametrize("distribution", ["uniform_cube", "gaussian", "clustered(4)"])
def test_different_seeds_differ(distribution):
    a = generate_instance(31, 50, 6, distribution)
    b = generate_instance(32, 50, 6, distribution)
    assert a.coords.tobytes() != b.coords.tobytes()


def test_uniform_cube_matches_raw_generator_stream():
    pts = generate_instance(9, 13, 5, "uniform_cube")
    expected = SplitMix64(9).uniform_array(13 * 5).reshape(13, 5)
    assert pts.coords.tobytes() == expected.tobytes()


def test_gaussian_matches_raw_generator_stream():
    pts = generate_instance(9, 13, 5, "gaussian")
    expected = SplitMix64(9).normal_array(13 * 5).reshape(13, 5)
    assert pts.coords.tobytes() == expected.tobytes()


def test_shapes_and_dtype():
    for distribution in ("uniform_cube", "gaussian", "clustered(2)"):
        pts = generate_instance(0, 7, 3, distribution)
        assert pts.coords.shape == (7, 3)
        assert pts.coords.dtype == np.float64
        assert pts.count == 7 and pts.dim == 3


def test_uniform_cube_stays_inside_unit_cube():
    pts = generate_instance(5, 400, 8, "uniform_cube")
    assert np.all(pts.coords >= 0.0)
    assert np.all(pts.coords < 1.0)


def test_gaussian_moments_are_plausible():
    pts = generate_instance(6, 2000, 10, "gaussian")
    flat = pts.coords.ravel()
    assert abs(flat.mean()) < 0.05
    assert abs(flat.std() - 1.0) < 0.05


def test_empty_instance_allowed():
    pts = generate_instance(0, 0, 3, "uniform_cube")
    assert pts.count == 0 and pts.dim == 3


def test_two_point_gaussian_yields_single_mst_edge():
    pts = generate_instance(11, 2, 4, "gaussian")
    tree = dense_mst(pts, Metric("euclidean"))
    assert len(tree.edges) == 1
    assert tree.edges[0].w > 0.0


def test_blob_assignment_is_round_robin():
    # Point i belongs to blob i % c, whose center sits at (i % c) * spacing.
    d = 2
    pts = generate_instance(6, 7, d, "clustered(3)")
    blob = np.rint(pts.coords[:, 0] / (100.0 * d**0.5)).astype(int)
    assert blob.tolist() == [0, 1, 2, 0, 1, 2, 0]
    assert generate_instance(6, 4, d, "clustered(1)").coords[:, 0].max() < 10.0


def test_clustered_blob_centers_are_spaced_along_first_axis():
    c, d = 3, 4
    pts = generate_instance(2, 300, d, f"clustered({c})")
    spacing = 100.0 * d**0.5
    labels = np.arange(300) % c
    means = [pts.coords[labels == b, 0].mean() for b in range(c)]
    for b in range(1, c):
        assert abs((means[b] - means[b - 1]) - spacing) < 1.0


def test_clustered_bridges_dominate_intra_blob_distances():
    c = 3
    pts = generate_instance(4, 300, 8, f"clustered({c})")
    labels = np.arange(300) % c
    intra = []
    for b in range(c):
        block = pts.coords[labels == b]
        diffs = block[:, None, :] - block[None, :, :]
        dm = np.sqrt((diffs * diffs).sum(axis=2))
        iu = np.triu_indices(len(block), k=1)
        intra.append(dm[iu])
    p99 = np.percentile(np.concatenate(intra), 99)
    tree = dense_mst(pts, Metric("euclidean"))
    bridges = [e for e in tree.edges if e.w > p99]
    assert len(bridges) == c - 1
    for e in bridges:
        assert e.u % c != e.v % c


def test_clustered_mst_keeps_blobs_internally_connected():
    c = 3
    pts = generate_instance(4, 90, 5, f"clustered({c})")
    tree = dense_mst(pts, Metric("euclidean"))
    cross = sum(1 for e in tree.edges if e.u % c != e.v % c)
    assert cross == c - 1


@pytest.mark.parametrize(
    "n, d, distribution, match",
    [
        (-1, 3, "uniform_cube", "non-negative"),
        (5, 0, "uniform_cube", "dimension"),
        (5, 3, "triangle", "unknown distribution"),
        (5, 3, "clustered(0)", "blobs"),
        (5, 3, "clustered(6)", "blobs"),
        (5, 3, "clustered(-1)", "unknown distribution"),
        (5, 3, "clustered(two)", "unknown distribution"),
    ],
)
def test_invalid_requests_rejected(n, d, distribution, match):
    with pytest.raises(UsageError, match=match):
        generate_instance(0, n, d, distribution)


@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    n=st.integers(min_value=0, max_value=40),
    d=st.integers(min_value=1, max_value=6),
    distribution=st.sampled_from(["uniform_cube", "gaussian", "clustered(2)"]),
)
def test_every_instance_is_finite_and_deterministic(seed, n, d, distribution):
    if distribution == "clustered(2)" and n < 2:
        distribution = "gaussian"
    a = generate_instance(seed, n, d, distribution)
    b = generate_instance(seed, n, d, distribution)
    assert np.all(np.isfinite(a.coords))
    assert a.coords.tobytes() == b.coords.tobytes()


def test_prefix_of_larger_instance_matches_smaller():
    a = generate_instance(3, 10, 2, "gaussian")
    b = generate_instance(3, 20, 2, "gaussian")
    assert a.coords.tobytes() == b.coords[:10].tobytes()
