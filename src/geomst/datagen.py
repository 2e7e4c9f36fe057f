"""Deterministic point-cloud factories for tests and benchmarks.

Every distribution is driven by the package's counter-based generator, so a
(seed, n, d, distribution) tuple names one exact dataset: same bits on every
platform, every run, regardless of how many points were drawn before.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import UsageError
from .geometry import PointSet
from .rng import SplitMix64

DISTRIBUTIONS = ("uniform_cube", "gaussian", "clustered(c)")

_CLUSTERED = re.compile(r"clustered\((\d+)\)\Z")

CLUSTER_SPACING_SIGMAS = 100.0


def generate_instance(seed: int, n: int, d: int, distribution: str = "uniform_cube") -> PointSet:
    """Draw n points in R^d from a named distribution, reproducibly.

    uniform_cube fills [0, 1)^d. gaussian is standard normal per coordinate.
    clustered(c) draws c unit-sigma gaussian blobs, assigns points round
    robin, and spaces blob centers 100 sigma-radii (100*sqrt(d)) apart along
    the first axis, far enough that the c-1 inter-blob MST edges dominate
    every intra-blob distance.
    """
    if n < 0:
        raise UsageError(f"point count must be non-negative, got {n}")
    if d < 1:
        raise UsageError(f"dimension must be at least 1, got {d}")
    rng = SplitMix64(seed)
    if distribution == "uniform_cube":
        return PointSet(rng.uniform_array(n * d).reshape(n, d))
    if distribution == "gaussian":
        return PointSet(rng.normal_array(n * d).reshape(n, d))
    match = _CLUSTERED.match(distribution)
    if match:
        c = int(match.group(1))
        if c < 1 or c > max(n, 1):
            raise UsageError(f"clustered needs 1..{n} blobs, got {c}")
        coords = rng.normal_array(n * d).reshape(n, d)
        spacing = CLUSTER_SPACING_SIGMAS * d**0.5
        coords[:, 0] += spacing * (np.arange(n) % c)
        return PointSet(coords)
    raise UsageError(f"unknown distribution {distribution!r}; choose from {DISTRIBUTIONS}")

