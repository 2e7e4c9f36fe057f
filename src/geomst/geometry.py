"""Point storage and the symmetric distance functions that define edge weights.

Every distance in the package funnels through one vectorized row-vs-block
routine, so a given unordered pair always produces the same 64-bit value no
matter which code path asks for it (dense kernel, oracle, scalar API, any
subset). numpy reduces each row independently of the block it sits in, and
all five metrics are written as bitwise-commutative formulas (differences
are squared or absed, products commute), which together make the exact
edge-set equalities asserted by the test suite possible.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, MetricDomainError, UsageError

_TINY = np.finfo(np.float64).tiny
_HUGE = np.finfo(np.float64).max

METRIC_NAMES = (
    "euclidean",
    "squared_euclidean",
    "manhattan",
    "chebyshev",
    "cosine_distance",
)


def _has_repeats(values: np.ndarray) -> bool:
    """True iff some value occurs twice.

    A sort and an adjacent comparison, not np.unique: with numpy 2.4.6,
    np.unique of 20,000 int64 values took 2.9 ms against 0.12 ms for the
    sort (2-vCPU x86_64), and that call imported numpy.ma, which np.unique
    of 5 values does not.
    """
    s = np.sort(values)
    return bool((s[1:] == s[:-1]).any())


def _int64_array(values, what: str) -> np.ndarray:
    """values as a new int64 array; a non-integer dtype or a value outside int64 is a UsageError.

    A cast would truncate 0.5 to 0, read a boolean mask as indices 0 and 1,
    and wrap an unsigned 2**63 round to -2**63. A list holding a Python int
    outside int64 comes back from np.asarray as float64 or object, so its
    values are searched for that int, which the error names.
    """
    arr = np.asarray(values)
    if arr.dtype.kind in "fO" and isinstance(values, (list, tuple)):
        for x in values:
            if isinstance(x, (int, np.integer)) and not -(2**63) <= x <= 2**63 - 1:
                bound = "at most 2**63 - 1" if x > 0 else "at least -2**63"
                raise UsageError(f"{what} must be {bound}, got {x}")
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise UsageError(f"{what} must be integers, got dtype {arr.dtype}")
    if arr.size and arr.dtype.kind == "u" and arr.max() > 2**63 - 1:
        raise UsageError(f"{what} must be at most 2**63 - 1, got {arr.max()}")
    return arr.astype(np.int64)


def _integer(value, what: str, lo: int = 0, hi: int | None = None) -> int:
    """value as an int if it is an int or a numpy integer in lo..hi; without hi, lo is 0 or 1.

    A bool or a float is a UsageError, even True or 2.0: True would count
    as 1, and a float would fail later in range() or be compared as it is.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if lo <= int(value) and (hi is None or int(value) <= hi):
            return int(value)
    if hi is not None:
        raise UsageError(f"{what} must be an integer in {lo}..{hi}, got {value!r}")
    raise UsageError(f"{what} must be a {'positive' if lo else 'non-negative'} integer, got {value!r}")


class PointSet:
    """Immutable set of n points in R^d with global vertex ids.

    coords is an (n, d) float64 C-contiguous read-only array. ids defaults to
    0..n-1 and must be distinct non-negative integers; they are the vertex
    names every edge in the package carries.
    """

    __slots__ = ("_coords", "_ids", "_norms", "_units")

    def __init__(self, coords, ids=None):
        self._init(np.array(coords, dtype=np.float64, order="C", copy=True), ids)

    @classmethod
    def _adopt(cls, coords: np.ndarray) -> PointSet:
        """A PointSet over coords itself, which nothing else may hold: checked and made read-only, not copied."""
        points = cls.__new__(cls)
        points._init(np.asarray(coords, dtype=np.float64, order="C"), None)
        return points

    def _init(self, arr: np.ndarray, ids) -> None:
        if arr.ndim != 2:
            raise UsageError(f"coords must be two-dimensional, got shape {arr.shape}")
        if arr.shape[1] < 1:
            raise UsageError("points need at least one dimension")
        block = max(1, (1 << 18) // arr.shape[1])  # rows whose mask is at most 256 KiB, not n x d bytes
        for lo in range(0, arr.shape[0], block):
            finite = np.isfinite(arr[lo : lo + block]).all(axis=1)
            if not finite.all():
                raise DataError(f"non-finite coordinate in point {lo + int(np.argmin(finite))}")
        if ids is None:
            id_arr = np.arange(arr.shape[0], dtype=np.int64)
        else:
            id_arr = _int64_array(ids, "ids")
            if id_arr.shape != (arr.shape[0],):
                raise UsageError("ids must be one id per point")
            if id_arr.size and id_arr.min() < 0:
                raise UsageError("ids must be non-negative")
            if _has_repeats(id_arr):
                raise UsageError("ids must be pairwise distinct")
        arr.setflags(write=False)
        id_arr.setflags(write=False)
        self._coords = arr
        self._ids = id_arr
        self._norms = None
        self._units = None

    def __reduce__(self):
        # Unpickling runs the constructor, so a copy is checked and read-only.
        return PointSet, (self._coords, self._ids)

    @property
    def count(self) -> int:
        return self._coords.shape[0]

    @property
    def dim(self) -> int:
        return self._coords.shape[1]

    @property
    def coords(self) -> np.ndarray:
        return self._coords

    @property
    def ids(self) -> np.ndarray:
        return self._ids

    @property
    def norms(self) -> np.ndarray:
        """Euclidean norm of every point, computed once and cached."""
        if self._norms is None:
            self._norms, self._units = _unit_rows(self._coords)
        return self._norms

    @property
    def unit_coords(self) -> np.ndarray:
        """Rows scaled to unit norm; zero-norm rows stay zero.

        Zero rows are never evaluated: metric domain checks raise before any
        cosine evaluation can touch them.
        """
        if self._units is None:
            self._norms, self._units = _unit_rows(self._coords)
        return self._units

    def __repr__(self) -> str:
        return f"PointSet(count={self.count}, dim={self.dim})"


@np.errstate(over="ignore")
def _unit_rows(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean norms and unit-norm rows of an (n, d) array, both read-only.

    A row whose squared sum is a finite normal number is divided by the
    square root of that sum. A row whose squared sum overflows or underflows
    (coordinates beyond about 1e154 or all below about 1e-154) but which is
    not all zeros is first scaled by the power of two that brings its largest
    |x| into [0.5, 1); the scaling is exact, so its unit row is as accurate as
    any other, and its norm is scaled back (inf where it exceeds the largest
    double). Zero rows get norm 0 and stay zero.
    """
    sq = np.sum(coords * coords, axis=1)
    norms = np.sqrt(sq)
    units = coords / np.where(norms == 0.0, 1.0, norms)[:, None]
    redo = ~((sq >= _TINY) & (sq <= _HUGE)) & coords.any(axis=1)
    if redo.any():
        _, exp = np.frexp(np.abs(coords[redo]).max(axis=1))
        scaled = np.ldexp(coords[redo], -exp[:, None])
        scaled_norms = np.sqrt(np.sum(scaled * scaled, axis=1))
        norms[redo] = np.ldexp(scaled_norms, exp)
        units[redo] = scaled / scaled_norms[:, None]
    norms.setflags(write=False)
    units.setflags(write=False)
    return norms, units


def subset_indices(points: PointSet, subset=None) -> np.ndarray:
    """Validate a row-index subset of a PointSet and return it as int64; None means every row."""
    if subset is None:
        return np.arange(points.count, dtype=np.int64)
    idx = _int64_array(subset, "subset indices")
    if idx.ndim != 1:
        raise UsageError(f"subset must be a flat index sequence, got shape {idx.shape}")
    if idx.size:
        if idx.min() < 0 or idx.max() >= points.count:
            raise UsageError(f"subset index out of range for {points.count} points")
        if _has_repeats(idx):
            raise UsageError("subset indices must be distinct")
    return idx


class Metric:
    """One of the shipped symmetric distance functions, selected by name.

    Only symmetry is promised (and relied upon downstream); none of the MST
    machinery assumes the triangle inequality or non-negativity, although all
    shipped metrics happen to be non-negative.
    """

    __slots__ = ("kind",)

    def __init__(self, kind: str):
        if kind not in METRIC_NAMES:
            raise UsageError(f"unknown metric {kind!r}; choose from {', '.join(METRIC_NAMES)}")
        self.kind = kind

    def __repr__(self) -> str:
        return f"Metric({self.kind!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Metric) and other.kind == self.kind

    def __hash__(self) -> int:
        return hash((Metric, self.kind))

    def prepared(self, points: PointSet) -> np.ndarray:
        """The coordinate matrix kernels should slice rows from.

        cosine_distance works on unit-normalized rows (its value is half the
        squared euclidean distance of the normalized vectors, which equals
        one minus the cosine similarity and is exactly zero for identical
        inputs); every other metric works on the raw coordinates.
        """
        if self.kind == "cosine_distance":
            return points.unit_coords
        return points.coords

    def check_domain(self, points: PointSet, indices: np.ndarray | None = None) -> None:
        """Raise MetricDomainError if any participating point is out of domain."""
        if self.kind != "cosine_distance":
            return
        norms = points.norms if indices is None else points.norms[indices]
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            ids = points.ids if indices is None else points.ids[indices]
            raise MetricDomainError(
                f"cosine_distance is undefined for the zero vector (point id {int(ids[zero[0]])})"
            )

    def block(self, a: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Distances from one prepared row to a block of prepared rows.

        This is the single evaluation routine behind every distance in the
        package; see the module docstring for why that matters. Leading axes
        broadcast, as a (T, 1, d) row against a (T, r, d) block; each row is
        reduced over the last axis.
        """
        kind = self.kind
        if kind == "manhattan":
            return np.abs(rows - a).sum(axis=-1)
        if kind == "chebyshev":
            return np.abs(rows - a).max(axis=-1)
        diff = rows - a
        diff *= diff
        total = diff.sum(axis=-1)
        if kind == "euclidean":
            return np.sqrt(total)
        if kind == "cosine_distance":  # on unit rows
            return 0.5 * total
        return total  # squared_euclidean


def distance(metric: Metric, a, b) -> float:
    """Metric value for one pair of raw vectors, as every code path computes it.

    The pair is checked as the two-point PointSet (a, b): UsageError on
    vectors that are not flat or differ in length, DataError on a NaN or
    infinite coordinate, and MetricDomainError naming point id 0 (a) or 1
    (b) for a zero-norm vector under cosine_distance.
    """
    av, bv = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if av.ndim != 1 or bv.ndim != 1:
        raise UsageError("distance expects flat vectors")
    if av.shape != bv.shape:
        raise UsageError(f"dimension mismatch: {av.shape[0]} vs {bv.shape[0]}")
    pair = PointSet(np.stack((av, bv)))
    metric.check_domain(pair)
    rows = metric.prepared(pair)
    return float(metric.block(rows[0], rows[1:])[0])
