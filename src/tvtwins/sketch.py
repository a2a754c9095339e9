"""Bottom-k (k-minimum-values) sketches of neighbour-ID sets.

A sketch keeps the k smallest 64-bit hash values of a set together with the
set's exact size.  Two sketches built with the same seed support estimating
the size of the union of the underlying sets, and from that (by
inclusion-exclusion with the exact sizes) the size of the intersection.
When both sketches hold fewer than k values they encode their sets' hashes
completely and every estimate is exact.
"""

import math
import statistics
import struct
from dataclasses import dataclass

_HASH_SPACE = 2.0**64
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


def _mix64(x: int) -> int:
    """splitmix64 finalizer on one 64-bit word, each step masked to 64 bits."""
    x = (x + _GOLDEN) & _MASK
    x = ((x ^ (x >> 30)) * _MIX_1) & _MASK
    x = ((x ^ (x >> 27)) * _MIX_2) & _MASK
    return x ^ (x >> 31)


@dataclass(frozen=True)
class SketchParams:
    """Sketch configuration shared by every node of a run.

    ``epsilon`` and ``nu`` are the accuracy target (relative to the larger
    set) and the tolerated failure probability; ``k`` is the capacity that is
    meant to achieve them.  ``hash_seed`` selects the hash function and must
    be common to all sketches that are compared.
    """

    k: int
    epsilon: float
    nu: float
    hash_seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("sketch capacity must be at least 1")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0.0 < self.nu < 1.0:
            raise ValueError("nu must lie in (0, 1)")


def calibrated_capacity(epsilon: float, nu: float) -> int:
    """Capacity k such that the intersection estimate stays within
    epsilon * max(|A|, |B|) with empirical frequency at least 1 - nu.

    Derived from the normal approximation of the k-minimum-values estimator
    (relative standard error ~ 1/sqrt(k - 2)) at the worst case
    |A ∪ B| = 2 * max(|A|, |B|).
    """
    if not 0.0 < epsilon < 1.0 or not 0.0 < nu < 1.0:
        raise ValueError("epsilon and nu must lie in (0, 1)")
    z = statistics.NormalDist().inv_cdf(1.0 - nu / 2.0)
    return 2 + math.ceil((2.0 * z / epsilon) ** 2)


@dataclass(frozen=True)
class NeighbourhoodSketch:
    """The k smallest distinct hash values of a set, plus the exact set size."""

    mins: tuple[int, ...]
    exact_size: int
    k: int
    hash_seed: int

    @property
    def full(self) -> bool:
        """A full sketch may have discarded hash values; an under-full one is lossless."""
        return len(self.mins) >= self.k

    def serialize(self) -> bytes:
        """Fixed-size wire form: uint16 count, k uint64 value slots (zero
        padded past the live values), uint64 exact size.

        The length depends only on the capacity k, never on the set size or
        on any property of the graph the set came from.
        """
        padded = self.mins + (0,) * (self.k - len(self.mins))
        return struct.pack(f"<H{self.k}QQ", len(self.mins), *padded, self.exact_size)

    def bit_size(self, width: int) -> int:
        """Logical size for message accounting: 16-bit count, the live 64-bit
        values, and a width-bit exact size."""
        return 16 + 64 * len(self.mins) + width


def build_sketch(ids, params: SketchParams) -> NeighbourhoodSketch:
    """Sketch a set of node IDs; deterministic given the IDs and the hash seed."""
    base = _mix64(params.hash_seed & _MASK)
    hashed = sorted({_mix64(i ^ base) for i in ids})
    return NeighbourhoodSketch(tuple(hashed[: params.k]), len(ids), params.k, params.hash_seed)


def _check_compatible(a: NeighbourhoodSketch, b: NeighbourhoodSketch) -> None:
    if a.k != b.k:
        raise ValueError(f"sketch capacities differ: {a.k} vs {b.k}")
    if a.hash_seed != b.hash_seed:
        raise ValueError("sketches were built with different hash seeds")


def estimate_union(a: NeighbourhoodSketch, b: NeighbourhoodSketch) -> float:
    """Estimate |A ∪ B| from two compatible sketches, via the set of their
    merged hash values.

    Exact (the size of that set) whenever both sketches are under-full.
    Otherwise one sketch is full, so the set holds at least k values, and the
    estimate is the k-minimum-values one, (k-1)/r_k, where r_k is the k-th
    smallest merged hash normalized to (0, 1].
    """
    _check_compatible(a, b)
    merged = set(a.mins).union(b.mins)
    if not a.full and not b.full:
        return float(len(merged))
    rank_k = (sorted(merged)[a.k - 1] + 1) / _HASH_SPACE
    return (a.k - 1) / rank_k


def estimate_intersection(a: NeighbourhoodSketch, b: NeighbourhoodSketch) -> float:
    """Estimate |A ∩ B| by inclusion-exclusion with the exact set sizes,
    clamped to the feasible range [0, min(|A|, |B|)]."""
    est = a.exact_size + b.exact_size - estimate_union(a, b)
    return min(max(est, 0.0), float(min(a.exact_size, b.exact_size)))


def sketch_d_twin_test(
    a: NeighbourhoodSketch, b: NeighbourhoodSketch, adj: int, d: int
) -> bool:
    """Decide the twin inequality from sketches of two raw neighbourhoods.

    ``adj`` is 1 iff the two nodes are adjacent; it corrects the raw sizes
    down to outside-neighbourhood sizes.  The estimated intersection is
    rounded to the nearest integer (half up) and must be at least 1, mirroring
    the common-neighbour requirement.  In the regime where both sketches are
    under-full the decision is exact.
    """
    if adj not in (0, 1):
        raise ValueError("adj must be 0 or 1")
    common = int(estimate_intersection(a, b) + 0.5)
    if common < 1:
        return False
    return (a.exact_size - adj) + (b.exact_size - adj) - 2 * common <= d
