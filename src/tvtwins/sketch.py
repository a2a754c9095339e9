"""Bottom-k (k-minimum-values) sketches of neighbour-ID sets.

A sketch keeps the k smallest 64-bit hash values of a set together with the
set's exact size.  Two sketches built with the same seed support estimating
the size of the union of the underlying sets, and from that (by
inclusion-exclusion with the exact sizes) the size of the intersection.
When both sketches hold fewer than k values they encode their sets' hashes
completely and every estimate is exact: one intersection of the two sketches'
value sets counts the shared values, and the union and intersection follow
from that count.  When one is full, the k-th smallest value of the two
together is read by a merge of their sorted values from the top down, which
reads only the other sketch's values below a full one's largest.

:func:`build_sketches` sketches a whole table of sets, such as a round's
neighbourhoods, and hashes each distinct ID once for all of them;
:func:`build_sketch` is its one-set case.  :func:`sketch_d_twin_test` decides
a pair from two sketches and leaves the size filter, which needs only the
exact sizes, to its caller.
"""

import math
import statistics
import struct
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import islice

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
    meant to achieve them, at least 2: with k = 1 the union estimate
    (k-1)/r_k of a full sketch is always 0.  ``hash_seed`` selects the hash
    function and must be common to all sketches that are compared.
    """

    k: int
    epsilon: float
    nu: float
    hash_seed: int = 0

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(
                "sketch capacity k must be at least 2: the k-minimum-values"
                " union estimate (k-1)/r_k is 0 for k = 1"
            )
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
    """The k smallest distinct hash values of a set, plus the exact set size.

    Two more fields are set once per sketch and take no part in equality,
    hashing or repr.  ``values`` holds the hash values of ``mins`` as a
    frozenset, so that each comparison of two sketches is one set operation;
    :func:`build_sketches` passes the set it hashed, and a sketch built directly
    derives it from ``mins``, which must then be strictly increasing, at most
    k long and within [0, 2**64), or ``ValueError`` is raised.  ``full`` tells
    whether the sketch may have discarded hash values; an under-full one is
    lossless.
    """

    mins: tuple[int, ...]
    exact_size: int
    k: int
    hash_seed: int
    values: frozenset[int] = field(default=None, compare=False, repr=False)
    full: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.values is None:
            # Only a directly built sketch is checked: build_sketches' hold by
            # construction, and estimate_union relies on all three properties.
            mins = self.mins
            if len(mins) > self.k:
                raise ValueError(f"a sketch of capacity {self.k} holds {len(mins)} values")
            if any(x >= y for x, y in zip(mins, mins[1:])):
                raise ValueError("sketch values must be strictly increasing")
            if mins and not (0 <= mins[0] and mins[-1] <= _MASK):
                raise ValueError("sketch values must lie in [0, 2**64)")
            object.__setattr__(self, "values", frozenset(mins))
        object.__setattr__(self, "full", len(self.mins) >= self.k)

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


def build_sketches(table, params: SketchParams) -> dict:
    """Sketch every ID set of ``table``, a mapping from keys to sets; the
    result maps the same keys to the sketches.  Each distinct ID is hashed
    once, however many of the sets hold it."""
    base = _mix64(params.hash_seed & _MASK)
    hash_of = {i: _mix64(i ^ base) for i in set().union(*table.values())}.__getitem__
    k, hash_seed = params.k, params.hash_seed
    sketches = {}
    for key, ids in table.items():
        # A frozenset copied from a set is sized to fit, unlike one grown from
        # a sequence: for 20 values 64 slots against 128.
        values = frozenset({*map(hash_of, ids)})
        mins = sorted(values)
        if len(mins) > k:
            del mins[k:]
            values = frozenset(mins)
        sketches[key] = NeighbourhoodSketch(tuple(mins), len(ids), k, hash_seed, values)
    return sketches


def build_sketch(ids, params: SketchParams) -> NeighbourhoodSketch:
    """Sketch a set of node IDs; deterministic given the IDs and the hash seed."""
    return build_sketches({None: ids}, params)[None]


def _check_compatible(a: NeighbourhoodSketch, b: NeighbourhoodSketch) -> None:
    if a.k != b.k:
        raise ValueError(f"sketch capacities differ: {a.k} vs {b.k}")
    if a.hash_seed != b.hash_seed:
        raise ValueError("sketches were built with different hash seeds")


def _distinct_values(a: NeighbourhoodSketch, b: NeighbourhoodSketch) -> int:
    """How many distinct hash values two sketches hold between them."""
    return len(a.mins) + len(b.mins) - len(a.values & b.values)


def estimate_union(a: NeighbourhoodSketch, b: NeighbourhoodSketch) -> float:
    """Estimate |A ∪ B| from two compatible sketches.

    Exact (the number of distinct hash values the two sketches hold) whenever
    both sketches are under-full.  Otherwise one sketch is full, so together
    they hold at least k values, and the estimate is the k-minimum-values
    one, (k-1)/r_k, where r_k is the k-th smallest of those values
    normalized to (0, 1].
    """
    _check_compatible(a, b)
    if not a.full and not b.full:
        return float(_distinct_values(a, b))
    # r_k is at most the largest value of a full sketch.  Take as a the full
    # one with the lower largest value: fewer than k of b's values lie below.
    if not a.full or (b.full and b.mins[-1] < a.mins[-1]):
        a, b = b, a
    mins, values = a.mins, a.values
    below = bisect_left(b.mins, mins[-1])
    extra = [x for x in islice(b.mins, below) if x not in values]
    # The union's values up to mins[-1] are a's k and the m = len(extra)
    # others, so r_k is their (m+1)-th largest: merge down from the top,
    # dropping m.
    # Once extra is used up, i is -1 and reads the appended -1, which lies
    # below every hash value; j stays >= 0 since m < k.
    i, j = len(extra) - 1, len(mins) - 1
    extra.append(-1)
    for _ in range(i + 1):
        if extra[i] > mins[j]:
            i -= 1
        else:
            j -= 1
    rank_k = ((extra[i] if extra[i] > mins[j] else mins[j]) + 1) / _HASH_SPACE
    return (a.k - 1) / rank_k


def _intersection(a: NeighbourhoodSketch, b: NeighbourhoodSketch) -> int | float:
    """|A ∩ B| by inclusion-exclusion with the exact set sizes, clamped to
    the feasible range [0, min(|A|, |B|)].

    When both sketches are under-full this is an exact int, never negative:
    each exact size is at least its sketch's count of values.  The upper
    clamp still matters there when IDs that are equal modulo 2**64 share a
    hash value, so that a set's exact size exceeds that count.  Otherwise
    the union is the float estimate of :func:`estimate_union`.
    """
    if a.full or b.full:
        est = max(a.exact_size + b.exact_size - estimate_union(a, b), 0)
    else:
        _check_compatible(a, b)
        est = a.exact_size + b.exact_size - _distinct_values(a, b)
    return min(est, a.exact_size, b.exact_size)


def estimate_intersection(a: NeighbourhoodSketch, b: NeighbourhoodSketch) -> float:
    """Estimate |A ∩ B| by inclusion-exclusion with the exact set sizes,
    clamped to the feasible range [0, min(|A|, |B|)]."""
    return float(_intersection(a, b))


def sketch_d_twin_test(
    a: NeighbourhoodSketch, b: NeighbourhoodSketch, adj: int, d: int
) -> bool:
    """Decide the twin inequality from sketches of two raw neighbourhoods.

    ``adj`` is 1 iff the two nodes are adjacent; it corrects the raw sizes
    down to outside-neighbourhood sizes.  The estimated intersection is
    rounded to the nearest integer (half up) and must be at least 1, mirroring
    the common-neighbour requirement.  In the regime where both sketches are
    under-full the intersection is an exact count and so is the decision.

    The intersection is that of :func:`estimate_intersection`, which never
    exceeds min(|A|, |B|); so the difference is at least
    abs(|A| - |B|) - 2*adj, and a pair whose sizes alone put it above d is
    no twin.  That is the size filter of exact set-similarity joins; the
    caller applies it before calling, and it changes no decision.
    """
    if adj not in (0, 1):
        raise ValueError("adj must be 0 or 1")
    size_a, size_b = a.exact_size, b.exact_size
    if a.full or b.full:  # _intersection's full branch; estimate_union checks compatibility
        common = int(min(max(size_a + size_b - estimate_union(a, b), 0), size_a, size_b) + 0.5)
    else:  # _intersection's under-full branch, inlined for the hot path
        _check_compatible(a, b)
        shared = len(a.values & b.values)
        common = min(size_a + size_b - len(a.mins) - len(b.mins) + shared, size_a, size_b)
    if common < 1:
        return False
    return size_a + size_b - 2 * adj - 2 * common <= d
