"""Bottom-k (k-minimum-values) sketches of neighbour-ID sets.

A sketch keeps the k smallest 64-bit hash values of a set together with the
set's exact size; distinct IDs hash to distinct values, so an under-full
sketch, one of fewer than k values, holds one value per member.  Two sketches
built with the same seed support estimating the size of the union of the
underlying sets, and from that, in every regime by the one inclusion-exclusion
formula with the exact sizes, the size of the intersection.  When both are
under-full every estimate is exact: the union is the count of distinct values
the two hold.  When one is full, the estimate reads the k-th smallest of
those values.  The twin test skips that estimate when k distinct values of the
two lie below a bound safely under the threshold hash a twin needs: the k-th
smallest then lies below it too, so the pair is no twin.  It counts them with
one bisection of one sketch and a walk up the other that stops at the bound or
at the k-th value.

An under-full sketch also carries a 64-bit bitmap of its values' top six bits.
The XOR of two bitmaps has no more bits set than the sketches have values
apart, so the twin test may reject a pair on that popcount alone, as the
bitmap filter of exact set-similarity joins does.

:func:`build_sketches` sketches a whole table of sets, such as a round's
neighbourhoods, and hashes each distinct ID once for all of them;
:func:`build_sketch` is its one-set case.  :func:`sketch_d_twin_test` makes
one node's whole decision for one round, from its own sketch and those of
its candidates, and :func:`wire_bits` prices sketches on the wire, so no
other module reads a sketch's fields.
"""

import math
import statistics
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import reduce
from operator import attrgetter, or_

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
    derives it from ``mins``, which must then be min(exact_size, k) long,
    strictly increasing and within [0, 2**64), or ``ValueError`` is raised.
    ``full`` tells whether the sketch may have discarded hash values.
    ``bitmap``, the OR of ``1 << (h >> 58)`` over the values, is set exactly
    when the sketch is under-full; a full one has ``None``.
    """

    mins: tuple[int, ...]
    exact_size: int
    k: int
    hash_seed: int
    values: frozenset[int] = field(default=None, compare=False, repr=False)
    bitmap: int | None = field(default=None, compare=False, repr=False)
    full: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.values is None:
            # Only a directly built sketch is checked: build_sketches' hold by
            # construction, and the estimators rely on all three properties.
            mins, size, k = self.mins, self.exact_size, self.k
            if len(mins) != min(size, k):
                raise ValueError(f"a sketch of size {size}, capacity {k} holds {len(mins)} values")
            if any(x >= y for x, y in zip(mins, mins[1:])):
                raise ValueError("sketch values must be strictly increasing")
            if mins and not (0 <= mins[0] and mins[-1] <= _MASK):
                raise ValueError("sketch values must lie in [0, 2**64)")
            object.__setattr__(self, "values", frozenset(mins))
            if len(mins) < k:
                object.__setattr__(self, "bitmap", reduce(or_, (1 << (x >> 58) for x in mins), 0))
        object.__setattr__(self, "full", len(self.mins) >= self.k)


def build_sketches(table, params: SketchParams) -> dict:
    """Sketch every ID set of ``table``, a mapping from keys to sets; the
    result maps the same keys to the sketches.  Each distinct ID is hashed
    once, however many of the sets hold it.  IDs must lie in [0, 2**64)."""
    every = set().union(*table.values())
    # i ^ base and _mix64 are bijections on 64-bit words: distinct IDs in range
    # hash to distinct values, so an under-full sketch holds its whole set.
    if every and (min(every) < 0 or max(every) > _MASK):
        raise ValueError("node IDs must lie in [0, 2**64)")
    base = _mix64(params.hash_seed & _MASK)
    hashes = {i: _mix64(i ^ base) for i in every}
    bits = {i: 1 << (x >> 58) for i, x in hashes.items()}  # top six bits
    k, hash_seed = params.k, params.hash_seed
    sketches = {}
    for key, ids in table.items():
        # A frozenset copied from a set is sized to fit, unlike one grown from
        # a sequence: for 20 values 64 slots against 128.
        values = frozenset({*map(hashes.__getitem__, ids)})
        mins = sorted(values)
        if len(mins) > k:
            del mins[k:]
            values = frozenset(mins)
        bitmap = reduce(or_, map(bits.__getitem__, ids), 0) if len(mins) < k else None
        sketches[key] = NeighbourhoodSketch(tuple(mins), len(ids), k, hash_seed, values, bitmap)
    return sketches


def build_sketch(ids, params: SketchParams) -> NeighbourhoodSketch:
    """Sketch a set of node IDs; deterministic given the IDs and the hash seed."""
    return build_sketches({None: ids}, params)[None]


def wire_bits(sketches, width: int) -> int:
    """Logical size of a collection of sketches in their only wire form: each
    is a 16-bit count, 64 bits per live value and a width-bit exact size, so
    at most 16 + width + 64k bits at capacity k."""
    return len(sketches) * (16 + width) + 64 * sum(map(len, map(attrgetter("mins"), sketches)))


def _check_compatible(a: NeighbourhoodSketch, b: NeighbourhoodSketch) -> None:
    if a.k != b.k:
        raise ValueError(f"sketch capacities differ: {a.k} vs {b.k}")
    if a.hash_seed != b.hash_seed:
        raise ValueError("sketches were built with different hash seeds")


def estimate_union(a: NeighbourhoodSketch, b: NeighbourhoodSketch) -> float:
    """Estimate |A ∪ B| from two compatible sketches.

    Exact (the number of distinct hash values the two sketches hold) whenever
    both sketches are under-full.  Otherwise one sketch is full, so together
    they hold at least k values, and the estimate is the k-minimum-values
    one, (k-1)/r_k, where r_k is the k-th smallest of those values
    normalized to (0, 1].
    """
    _check_compatible(a, b)
    union = a.values | b.values
    if not a.full and not b.full:
        return float(len(union))
    return (a.k - 1) / ((sorted(union)[a.k - 1] + 1) / _HASH_SPACE)


def estimate_intersection(a: NeighbourhoodSketch, b: NeighbourhoodSketch) -> float:
    """Estimate |A ∩ B| as |A| + |B| - :func:`estimate_union`, with the exact
    set sizes, clamped to the feasible range [0, min(|A|, |B|)].

    Exact when both sketches are under-full, since the union is then exact.
    """
    est = max(a.exact_size + b.exact_size - estimate_union(a, b), 0)
    return float(min(est, a.exact_size, b.exact_size))


def sketch_d_twin_test(
    own: NeighbourhoodSketch, candidates: dict, adjacent: set, d: int
) -> set[int]:
    """One node's twin decision for one round, from sketches of raw
    neighbourhoods: the ids of ``candidates``, a mapping from id to sketch,
    that pass the twin inequality against ``own``, the node's sketch.

    A candidate in ``adjacent`` has adj = 1, which corrects both raw sizes
    down by one to outside-neighbourhood sizes; any other has adj = 0.  The
    intersection of :func:`estimate_intersection`, rounded half up, must be at
    least 1, mirroring the common-neighbour requirement; it is an exact count,
    and so is the decision, when both sketches are under-full.  Three filters
    reject a pair before that estimate, in this order, and none changes a
    decision; capacities and hash seeds are checked on each pair past the first two.

    Size filter: the outside sets differ in size by abs(|A| - |B|), adjacent
    or not, and their difference is at least that gap, so a pair whose gap
    exceeds d is no twin: the degree band of exact phase 2, as in exact
    set-similarity joins.

    Bitmap filter: when both sketches are under-full, with value sets Va and
    Vb, the common count is |Va ∩ Vb| and the difference |Va Δ Vb| - 2*adj.
    Each bit set in the XOR of their bitmaps comes from a distinct value of
    Va Δ Vb, so a pair whose popcount less 2*adj exceeds d is no twin.

    Threshold filter: when a sketch is full the verdict is monotone in r_k,
    the k-th smallest value the two sketches hold: a larger r_k means a
    smaller union estimate and so a larger intersection.  A twin needs the
    estimate at most |A| + |B| - need + 1/2, where
    need = max(1, ceil((|A| + |B| - 2*adj - d)/2)) is the least rounded
    intersection that passes, so r_k must reach a threshold hash.  If at
    least k distinct values of the two sketches lie below a bound set a
    relative 1e-9 and two units under that threshold, so that float rounding
    cannot matter, r_k does too and the pair is rejected without
    :func:`estimate_union`: one bisection of own's values, then a walk up the
    candidate's that adds those own lacks and stops at the bound or once k
    are counted.
    """
    twins = set()
    size_a, bits_a, full_a = own.exact_size, own.bitmap, own.full
    for twin_id, b in candidates.items():
        if abs(size_a - b.exact_size) > d:
            continue
        adj = 1 if twin_id in adjacent else 0
        if bits_a is not None and (bits_b := b.bitmap) is not None:
            if (bits_a ^ bits_b).bit_count() - 2 * adj > d:
                continue
        _check_compatible(own, b)
        size_b = b.exact_size
        if full_a or b.full:
            # A twin needs a union estimate (k-1)/r_k of at most `top`, so
            # r_k at least (k-1)/top * 2**64, above `bound`.
            k = own.k
            need = max(1, (size_a + size_b - 2 * adj - d + 1) // 2)
            top = size_a + size_b - need + 0.5
            bound = int((k - 1) / top * _HASH_SPACE * (1 - 1e-9)) - 2
            # The distinct values below the bound: own's, then the
            # candidate's that own lacks, counted only until k are found.
            distinct = bisect_left(own.mins, bound)
            values = own.values
            for x in b.mins:
                if x >= bound or distinct >= k:
                    break
                if x not in values:
                    distinct += 1
            if distinct >= k:
                continue
        common = int(estimate_intersection(own, b) + 0.5)
        if common >= 1 and size_a + size_b - 2 * adj - 2 * common <= d:
            twins.add(twin_id)
    return twins
