import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tvtwins import ProblemParams, RunConfig, Simulation, SketchParams, generate_random
from tvtwins import protocol, sketch
from tvtwins.graph import TwinPlant
from tvtwins.sketch import (
    NeighbourhoodSketch,
    build_sketch,
    build_sketches,
    calibrated_capacity,
    estimate_intersection,
    estimate_union,
)

from .conftest import counting_estimator, sketch_twin


def params(k=8, seed=0):
    return SketchParams(k=k, epsilon=0.2, nu=0.1, hash_seed=seed)


def test_empty_set():
    sk = build_sketch(set(), params())
    assert sk.mins == ()
    assert sk.exact_size == 0
    assert not sk.full


def test_underfull_sketch_keeps_all_hashes():
    sk = build_sketch({10, 20, 30}, params(k=8))
    assert len(sk.mins) == 3
    assert list(sk.mins) == sorted(sk.mins)
    assert sk.exact_size == 3


def test_full_sketch_truncates_to_capacity():
    sk = build_sketch(set(range(100)), params(k=8))
    assert len(sk.mins) == 8
    assert sk.full


def test_build_deterministic():
    assert build_sketch({1, 2, 3}, params(seed=5)) == build_sketch({1, 2, 3}, params(seed=5))
    assert build_sketch({1, 2, 3}, params(seed=5)) != build_sketch({1, 2, 3}, params(seed=6))
    # Pinned splitmix64 values: a changed hash would change every sketch-mode
    # document.  Seeds are taken modulo 2**64.
    assert build_sketch({0, 1, 2**40}, params(seed=-1)).mins == (
        3964308327926799581,
        6755974106381971767,
        7521888212171461645,
    )
    for seed in (5, 2**64 + 5):
        assert build_sketch(range(10), params(k=3, seed=seed)).mins == (
            2611768881034074630,
            7485121835981390325,
            8701940948463266882,
        )


def test_build_sketches_hashes_each_id_as_mix64():
    # Each ID hashes to _mix64(i ^ base), base being the seed's own _mix64,
    # for IDs across [0, 2**64) and seeds taken modulo 2**64.
    ids = {0, 1, 7, 2**40, 2**63 + 3, 3**40, 2**64 - 2, 2**64 - 1}
    for seed in (0, 5, -1, 2**64 + 5):
        base = sketch._mix64(seed & sketch._MASK)
        built = build_sketches({"a": ids, "b": {1, 2**63}}, params(k=len(ids), seed=seed))
        assert built["a"].mins == tuple(sorted({sketch._mix64(i ^ base) for i in ids}))
        assert built["b"].mins == tuple(sorted({sketch._mix64(i ^ base) for i in (1, 2**63)}))


def test_build_sketches_refuses_ids_outside_the_hash_space():
    # Only IDs in [0, 2**64) are sure to hash to distinct values.
    for ids in ({-1}, {2**64}, {0, 1, 2**64 + 1}):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            build_sketch(ids, params())
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            build_sketches({"a": {3}, "b": ids}, params())


def test_capacity_below_two_rejected():
    # With k = 1 a full sketch's union estimate (k-1)/r_k is 0, so disjoint
    # sets {1, 2, 3} and {4, 5, 6} would come out as 0-twins.
    for k in (1, 0, -3):
        with pytest.raises(ValueError, match="k-minimum-values"):
            SketchParams(k=k, epsilon=0.2, nu=0.1)
    assert SketchParams(k=2, epsilon=0.2, nu=0.1).k == 2


def test_value_set_holds_the_live_values():
    for ids, k in (({4, 5, 6, 7}, 3), ({4, 5}, 3), (set(), 3), (set(range(300)), 20)):
        built = build_sketch(ids, params(k=k))
        assert built.values == frozenset(built.mins)
        direct = NeighbourhoodSketch(built.mins, built.exact_size, built.k, built.hash_seed)
        assert direct == built and hash(direct) == hash(built)
        assert (direct.values, direct.full) == (built.values, built.full)
        assert "values" not in repr(built) and "full" not in repr(built)


def test_directly_built_sketch_checks_its_values():
    # The estimators read a sketch's values as min(size, k) of them, sorted,
    # distinct and 64-bit; a directly built sketch that breaks one is refused.
    for mins, size, k, message in (
        ((5, 3), 2, 4, "strictly increasing"),
        ((3, 3), 2, 4, "strictly increasing"),
        ((1, 2, 3), 9, 2, "size 9, capacity 2 holds 3 values"),
        ((1, 2), 3, 4, "size 3, capacity 4 holds 2 values"),
        ((-1, 4), 2, 4, r"\[0, 2\*\*64\)"),
        ((4, 2**64), 2, 4, r"\[0, 2\*\*64\)"),
    ):
        with pytest.raises(ValueError, match=message):
            NeighbourhoodSketch(mins, size, k, 0)
    edge = NeighbourhoodSketch((0, 2**64 - 1), 2, 2, 0)
    assert edge.full and edge.values == {0, 2**64 - 1}
    # Given its value set, as build_sketch gives it, a sketch is built as before.
    built = build_sketch(range(50), params(k=8))
    assert NeighbourhoodSketch(built.mins, 50, 8, 0, values=built.values) == built


def test_union_identical_underfull_sets_is_exact():
    a = build_sketch({1, 2, 3}, params())
    assert estimate_union(a, a) == 3.0


def test_union_disjoint_underfull_sets_is_exact():
    a = build_sketch({1, 2, 3}, params())
    b = build_sketch({4, 5}, params())
    assert estimate_union(a, b) == 5.0


def test_union_exact_even_when_merged_exceeds_capacity():
    # Both sketches lossless: the merged count is the true union even past k.
    a = build_sketch(set(range(0, 7)), params(k=8))
    b = build_sketch(set(range(100, 107)), params(k=8))
    assert estimate_union(a, b) == 14.0


def test_incompatible_sketches_rejected():
    # A capacity and a seed mismatch, between under-full sketches and between
    # full ones: both estimators raise in either regime.
    for ids in ({1}, range(20)):
        a = build_sketch(ids, params(k=8, seed=0))
        for b in (build_sketch(ids, params(k=16, seed=0)), build_sketch(ids, params(k=8, seed=1))):
            assert a.full == b.full == (len(ids) == 20)
            for estimate in (estimate_union, estimate_intersection):
                with pytest.raises(ValueError):
                    estimate(a, b)


def test_twin_test_checks_compatibility_past_the_size_filter():
    # Sizes 1 and 20 alone rule the pair out at d = 0, by exact sizes that no
    # capacity or seed alters; at d = 19 the pair passes the size filter, and
    # the mismatch raises.
    a = build_sketch({1}, params(k=8, seed=0))
    for b in (build_sketch(range(20), params(k=16)), build_sketch(range(20), params(k=8, seed=1))):
        assert not sketch_twin(a, b, 0, 0)
        with pytest.raises(ValueError):
            sketch_twin(a, b, 0, 19)


def test_intersection_identical_sets():
    a = build_sketch({1, 2, 3}, params())
    assert estimate_intersection(a, a) == 3.0


def test_intersection_disjoint_clamps_to_zero():
    a = build_sketch({1, 2}, params())
    b = build_sketch({3, 4}, params())
    assert estimate_intersection(a, b) == 0.0


def test_d_twin_test_underfull_path3():
    a = build_sketch({2}, params())  # N(1) on the 3-path
    b = build_sketch({2}, params())  # N(3)
    assert sketch_twin(a, b, 0, 0)


def test_d_twin_test_underfull_path4():
    a = build_sketch({2}, params())  # N(1)
    b = build_sketch({2, 4}, params())  # N(3)
    assert not sketch_twin(a, b, 0, 0)
    assert sketch_twin(a, b, 0, 1)


def test_d_twin_test_requires_common_neighbour():
    a = build_sketch({2}, params())
    b = build_sketch({3}, params())
    assert not sketch_twin(a, b, 0, 99)


def test_calibrated_capacity():
    k = calibrated_capacity(0.2, 0.1)
    assert isinstance(k, int) and k >= 64
    assert calibrated_capacity(0.1, 0.1) > k
    assert calibrated_capacity(0.2, 0.01) > k
    with pytest.raises(ValueError):
        calibrated_capacity(0.0, 0.1)


def test_union_estimate_thousand_element_sets():
    # |A ∪ B| = 1000 with k = 256: within 20% in at least 99% of seeded trials.
    hits = 0
    trials = 1000
    for seed in range(trials):
        sp = SketchParams(k=256, epsilon=0.2, nu=0.1, hash_seed=seed)
        a = build_sketch(range(0, 600), sp)
        b = build_sketch(range(400, 1000), sp)
        if abs(estimate_union(a, b) - 1000.0) <= 200.0:
            hits += 1
    assert hits >= 990


def test_intersection_estimate_overlapping_sets():
    # 200-element sets intersecting in 60: union 340 > k = 256, so estimated;
    # error within 0.2 * 200 in at least 90% of seeded trials.
    hits = 0
    trials = 1000
    for seed in range(trials):
        sp = SketchParams(k=256, epsilon=0.2, nu=0.1, hash_seed=seed)
        a = build_sketch(range(0, 200), sp)
        b = build_sketch(range(140, 340), sp)
        if abs(estimate_intersection(a, b) - 60.0) <= 40.0:
            hits += 1
    assert hits >= 900


@given(
    st.sets(st.integers(min_value=0, max_value=10**9), max_size=7),
    st.sets(st.integers(min_value=0, max_value=10**9), max_size=7),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=14),
)
@settings(max_examples=100)
def test_lossless_regime_is_exact(a_ids, b_ids, seed, adj, d):
    sp = SketchParams(k=8, epsilon=0.2, nu=0.1, hash_seed=seed)
    a = build_sketch(a_ids, sp)
    b = build_sketch(b_ids, sp)
    common = len(a_ids & b_ids)
    assert estimate_union(a, b) == float(len(a_ids | b_ids))
    assert estimate_intersection(a, b) == float(common)
    exact = (
        abs(len(a_ids) - len(b_ids)) <= d
        and common >= 1
        and (len(a_ids) - adj) + (len(b_ids) - adj) - 2 * common <= d
    )
    assert sketch_twin(a, b, adj, d) == exact


@given(
    st.sets(st.integers(min_value=0, max_value=10**6), max_size=40),
    st.sets(st.integers(min_value=0, max_value=10**6), max_size=40),
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from([4, 16]),
)
@settings(max_examples=100)
def test_estimator_sanity(a_ids, b_ids, seed, k):
    sp = SketchParams(k=k, epsilon=0.2, nu=0.1, hash_seed=seed)
    a = build_sketch(a_ids, sp)
    b = build_sketch(b_ids, sp)
    assert estimate_union(a, b) == estimate_union(b, a)
    inter = estimate_intersection(a, b)
    assert 0.0 <= inter <= min(len(a_ids), len(b_ids))
    if a.full or b.full:
        # Reference: the KMV value from numpy's sorted union of the two sketches.
        merged = np.union1d(np.array(a.mins, dtype=np.uint64), np.array(b.mins, dtype=np.uint64))
        assert estimate_union(a, b) == (k - 1) / ((int(merged[k - 1]) + 1) / 2.0**64)


# Small IDs overlap often; others lie anywhere up to 2**64 - 1.
_ids = st.one_of(
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=0, max_value=2**64 - 1),
)


@given(
    st.integers(min_value=2, max_value=30),
    st.sets(_ids, max_size=45),
    st.sets(_ids, max_size=45),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=14),
)
@example(2, {0, 1}, {1, 2}, 9, 0, 0)  # estimate 1.69: twins only when rounded half up
@settings(max_examples=300)
def test_twin_test_is_the_rounded_intersection_rule(k, a_ids, b_ids, seed, adj, d):
    # The three filters and the one common count decide as the rule stated
    # through the degree gap and estimate_intersection, full and under-full
    # sketches alike.
    sp = SketchParams(k=k, epsilon=0.2, nu=0.1, hash_seed=seed)
    a, b = build_sketch(a_ids, sp), build_sketch(b_ids, sp)
    c = int(estimate_intersection(a, b) + 0.5)
    in_band = abs(len(a_ids) - len(b_ids)) <= d
    rule = in_band and c >= 1 and (len(a_ids) - adj) + (len(b_ids) - adj) - 2 * c <= d
    assert sketch_twin(a, b, adj, d) == rule


def _sorted_union_estimate(a, b):
    """Reference for estimate_union: the distinct count when both sketches are
    under-full, else (k-1)/r_k with r_k read from the sorted union of both."""
    if not a.full and not b.full:
        return float(len(a.values | b.values))
    return (a.k - 1) / ((sorted(a.values | b.values)[a.k - 1] + 1) / 2.0**64)


def _direct(values, k):
    """A sketch of raw hash values, truncated to capacity like build_sketch."""
    mins = tuple(sorted(values)[:k])
    return NeighbourhoodSketch(mins, len(values), k, 0)


_TOP = 2**64 - 1
# Raw hash values: clustered at both ends of the space, so pairs share values
# and reach its edges, or anywhere in it.
_raw = st.one_of(
    st.integers(min_value=0, max_value=80),
    st.integers(min_value=_TOP - 80, max_value=_TOP),
    st.integers(min_value=0, max_value=_TOP),
)


@st.composite
def _sketch_pairs(draw):
    k = draw(st.integers(min_value=2, max_value=30))
    layout = draw(st.sampled_from(["ids", "overlap", "disjoint", "below", "same"]))
    if layout == "ids":  # through build_sketch
        sp = SketchParams(k=k, epsilon=0.2, nu=0.1, hash_seed=draw(st.integers(0, 2**32)))
        return build_sketch(draw(st.sets(_ids, max_size=70)), sp), build_sketch(
            draw(st.sets(_ids, max_size=70)), sp
        )
    # Full (at least k values) or under-full, independently for each side.
    a_vals = draw(st.sets(_raw, min_size=1, max_size=2 * k + 3))
    b_vals = draw(st.sets(_raw, min_size=1, max_size=2 * k + 3))
    if layout == "disjoint":  # no shared value
        a_vals, b_vals = {x & ~1 for x in a_vals}, {x | 1 for x in b_vals}
    elif layout == "below":  # all of b below all of a: m >= k when both are full
        a_vals, b_vals = {x | 2**63 for x in a_vals}, {x & (2**63 - 1) for x in b_vals}
    elif layout == "same":  # m = 0
        b_vals = set(a_vals)
    return _direct(a_vals, k), _direct(b_vals, k)


@given(_sketch_pairs())
@example((_direct(range(100, 120), 20), _direct(range(20), 20)))  # m = k, read from a
@example((_direct(range(40), 20), _direct(range(0, 80, 2), 20)))  # full, m = 0
@example((_direct(range(1, 41), 20), _direct({0, _TOP}, 20)))  # full against under-full
@example((_direct({0, _TOP - 1}, 2), _direct({1, _TOP}, 2)))  # k = 2 at both ends
@settings(max_examples=400)
def test_union_estimate_is_the_kth_smallest_of_both_sketches(pair):
    a, b = pair
    expected = _sorted_union_estimate(a, b)
    if a.full or b.full:
        rank = sorted(a.values | b.values)[a.k - 1]
        assert expected == (a.k - 1) / ((rank + 1) / 2**64)
    for x, y in ((a, b), (b, a)):
        assert repr(estimate_union(x, y)) == repr(expected)  # bit for bit


@given(
    st.dictionaries(st.integers(min_value=0, max_value=9), st.sets(_ids, max_size=30), max_size=6),
    st.integers(min_value=2, max_value=12),
)
@settings(max_examples=50)
def test_a_table_of_sets_sketches_each_set_alone(table, k):
    # Hashing the table's IDs once for all its sets gives each set the sketch
    # it has alone, shared IDs included.  Each holds min(|set|, k) values, and
    # a bitmap exactly when it is under-full.
    sp = params(k=k, seed=k)
    sketches = build_sketches(table, sp)
    assert list(sketches) == list(table)
    for key, ids in table.items():
        built, alone = sketches[key], build_sketch(ids, sp)
        assert built == alone and built.values == alone.values == set(alone.mins)
        assert built.bitmap == alone.bitmap and len(built.mins) == min(built.exact_size, k)
        assert (built.bitmap is None) == built.full == (len(ids) >= k)


@given(
    st.integers(min_value=2, max_value=12),
    st.sets(_ids, max_size=30),
    st.sets(_ids, max_size=30),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=5),
)
@example(2, {0, 1, 2, 3, 4, 5}, {0, 1, 2}, 0, 0)  # full, size gap d + 1
@example(8, {0, 1, 2, 3, 4, 5}, {0, 1, 2, 3, 4}, 1, 0)  # under-full, adjacent, size gap d + 1
@settings(max_examples=120)
def test_twin_test_rejects_every_pair_the_size_filter_rejects(k, a_ids, b_ids, adj, below):
    # The outside sets of a pair differ in size by its size gap, adjacent or
    # not, so the decision rejects every pair whose gap exceeds d, full
    # sketches included, whatever the estimator would read.
    sp = params(k=k)
    a, b = build_sketch(a_ids, sp), build_sketch(b_ids, sp)
    excess = abs(len(a_ids) - len(b_ids))
    assume(excess >= 1)
    d = excess - 1 - below % excess  # every d from 0 to excess - 1
    for x, y in ((a, b), (b, a)):
        assert not sketch_twin(x, y, adj, d)


def _rule(a, b, adj, d):
    """The twin verdict: degrees within d, and the difference read from
    estimate_intersection, rounded half up, within d too."""
    if abs(a.exact_size - b.exact_size) > d:
        return False
    c = int(estimate_intersection(a, b) + 0.5)
    return c >= 1 and a.exact_size + b.exact_size - 2 * adj - 2 * c <= d


@st.composite
def _full_pairs(draw):
    # At least one side has k or more IDs, so it is full.
    k = draw(st.integers(min_value=2, max_value=8))
    a_ids = draw(st.sets(_ids, min_size=k, max_size=3 * k))
    b_ids = draw(st.sets(_ids, max_size=3 * k))
    if draw(st.booleans()):
        a_ids, b_ids = b_ids, a_ids
    sp = SketchParams(k=k, epsilon=0.2, nu=0.1, hash_seed=draw(st.integers(0, 2**32)))
    adj = draw(st.integers(min_value=0, max_value=1))
    d = draw(st.integers(min_value=0, max_value=len(a_ids) + len(b_ids)))
    return build_sketch(a_ids, sp), build_sketch(b_ids, sp), adj, d


@given(_full_pairs())
@settings(max_examples=400)
def test_threshold_filter_changes_no_full_sketch_verdict(case):
    # The twin test may reject a pair with a full sketch before it merges the
    # two; it must still give the verdict of the estimator, and every twin
    # must come from the estimator.
    a, b, adj, d = case
    with counting_estimator() as calls:
        verdict = sketch_twin(a, b, adj, d)
    assert verdict == _rule(a, b, adj, d)
    if verdict and (a.full or b.full):
        assert calls


def _threshold_pair(r, k=8, size=20):
    """Two equal full sketches whose k-th smallest value is r."""
    sk = NeighbourhoodSketch(tuple(range(k - 1)) + (r,), size, k, 0)
    return sk, sk


def test_threshold_filter_defers_at_the_threshold_hash():
    # Sizes 20 and 20 at d = 4 need a rounded intersection of 18, so a union
    # estimate of at most 22.5.  The bisection leaves in ``high`` the least
    # r_k at which the estimator says twin; the filter must defer to the
    # estimator one below it, at it and one above it, where the verdict flips.
    adj, d = 0, 4
    low, high = 7, 2**64 - 1  # no twin at r_k = 7, a twin at the top
    assert not _rule(*_threshold_pair(low), adj, d) and _rule(*_threshold_pair(high), adj, d)
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if _rule(*_threshold_pair(mid), adj, d) else (mid, high)
    assert abs(high / 2**64 - 7 / 22.5) < 1e-9
    with counting_estimator() as calls:
        verdicts = [
            sketch_twin(*_threshold_pair(r), adj, d) for r in range(high - 1, high + 2)
        ]
    assert verdicts == [False, True, True]
    assert len(calls) == 3


def test_threshold_filter_skips_the_estimator_only_for_far_pairs():
    # Disjoint full sketches of sets of 100: r_k = 7 puts the union estimate
    # near 2**64, far above any twin's.
    a = NeighbourhoodSketch(tuple(range(8)), 100, 8, 0)
    b = NeighbourhoodSketch(tuple(range(8, 16)), 100, 8, 0)
    sp = params(k=8)
    c = build_sketch(range(100), sp)
    with counting_estimator() as calls:
        assert not sketch_twin(a, b, 0, 0)
        assert not sketch_twin(a, b, 1, 150)
        assert calls == []
        # A twin always reaches the estimator: equal sets, and sets one apart.
        assert sketch_twin(c, c, 0, 0)
        assert sketch_twin(c, build_sketch(range(101), sp), 0, 1)
        assert len(calls) == 2


def test_threshold_filter_counts_each_value_below_the_bound_once():
    # d is the size gap, so every pair passes the size filter, and k = 4 puts
    # the bound between 2**58 and 2**61 for these sizes: the values up to 5
    # lie below it, those from 2**63 up above it.
    def sk(*values, size=100):
        return NeighbourhoodSketch(values, size, 4, 0)

    high = (2**63, 2**63 + 1, 2**63 + 2)
    cases = [
        # a's own values below the bound already number k.
        (sk(1, 2, 3, 4), sk(5, *high), False),
        (sk(1, 2, 3, 4), sk(5, size=1), False),
        # b's values interleave with a's, and the shared 3 counts once: k distinct.
        (sk(1, 3, 5, high[0]), sk(2, 3, *high[:2]), False),
        (sk(1, 3, 5, high[0]), sk(2, 3, size=2), False),
        # One more value shared leaves k - 1 distinct: the estimator decides.
        (sk(1, 3, 5, high[0]), sk(3, 5, *high[:2]), True),
        (sk(1, 3, 5, high[0]), sk(3, 5, size=2), True),
    ]
    for a, b, estimated in cases:
        d = abs(a.exact_size - b.exact_size)
        for x, y in ((a, b), (b, a)):
            with counting_estimator() as calls:
                verdict = sketch_twin(x, y, 0, d)
            assert verdict == _rule(x, y, 0, d)
            assert bool(calls) == estimated, (x.mins, y.mins)


@pytest.mark.parametrize(
    "plant, hash_seed, tests, full_tests, estimates",
    [(None, 1, 11350, 11350, 0), (TwinPlant(0, 1, 0, 4, 0), 0, 11104, 11104, 6)],
)
def test_threshold_filter_leaves_the_estimator_few_pairs_of_a_lossy_run(
    plant, hash_seed, tests, full_tests, estimates
):
    # Degrees near 26 against k = 20: nearly every sketch is full, the size
    # and bitmap filters reject the pairs of two lossless ones before the
    # compatibility check, and the threshold filter must reject all but the
    # near full pairs.  A filter that stops rejecting keeps every verdict, so
    # only these counts show it.
    graph = generate_random(50, 12, 0.53, plant=plant, seed=1)
    config = RunConfig(ProblemParams(4, 2), "sketch", SketchParams(20, 0.5, 0.3, hash_seed))
    full = []
    check = sketch._check_compatible

    def counted(a, b):
        full.append(a.full or b.full)
        return check(a, b)

    with counting_estimator() as calls, pytest.MonkeyPatch.context() as mp:
        mp.setattr(sketch, "_check_compatible", counted)
        Simulation(graph, config).run()
    # The decision checks each pair past the first two filters once, and
    # estimate_union checks each pair it gets, a full one here, once more.
    checked = (len(full) - len(calls), sum(full) - len(calls), len(calls))
    assert checked == (tests, full_tests, estimates)


def test_no_sketch_twin_lies_outside_the_degree_band():
    # The outside sets of a pair differ in size by its degree gap, adjacent or
    # not, so a gap above d rules out a twin, as exact phase 2's band does.
    # At k = 2 against degrees near 26 every sketch is full, and the estimator
    # alone would call many such pairs twins.
    graph = generate_random(50, 12, 0.53, seed=1)
    config = RunConfig(ProblemParams(1, 2), "sketch", SketchParams(2, 0.5, 0.6, hash_seed=1))
    sim = Simulation(graph, config)
    sim.run()
    verdicts = [(u, v, t) for u, state in sim.states.items() for v, t in state.verdicts()]
    assert len(verdicts) > 1000
    outside = [(u, v, t) for u, v, t in verdicts if abs(graph.degree(u, t) - graph.degree(v, t)) > 2]
    assert outside == []


def test_only_a_lossless_sketch_has_a_bitmap():
    sp = params(k=8)
    lossless = build_sketch({3, 5, 8}, sp)
    assert lossless.bitmap == sum({1 << (x >> 58) for x in lossless.mins})
    assert "bitmap" not in repr(lossless)
    direct = NeighbourhoodSketch(lossless.mins, 3, 8, 0)
    assert direct.bitmap == lossless.bitmap
    # Full, built or direct.
    for sk in (
        build_sketch(range(8), sp),
        build_sketch(range(100), sp),
        NeighbourhoodSketch(tuple(range(8)), 8, 8, 0),
    ):
        assert sk.bitmap is None
    # An under-full sketch that lacks some of its set's values is refused.
    with pytest.raises(ValueError, match="size 4, capacity 8 holds 3 values"):
        NeighbourhoodSketch(lossless.mins, 4, 8, 0)


@given(
    st.sets(_ids, max_size=14),
    st.sets(_ids, max_size=14),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=30),
)
@example({1, 2}, {0, 2, 3, 4, 5, 6}, 0, 1, 0)  # adjacent, size gap d + 2: only the bitmap rejects
@settings(max_examples=200)
def test_twin_test_rejects_every_pair_the_bitmap_filter_rejects(a_ids, b_ids, seed, adj, below):
    # The decision rejects a pair of under-full sketches whose bitmap XOR has
    # more than d + 2*adj bits set before it compares their values; that
    # changes no decision only if the rounded intersection rule rejects every
    # such pair too.
    sp = SketchParams(k=16, epsilon=0.2, nu=0.1, hash_seed=seed)
    a, b = build_sketch(a_ids, sp), build_sketch(b_ids, sp)
    assume(a.bitmap is not None and b.bitmap is not None)
    popcount = (a.bitmap ^ b.bitmap).bit_count()
    assert popcount <= len(a.values ^ b.values)
    excess = popcount - 2 * adj
    assume(excess >= 1)
    d = excess - 1 - below % excess  # every d from 0 to excess - 1
    for x, y in ((a, b), (b, a)):
        assert not _rule(x, y, adj, d)
        assert not sketch_twin(x, y, adj, d)


def test_bitmap_filter_leaves_the_twin_test_few_pairs_of_a_lossless_run():
    # k = n keeps every sketch lossless, so the bitmap filter runs on every
    # pair that passes the size filter; 4,858 of them reach the estimator
    # without it.  It keeps every verdict, so only this count shows it.
    graph = generate_random(40, 6, 0.3, plant=TwinPlant(0, 1, 0, 4, 2), seed=1)
    config = RunConfig(ProblemParams(2, 2), "sketch", SketchParams(40, 0.2, 0.1, 1))
    twins = []
    twin_test = protocol.sketch_d_twin_test

    def counted(*args):
        twins.append(twin_test(*args))
        return twins[-1]

    with counting_estimator() as calls, pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol, "sketch_d_twin_test", counted)
        windows = Simulation(graph, config).run().windows
    assert (len(calls), sum(map(len, twins))) == (12, 8)
    assert windows == Simulation(graph, RunConfig(ProblemParams(2, 2))).run().windows


def test_full_regime_decisions_mostly_agree():
    # Pairs sized around the capacity boundary: the sketch decision must agree
    # with the exact rule on at least a 1 - nu fraction.
    rng = random.Random(2024)
    sp = SketchParams(k=calibrated_capacity(0.2, 0.1), epsilon=0.2, nu=0.1, hash_seed=99)
    agree = 0
    trials = 400
    for _ in range(trials):
        size_a = rng.randint(200, 400)
        size_b = rng.randint(200, 400)
        overlap = rng.randint(1, min(size_a, size_b))
        a_ids = set(range(size_a))
        b_ids = set(range(size_a - overlap, size_a - overlap + size_b))
        d = rng.randint(0, size_a)
        exact = len(a_ids - b_ids) + len(b_ids - a_ids) <= d
        a = build_sketch(a_ids, sp)
        b = build_sketch(b_ids, sp)
        if sketch_twin(a, b, 0, d) == exact:
            agree += 1
    assert agree / trials >= 0.9
