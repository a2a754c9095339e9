import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tvtwins import SketchParams
from tvtwins.sketch import (
    NeighbourhoodSketch,
    build_sketch,
    build_sketches,
    calibrated_capacity,
    estimate_intersection,
    estimate_union,
    sketch_d_twin_test,
)


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
    # estimate_union reads a full sketch's values as sorted, distinct, at most
    # k of them and 64-bit; a directly built sketch that breaks one is refused.
    for mins, k, message in (
        ((5, 3), 4, "strictly increasing"),
        ((3, 3), 4, "strictly increasing"),
        ((1, 2, 3), 2, "capacity 2 holds 3"),
        ((-1, 4), 4, r"\[0, 2\*\*64\)"),
        ((4, 2**64), 4, r"\[0, 2\*\*64\)"),
    ):
        with pytest.raises(ValueError, match=message):
            NeighbourhoodSketch(mins, 9, k, 0)
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


def test_ids_equal_modulo_hash_space_share_a_value():
    # IDs equal modulo 2**64 hash alike, so a's exact size (3) exceeds its
    # count of hash values (2).  The estimates count hash values, not IDs.
    a = build_sketch({1, 1 + 2**64, 7}, params(k=8))
    b = build_sketch({1, 9}, params(k=8))
    assert (a.exact_size, len(a.mins)) == (3, 2)
    assert estimate_union(a, b) == 3.0
    assert estimate_intersection(a, b) == 2.0
    assert sketch_d_twin_test(a, b, 0, 1) is True
    # Inclusion-exclusion gives 1 + 3 - 1 = 3 here; the clamp to the smaller
    # set's size keeps the intersection at 1, so the difference stays 2.
    c = build_sketch({1}, params(k=8))
    e = build_sketch({1, 1 + 2**64, 1 + 2**65}, params(k=8))
    assert estimate_intersection(c, e) == 1.0
    assert sketch_d_twin_test(c, e, 0, 1) is False
    assert sketch_d_twin_test(c, e, 0, 2) is True


def test_incompatible_sketches_rejected():
    a = build_sketch({1}, params(k=8, seed=0))
    with pytest.raises(ValueError):
        estimate_union(a, build_sketch({1}, params(k=16, seed=0)))
    with pytest.raises(ValueError):
        estimate_union(a, build_sketch({1}, params(k=8, seed=1)))


def test_twin_test_checks_compatibility_before_size_filter():
    # Sizes 1 and 20 alone rule the pair out at d = 0; the mismatch still raises.
    a = build_sketch({1}, params(k=8, seed=0))
    for b in (build_sketch(range(20), params(k=16)), build_sketch(range(20), params(k=8, seed=1))):
        with pytest.raises(ValueError):
            sketch_d_twin_test(a, b, 0, 0)


def test_intersection_identical_sets():
    a = build_sketch({1, 2, 3}, params())
    assert estimate_intersection(a, a) == 3.0


def test_intersection_disjoint_clamps_to_zero():
    a = build_sketch({1, 2}, params())
    b = build_sketch({3, 4}, params())
    assert estimate_intersection(a, b) == 0.0


def test_serialized_size_depends_only_on_capacity():
    sizes = set()
    for ids in (set(), {1}, set(range(5)), set(range(500)), set(range(10**6, 10**6 + 40))):
        sizes.add(len(build_sketch(ids, params(k=32)).serialize()))
    assert sizes == {2 + 32 * 8 + 8}


def test_bit_size_uses_live_values_only():
    sk = build_sketch({1, 2, 3}, params(k=32))
    assert sk.bit_size(10) == 16 + 3 * 64 + 10


def test_d_twin_test_underfull_path3():
    a = build_sketch({2}, params())  # N(1) on the 3-path
    b = build_sketch({2}, params())  # N(3)
    assert sketch_d_twin_test(a, b, 0, 0)


def test_d_twin_test_underfull_path4():
    a = build_sketch({2}, params())  # N(1)
    b = build_sketch({2, 4}, params())  # N(3)
    assert not sketch_d_twin_test(a, b, 0, 0)
    assert sketch_d_twin_test(a, b, 0, 1)


def test_d_twin_test_requires_common_neighbour():
    a = build_sketch({2}, params())
    b = build_sketch({3}, params())
    assert not sketch_d_twin_test(a, b, 0, 99)


def test_d_twin_test_validates_adj():
    a = build_sketch({2}, params())
    with pytest.raises(ValueError):
        sketch_d_twin_test(a, a, 2, 0)


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
    exact = common >= 1 and (len(a_ids) - adj) + (len(b_ids) - adj) - 2 * common <= d
    assert sketch_d_twin_test(a, b, adj, d) == exact


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


# Small IDs overlap often; a few equal others modulo 2**64 and share their hash.
_ids = st.one_of(
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=0, max_value=5).map(lambda i: i + 2**64),
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
    # The size filter and the inlined under-full count decide as the rule
    # stated through estimate_intersection, full sketches and shared hash
    # values included.
    sp = SketchParams(k=k, epsilon=0.2, nu=0.1, hash_seed=seed)
    a, b = build_sketch(a_ids, sp), build_sketch(b_ids, sp)
    c = int(estimate_intersection(a, b) + 0.5)
    rule = c >= 1 and (len(a_ids) - adj) + (len(b_ids) - adj) - 2 * c <= d
    assert sketch_d_twin_test(a, b, adj, d) == rule


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
    if layout == "ids":  # through build_sketch, IDs equal modulo 2**64 included
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
    # it has alone, shared and colliding IDs included.
    sp = params(k=k, seed=k)
    sketches = build_sketches(table, sp)
    assert list(sketches) == list(table)
    for key, ids in table.items():
        alone = build_sketch(ids, sp)
        assert sketches[key] == alone and sketches[key].values == alone.values == set(alone.mins)


@given(
    st.integers(min_value=2, max_value=12),
    st.sets(_ids, max_size=30),
    st.sets(_ids, max_size=30),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=5),
)
@example(2, {0, 1, 2, 2**64, 1 + 2**64, 2 + 2**64}, {0, 1, 2}, 0, 0)  # full, size 6 from 3 hashes
@example(8, {0, 1, 2, 2**64, 1 + 2**64, 2 + 2**64}, {0, 1, 2}, 1, 0)  # under-full, likewise
@settings(max_examples=120)
def test_twin_test_rejects_every_pair_the_size_filter_rejects(k, a_ids, b_ids, adj, below):
    # The node rejects a pair whose size gap less 2*adj exceeds d without
    # calling the twin test; that changes no decision only if the twin test
    # itself rejects every such pair, full sketches and shared hash values
    # included.
    sp = params(k=k)
    a, b = build_sketch(a_ids, sp), build_sketch(b_ids, sp)
    excess = abs(len(a_ids) - len(b_ids)) - 2 * adj
    assume(excess >= 1)
    d = excess - 1 - below % excess  # every d from 0 to excess - 1
    assert not sketch_d_twin_test(a, b, adj, d)
    assert not sketch_d_twin_test(b, a, adj, d)


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
        if sketch_d_twin_test(a, b, 0, d) == exact:
            agree += 1
    assert agree / trials >= 0.9
