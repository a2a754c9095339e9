from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvtwins import oracle
from tvtwins import (
    ProblemParams, RunConfig, SketchParams, TemporalGraph, TwinWindow, all_windows,
    compare_with_oracle, generate_random, run,
)
from tvtwins.oracle import is_d_twin, pair_profile

from .conftest import (
    NoCommonNeighbourError,
    adjacent_twins_graph,
    all_pairs_windows,
    fig1_graph,
    path_graph,
    prop1_check,
    temporal_graphs,
)


def test_profile_p3():
    g = path_graph(3)
    assert pair_profile(g, 1, 3, 0) == (1, 0)


def test_profile_p4():
    g = path_graph(4)
    # A = {2}, B = {2, 4}: one shared midpoint, one distinguishing neighbour.
    assert pair_profile(g, 1, 3, 0) == (1, 1)


def test_profile_three_shared_one_apart():
    g = TemporalGraph(
        p=1,
        nodes=set(range(6)),
        edges_at={0: {(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (1, 5)}},
    )
    assert pair_profile(g, 0, 1, 0) == (2, 2)


def test_profile_rejects_same_node():
    with pytest.raises(ValueError):
        pair_profile(path_graph(3), 2, 2, 0)


def test_is_d_twin_p3():
    assert is_d_twin(path_graph(3), 1, 3, 0, 0)


def test_is_d_twin_needs_common_neighbour():
    g = path_graph(4)
    for d in (0, 1, 5, 100):
        assert not is_d_twin(g, 1, 4, 0, d)


def test_fig1_shortcut_pairs_are_0_twins():
    g = fig1_graph()
    c, j, c2, j2 = 2, 9, 12, 13
    assert is_d_twin(g, c, c2, 0, 0)
    assert is_d_twin(g, j, j2, 0, 0)  # adjacent pair
    assert not is_d_twin(g, 0, 4, 0, 0)


def test_adjacent_twins():
    assert pair_profile(adjacent_twins_graph(), 0, 1, 0) == (2, 0)
    assert is_d_twin(adjacent_twins_graph(), 0, 1, 0, 0)


def test_prop1_p3():
    assert prop1_check(path_graph(3), 1, 3, 0, 0)


def test_prop1_threshold():
    g = TemporalGraph(
        p=1,
        nodes=set(range(6)),
        edges_at={0: {(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (1, 5)}},
    )
    assert prop1_check(g, 0, 1, 0, 2)
    assert not prop1_check(g, 0, 1, 0, 1)
    # d >= k is always a twin regardless of the path count.
    assert prop1_check(g, 0, 1, 0, 4)
    assert prop1_check(g, 0, 1, 0, 99)


def test_prop1_requires_common_neighbour():
    with pytest.raises(NoCommonNeighbourError):
        prop1_check(path_graph(4), 1, 4, 0, 3)


def test_all_windows_wrap_fixture(wrap_graph):
    result = all_windows(wrap_graph, ProblemParams(3, 0))
    assert result[0] == {TwinWindow(1, 3)}
    assert result[1] == {TwinWindow(0, 3)}
    assert result[2] == set()
    assert result[3] == set()


def test_all_windows_p3(p3):
    result = all_windows(p3, ProblemParams(1, 0))
    assert result[1] == {TwinWindow(3, 0)}
    assert result[3] == {TwinWindow(1, 0)}
    assert result[2] == set()


def test_all_windows_full_period_reports_every_start():
    p = 3
    edges = {t: {(0, 2), (1, 2)} for t in range(p)}
    g = TemporalGraph(p=p, nodes={0, 1, 2}, edges_at=edges)
    result = all_windows(g, ProblemParams(p, 0))
    assert result[0] == {TwinWindow(1, t0) for t0 in range(p)}


def test_all_windows_beyond_period_equals_delta_one(p3):
    # p = 1: every delta asks for the one round's verdict, as delta = 1 does.
    expected = all_windows(p3, ProblemParams(1, 0))
    assert expected[1] == {TwinWindow(3, 0)}
    for delta in (2, 10**18):
        assert all_windows(p3, ProblemParams(delta, 0)) == expected


@given(temporal_graphs(), st.integers(min_value=0, max_value=4))
@settings(max_examples=80)
def test_prop1_equals_set_route(g, d):
    for t in range(g.p):
        nodes = sorted(g.nodes)
        for i, u in enumerate(nodes):
            for v in nodes[i + 1 :]:
                profile = pair_profile(g, u, v, t)
                a = g.neighbours(u, t) - {u, v}
                b = g.neighbours(v, t) - {u, v}
                assert profile.difference == len(a - b) + len(b - a)
                if profile.common_count >= 1:
                    assert prop1_check(g, u, v, t, d) == is_d_twin(g, u, v, t, d)


@given(temporal_graphs(), st.integers(min_value=0, max_value=3))
@settings(max_examples=60)
def test_twin_symmetry_and_monotonicity(g, d):
    nodes = sorted(g.nodes)
    for t in range(g.p):
        for i, u in enumerate(nodes):
            for v in nodes[i + 1 :]:
                assert is_d_twin(g, u, v, t, d) == is_d_twin(g, v, u, t, d)
                if is_d_twin(g, u, v, t, d):
                    assert is_d_twin(g, u, v, t, d + 1)


def _rotate(g: TemporalGraph, r: int) -> TemporalGraph:
    edges = {t: g.edges((t + r) % g.p) for t in range(g.p)}
    return TemporalGraph(p=g.p, nodes=g.nodes, edges_at=edges, n=g.n)


@given(temporal_graphs(max_n=7), st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=1))
@settings(max_examples=40)
def test_window_shift_under_rotation(g, r, d):
    delta = min(2, g.p)
    base = all_windows(g, ProblemParams(delta, d))
    rotated = all_windows(_rotate(g, r), ProblemParams(delta, d))
    for v in g.nodes:
        shifted = {TwinWindow(w.peer, (w.start - r) % g.p) for w in base[v]}
        assert rotated[v] == shifted


@given(temporal_graphs(max_n=6))
@settings(max_examples=40)
def test_all_windows_symmetric(g):
    params = ProblemParams(min(2, g.p), 1)
    result = all_windows(g, params)
    for u in g.nodes:
        for w in result[u]:
            assert TwinWindow(u, w.start) in result[w.peer]


def _pairs_with_common_neighbour(g: TemporalGraph, t: int) -> list[tuple[int, int]]:
    """Every u < v with common_count >= 1 at t, by asking every pair."""
    nodes = sorted(g.nodes)
    return [
        (u, v)
        for i, u in enumerate(nodes)
        for v in nodes[i + 1 :]
        if pair_profile(g, u, v, t).common_count >= 1
    ]


def _sketch_decisions(g: TemporalGraph, k: int) -> int:
    """The decisions a sketch ``compare`` at capacity k reports for g."""
    sp = SketchParams(k=k, epsilon=0.5, nu=0.3, hash_seed=1)
    return compare_with_oracle(g, RunConfig(ProblemParams(1, 0), "sketch", sp)).decisions


# k = 2 leaves most sketches full (lossy); no degree of a 9-node graph exceeds 16.
@pytest.mark.parametrize("k", [2, 16])
@given(g=temporal_graphs())
@settings(max_examples=60)
def test_sketch_decisions_equal_naive_scan(k, g):
    # The run counts its decisions from its own phase-2 tables; the reference
    # asks every node pair.
    expected = sum(len(_pairs_with_common_neighbour(g, t)) for t in range(g.p))
    assert _sketch_decisions(g, k) == expected


def test_sketch_decisions_sparse_ids_and_adjacent_pairs():
    # IDs above n-1 and isolated nodes; round 1 is empty.  The pairs with a
    # common neighbour are (2, 9) and (5, 14), both at t=0.
    edges = {0: {(9, 14), (2, 14), (2, 5)}}
    g = TemporalGraph(p=2, nodes={0, 1, 2, 5, 9, 14}, edges_at=edges, n=10)
    assert _sketch_decisions(g, 2) == 2
    # Adjacent pairs count too when they share a neighbour: all 6 pairs of 4 nodes.
    assert _sketch_decisions(adjacent_twins_graph(), 2) == 6


@given(
    temporal_graphs(),
    st.integers(min_value=1, max_value=4),
    # A d beyond every degree puts all pairs in the band; the band's bounds
    # are still two comparisons.
    st.integers(min_value=0, max_value=4) | st.integers(min_value=5, max_value=10**18),
)
@settings(max_examples=80)
def test_all_windows_equals_all_pairs_scan(g, delta, d):
    params = ProblemParams(delta, d)
    assert all_windows(g, params) == all_pairs_windows(g, params)


def _labelled_graphs(n: int, p: int):
    """Every labelled graph on nodes 0..n-1 in each of p rounds: 2**(p * C(n, 2)) of them."""
    pairs = list(combinations(range(n), 2))
    for masks in product(range(1 << len(pairs)), repeat=p):
        edges = {t: {e for i, e in enumerate(pairs) if m >> i & 1} for t, m in enumerate(masks)}
        yield TemporalGraph(p=p, nodes=range(n), edges_at=edges)


@pytest.mark.parametrize(
    "n, p, ds, sketch", [(5, 1, range(5), True), (4, 2, range(2), False)], ids=["5-1", "4-2"]
)
def test_all_windows_on_every_small_graph(n, p, ds, sketch):
    # At n = 5 and d = 0 the probe prefix (d + 2 = 2 ranks) is shorter than a
    # degree-3 or degree-4 neighbour set, so the prefix filter does reject.
    # At k = n every sketch is under-full, so the sketch route is lossless.
    # At delta = 1 the oracle's windows are its per-round verdicts, which
    # prop1_check must give for every pair with a common neighbour.
    lossless = SketchParams(k=n, epsilon=0.2, nu=0.1, hash_seed=1)
    for g in _labelled_graphs(n, p):
        linked = [
            (u, v, t)
            for t in range(p)
            for u, v in combinations(range(n), 2)
            if g.neighbours(u, t) & g.neighbours(v, t)
        ]
        for d in ds:
            params = ProblemParams(1, d)
            expected = all_pairs_windows(g, params)
            assert all_windows(g, params) == expected
            assert run(g, RunConfig(params=params)).windows == expected
            if sketch:
                assert run(g, RunConfig(params, "sketch", lossless)).windows == expected
            for u, v, t in linked:
                assert prop1_check(g, u, v, t, d) == (TwinWindow(v, t) in expected[u])


def _count_decisions(monkeypatch) -> list:
    calls = []
    decide = oracle.is_d_twin
    monkeypatch.setattr(oracle, "is_d_twin", lambda *a: calls.append(a) or decide(*a))
    return calls


def _ring(n: int) -> TemporalGraph:
    return TemporalGraph(p=1, nodes=range(n), edges_at={0: {(v, (v + 1) % n) for v in range(n)}})


def _matching(n: int) -> TemporalGraph:
    return TemporalGraph(p=1, nodes=range(n), edges_at={0: {(v, v + 1) for v in range(0, n, 2)}})


def _star(leaves: int) -> TemporalGraph:
    edges = {(0, v) for v in range(1, leaves + 1)}
    return TemporalGraph(p=1, nodes=range(leaves + 1), edges_at={0: edges})


def _complete_bipartite(a: int, b: int) -> TemporalGraph:
    """K_{a,b} at round 0 of 3; rounds 1 and 2 are empty."""
    edges = {(u, v) for u in range(a) for v in range(a, a + b)}
    return TemporalGraph(p=3, nodes=range(a + b), edges_at={0: edges})


# DENSE holds pairs in the degree band that share no neighbour; in SPARSE most
# pairs share none.
DENSE = generate_random(30, 3, 0.4, seed=3)
SPARSE = generate_random(25, 4, 0.1, seed=3)


# At d = 0: every same-side pair of K_{8,12} and every leaf pair of a star is a
# twin; in a matching and a ring every degree is equal, so every pair is in
# the degree band.
@pytest.mark.parametrize(
    "g",
    [_complete_bipartite(8, 12), DENSE, _matching(20), _ring(20), _star(3), _star(4)],
    ids=["k8x12", "dense", "matching", "ring", "star3", "star4"],
)
def test_all_windows_equals_the_all_pairs_scan(g):
    params = ProblemParams(1, 0)
    assert all_windows(g, params) == all_pairs_windows(g, params)


def test_all_windows_decides_only_pairs_with_common_neighbour(monkeypatch):
    # ... and a degree gap of at most d, and of those only the pairs the
    # prefix filter passes: every twin, and far fewer than the band holds.
    calls = _count_decisions(monkeypatch)
    for g, counts in ((SPARSE, (29, 100, 16)), (DENSE, (83, 329, 0))):
        calls.clear()
        all_windows(g, ProblemParams(2, 1))
        decided = {(t, u, v) for _, u, v, t, _ in calls}
        wedges = [(t, u, v) for t in range(g.p) for u, v in _pairs_with_common_neighbour(g, t)]
        near = {(t, u, v) for t, u, v in wedges if abs(g.degree(u, t) - g.degree(v, t)) <= 1}
        twins = {(t, u, v) for t, u, v in near if is_d_twin(g, u, v, t, 1)}
        assert len(calls) == len(decided)  # each pair once
        assert twins <= decided < near
        assert (len(decided), len(near), len(twins)) == counts
        assert len(near) < len(wedges) < g.p * g.n * (g.n - 1) // 2


def test_all_windows_at_huge_d_decides_every_pair_with_common_neighbour(monkeypatch):
    # The degree band, the prefixes and the positional bound are a few
    # comparisons each, never a range over d.
    calls = _count_decisions(monkeypatch)
    params = ProblemParams(2, 10**18)
    for g, count in ((SPARSE, 184), (DENSE, 1295)):
        calls.clear()
        assert all_windows(g, params) == all_pairs_windows(g, params)
        wedges = [(t, u, v) for t in range(g.p) for u, v in _pairs_with_common_neighbour(g, t)]
        assert sorted((t, u, v) for _, u, v, t, _ in calls) == wedges
        assert len(wedges) == count


def test_all_windows_reports_a_twin_whose_degree_gap_is_d():
    # Outside sets {2} and {2, 3, 4}: degrees 1 and 3, difference 2.
    g = TemporalGraph(p=1, nodes=range(5), edges_at={0: {(0, 2), (1, 2), (1, 3), (1, 4)}})
    assert TwinWindow(1, 0) in all_windows(g, ProblemParams(1, 2))[0]
    assert TwinWindow(1, 0) not in all_windows(g, ProblemParams(1, 1))[0]


def test_all_windows_one_wedge_in_a_large_graph(monkeypatch):
    calls = _count_decisions(monkeypatch)
    g = TemporalGraph(p=50, nodes=range(20000), edges_at={0: {(0, 1), (1, 2)}})
    result = all_windows(g, ProblemParams(1, 0))
    assert len(calls) == 1
    assert result[0] == {TwinWindow(2, 0)}
    assert result[2] == {TwinWindow(0, 0)}
    assert sum(map(len, result.values())) == 2
